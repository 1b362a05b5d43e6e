"""Dataset construction, CSV ingestion, and empirical probability queries."""

from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from greedymrf.dataset import (
    Alphabet,
    Assignment,
    CapacityError,
    DatasetError,
    DiscreteDataset,
    EmptyDatasetError,
    IngestOptions,
    ParseError,
    UnknownTokenError,
    empirical_prob,
    filter_participation,
    load_csv,
    remap_values,
    write_csv,
)


def make_ds(rows, symbols=("a", "b"), names=None):
    rows = np.asarray(rows)
    names = names or [f"c{k}" for k in range(rows.shape[1])]
    return DiscreteDataset(names, Alphabet(tuple(symbols)), rows)


@st.composite
def datasets(draw):
    n = draw(st.integers(1, 30))
    p = draw(st.integers(1, 5))
    q = draw(st.integers(2, 4))
    rows = draw(
        st.lists(
            st.lists(st.integers(0, q - 1), min_size=p, max_size=p),
            min_size=n,
            max_size=n,
        )
    )
    symbols = tuple(sorted(f"s{k}" for k in range(q)))
    return make_ds(rows, symbols=symbols)


class TestAlphabet:
    def test_round_trip(self):
        a = Alphabet(("x", "y", "z"))
        for k, s in enumerate(a.symbols):
            assert a.index_of(s) == k

    def test_duplicates_rejected(self):
        with pytest.raises(DatasetError):
            Alphabet(("x", "x"))

    def test_unknown_token(self):
        with pytest.raises(UnknownTokenError):
            Alphabet(("x", "y")).index_of("w")


class TestLoadCsv:
    def test_direct_readback(self, tmp_path):
        f = tmp_path / "t.csv"
        f.write_text("c0,c1,c2\na,b,a\nb,b,a\n")
        ds = load_csv(f)
        assert (ds.n, ds.p) == (2, 3)
        assert ds.alphabet.size == 2
        assert ds.values.tolist() == [[0, 1, 0], [1, 1, 0]]

    def test_ragged_row_names_the_row(self, tmp_path):
        f = tmp_path / "t.csv"
        f.write_text("c0,c1,c2\na,b,a\na,b\n")
        with pytest.raises(ParseError, match="row 2"):
            load_csv(f)

    def test_empty_body(self, tmp_path):
        f = tmp_path / "t.csv"
        f.write_text("c0,c1\n")
        with pytest.raises(EmptyDatasetError):
            load_csv(f)

    def test_token_outside_explicit_alphabet(self, tmp_path):
        f = tmp_path / "t.csv"
        f.write_text("c0\na\nz\n")
        with pytest.raises(UnknownTokenError):
            load_csv(f, IngestOptions(alphabet=("a", "b")))

    def test_voting_map_gives_binary_alphabet(self, tmp_path):
        f = tmp_path / "votes.csv"
        f.write_text("s0,s1\nYea,Nay\nAbsent,Yea\nYea,Yea\n")
        opts = IngestOptions(value_map=(("Yea", "+1"), ("Nay", "-1"), ("Absent", "-1")))
        ds = load_csv(f, opts)
        assert ds.alphabet.symbols == ("+1", "-1")
        assert ds.alphabet.size == 2
        # Yea -> +1 -> index 0 under the sorted inferred alphabet
        assert ds.values.tolist() == [[0, 1], [1, 0], [0, 0]]

    def test_round_trip(self, tmp_path):
        ds = make_ds([[0, 1, 1], [1, 0, 1], [0, 0, 0]])
        f = tmp_path / "rt.csv"
        write_csv(ds, f)
        assert load_csv(f) == ds

    @settings(max_examples=50, deadline=None)
    @given(ds=datasets())
    def test_round_trip_random(self, tmp_path_factory, ds):
        f = tmp_path_factory.mktemp("rt") / "d.csv"
        write_csv(ds, f)
        # reload infers the sorted alphabet; pass it explicitly to preserve order
        assert load_csv(f, IngestOptions(alphabet=ds.alphabet.symbols)) == ds

    def test_300_symbol_alphabet_round_trips_and_counts(self, tmp_path):
        symbols = tuple(f"t{k:03d}" for k in range(300))
        rows = np.random.default_rng(3).integers(0, 300, size=(500, 3))
        ds = make_ds(rows, symbols=symbols)
        assert ds.values.dtype == np.uint16
        f = tmp_path / "wide.csv"
        write_csv(ds, f)
        back = load_csv(f, IngestOptions(alphabet=symbols))
        assert back == ds
        expect = np.zeros((300, 300))
        for row in rows:
            expect[row[0], row[2]] += 1
        assert np.array_equal(back.dense_marginal((0, 2)).reshape(300, 300), expect / 500)


class TestRemap:
    def test_rename_reinfers_alphabet(self):
        ds = make_ds([[0], [1]], symbols=("a", "b"))
        out = remap_values(ds, (("a", "c"),))
        assert out.alphabet.symbols == ("b", "c")
        assert out.values.tolist() == [[1], [0]]

    def test_collapse_to_one_symbol_rejected(self):
        ds = make_ds([[0], [1]], symbols=("a", "b"))
        with pytest.raises(DatasetError):
            remap_values(ds, (("a", "b"),))

    def test_collapse_with_explicit_alphabet(self):
        ds = make_ds([[0, 1], [1, 2], [2, 0]], symbols=("a", "b", "m"))
        out = remap_values(ds, (("m", "a"),), alphabet=("a", "b"))
        assert out.alphabet.symbols == ("a", "b")
        assert out.values.tolist() == [[0, 1], [1, 0], [0, 0]]


class TestFilterParticipation:
    def fixture(self):
        # 10 rows, 4 columns with non-missing fractions 0.9, 0.7, 0.8, 0.5
        missing = [1, 3, 2, 5]
        rows = []
        for r in range(10):
            rows.append([2 if r < missing[c] else r % 2 for c in range(4)])
        return make_ds(rows, symbols=("n", "y", "?"))

    def test_zero_threshold_keeps_all(self):
        ds = self.fixture()
        assert filter_participation(ds, "?", 0.0).p == 4

    def test_full_threshold_drops_any_missing(self):
        ds = make_ds([[0, 0, 0], [0, 2, 0], [1, 1, 1]], symbols=("n", "y", "?"))
        out = filter_participation(ds, "?", 1.0)
        assert out.names == ("c0", "c2")
        assert out.n == 3

    def test_hand_counted_fractions(self):
        ds = self.fixture()
        out = filter_participation(ds, "?", 0.75)
        assert out.names == ("c0", "c2")

    def test_all_filtered_is_an_error(self):
        ds = make_ds([[2, 2]], symbols=("n", "y", "?"))
        with pytest.raises(EmptyDatasetError):
            filter_participation(ds, "?", 0.5)


class TestEmpiricalProb:
    def test_empty_assignment(self):
        ds = make_ds([[0], [1]])
        assert empirical_prob(ds, Assignment((), ())) == 1.0

    def test_single_variable(self):
        ds = make_ds([[0], [1]])
        assert empirical_prob(ds, Assignment((0,), (0,))) == 0.5

    def test_hand_count(self):
        ds = make_ds([[0, 0], [0, 1], [1, 1], [1, 1]])
        assert empirical_prob(ds, Assignment((0, 1), (1, 1))) == 0.5

    def test_bounds_error(self):
        ds = make_ds([[0], [1]])
        with pytest.raises(IndexError):
            empirical_prob(ds, Assignment((3,), (0,)))

    @settings(max_examples=60, deadline=None)
    @given(datasets(), st.data())
    def test_sums_to_one_exactly(self, ds, data):
        size = data.draw(st.integers(1, min(3, ds.p)))
        variables = tuple(sorted(data.draw(
            st.lists(st.integers(0, ds.p - 1), min_size=size, max_size=size, unique=True)
        )))
        keys, counts = ds.joint_counts(variables)
        assert int(counts.sum()) == ds.n
        total = sum(Fraction(int(c), ds.n) for c in counts)
        assert total == 1

    @settings(max_examples=60, deadline=None)
    @given(datasets(), st.data())
    def test_monotone_under_extension(self, ds, data):
        q = ds.alphabet.size
        a_var = data.draw(st.integers(0, ds.p - 1))
        a_val = data.draw(st.integers(0, q - 1))
        b_var = data.draw(st.integers(0, ds.p - 1))
        b_val = data.draw(st.integers(0, q - 1))
        if a_var == b_var:
            return
        small = Assignment((a_var,), (a_val,))
        pair = sorted(((a_var, a_val), (b_var, b_val)))
        big = Assignment((pair[0][0], pair[1][0]), (pair[0][1], pair[1][1]))
        assert empirical_prob(ds, big) <= empirical_prob(ds, small) + 1e-15


@pytest.mark.parametrize("q,widest", [(2, 62), (3, 39)])
def test_widest_query_fits_int64_cell_codes(q, widest):
    rows = np.random.default_rng(q).integers(0, q, size=(20, widest + 2))
    ds = make_ds(rows, symbols=tuple(f"s{k}" for k in range(q)))
    _, counts = ds.joint_counts(range(widest))
    assert int(counts.sum()) == ds.n
    with pytest.raises(CapacityError):
        ds.joint_counts(range(widest + 1))


def test_dense_marginal_matches_direct_count():
    ds = make_ds([[0, 1], [1, 1], [1, 0], [1, 1]])
    m = ds.dense_marginal((0, 1))
    expect = []
    for v0, v1 in product(range(2), range(2)):
        expect.append(sum(1 for row in ds.values if row[0] == v0 and row[1] == v1) / 4)
    assert m.tolist() == expect
