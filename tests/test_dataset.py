"""Dataset construction, CSV ingestion, and empirical probability queries."""

from fractions import Fraction
from itertools import product
from pathlib import Path

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
from greedymrf.entropy import EmpiricalSource


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
    def test_missing_token_joins_an_inferred_alphabet(self, tmp_path):
        f = tmp_path / "one.csv"
        f.write_text("a,b\nYea,Yea\nYea,Yea\n")
        ds = load_csv(f, missing="Absent")
        assert ds.alphabet.symbols == ("Absent", "Yea")
        assert ds.values.tolist() == [[1, 1], [1, 1]]
        forced = load_csv(f, IngestOptions(alphabet=("Yea", "Nay")), missing="Absent")
        assert forced.alphabet.symbols == ("Yea", "Nay")
        for missing in (None, "Yea"):
            with pytest.raises(DatasetError):
                load_csv(f, missing=missing)

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
        assert np.array_equal(EmpiricalSource(back).dense_marginal((0, 2)).reshape(300, 300), expect / 500)


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

    def test_missing_symbol_that_never_occurs_keeps_every_column(self):
        ds = make_ds([[0, 1], [1, 1], [1, 0]], symbols=("Nay", "Yea"))
        out = filter_participation(ds, "Absent", 1.0)
        assert out == ds
        with pytest.raises(DatasetError):
            filter_participation(ds, "Absent", 1.5)

    def test_all_filtered_is_an_error(self):
        ds = make_ds([[2, 2]], symbols=("n", "y", "?"))
        with pytest.raises(EmptyDatasetError):
            filter_participation(ds, "?", 0.5)


def per_cell_map(token, rules):
    for src, dst in rules:
        if token == src:
            return dst
    return token


def per_cell_load_csv(path, options=IngestOptions()):
    """Reference ingestion: strip, map and index every cell on its own."""
    lines = [ln for ln in Path(path).read_text(encoding="utf-8").splitlines() if ln != ""]
    if not lines:
        raise ParseError(f"{path}: empty file")
    names = [t.strip() for t in lines[0].split(",")]
    rows = []
    for rownum, line in enumerate(lines[1:], start=1):
        toks = [t.strip() for t in line.split(",")]
        if len(toks) != len(names):
            raise ParseError(f"{path}: body row {rownum} has {len(toks)} fields, "
                             f"expected {len(names)}")
        rows.append([per_cell_map(t, options.value_map) for t in toks])
    if not rows:
        raise EmptyDatasetError(f"{path}: no data rows")
    return per_cell_index(names, rows, options.alphabet)


def per_cell_remap(ds, rules, alphabet=None):
    rows = [[per_cell_map(ds.alphabet.symbols[x], rules) for x in row] for row in ds.values]
    return per_cell_index(ds.names, rows, alphabet)


def per_cell_index(names, rows, alphabet):
    if alphabet is None:
        alphabet = sorted({t for row in rows for t in row})
    alph = Alphabet(tuple(alphabet))
    values = [[alph.index_of(t) for t in row] for row in rows]
    return DiscreteDataset(names, alph, np.array(values, dtype=np.int64))


def outcome(fn, *args):
    """The dataset ``fn`` returns, or the type and message of its error."""
    try:
        return fn(*args)
    except DatasetError as err:
        return type(err), str(err)


TOKENS = ("a", "b", "c", "ab", "", "+1", "-1")
padded_tokens = st.tuples(st.sampled_from(("", " ", "\t ")), st.sampled_from(TOKENS),
                          st.sampled_from(("", " ", " \t"))).map("".join)
rule_lists = st.lists(st.tuples(st.sampled_from(TOKENS), st.sampled_from(TOKENS)), max_size=5)
forced_alphabets = st.none() | st.lists(st.sampled_from(TOKENS), max_size=5, unique=True)
# The symbols of datasets() plus one that is in none of them.
SYMBOLS = ("s0", "s1", "s2", "s3", "t")


class TestRelabelMatchesPerCellReference:
    """Ingestion maps and indexes distinct tokens only; the results (or the
    raised errors) must match mapping and indexing every cell."""

    @settings(max_examples=200, deadline=None)
    @given(
        grid=st.integers(1, 4).flatmap(lambda p: st.lists(
            st.lists(padded_tokens, min_size=p, max_size=p), min_size=1, max_size=8)),
        rules=rule_lists,
        alphabet=forced_alphabets,
    )
    def test_load_csv(self, tmp_path_factory, grid, rules, alphabet):
        f = tmp_path_factory.mktemp("relabel") / "d.csv"
        header = ",".join(f"c{k}" for k in range(len(grid[0])))
        f.write_text("\n".join([header] + [",".join(row) for row in grid]) + "\n")
        opts = IngestOptions(value_map=tuple(rules),
                             alphabet=None if alphabet is None else tuple(alphabet))
        assert outcome(load_csv, f, opts) == outcome(per_cell_load_csv, f, opts)

    def test_chained_and_duplicate_rules_apply_first_match_once(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("x,y\na,b\nb,c\n")
        opts = IngestOptions(value_map=(("a", "b"), ("b", "c"), ("a", "c")))
        ds = load_csv(f, opts)
        assert ds == per_cell_load_csv(f, opts)
        assert ds.alphabet.symbols == ("b", "c")
        assert ds.values.tolist() == [[0, 1], [1, 1]]

    @settings(max_examples=200, deadline=None)
    @given(
        ds=datasets(),
        data=st.data(),
        rules=st.lists(st.tuples(st.sampled_from(SYMBOLS), st.sampled_from(SYMBOLS)), max_size=5),
        alphabet=st.none() | st.lists(st.sampled_from(SYMBOLS), max_size=5, unique=True),
    )
    def test_remap_values_on_filtered_columns(self, ds, data, rules, alphabet):
        # Dropped columns leave alphabet symbols that no kept column uses.
        kept = data.draw(st.lists(st.integers(0, ds.p - 1), min_size=1, unique=True))
        ds = DiscreteDataset([ds.names[c] for c in kept], ds.alphabet, ds.values[:, kept])
        rules = tuple(rules)
        alphabet = None if alphabet is None else tuple(alphabet)
        got = outcome(remap_values, ds, rules, alphabet)
        want = outcome(per_cell_remap, ds, rules, alphabet)
        if isinstance(want, tuple):
            # Same error; which unknown token it names may differ.
            assert isinstance(got, tuple) and got[0] is want[0]
        else:
            assert got == want


def test_tokens_are_indexed_once_per_distinct_token(tmp_path, monkeypatch):
    calls = []
    index_of = Alphabet.index_of

    def counted(self, token):
        calls.append(token)
        return index_of(self, token)

    monkeypatch.setattr(Alphabet, "index_of", counted)
    rng = np.random.default_rng(0)
    f = tmp_path / "votes.csv"
    f.write_text("s0,s1,s2\n" + "".join(
        ",".join(rng.choice(["Yea", "Nay", "Absent"], size=3)) + "\n" for _ in range(500)))
    raw = load_csv(f)
    assert len(calls) <= 3
    calls.clear()
    ds = remap_values(raw, (("Yea", "+1"), ("Nay", "-1"), ("Absent", "-1")))
    assert len(calls) <= 3
    assert ds == per_cell_remap(raw, (("Yea", "+1"), ("Nay", "-1"), ("Absent", "-1")))


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
    m = EmpiricalSource(ds).dense_marginal((0, 1))
    expect = []
    for v0, v1 in product(range(2), range(2)):
        expect.append(sum(1 for row in ds.values if row[0] == v0 and row[1] == v1) / 4)
    assert m.tolist() == expect
