"""Dataset construction, CSV ingestion, and empirical probability queries."""

import io
import re
import string
import tracemalloc
from fractions import Fraction
from itertools import product
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from greedymrf import dataset
from greedymrf.dataset import (
    Alphabet,
    Assignment,
    CapacityError,
    DatasetError,
    DiscreteDataset,
    EmptyDatasetError,
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


def csv_text(tokens):
    """A file of a header and the rows of ``tokens``."""
    return "\n".join([",".join(f"v{k}" for k in range(tokens.shape[1]))]
                     + [",".join(row) for row in tokens]) + "\n"


def ingest_peak(f, tokens, participation):
    """The dataset a file of ``tokens`` loads to, and the traced peak of loading it."""
    f.write_text(csv_text(tokens))
    tracemalloc.start()
    try:
        ds = (load_csv(f) if participation is None
              else load_csv(f, missing="?", participation=participation))
        return ds, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestLoadCsv:
    def test_missing_token_joins_an_inferred_alphabet(self, tmp_path):
        f = tmp_path / "one.csv"
        f.write_text("a,b\nYea,Yea\nYea,Yea\n")
        ds = load_csv(f, missing="Absent")
        assert ds.alphabet.symbols == ("Absent", "Yea")
        assert ds.values.tolist() == [[1, 1], [1, 1]]
        forced = load_csv(f, alphabet=("Yea", "Nay"), missing="Absent")
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

    def test_blank_lines_crlf_and_a_missing_last_newline(self, tmp_path):
        f = tmp_path / "t.csv"
        f.write_bytes(b"\n\nc0,c1\r\na,b\r\n\r\nb,a\n\nb")
        with pytest.raises(ParseError, match="body row 3 has 1 fields"):
            load_csv(f)
        f.write_bytes(b"\n\nc0,c1\r\na,b\r\n\r\nb,a")
        assert load_csv(f).values.tolist() == [[0, 1], [1, 0]]

    @pytest.mark.parametrize("symbols, participation, late", [
        (("Yea", "Nay", "Absent"), None, False), (("1", "-1"), None, False),
        (("democrat", "republican", "abstained"), None, False),
        (("Yea", "Nay", "Absent"), 0.9, False), (("1", "-1"), 0.9, False),
        (("democrat", "republican", "abstained"), 0.9, False),
        (("Y", "N", "A"), None, True), (("Y", "N", "A"), 0.9, True),
    ], ids=["votes", "grid", "party", "votes-kept", "grid-kept", "party-kept", "late",
            "late-kept"])
    def test_ingest_peak_is_compact_ids_and_a_bounded_block(self, tmp_path, symbols,
                                                            participation, late):
        # The first row holds p more short tokens, so from the first block
        # on the file has more than 16 raw tokens and its ids are held a byte
        # each, unpacked. So the peak is a byte per cell (the ids) plus a
        # byte per kept cell (the dataset's column-major values, which take
        # the looked-up ids straight, each block of ids let go once written)
        # plus a few blocks' arrays, never the file's text or int64 ids.
        # Short tokens put the most tokens, and so the largest arrays, in a
        # block. Holding a C-order lookup and its copy as well read three
        # bytes per cell. Tokens longer than a key are sorted by length in
        # each block, within the same bound. With a participation rule, half
        # the columns miss half their cells and are dropped before any is
        # relabelled. In the late cases a block in the last 4000 rows starts
        # the rows of 36 new 1-byte tokens, so every key of that block misses
        # the key table while nearly every id is held.
        rows, p = 50000, 20
        f = tmp_path / "t.csv"
        rng = np.random.default_rng(0)
        tokens = rng.choice(symbols, size=(rows, p)).astype(object)
        kept = p
        if participation is not None:
            tokens[: rows // 2, 1::2] = "?"
            kept = p // 2
        tokens[0] = [f"x{k}" for k in range(p)]
        if late:
            def starts_and_block_ends():
                text = csv_text(tokens).encode()
                starts = np.cumsum([text.index(b"\n") + 1] + [len(",".join(r)) + 1 for r in tokens])
                return starts, np.cumsum([len(b) for b in dataset._blocks(io.BytesIO(text))])
            starts, ends = starts_and_block_ends()
            r = int(np.searchsorted(starts, ends[np.searchsorted(ends, starts[rows - 4000])]))
            # Replacing 1-byte tokens by 1-byte tokens keeps every block's bounds.
            tokens[r:] = rng.choice(tuple(string.digits + string.ascii_lowercase), size=(rows - r, p))
            starts, ends = starts_and_block_ends()
            assert starts[r] in ends
        ds, peak = ingest_peak(f, tokens, participation)
        assert ds.p == kept
        assert peak <= rows * p + rows * kept + 16 * dataset._BLOCK_BYTES

    @pytest.mark.parametrize("symbols, late, participation, bits", [
        (("1", "-1"), (), None, 1),
        (("Yea", "Nay", "Absent"), (), None, 2), (("Yea", "Nay", "Absent"), (), 0.9, 2),
        (tuple("abcdefghij"), (), None, 4), (tuple("abcdefghij"), (), 0.9, 4),
        (("1", "-1"), ("a", "b"), None, 2), (("1", "-1"), tuple("abcdefghijkl"), 0.9, 4),
    ], ids=["1", "2", "2-kept", "4", "4-kept", "1-late-2", "1-late-4-kept"])
    def test_ingest_peak_is_packed_ids_and_a_bounded_block(self, tmp_path, symbols, late,
                                                           participation, bits):
        # While a file has at most 2, 4 or 16 distinct raw tokens its blocks'
        # ids are held at 1, 2 or 4 bits a cell, so the peak is bits/8 byte a
        # cell plus a byte per kept cell plus a few blocks (a missing token is
        # one more raw token, so a participation case needs 2 bits). In the late cases
        # new 1-2 byte tokens, all missing the key table, come after most ids
        # are held; earlier blocks keep their narrower packing.
        rows, p = 50000, 20
        f = tmp_path / "t.csv"
        rng = np.random.default_rng(1)
        tokens = rng.choice(symbols + ("?",) * (participation is not None), size=(rows, p))
        if late:
            tokens[-3000:] = rng.choice(late, size=(3000, p))
        kept = p
        if participation is not None:
            tokens[: rows // 2, 1::2] = "?"
            tokens[rows // 2 :, 1::2] = rng.choice(symbols, size=(rows - rows // 2, p // 2))
            tokens[:, ::2] = np.where(tokens[:, ::2] == "?", symbols[0], tokens[:, ::2])
            kept = p // 2
        ds, peak = ingest_peak(f, tokens, participation)
        assert ds.p == kept
        assert peak <= rows * p * bits // 8 + rows * kept + 16 * dataset._BLOCK_BYTES

    @pytest.mark.parametrize("two", [0.0, 0.5, 1.0], ids=["1-byte", "1-2-byte", "2-byte"])
    def test_block_temporaries_are_bounded_when_every_key_misses(self, two):
        # A file's first block misses the key table with every key. A block
        # of 1-2 byte tokens holds the most tokens; 2-byte ones bring
        # thousands of new ids, whose tokens join the ids too. Neither the
        # tokeniser's positions and keys nor the sorts of the misses take the
        # block past 16 times its bytes.
        chars = np.array(list(string.digits + string.ascii_letters), dtype=object)
        rng = np.random.default_rng(2)
        tokens = rng.choice(chars, size=(4000, 20))
        tokens = np.where(rng.random(tokens.shape) < two, tokens + rng.choice(chars, tokens.shape),
                          tokens)
        text = "".join(",".join(row) + "\n" for row in tokens).encode()
        block = text[: text.rindex(b"\n", 0, dataset._BLOCK_BYTES) + 1]
        ids, table = {}, np.full((2, 1 << dataset._SLOT_BITS), dataset._NO_KEY)
        tracemalloc.start()
        try:
            raw = dataset._block_ids(block, 20, ids, table, {}, "t.csv", 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert raw.shape == (block.count(b"\n"), 20)
        assert len(ids) > (3000 if two == 1.0 else 60)
        assert peak <= 16 * dataset._BLOCK_BYTES

    def test_the_constructor_copies_even_a_column_major_array(self, tmp_path):
        # Only relabelling hands over the array it built; a caller's array
        # is copied, so the dataset stays immutable.
        values = np.asfortranarray(np.random.default_rng(1).integers(0, 2, size=(50, 3)),
                                   dtype=np.uint8)
        ds = make_ds(values)
        assert not np.shares_memory(ds.values, values)
        values[0, 0] ^= 1
        assert ds.values[0, 0] != values[0, 0]
        f = tmp_path / "t.csv"
        write_csv(ds, f)
        loaded = load_csv(f)
        remapped = remap_values(loaded, (("a", "b"), ("b", "a")))
        assert loaded == ds and np.array_equal(remapped.values, 1 - ds.values)
        for got in (ds, loaded, remapped):
            assert got.values.flags.f_contiguous and not got.values.flags.writeable

    def test_one_leading_byte_order_mark_is_skipped(self, tmp_path):
        f = tmp_path / "t.csv"
        f.write_bytes(b"\xef\xbb\xbfa,b\nx,y\ny,x\n")
        ds = load_csv(f)
        assert ds.names == ("a", "b")
        assert ds.values.tolist() == [[0, 1], [1, 0]]
        f.write_bytes(b"\xef\xbb\xbf\xef\xbb\xbfa,b\nx,y\n")
        assert load_csv(f).names == ("\ufeffa", "b")
        f.write_bytes(b"\xef\xbb\xbf")
        with pytest.raises(ParseError, match="empty file"):
            load_csv(f)

    @pytest.mark.parametrize("text, where", [
        (b"a,b\nx,y\ny,\xff\n", "body row 2 is not valid UTF-8"),
        (b"a,\xe2\x82\nx,y\n", "header is not valid UTF-8"),
        # A row that is both ragged and undecodable is reported undecodable.
        (b"a,b\nx,y\nx\xc3\n", "body row 2 is not valid UTF-8"),
        (b"a,b\nx,y\nx\nx,\xed\xa0\x80\n", "body row 2 has 1 fields"),
        # Tokens too long for a key are checked in the same order.
        (b"a,b\nlong token,y\ny,\xfflong token\n", "body row 2 is not valid UTF-8"),
    ])
    def test_invalid_utf8_names_the_row(self, tmp_path, text, where):
        f = tmp_path / "t.csv"
        f.write_bytes(text)
        with pytest.raises(ParseError, match=where) as err:
            load_csv(f)
        assert str(f) in str(err.value)

    def test_empty_body(self, tmp_path):
        f = tmp_path / "t.csv"
        f.write_text("c0,c1\n")
        with pytest.raises(EmptyDatasetError):
            load_csv(f)

    def test_token_outside_explicit_alphabet(self, tmp_path):
        f = tmp_path / "t.csv"
        f.write_text("c0\na\nz\n")
        with pytest.raises(UnknownTokenError):
            load_csv(f, alphabet=("a", "b"))
        # The error names the first cell's unknown token.
        f.write_text("c0\na\nzz\ny\n")
        with pytest.raises(UnknownTokenError, match="'zz'"):
            load_csv(f, alphabet=("a", "b"))

    def test_voting_map_gives_binary_alphabet(self, tmp_path):
        f = tmp_path / "votes.csv"
        f.write_text("s0,s1\nYea,Nay\nAbsent,Yea\nYea,Yea\n")
        ds = load_csv(f, (("Yea", "+1"), ("Nay", "-1"), ("Absent", "-1")))
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
        assert load_csv(f, alphabet=ds.alphabet.symbols) == ds

    def test_300_symbol_alphabet_round_trips_and_counts(self, tmp_path):
        symbols = tuple(f"t{k:03d}" for k in range(300))
        rows = np.random.default_rng(3).integers(0, 300, size=(500, 3))
        ds = make_ds(rows, symbols=symbols)
        assert ds.values.dtype == np.uint16
        f = tmp_path / "wide.csv"
        write_csv(ds, f)
        back = load_csv(f, alphabet=symbols)
        assert back == ds
        expect = np.zeros((300, 300))
        for row in rows:
            expect[row[0], row[2]] += 1
        assert np.array_equal(EmpiricalSource(back).dense_marginal((0, 2)).reshape(300, 300), expect / 500)

    def test_packed_blocks_relabel_into_a_wide_alphabet(self, tmp_path):
        # The first blocks hold 2 raw tokens, packed at 1 bit, and later
        # ones about 300 more, so the values need uint16 and each packed
        # byte is looked up in a uint16 table of its ids' alphabet indices.
        rng = np.random.default_rng(4)
        tokens = rng.choice(["a", "b"], size=(600, 3)).astype(object)
        tokens[200:] = rng.choice([f"t{k:03d}" for k in range(300)], size=(400, 3))
        f = tmp_path / "wide.csv"
        f.write_text(csv_text(tokens))
        with mock.patch.object(dataset, "_BLOCK_BYTES", 256), \
                mock.patch.object(dataset, "_pack", wraps=dataset._pack) as pack:
            ds = load_csv(f, (("a", "t299"),))
        assert pack.called and ds.values.dtype == np.uint16
        want = np.where(tokens == "a", "t299", tokens)
        assert np.array(ds.alphabet.symbols, dtype=object)[ds.values].tolist() == want.tolist()

    @pytest.mark.parametrize("participation", [1.5, -0.1, float("nan")])
    def test_bad_participation_is_rejected_before_reading(self, tmp_path, participation):
        f = tmp_path / "v.csv"
        f.write_text("a,b\nYea,Absent\nNay,Yea\n")
        with mock.patch.object(dataset, "_block_ids", wraps=dataset._block_ids) as spy, \
                pytest.raises(DatasetError, match="outside"):
            load_csv(f, missing="Absent", participation=participation)
        assert spy.call_count == 0


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


@pytest.mark.parametrize("relabel", [
    lambda ds: remap_values(ds, (("a", "c"),)),
    lambda ds: filter_participation(ds, "?", 0.5),
], ids=["remap_values", "filter_participation"])
def test_relabelling_holds_one_values_array(relabel):
    # Both write the new values straight into one column-major array: no
    # row blocks, C-order copy or intp ids beside it.
    values = np.random.default_rng(6).integers(0, 3, size=(200_000, 10), dtype=np.uint8)
    values[:150_000, ::3] = 2  # columns 0, 3, 6 and 9 are 75% missing
    ds = make_ds(values, symbols=("a", "b", "?"))
    tracemalloc.start()
    try:
        out = relabel(ds)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out.values.flags.f_contiguous and out.n == ds.n
    assert peak <= 1.1 * out.values.nbytes + 64 * 1024


def per_cell_map(token, rules):
    for src, dst in rules:
        if token == src:
            return dst
    return token


def per_cell_load_csv(path, value_map=(), alphabet=None):
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
        rows.append([per_cell_map(t, value_map) for t in toks])
    if not rows:
        raise EmptyDatasetError(f"{path}: no data rows")
    return per_cell_index(names, rows, alphabet)


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


def line_loop_load_csv(path, value_map=(), alphabet=None):
    """Reference tokeniser: read the file as text one line at a time, then
    strip, map and index every cell on its own."""
    rows = []
    with open(path, encoding="utf-8") as fh:
        lines = filter(None, (ln.rstrip("\n") for ln in fh))
        header = next(lines, None)
        if header is None:
            raise ParseError(f"{path}: empty file")
        names = [t.strip() for t in header.split(",")]
        for rownum, line in enumerate(lines, start=1):
            toks = line.split(",")
            if len(toks) != len(names):
                raise ParseError(f"{path}: body row {rownum} has {len(toks)} fields, "
                                 f"expected {len(names)}")
            rows.append([per_cell_map(t.strip(), value_map) for t in toks])
    if not rows:
        raise EmptyDatasetError(f"{path}: no data rows")
    return per_cell_index(names, rows, alphabet)


BREAKS = (b"\n", b"\r", b"\r\n")
# 0-12 bytes on both sides of the 7-byte key, ASCII and not; several strip
# to one token ("\xa0" and " " are whitespace to str.strip). The long ones
# take 255 and 256 bytes, past a length byte, and more than a block.
RAW_TOKENS = ("", "a", " a", "a\t", "b", "abcdefg", " abcdefg", "abcdefgh", "abcdefg\xa0",
              "abcdefghijkl", "é", " é ", "日本", "日本語", " 日本 ", "😀", "x😀yz😀", "\x00",
              "b" * 255, "é" * 128, "日" * (dataset._BLOCK_BYTES // 3 + 1))


@st.composite
def raw_csv_files(draw):
    """Header c0..c{p-1} and rows of RAW_TOKENS, with mixed line ends,
    blank lines anywhere, maybe no final line break, and maybe one row of
    another width."""
    p = draw(st.integers(1, 4))
    rows = draw(st.lists(st.lists(st.sampled_from(RAW_TOKENS), min_size=p, max_size=p),
                         max_size=8))
    if rows and draw(st.booleans()):
        rows[draw(st.integers(0, len(rows) - 1))].append(draw(st.sampled_from(RAW_TOKENS)))
    if rows and draw(st.booleans()):
        rows[draw(st.integers(0, len(rows) - 1))][1:] = []
    breaks = st.lists(st.sampled_from(BREAKS), max_size=2).map(b"".join)
    text = draw(breaks)
    for line in [",".join(f"c{k}" for k in range(p))] + [",".join(row) for row in rows]:
        text += line.encode() + draw(st.sampled_from(BREAKS)) + draw(breaks)
    return text.rstrip(b"\r\n") if draw(st.booleans()) else text


class TestTokeniserMatchesLineLoop:
    """Block tokenising must give the line loop's dataset, or its error,
    wherever the blocks are cut."""

    @settings(max_examples=300, deadline=None)
    @given(text=raw_csv_files(), block=st.integers(1, 48),
           alphabet=st.none() | st.lists(st.sampled_from(["a", "b", "abcdefg", "日本"]),
                                         min_size=2, unique=True))
    def test_load_csv(self, tmp_path_factory, text, block, alphabet):
        f = tmp_path_factory.mktemp("tok") / "d.csv"
        f.write_bytes(text)
        alphabet = None if alphabet is None else tuple(alphabet)
        with mock.patch.object(dataset, "_BLOCK_BYTES", block):
            got = outcome(load_csv, f, (), alphabet)
        assert got == outcome(line_loop_load_csv, f, (), alphabet)

    @pytest.mark.parametrize("name", ["votes", "grid", "party"])
    def test_bench_shaped_files(self, tmp_path, name):
        rng = np.random.default_rng(4)
        symbols = ["1", "-1"] if name == "grid" else ["Yea", "Nay", "Absent"]
        table = rng.choice(symbols, size=(3000, 30)).astype(object)
        if name == "party":  # long tokens in every block, and new ones too
            table[:, 0] = rng.choice(["democrat", "republican"], size=3000)
            table[:, 1] = [f"customer_{k:06d}" for k in rng.permutation(3000)]
        f = tmp_path / "d.csv"
        f.write_text("\n".join([",".join(f"v{k}" for k in range(30))]
                               + [",".join(row) for row in table]) + "\n")
        assert f.stat().st_size > 3 * dataset._BLOCK_BYTES
        ds = load_csv(f)
        assert ds == line_loop_load_csv(f)
        assert ds.values.dtype == np.min_scalar_type(ds.alphabet.size - 1)


VOTES = ("Yea", " Yea", "Nay", "Absent", "not voting", "棄権")


@st.composite
def vote_files(draw):
    """Well-formed files of few tokens, long ones among them, in which a
    token of the file, taken as missing, often drops some columns only."""
    p = draw(st.integers(2, 4))
    rows = draw(st.lists(st.lists(st.sampled_from(VOTES), min_size=p, max_size=p),
                         min_size=2, max_size=8))
    return "".join(",".join(row) + "\n" for row in [[f"c{k}" for k in range(p)]] + rows).encode()


# The stripped tokens of both kinds of file, and one that is in neither.
STRIPPED = tuple(sorted({t.strip() for t in RAW_TOKENS + VOTES if len(t) < 300})) + ("Excused",)


class TestParticipationIngestMatchesFilterThenRemap:
    """One participation ingest must give the raw load, the column filter
    and the remap done one after another, or an error of the same class,
    whatever the blocks and however the key table's slots are shared."""

    @settings(max_examples=200, deadline=None)
    @given(text=raw_csv_files() | vote_files(), block=st.integers(1, 48), data=st.data(),
           threshold=st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0.0, 1.0),
           rules=st.lists(st.tuples(st.sampled_from(STRIPPED), st.sampled_from(STRIPPED)),
                          max_size=4),
           alphabet=st.none() | st.lists(st.sampled_from(STRIPPED), min_size=2, max_size=4,
                                         unique=True),
           # 1 puts every key of a length whose top bytes agree in one slot,
           # and 0 every key in slot 0.
           hash_=st.sampled_from([dataset._HASH, np.uint64(1), np.uint64(0)]))
    def test_load_csv(self, tmp_path_factory, text, block, data, threshold, rules, alphabet,
                      hash_):
        # The missing token is one of the file's cells, or in no file.
        cells = {t.strip() for t in text.decode().replace("\r", ",").replace("\n", ",").split(",")}
        missing = data.draw(st.sampled_from(sorted(cells - {"c0", "c1", "c2", "c3"}) + ["Excused"]))
        f = tmp_path_factory.mktemp("part") / "d.csv"
        f.write_bytes(text)
        rules = tuple(rules)
        alphabet = None if alphabet is None else tuple(alphabet)

        def classed(fn):
            try:
                return fn()
            except DatasetError as err:
                return type(err)

        with mock.patch.object(dataset, "_BLOCK_BYTES", block), \
                mock.patch.object(dataset, "_HASH", hash_):
            got = classed(lambda: load_csv(f, rules, alphabet, missing, threshold))
        want = classed(lambda: remap_values(filter_participation(
            load_csv(f, missing=missing), missing, threshold), rules, alphabet))
        assert got == want


def line_by_line_ingest(path, value_map=(), alphabet=None, missing=None, participation=None):
    """Reference ingest over the file's bytes a line at a time: the dataset
    of ``load_csv(path, value_map, alphabet, missing, participation)`` or its
    error, each cell stripped, mapped and indexed on its own."""
    if participation is not None and not 0.0 <= participation <= 1.0:
        raise DatasetError(f"threshold {participation} outside [0, 1]")
    lines = [ln for ln in re.split(rb"[\r\n]", Path(path).read_bytes()) if ln]
    if not lines:
        raise ParseError(f"{path}: empty file")
    try:
        names = [t.strip() for t in lines[0].decode("utf-8").split(",")]
    except UnicodeDecodeError:
        raise ParseError(f"{path}: header is not valid UTF-8") from None
    rows = []
    for rownum, line in enumerate(lines[1:], start=1):
        try:
            toks = [t.strip() for t in line.decode("utf-8").split(",")]
        except UnicodeDecodeError:
            raise ParseError(f"{path}: body row {rownum} is not valid UTF-8") from None
        if len(toks) != len(names):
            raise ParseError(f"{path}: body row {rownum} has {len(toks)} fields, "
                             f"expected {len(names)}")
        rows.append(toks)
    if not rows:
        raise EmptyDatasetError(f"{path}: no data rows")
    extra = [] if missing is None else [missing]
    if participation is not None:
        Alphabet(tuple(sorted({t for row in rows for t in row} | {missing})))
        if len(set(names)) < len(names):
            raise DatasetError("variable names must be unique")
        n = len(rows)
        kept = [c for c in range(len(names))
                if (n - sum(row[c] == missing for row in rows)) / n >= participation]
        if not kept:
            raise EmptyDatasetError("participation filter removed every column")
        names, rows, extra = [names[c] for c in kept], [[row[c] for c in kept] for row in rows], []
    rows = [[per_cell_map(t, value_map) for t in row] for row in rows]
    if alphabet is None:
        alphabet = sorted({t for row in rows for t in row} | set(extra))
    return per_cell_index(names, rows, alphabet)


# Raw tokens introduced in a shuffled order: some strip to one token, two
# are longer than a key, and one is in most files taken as missing.
GROWING = ("Yea", " Yea", "Nay", "Absent", "", "not voting", "棄権", "abstained-long") + tuple(
    f"t{k}" for k in range(300))


@st.composite
def growing_files(draw):
    """Files whose distinct raw tokens pass 2, 4, 16 or 256 partway through
    (the first half of the cells brings them in), with LF, CRLF and CR line
    ends, blank lines, and maybe one bad row: ragged or not valid UTF-8.
    Returns the bytes, the first raw token stripped, and every token stripped."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    p = int(rng.integers(1, 5))
    count = int(rng.choice([2, 3, 4, 5, 12, 16, 17, 40, 257]))
    rows = int(rng.integers(1, 31)) + count // p
    pool = np.array(GROWING, dtype=object)[rng.permutation(len(GROWING))[:count]]
    cells = rows * p
    known = np.minimum(count, 1 + np.arange(cells) * count // max(1, cells // 2))
    table = pool[(rng.random(cells) * known).astype(np.int64)].reshape(rows, p)
    # Some columns, the last always and the first never, are mostly the
    # first raw token, so a rule taking it as missing drops them only.
    sparse = [False] * (p > 1) + (rng.random(max(0, p - 2)) < 0.5).tolist() + [True]
    table[:, sparse] = np.where(rng.random((rows, sum(sparse))) < 0.6, pool[0], table[:, sparse])
    lines = [",".join(f"c{k}" for k in range(p)).encode()] + [",".join(r).encode() for r in table]
    bad = draw(st.sampled_from(["none"] * 8 + ["ragged", "utf8"]))
    at = draw(st.integers(1, rows))
    if bad == "ragged":
        lines[at] += b",x"
    elif bad == "utf8":
        lines[at] = b"\xff" + lines[at]
    text = b""
    for line in lines:
        text += line + draw(st.sampled_from([b"\n", b"\r\n", b"\r"]))
        if draw(st.integers(0, 9)) == 0:
            text += draw(st.sampled_from([b"\n", b"\r\n", b"\n\n"]))
    return text, pool[0].strip(), sorted({t.strip() for t in pool})


class TestPackedIngestMatchesLineByLine:
    """Blocks held at different widths as the raw tokens pass 2, 4, 16 and
    256 must give the line-by-line dataset, or its error, with or without a
    participation rule, value map and forced alphabet."""

    @settings(max_examples=150, deadline=None)
    @given(file=growing_files(), block=st.sampled_from([1, 16, 64, 1 << 10]), data=st.data())
    def test_load_csv(self, tmp_path_factory, file, block, data):
        text, first, stripped = file
        missing = participation = None
        if data.draw(st.integers(0, 2)):
            missing = data.draw(st.sampled_from([first] * 4 + ["Excused"]) | st.sampled_from(stripped))
            participation = data.draw(st.sampled_from([0.0, 0.5, 0.5, 0.75, 0.75, 1.0])
                                      | st.floats(0, 1))
        targets = stripped[:6] + ["+1", "-1"]
        rule = st.tuples(st.sampled_from(stripped), st.sampled_from(targets))
        rules = tuple(data.draw(st.lists(rule, max_size=4)))
        # A forced alphabet holds every mapped token, in any order, or all
        # but one, which fails unless only dropped columns hold it.
        alphabet = None
        if data.draw(st.booleans()):
            mapped = sorted({per_cell_map(t, rules) for t in stripped} | {"Excused"})
            alphabet = tuple(data.draw(st.permutations(mapped)))[data.draw(st.integers(0, 1)):]
        f = tmp_path_factory.mktemp("grow") / "d.csv"
        f.write_bytes(text)

        def result(fn):
            try:
                return fn(f, rules, alphabet, missing, participation)
            except ParseError as err:
                return ParseError, str(err)
            except DatasetError as err:
                return type(err)

        with mock.patch.object(dataset, "_BLOCK_BYTES", block):
            got = result(load_csv)
        assert got == result(line_by_line_ingest)

    @pytest.mark.parametrize("block", [1, 16, 64])
    @pytest.mark.parametrize("ends", [b"\n", b"\r\n\n"], ids=["LF", "CRLF-blank"])
    @pytest.mark.parametrize("value_map, alphabet", [
        ((), None), ((), tuple(sorted([f"a{k}" for k in range(6)] + [f"k{k}" for k in range(8, 16)]
                                      + ["zk"]))),
        ((("k9", "a0"), ("zk", "k8")), None),
    ], ids=["inferred", "forced", "mapped"])
    def test_dropped_columns_across_widths(self, tmp_path, block, ends, value_map, alphabet):
        # Column c2 is 60% missing ("?") in the packed blocks and in the
        # unpacked ones alike, so a threshold of 0.5 drops it only when both
        # are counted. The first rows bring raw ids 0-15, at 1, 2 and then 4
        # bits; ids 8-15 (k8-k15) occur only in kept columns of those packed
        # blocks, d0 only in c2. The first later row passes 16 tokens, so the
        # blocks from there on are unpacked; of their new tokens zk occurs
        # only in c0 and zd only in c2. The dataset's alphabet must hold
        # exactly the kept columns' tokens.
        early = [("a0", "a0"), ("a1", "a0"), ("a2", "a3"), ("a4", "a5"), ("k8", "k9"),
                 ("k10", "k11"), ("k12", "k13"), ("k14", "k15")]
        early += [(f"a{k % 6}", f"a{k * 5 % 6}") for k in range(32)]
        late = [("zk", "a1")] + [("zk" if k % 7 == 0 else f"a{k % 6}", f"a{k * 5 % 6}")
                                 for k in range(39)]
        lines = ["c0,c1,c2"] + [f"{x},{y},{'?' if r % 5 in (1, 2, 3) else 'zd' if r >= 40 else 'd0'}"
                                for r, (x, y) in enumerate(early + late)]
        f = tmp_path / "d.csv"
        f.write_bytes(b"".join(line.encode() + ends for line in lines))
        with mock.patch.object(dataset, "_BLOCK_BYTES", block):
            got = load_csv(f, value_map, alphabet, "?", 0.5)
        want = line_by_line_ingest(f, value_map, alphabet, "?", 0.5)
        assert got == want
        assert got.names == ("c0", "c1")
        assert "zk" in got.alphabet.symbols or value_map


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
        rules, alphabet = tuple(rules), None if alphabet is None else tuple(alphabet)
        assert outcome(load_csv, f, rules, alphabet) == outcome(per_cell_load_csv, f, rules, alphabet)

    def test_chained_and_duplicate_rules_apply_first_match_once(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("x,y\na,b\nb,c\n")
        rules = (("a", "b"), ("b", "c"), ("a", "c"))
        ds = load_csv(f, rules)
        assert ds == per_cell_load_csv(f, rules)
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


class TestJointCounts:
    @settings(max_examples=150, deadline=None)
    @given(ds=datasets(), data=st.data())
    def test_occupied_codes_equal_the_bincount(self, ds, data):
        # Any order and width: the sparse branch when q^k outnumbers the rows.
        variables = data.draw(st.lists(st.integers(0, ds.p - 1), max_size=ds.p, unique=True))
        q = ds.alphabet.size
        code = np.zeros(ds.n, dtype=np.int64)
        for v in variables:
            code = code * q + ds.values[:, v]
        dense = np.bincount(code, minlength=q ** len(variables))
        keys, counts = ds.joint_counts(variables)
        assert keys.dtype == counts.dtype == np.int64
        assert keys.tolist() == np.flatnonzero(dense).tolist()
        assert counts.tolist() == dense[dense > 0].tolist()

    @settings(max_examples=80, deadline=None)
    @given(q=st.integers(2, 4), p=st.integers(1, 6), seed=st.integers(0, 2**32 - 1),
           n=st.sampled_from([1, 65, 1000, dataset._PLANE_ROWS - 1, dataset._PLANE_ROWS,
                              dataset._PLANE_ROWS + 63, 3 * dataset._PLANE_ROWS]),
           data=st.data())
    def test_plane_marginals_equal_the_code_bincount(self, q, p, seed, n, data):
        # Datasets on both sides of the rows crossover, n mod 64 varying so
        # the last plane word has padding bits; a copied and a reversed
        # column leave some cells empty. Queries that pass _fits_planes on a
        # tall dataset are counted from the planes, every other by codes.
        rows = np.random.default_rng(seed).integers(0, q, size=(n, p))
        if p > 2:
            rows[:, 1], rows[:, 2] = rows[:, 0], q - 1 - rows[:, 0]
        ds = make_ds(rows, symbols=tuple(f"s{k}" for k in range(q)))
        variables = data.draw(st.lists(st.integers(0, p - 1), max_size=p, unique=True))
        code = np.zeros(n, dtype=np.int64)
        for v in variables:
            code = code * q + rows[:, v]
        dense = np.bincount(code, minlength=q ** len(variables))
        with mock.patch.object(dataset, "_cell_planes", wraps=dataset._cell_planes) as planes:
            keys, counts = ds.joint_counts(variables)
        assert planes.called == (bool(variables) and n >= dataset._PLANE_ROWS
                                 and dataset._fits_planes(q ** len(variables), q, n)
                                 and ds.bit_planes() is not None)
        assert keys.dtype == counts.dtype == np.int64
        assert keys.tolist() == np.flatnonzero(dense).tolist()
        assert counts.tolist() == dense[dense > 0].tolist()

    @pytest.mark.parametrize("q,p", [(2, 22), (3, 15)])
    def test_peak_is_proportional_to_rows_not_cells(self, q, p):
        # 2^22 and 3^15 cells, far more than the rows: a dense bincount
        # of them took 32 MiB and 110 MiB.
        rows = 5000
        ds = make_ds(np.random.default_rng(q).integers(0, q, size=(rows, p)),
                     symbols=tuple(f"s{k}" for k in range(q)))
        tracemalloc.start()
        try:
            _, counts = ds.joint_counts(range(p))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert int(counts.sum()) == rows
        assert peak <= 64 * rows


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
