"""Discrete sample storage, CSV ingestion, and empirical probability queries.

A dataset is an immutable n x p matrix of alphabet indices plus the alphabet
itself. All probability estimation elsewhere in the package reduces to
counting rows of this matrix, so the counting backend lives here too: a count
of dataset rows is a ``bincount`` over the mixed-radix cell codes built by
:func:`cell_codes`, or, for a batch of greedy steps with few cells or a
query with few cells on a tall dataset, popcounts over the dataset's packed
bit planes. Only the queried columns are read, which keeps queries feasible
when p is large and only the query set is small.
"""

from __future__ import annotations

import math
from codecs import BOM_UTF8
from dataclasses import dataclass, field
from itertools import islice
from pathlib import Path
from typing import BinaryIO, Iterator, Sequence

import numpy as np

# Cell codes are int64; a query with more cells than this cannot be coded.
_MAX_CODE_CELLS = 1 << 62
# Dense marginals and coupling matrices are capped at this many cells.
_MAX_DENSE_CELLS = 1 << 24
# One extension-count bincount reads at most this many (variable, row)
# elements and fills at most this many cells, unless one variable needs more.
_CHUNK_ELEMENTS = 1 << 18
# A batch of greedy steps whose m = |alphabet|^(|C|+1) cells fit the rows and
# whose (|alphabet| - 1) * m is at most this is counted by popcounts over bit
# planes. Bincount against planes, one binary step, 2 vCPUs:
# n=5000, p=100 took 2.4 against 0.3 ms at m=2, 1.4 ms at m=32 and 2.7 ms
# at m=64; n=100000, p=20 took 10.5 against 1.4, 6 and 10.6 ms. The plane
# time grows with m and the bincount's does not, so they meet near m=64.
_PLANE_CELLS = 32
# A joint_counts query whose cells fit the planes is counted by popcounts on
# datasets of at least this many rows. Bincount against planes, planes
# built, 2 vCPUs: one binary variable took 8 against 20 us at n=500, 20
# against 20 us at n=4000 and 336 against 26 us at n=100000; five took 21
# against 35, 44 against 41 and 650 against 193 us. The plane time barely
# grows with the rows, so they meet near n=4000 (q=3-6: 4000-6000).
_PLANE_ROWS = 1 << 12
# The plane ANDs of a batch of steps go to one buffer of at most this many
# words (256 KiB), which stays in cache while it is counted: on grid10-sized
# planes, m=32, 2 vCPUs, 256-512 KiB blocks took 0.60-0.63 ms per step
# against 0.68 ms for 1 MiB and 0.81 ms for 128 KiB.
_PLANE_WORDS = 1 << 15
# CSV files are read this many bytes at a time and tokenised a block at a
# time, each block cut at the last line break read. A block's arrays peak at
# about 11 times its bytes for 1-2 byte tokens, or 14 when thousands of them
# are new (their ids included), so this bounds ingest's transient memory.
_BLOCK_BYTES = 1 << 16
# A block's keys that miss the key table are sorted this many tokens at a
# time: a sort with its inverse holds about 60 bytes a token.
_MISS_TOKENS = 1 << 11
# A token of at most this many bytes is keyed exactly by one uint64; a
# longer one by _LONG_KEY plus its place among its block's long tokens.
_KEY_BYTES = 7
_LONG_KEY = (_KEY_BYTES + 1) << 56
# Ingest's key table: 2^_SLOT_BITS slots, a key's slot the top bits of the
# key times _HASH (2^64 over the golden ratio); _NO_KEY marks an empty slot.
_SLOT_BITS, _HASH, _NO_KEY = 12, np.uint64(0x9E3779B97F4A7C15), np.uint64(2**64 - 1)
# Ingest holds a block's raw-token ids packed at 1, 2 or 4 bits an id, 8, 4
# or 2 to a byte, the first in the lowest bits. _BYTE_IDS[bits][b] is byte
# b's 8 // bits ids. Built from Python ints: the same table from numpy
# shifts raised the peak RSS of an import by about 0.2 MiB.
_BYTE_IDS = {bits: np.array([[b >> bits * j & (1 << bits) - 1 for j in range(8 // bits)]
                             for b in range(256)], dtype=np.uint8) for bits in (1, 2, 4)}


class DatasetError(ValueError):
    """Base class for ingestion and dataset construction failures."""


class ParseError(DatasetError):
    """A CSV row could not be parsed (wrong field count, bad header)."""


class UnknownTokenError(DatasetError):
    """A token fell outside an explicitly supplied alphabet."""


class EmptyDatasetError(DatasetError):
    """An operation produced or received a dataset with no rows or columns."""


class CapacityError(ValueError):
    """A query or enumeration exceeds the configured dense-table caps."""


@dataclass(frozen=True)
class Alphabet:
    """Ordered set of distinct tokens with a token <-> index bijection."""

    symbols: tuple[str, ...]
    _index: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if len(self.symbols) < 2:
            raise DatasetError("alphabet needs at least 2 symbols")
        if len(set(self.symbols)) != len(self.symbols):
            raise DatasetError("alphabet symbols must be distinct")
        object.__setattr__(self, "_index", {s: k for k, s in enumerate(self.symbols)})

    @property
    def size(self) -> int:
        return len(self.symbols)

    def index_of(self, token: str) -> int:
        try:
            return self._index[token]
        except KeyError:
            raise UnknownTokenError(f"token {token!r} not in alphabet {self.symbols}") from None


# Spin convention used by the Ising machinery: index 0 <-> -1, index 1 <-> +1.
# Tokens are chosen so that sorted-token alphabet inference reproduces them.
SPIN_ALPHABET = Alphabet(("-1", "1"))


def cell_codes(digits: np.ndarray, variables: Sequence[int], q: int) -> np.ndarray:
    """Mixed-radix cell index of every row over ``variables``.

    ``digits[v]`` is the column of alphabet indices of variable ``v``; the
    first of ``variables`` is the most significant digit, so sorted
    variables give the dense-marginal indexing. Raises
    :class:`CapacityError` before reading any row when q^len(variables)
    cells do not fit an int64 code.
    """
    if q ** len(variables) > _MAX_CODE_CELLS:
        raise CapacityError(f"query over {len(variables)} variables exceeds the cell-code width")
    code = np.zeros(digits.shape[1], dtype=np.int64)
    for v in variables:
        code *= q
        code += digits[v]
    return code


def _pack_words(bits: np.ndarray) -> np.ndarray:
    """Boolean rows of length n as rows of ceil(n / 64) uint64 words: bit r
    of a row lies in word r // 64, and the bits past n are 0."""
    rows = bits.shape[-1]
    out = np.zeros(bits.shape[:-1] + (-(-rows // 64) * 8,), dtype=np.uint8)
    out[..., : -(-rows // 8)] = np.packbits(bits, axis=-1, bitorder="little")
    return out.view(np.uint64)


def _fits_planes(cells: int, q: int, rows: int) -> bool:
    """Whether a batch of greedy steps of ``cells`` cells each, or a
    :meth:`DiscreteDataset.joint_counts` query of ``cells`` cells on a tall
    dataset, is counted by popcounts over bit planes, given the dataset has
    them."""
    return cells <= rows and (q - 1) * cells <= _PLANE_CELLS


def extension_counts(
    ds: DiscreteDataset, nodes: Sequence[int], given: Sequence[Sequence[int]],
    carried: dict | None = None, carry: dict | None = None,
) -> Iterator[tuple[tuple[int | slice, int | slice], np.ndarray, np.ndarray]]:
    """Row counts of (x_k, given[j], x_i) and of (x_k, given[j]) for every
    step j of a batch, i = ``nodes[j]``, and every variable k of ``ds``; the
    given sets all have one size and are sorted.

    Yields ``(at, joint, marginal)``: ``at`` indexes a block of a
    (len(nodes), p) array, and ``joint`` and ``marginal`` have that block's
    shape plus a last axis holding one (step, variable) pair's row counts,
    in no fixed layout (empty cells are zeros or left out) and whatever the
    rest of the batch. When the m = q^(|given|+1) cells fit the rows,
    (q-1)*m <= _PLANE_CELLS and the dataset has bit planes, the batch is
    counted by popcounts (:func:`_plane_counts`). Otherwise each step is
    counted alone: its cells are renumbered to the m <= rows occupied ones
    when q^(|given|+1) exceeds the rows, and each chunk of
    max(1, _CHUNK_ELEMENTS // max(rows, q*m)) variables is counted by one
    bincount, or, when q*m exceeds max(_CHUNK_ELEMENTS, rows), each
    variable over its occupied cells. Both ways yield the same arrays, and
    no array here is longer than max(_CHUNK_ELEMENTS, rows). Raises
    :class:`CapacityError` before any counting when the given cells do not
    fit an int64 code.

    ``carried`` and ``carry`` hold the plane tables of whole batches, keyed
    by (node, sorted given tuple). A plane step takes (pops) the entry of
    ``carried`` whose given set is its own less one variable, if there is
    one, and counts from it only the cells where that variable is nonzero.
    ``carry`` receives this batch's plane tables when the next size of
    step is counted by planes too. The yielded counts never depend on
    either.
    """
    digits, q, rows = ds.values.T, ds.alphabet.size, ds.n
    nodes = np.asarray(nodes, dtype=np.intp)
    given = np.asarray(given, dtype=np.intp).reshape(nodes.size, -1)
    cells = q ** given.shape[1] * q
    if _fits_planes(cells, q, rows) and (planes := ds.bit_planes()) is not None:
        yield from _plane_counts(planes, nodes, given, rows, carried, carry)
        return
    for j, (i, own) in enumerate(zip(nodes, given)):
        code = cell_codes(digits, own, q)
        if cells > rows:
            code = np.unique(code, return_inverse=True)[1] * q + digits[i]
            found, code = np.unique(code, return_inverse=True)
        else:
            code = code * q + digits[i]
            found = np.arange(cells)
        m = found.size
        if q * m > max(_CHUNK_ELEMENTS, rows):
            for k, column in enumerate(digits):
                keys, inverse = np.unique(np.multiply(column, m, dtype=np.int64) + code,
                                          return_inverse=True)
                joint = np.bincount(inverse)
                yield (j, k), joint, np.add.reduceat(joint, _runs(keys, found // q))
            continue
        chunk = max(1, _CHUNK_ELEMENTS // max(rows, q * m))
        starts = _runs(np.arange(q * m), found // q) if cells > rows else None
        for start in range(0, digits.shape[0], chunk):
            block = digits[start : start + chunk]
            size = block.shape[0]
            # idx = (k*q + x_k)*m + code, built in place: the same broadcast
            # expression over the small-int digits runs several times slower.
            idx = np.multiply(block, m, dtype=np.int64)
            idx += code
            idx += (np.arange(size) * (q * m))[:, None]
            joint = np.bincount(idx.ravel(), minlength=size * q * m).reshape(size, q * m)
            del idx  # so the next chunk's idx is not made while this one is held
            marginal = _sum_x_i(joint, q) if starts is None else np.add.reduceat(joint, starts, axis=1)
            yield (j, slice(start, start + size)), joint, marginal


def _runs(keys: np.ndarray, given_of: np.ndarray) -> np.ndarray:
    """Starts of the runs of equal (x_k, given cell) among sorted keys
    x_k*m + c, where joint cell c lies in given cell ``given_of[c]`` and
    ``given_of`` is sorted."""
    m = given_of.size
    group = keys // m * (given_of[-1] + 1) + given_of[keys % m]
    return np.flatnonzero(np.diff(group, prepend=-1))


def _plane_counts(
    planes: np.ndarray, nodes: np.ndarray, given: np.ndarray, rows: int,
    carried: dict | None, carry: dict | None,
) -> Iterator[tuple[tuple[slice, slice], np.ndarray, np.ndarray]]:
    """:func:`extension_counts` of a batch whose m = q^(|given|+1) cells
    fit the rows, from the (p, q-1, words) bit planes of its dataset.

    A cell's rows are the AND of its variables' value rows: plane v-1 for
    x = v >= 1, the rows in no plane for x = 0. Those with x_k = v >= 1 are
    the set bits of plane (k, v) AND the cell; those with x_k = 0 are the
    rest. A step with a carried table of last round, whose given set lacked
    one variable g, ANDs only the cells with x_g >= 1; a cell with x_g = 0
    has last round's counts of its cell less those of its x_g >= 1 cells.
    The ANDs of as many steps by all p variables as fit, or of one step by
    a run of them, go to one reused buffer: one (step, variable) pair's
    words or more, else at most _PLANE_WORDS, and at most a one-step chunk
    of variables by _PLANE_CELLS plane rows.
    """
    p, q, words = planes.shape[0], planes.shape[1] + 1, planes.shape[2]
    size = given.shape[1]
    m = q ** size * q
    small = np.min_scalar_type(rows)
    chunk = min(p, max(1, _CHUNK_ELEMENTS // rows))
    ands = np.empty(max((q - 1) * m * words, min(chunk * _PLANE_CELLS * words, _PLANE_WORDS)),
                    dtype=np.uint64)
    ones = np.empty(ands.size, dtype=np.uint8)
    # (position of the new variable among the cell variables, table) of each
    # step that takes a table of last round. A table holds the x_k >= 1
    # counts of every variable k, (p*(q-1), cells), over a row of the cells'
    # totals, in the smallest dtype that holds the rows.
    prior = [_take_carried(carried, i, own) for i, own in zip(nodes.tolist(), given.tolist())]
    # This batch's tables, one block for the batch, when the next round fits.
    kept = None
    if carry is not None and _fits_planes(q * m, q, rows):
        kept = np.empty((nodes.size, p * (q - 1) + 1, m), dtype=small)
    a = 0
    while a < nodes.size:
        old = prior[a] is not None
        counted = m // q * (q - 1) if old else m
        pair = (q - 1) * counted * words
        end = min(nodes.size, a + max(1, ands.size // pair // p))
        b = next((j for j in range(a + 1, end) if (prior[j] is not None) != old), end)
        width = min(p, ands.size // pair)
        variables = np.column_stack((given[a:b], nodes[a:b]))
        if old:
            at = np.array([prior[j][0] for j in range(a, b)])
            new = variables[np.arange(b - a), at]
            variables = variables[np.arange(size + 1) != at[:, None]].reshape(b - a, size)
        cells = _cell_planes(planes, variables, rows)
        if old:  # (steps, x_new - 1, last round's cell)
            cells = (planes[new][:, :, None] & cells[:, None]).reshape(b - a, -1, words)
        joint = np.empty((b - a, p, q, m), dtype=np.int64)
        nonzero = np.empty((b - a, p, q - 1, counted), dtype=small) if old else joint[:, :, 1:]
        for c in range(0, p, width):
            shape = (len(planes[c : c + width]), q - 1) + cells.shape
            block = np.bitwise_and(planes[c : c + width, :, None, None], cells,
                                   out=ands[: math.prod(shape)].reshape(shape))
            counts = np.bitwise_count(block, out=ones[: block.size].reshape(shape))
            # A row's popcounts sum to at most ``rows``: the narrowest sum is fastest.
            counts = counts.sum(axis=-1, dtype=small)
            nonzero[:, c : c + width] = counts.transpose(2, 0, 1, 3)
        totals = np.bitwise_count(cells).sum(axis=-1, dtype=np.int64)
        if old:
            # New cell c = (hi, x_new, lo) lies in last round's cell (hi, lo),
            # where lo runs over the ``below`` cells of the variables after
            # the new one; the counted cells are (x_new - 1, hi, lo).
            totals, counted_totals = np.empty((b - a, m), dtype=np.int64), totals
            for j, (pos, table) in enumerate(prior[a:b]):
                below = q ** (size - pos)
                got = nonzero[j].reshape(p, q - 1, q - 1, -1, below)
                out = joint[j, :, 1:].reshape(p, q - 1, -1, q, below)
                out[:, :, :, 1:] = got.transpose(0, 1, 3, 2, 4)
                out[:, :, :, 0] = (table[:-1].reshape(p, q - 1, -1, below)
                                   - got.sum(axis=2, dtype=small))
                got = counted_totals[j].reshape(q - 1, -1, below)
                out = totals[j].reshape(-1, q, below)
                out[:, 1:] = got.transpose(1, 0, 2)
                out[:, 0] = table[-1].reshape(-1, below) - got.sum(axis=0)
        joint[:, :, 0] = totals[:, None] - joint[:, :, 1:].sum(axis=2)
        if kept is not None:
            kept[a:b, :-1] = joint[:, :, 1:].reshape(b - a, -1, m)
            kept[a:b, -1] = totals
            carry.update(zip(zip(nodes[a:b].tolist(), map(tuple, given[a:b].tolist())), kept[a:b]))
        joint = joint.reshape(b - a, p, -1)
        yield (slice(a, b), slice(None)), joint, _sum_x_i(joint, q)
        a = b


def _cell_planes(planes: np.ndarray, variables: np.ndarray, rows: int) -> np.ndarray:
    """(steps, q^k, words) rows of the cells of each row of ``variables``, a
    (steps, k >= 1) array, from a dataset's (p, q-1, words) bit planes, in
    :func:`cell_codes` order: a cell's rows are the AND of its variables'
    value rows, plane v-1 for x = v >= 1 and the rows in no plane for x = 0."""
    words = planes.shape[2]
    # (steps, k, q, words): the value rows of each variable.
    values = planes[variables]
    zero = ~np.bitwise_or.reduce(values, axis=2, keepdims=True)
    if rows % 64:  # the bits past the last row are in no cell
        zero[..., -1] &= np.uint64((1 << rows % 64) - 1)
    values = np.concatenate((zero, values), axis=2)
    cells = values[:, 0]
    for digit in range(1, values.shape[1]):
        cells = (cells[:, :, None] & values[:, digit, None]).reshape(len(values), -1, words)
    return cells


def _sum_x_i(joint: np.ndarray, q: int) -> np.ndarray:
    """Dense (x_k, given) counts of dense (x_k, given, x_i) counts on the last axis, as
    the sum of the q strided x_i slices: many times faster than a sum over an axis of q."""
    by_x = joint.reshape(joint.shape[:-1] + (-1, q))
    return sum(by_x[..., x] for x in range(q))


def _take_carried(carried: dict | None, node: int, given: list[int]
                  ) -> tuple[int, np.ndarray] | None:
    """(position of g in ``given``, table) of the entry of ``carried`` for
    ``node`` over ``given`` less one variable g, removed from ``carried``;
    None when there is none."""
    for at in range(len(given) if carried else 0):
        table = carried.pop((node, tuple(given[:at] + given[at + 1 :])), None)
        if table is not None:
            return at, table
    return None


class DiscreteDataset:
    """Immutable table of n samples over p named discrete variables.

    ``values[r, c]`` is the alphabet index of variable ``c`` in sample ``r``,
    stored column-major in the smallest unsigned dtype that holds the
    alphabet, so ``values.T[c]`` is one contiguous column. Instances are safe
    for concurrent read access.
    """

    def __init__(self, names: Sequence[str], alphabet: Alphabet, values: np.ndarray,
                 *, _owned: bool = False):
        # ``_owned``: ``values`` is already a column-major array of the
        # alphabet's dtype that nothing else refers to, so it is kept uncopied.
        values = np.asarray(values)
        if values.ndim != 2:
            raise DatasetError("values must be a 2-d array")
        n, p = values.shape
        if n < 1:
            raise EmptyDatasetError("dataset needs at least one sample row")
        if p < 1:
            raise EmptyDatasetError("dataset needs at least one variable")
        if len(names) != p:
            raise DatasetError(f"{len(names)} names for {p} columns")
        if len(set(names)) != len(names):
            raise DatasetError("variable names must be unique")
        if values.min() < 0 or values.max() >= alphabet.size:
            raise DatasetError("value index outside alphabet range")
        self.names = tuple(str(x) for x in names)
        self.alphabet = alphabet
        self.values = np.array(values, dtype=np.min_scalar_type(alphabet.size - 1), order="F",
                               copy=None if _owned else True)
        self.values.setflags(write=False)
        self._planes: np.ndarray | None = None

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def p(self) -> int:
        return self.values.shape[1]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DiscreteDataset):
            return NotImplemented
        return (
            self.names == other.names
            and self.alphabet.symbols == other.alphabet.symbols
            and np.array_equal(self.values, other.values)
        )

    def __repr__(self) -> str:
        return f"DiscreteDataset(n={self.n}, p={self.p}, |X|={self.alphabet.size})"

    def bit_planes(self) -> np.ndarray | None:
        """Read-only one-hot bit planes of the values, shaped (p, q-1, words):
        row (k, v-1) packs, as :func:`_pack_words` does, the rows r with
        ``values[r, k] == v``. Built on the first call; None, and nothing
        built, when the planes would take more bytes than ``values``, which
        is always so above 9 symbols. Concurrent first calls may each build
        them; every caller gets equal planes."""
        q = self.alphabet.size
        if (q - 1) * self.p * -(-self.n // 64) * 8 > self.values.nbytes:
            return None
        if self._planes is None:
            symbols = np.arange(1, q)[:, None]
            planes = np.stack([_pack_words(column == symbols) for column in self.values.T])
            planes.setflags(write=False)
            self._planes = planes
        return self._planes

    def joint_counts(self, variables: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
        """Sparse joint counts over ``variables``: (cell codes, row counts).

        Codes follow :func:`cell_codes` in the given variable order. Counts
        are exact int64 integers; they sum to n. On a dataset of at least
        ``_PLANE_ROWS`` rows that has bit planes, a query of one or more
        variables whose cells pass :func:`_fits_planes` is counted by
        popcounts of its cells' rows (:func:`_cell_planes`); any other is
        a bincount of its cell codes, sorted when the cells outnumber the rows.
        """
        variables = tuple(variables)
        for v in variables:
            if not 0 <= v < self.p:
                raise IndexError(f"variable index {v} out of range for p={self.p}")
        q, cells = self.alphabet.size, self.alphabet.size ** len(variables)
        if (variables and self.n >= _PLANE_ROWS and _fits_planes(cells, q, self.n)
                and (planes := self.bit_planes()) is not None):
            cell_rows = _cell_planes(planes, np.array([variables]), self.n)[0]
            dense = np.bitwise_count(cell_rows).sum(axis=-1, dtype=np.int64)
        elif cells > self.n:
            return np.unique(cell_codes(self.values.T, variables, q), return_counts=True)
        else:
            dense = np.bincount(cell_codes(self.values.T, variables, q))
        keys = np.flatnonzero(dense)
        return keys, dense[keys]


@dataclass(frozen=True)
class Assignment:
    """A fixed value for each variable in a sorted, duplicate-free index set."""

    vars: tuple[int, ...]
    vals: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.vars) != len(self.vals):
            raise DatasetError("vars and vals must have equal length")
        if list(self.vars) != sorted(set(self.vars)):
            raise DatasetError("vars must be distinct and sorted ascending")


def empirical_prob(ds: DiscreteDataset, a: Assignment) -> float:
    """Fraction of sample rows matching the assignment; 1.0 for the empty one."""
    if not a.vars:
        return 1.0
    for v in a.vars:
        if not 0 <= v < ds.p:
            raise IndexError(f"variable index {v} out of range for p={ds.p}")
    for v, x in zip(a.vars, a.vals):
        if not 0 <= x < ds.alphabet.size:
            raise DatasetError(f"value {x} outside alphabet for variable {v}")
    match = np.all(ds.values[:, list(a.vars)] == np.asarray(a.vals), axis=1)
    return int(match.sum()) / ds.n


@dataclass(frozen=True)
class IngestOptions:
    """CSV ingestion controls.

    ``value_map`` holds ordered token->token rules applied to every cell
    before alphabet inference. ``alphabet`` forces an explicit alphabet;
    tokens outside it raise :class:`UnknownTokenError`.
    """

    value_map: tuple[tuple[str, str], ...] = ()
    alphabet: tuple[str, ...] | None = None


def _relabel(
    names: Sequence[str], parts: list[tuple[int, int, np.ndarray]], tokens: Sequence[str],
    rules: tuple[tuple[str, str], ...], alphabet: tuple[str, ...] | None,
    extra: tuple[str, ...] = (), kept: Sequence[int] | None = None,
    found: Sequence[int] | None = None,
) -> DiscreteDataset:
    """Dataset of the codes in ``parts`` as ``tokens`` after ``rules`` (the
    first rule whose source equals a token wins; its result is not mapped
    again), indexed in ``alphabet`` or else in the sorted mapped tokens of
    the codes ``found`` (default: every code) plus ``extra``. Only the
    ``found`` tokens are mapped and indexed, and only the columns ``kept``
    (default: all) are written. ``parts`` holds the code matrix's row blocks
    in order as (rows, bits, codes): the codes packed by :func:`_pack` at
    ``bits`` a code, or, at 0 bits, a (rows, p) array. Each block is let go
    once it is written.
    """
    p = len(names)
    kept = range(p) if kept is None else kept
    cols = slice(None) if len(kept) == p else kept
    first = dict(reversed(rules))
    found = range(len(tokens)) if found is None else found
    mapped = {k: first.get(tokens[k], tokens[k]) for k in found}
    alph = Alphabet(tuple(sorted({*mapped.values(), *extra})) if alphabet is None else alphabet)
    # 16 entries or more, so that every packed id has one.
    lut = np.zeros(max(len(tokens), 16), dtype=np.min_scalar_type(alph.size - 1))
    lut[list(mapped)] = [alph.index_of(token) for token in mapped.values()]
    # The looked-up ids go straight to column order, a block of rows at a
    # time, each let go once written, so no second full-size array is made.
    values = np.empty((sum(rows for rows, _, _ in parts), len(kept)), dtype=lut.dtype, order="F")
    at = 0
    parts.reverse()
    while parts:
        codes = _unpack(parts.pop(), p, lut, cols)
        values[at : at + len(codes)] = codes
        at += len(codes)
    return DiscreteDataset([names[c] for c in kept], alph, values, _owned=True)


def _row_blocks(values: np.ndarray) -> list[tuple[int, int, np.ndarray]]:
    """The unpacked row blocks of a dataset's values, as :func:`_relabel` takes them."""
    step = max(1, _BLOCK_BYTES // values.shape[1])
    return [(len(values[r : r + step]), 0, values[r : r + step]) for r in range(0, len(values), step)]


def _kept(absent: np.ndarray, rows: int, participation: float) -> list[int]:
    """The columns where at least a ``participation`` share of the ``rows``
    cells are not missing, given each column's ``absent`` (missing) cells."""
    if not 0.0 <= participation <= 1.0:
        raise DatasetError(f"threshold {participation} outside [0, 1]")
    kept = np.flatnonzero((rows - absent) / rows >= participation).tolist()
    if not kept:
        raise EmptyDatasetError("participation filter removed every column")
    return kept


def _pack(ids: np.ndarray, bits: int) -> np.ndarray:
    """``ids``, uint8 each below 2^bits, flattened and packed 8 // bits to a
    byte, the first in the lowest bits; the last byte is padded with 0s."""
    per = 8 // bits
    flat = ids.reshape(-1)
    whole = flat.size // per * per
    # Id j of a byte is byte j of a little-endian word of the ids, shifted
    # down to bit bits * j by (8 - bits) * j; the word's low byte is the
    # packed byte.
    words = flat[:whole].view(f"<u{per}")
    packed = words >> 8 - bits
    packed |= words
    for j in range(2, per):
        packed |= words >> (8 - bits) * j
    out = np.empty(-(-flat.size // per), dtype=np.uint8)
    out[: len(packed)] = packed
    if whole < flat.size:
        out[-1] = sum(x << bits * j for j, x in enumerate(flat[whole:].tolist()))
    return out


def _unpack(part: tuple[int, int, np.ndarray], p: int, lut: np.ndarray,
            cols: slice | Sequence[int]) -> np.ndarray:
    """``lut`` (16 entries or more) of the ids in columns ``cols`` of a part
    (rows, bits, codes) as :func:`_relabel` takes it: unpacked ids are
    looked up, and each packed byte in a table of its ids' entries."""
    rows, bits, codes = part
    if not bits:
        return lut[codes[:, cols]]
    # clip: an unchecked take; each byte copies its row of the table.
    ids = lut[_BYTE_IDS[bits]].take(codes, axis=0, mode="clip")
    return ids.reshape(-1)[: rows * p].reshape(rows, p)[:, cols]


def _blocks(fh: BinaryIO) -> Iterator[bytes]:
    """The bytes of ``fh`` after one leading UTF-8 byte-order mark, read
    ``_BLOCK_BYTES`` at a time, or as many as are carried past the last line
    break, and yielded in pieces that end at the last line break read; a
    file that ends without one gets a b"\\n"."""
    head = fh.read(len(BOM_UTF8))
    buf = bytearray(b"" if head == BOM_UTF8 else head)
    # Only the bytes just read are searched: a long line is read in linear time.
    while chunk := fh.read(max(_BLOCK_BYTES, start := len(buf))):
        buf += chunk
        cut = max(buf.rfind(b"\n", start), buf.rfind(b"\r", start)) + 1
        if cut:
            yield bytes(buf[:cut])
            del buf[:cut]
    if buf:
        yield bytes(buf + b"\n")


def _tokens(block: bytes, longs: dict) -> tuple[np.ndarray, np.ndarray, dict[int, bytes]]:
    """Keys of the tokens of ``block`` outside blank lines, in order,
    whether each ends its row, and its tokens longer than ``_KEY_BYTES`` by
    key. A short token's key holds its bytes, little-endian, under its
    length in the top byte; a long one's is ``_LONG_KEY`` plus its place in
    ``longs``, which a file's long tokens join. So equal keys are equal tokens.
    """
    data = np.frombuffer(block + bytes(_KEY_BYTES), dtype=np.uint8)
    text = data[: len(block)]
    brk = text == ord("\n")
    if b"\r" in block:
        brk |= text == ord("\r")
    sep = text == ord(",")
    sep |= brk
    # Positions and sizes take four bytes a token wherever the block allows.
    # The row ends are gathered by flatnonzero's own intp positions: numpy
    # casts any other index to intp a buffer at a time, three times slower.
    at = np.flatnonzero(sep)
    del sep
    eol = brk[at]
    del brk
    ends = at.astype(np.int32 if len(text) < 1 << 31 else np.int64)
    del at
    # sizes[t] = ends[t] - ends[t-1] - 1, where ends[-1] is -1.
    sizes = ends - 1
    sizes[1:] -= ends[:-1]
    sizes[:1] = ends[:1]
    longest = sizes.max()
    if not sizes.all():
        # An empty token that ends a line is the last field of its row, or,
        # when right after a line break (or the block's start), a blank line.
        kept = (sizes > 0) | ~eol | ~np.concatenate(([True], eol[:-1]))
        ends, sizes, eol = ends[kept], sizes[kept], eol[kept]
    starts = np.subtract(ends, sizes, out=ends)
    # words[i] is the 8 bytes from text[i] on, an unaligned view that the
    # _KEY_BYTES spare bytes of data keep inside the buffer. It is indexed,
    # never given to ``take``, which would first copy the whole view at 8
    # bytes a byte of text.
    words = np.ndarray((len(text),), dtype="<u8", buffer=data, strides=(1,))
    # A key keeps the first k = min(size, _KEY_BYTES) bytes of its 8: it is
    # shifted up by 64 - 8k bits and back down, in place, the uint8 shifts
    # cast a buffer at a time; its top byte then takes the length,
    # truncated where a long key replaces it.
    drop = (64 - 8 * np.minimum(sizes, _KEY_BYTES)).astype(np.uint8)
    keys = words[starts]
    keys <<= drop
    keys >>= drop
    del drop
    keys.view(np.uint8)[_KEY_BYTES :: 8] = sizes
    here: dict[int, bytes] = {}
    # Long keys are replaced by one sort per length of the text's fixed-width
    # records. The lengths go in a set: a plain np.unique imports numpy.ma.
    for size in set(sizes[sizes > _KEY_BYTES].tolist()) if longest > _KEY_BYTES else ():
        at = np.flatnonzero(sizes == size)
        records = np.ndarray((len(text) - size + 1,), dtype=f"V{size}", buffer=data, strides=(1,))
        found, inverse = np.unique(records[starts[at]], return_inverse=True)
        place = [longs.setdefault(r, len(longs)) + _LONG_KEY for r in found.tolist()]
        keys[at] = np.array(place, dtype=np.uint64)[inverse]
        here.update(zip(place, found.tolist()))
    return keys, eol, here


def _block_ids(block: bytes, p: int, ids: dict[str, int], table: np.ndarray,
               longs: dict[bytes, int], path: str | Path, row: int) -> np.ndarray:
    """Raw-token ids of the body rows in ``block``, one row each, for a file
    whose rows before the block number ``row``. Only keys that miss the
    (key, id) slots of ``table`` are decoded, sorted ``_MISS_TOKENS`` tokens
    at a time; new tokens join ``ids`` in the order they first occur, and
    the first key met in a free slot takes it. Raises :class:`ParseError` at
    the first row that does not decode or does not hold ``p`` fields.
    """
    keys, eol, here = _tokens(block, longs)
    if not keys.size:
        return np.zeros((0, p), dtype=np.uint8)
    # Both lookups gather a contiguous row of the table by intp slots; as
    # table[0, slot] the gather took three times as long.
    slot = _slots(keys)
    hit = table[0][slot] == keys
    # A block adds at most one id a token, so this type holds every id.
    raw = table[1].astype(np.min_scalar_type(len(ids) + keys.size - 1))[slot]
    del slot  # so the misses are sorted without it
    bad = None
    for start in range(0, keys.size, _MISS_TOKENS) if not hit.all() else ():
        miss = np.flatnonzero(~hit[start : start + _MISS_TOKENS]) + start
        if not miss.size:
            continue
        distinct, first, inverse = np.unique(keys[miss], return_index=True, return_inverse=True)
        tokens: list[str | None] = []
        for key in distinct.tolist():
            text = here[key] if key >> 56 > _KEY_BYTES else key.to_bytes(8, "little")[: key >> 56]
            try:
                tokens.append(text.decode("utf-8"))
            except UnicodeDecodeError:
                tokens.append(None)
        if None in tokens:
            at = miss[np.isin(inverse, [k for k, t in enumerate(tokens) if t is None])][0]
            bad = np.count_nonzero(eol[:at])
            break
        for k in np.argsort(first).tolist():  # the distinct keys in the order they first occur
            ids.setdefault(tokens[k], len(ids))
        found = np.array([ids[t] for t in tokens], dtype=raw.dtype)
        raw[miss] = found[inverse]
        slot, first = np.unique(_slots(distinct), return_index=True)
        free = table[0][slot] == _NO_KEY
        table[:, slot[free]] = distinct[first[free]], found[first[free]]
    # Every row holds p fields when every p-th token, and no other, ends one.
    if keys.size % p or np.count_nonzero(eol) * p != keys.size or not eol[p - 1 :: p].all():
        fields = np.diff(np.flatnonzero(eol), prepend=-1)
        ragged = np.flatnonzero(fields != p)[0]
        if bad is None or ragged < bad:
            raise ParseError(f"{path}: body row {row + ragged + 1} has {fields[ragged]} "
                             f"fields, expected {p}")
    if bad is not None:
        raise ParseError(f"{path}: body row {row + bad + 1} is not valid UTF-8")
    return raw.astype(np.min_scalar_type(len(ids) - 1), copy=False).reshape(-1, p)


def _slots(keys: np.ndarray) -> np.ndarray:
    # The hashes viewed as intp, so the table is gathered with no cast: a
    # uint16 copy, cast back a buffer at a time, made each gather 3x slower.
    hashed = keys * _HASH
    hashed >>= np.uint64(64 - _SLOT_BITS)
    return hashed.view(np.intp)


def load_csv(path: str | Path, options: IngestOptions = IngestOptions(),
             missing: str | None = None, participation: float | None = None
             ) -> DiscreteDataset:
    """Load a header-first, comma-separated UTF-8 file into a dataset.

    Cells are stripped, then mapped by ``options.value_map``; the alphabet
    is their sorted set, plus the ``missing`` token if one is named, unless
    ``options.alphabet`` is given. No quoting support: cells must not
    contain commas. One leading UTF-8 byte-order mark is skipped. Rows end
    at a line break (LF, CRLF or CR); blank lines are skipped. A row that is
    not valid UTF-8 raises :class:`ParseError`, as does one with a wrong
    field count. With ``participation``, the result (or error) is that of
    ``remap_values(filter_participation(load_csv(path, missing=missing),
    missing, participation), value_map, alphabet)``, relabelled once.
    The file is tokenised a block of about ``_BLOCK_BYTES`` at a time, its
    keys looked up in a table carried across blocks. Each block's raw-token
    ids are held packed at w = 1, 2 or 4 bits an id, the fewest that hold
    every distinct raw token read so far (up to 2, 4 or 16 of them), or past
    16 tokens in the smallest unsigned dtype; a block keeps the width it was
    stored at. So ingest holds w/8 byte a cell and the kept columns' values,
    not the file's text.
    """
    ids: dict[str, int] = {}
    table, longs = np.full((2, 1 << _SLOT_BITS), _NO_KEY), {}
    parts: list[tuple[int, int, np.ndarray]] = []
    names: list[str] | None = None
    rows = 0
    with open(path, "rb") as fh:
        for block in _blocks(fh):
            if names is None:
                block = block.lstrip(b"\r\n")
                if not block:
                    continue
                header = block.split(b"\n", 1)[0].split(b"\r", 1)[0]
                try:
                    names = [t.strip() for t in header.decode("utf-8").split(",")]
                except UnicodeDecodeError:
                    raise ParseError(f"{path}: header is not valid UTF-8") from None
                block = block[len(header):]
                # With a participation rule, each column's missing cells
                # are counted from each block's ids before they are packed.
                absent = np.zeros(len(names), dtype=np.int64)
                lost: list[int] = []
            known = len(ids)
            raw = _block_ids(block, len(names), ids, table, longs, path, rows)
            bits = next((w for w in (1, 2, 4) if len(ids) <= 1 << w), 0)
            if participation is not None:
                lost += [k for k, t in enumerate(islice(ids, known, None), known)
                         if t.strip() == missing]
                for k in lost:
                    absent += (raw == k).sum(axis=0)
            parts.append((len(raw), bits, _pack(raw, bits) if bits else raw))
            rows += len(raw)
    if names is None:
        raise ParseError(f"{path}: empty file")
    if not rows:
        raise EmptyDatasetError(f"{path}: no data rows")
    tokens, extra = [t.strip() for t in ids], () if missing is None else (missing,)
    kept = found = None
    if participation is not None:  # the checks of the raw dataset the filter reads
        Alphabet(tuple(sorted({*tokens, *extra})))
        if len(set(names)) < len(names):
            raise DatasetError("variable names must be unique")
        extra = ()
        kept = _kept(absent, rows, participation)
        if len(kept) < len(names):
            # The ids that occur in the kept columns, read a block at a time
            # until every id is seen.
            seen = np.zeros(len(tokens), dtype=bool)
            same = np.arange(max(len(tokens), 16), dtype=np.min_scalar_type(len(tokens)))
            for part in parts:
                seen[_unpack(part, len(names), same, kept)] = True
                if seen.all():
                    break
            found = np.flatnonzero(seen).tolist()
    return _relabel(names, parts, tokens, options.value_map, options.alphabet, extra, kept, found)


def write_csv(ds: DiscreteDataset, path: str | Path) -> None:
    """Write a dataset back to the CSV format accepted by :func:`load_csv`."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(ds.names) + "\n")
        for row in ds.values:
            fh.write(",".join(ds.alphabet.symbols[x] for x in row) + "\n")


def remap_values(
    ds: DiscreteDataset,
    rules: tuple[tuple[str, str], ...],
    alphabet: tuple[str, ...] | None = None,
) -> DiscreteDataset:
    """Apply ordered token->token rules and re-infer (or force) the alphabet."""
    # Marking seen codes casts no copy of them to intp, as a bincount would.
    seen = np.zeros(ds.alphabet.size, dtype=bool)
    for column in ds.values.T:
        seen[column] = True
    return _relabel(ds.names, _row_blocks(ds.values), ds.alphabet.symbols, rules, alphabet,
                    found=np.flatnonzero(seen).tolist())


def filter_participation(
    raw: DiscreteDataset, missing_symbol: str, threshold: float
) -> DiscreteDataset:
    """Keep only columns whose fraction of non-missing entries is >= threshold.

    A ``missing_symbol`` outside the alphabet marks no entry missing. Sample
    rows are never dropped; column order is preserved.
    """
    symbols = raw.alphabet.symbols
    absent = np.zeros(raw.p, dtype=np.int64)
    if missing_symbol in symbols:
        k = symbols.index(missing_symbol)
        absent[:] = [np.count_nonzero(column == k) for column in raw.values.T]
    kept = _kept(absent, raw.n, threshold)
    return _relabel(raw.names, _row_blocks(raw.values), symbols, (), symbols, kept=kept)
