"""Discrete sample storage, CSV ingestion, and empirical probability queries.

A dataset is an immutable n x p matrix of alphabet indices plus the alphabet
itself. All probability estimation elsewhere in the package reduces to
counting rows of this matrix, so the counting backend lives here too: every
count of dataset rows is a ``bincount`` over the mixed-radix cell codes built
by :func:`cell_codes`. Only the queried columns are read, which keeps queries
feasible when p is large and only the query set is small.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

# Cell codes are int64; a query with more cells than this cannot be coded.
_MAX_CODE_CELLS = 1 << 62
# Dense tables over a query set are capped at this many cells.
_MAX_DENSE_CELLS = 1 << 24
# One extension-count bincount reads at most this many (variable, row)
# elements and fills at most this many cells, unless one variable needs more.
_CHUNK_ELEMENTS = 1 << 18


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


def extension_counts(
    digits: np.ndarray,
    given: Sequence[int],
    i: int,
    q: int,
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Row counts of (x_k, given, x_i) and of (x_k, given) for every
    variable k, a chunk of consecutive variables at a time.

    Yields pairs ``(joint, marginal)`` with one row per variable of the
    chunk. A row holds that variable's row counts in no fixed layout; empty
    cells are zeros or left out. When q^(|given|+1) exceeds the row count,
    the (given, x_i) cells are renumbered to the m <= rows occupied ones. A
    chunk holds max(1, _CHUNK_ELEMENTS // max(rows, q*m)) variables, and a
    variable whose q*m cells outnumber max(_CHUNK_ELEMENTS, rows) is counted
    over its occupied cells only, so no array here is longer than that.
    Raises :class:`CapacityError` before any counting when the given cells
    do not fit an int64 code.
    """
    rows = digits.shape[1]
    code = cell_codes(digits, given, q)
    if q ** len(given) * q > rows:
        code = np.unique(code, return_inverse=True)[1] * q + digits[i]
        cells, code = np.unique(code, return_inverse=True)
    else:
        code = code * q + digits[i]
        cells = np.arange(q ** len(given) * q)
    m = cells.size
    # Joint cell c lies in given cell cells[c] // q. ``cells`` is sorted, so
    # among sorted keys x_k*m + c each (x_k, given cell) is one run.
    given_of = cells // q

    def runs(keys: np.ndarray) -> np.ndarray:
        group = keys // m * (given_of[-1] + 1) + given_of[keys % m]
        return np.flatnonzero(np.diff(group, prepend=-1))

    if q * m > max(_CHUNK_ELEMENTS, rows):
        for column in digits:
            keys, inverse = np.unique(np.multiply(column, m, dtype=np.int64) + code,
                                      return_inverse=True)
            joint = np.bincount(inverse)
            yield joint[None], np.add.reduceat(joint, runs(keys))[None]
        return
    chunk = max(1, _CHUNK_ELEMENTS // max(rows, q * m))
    starts = runs(np.arange(q * m))
    for start in range(0, digits.shape[0], chunk):
        block = digits[start : start + chunk]
        size = block.shape[0]
        # idx = (k*q + x_k)*m + code, built in place: the same broadcast
        # expression over the small-int digits runs several times slower.
        idx = np.multiply(block, m, dtype=np.int64)
        idx += code
        idx += (np.arange(size) * (q * m))[:, None]
        joint = np.bincount(idx.ravel(), minlength=size * q * m).reshape(size, q * m)
        yield joint, np.add.reduceat(joint, starts, axis=1)


class DiscreteDataset:
    """Immutable table of n samples over p named discrete variables.

    ``values[r, c]`` is the alphabet index of variable ``c`` in sample ``r``,
    stored column-major in the smallest unsigned dtype that holds the
    alphabet, so ``values.T[c]`` is one contiguous column. Instances are safe
    for concurrent read access.
    """

    def __init__(self, names: Sequence[str], alphabet: Alphabet, values: np.ndarray):
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
        self.values = np.array(values, dtype=np.min_scalar_type(alphabet.size - 1), order="F")
        self.values.setflags(write=False)

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

    def joint_counts(self, variables: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
        """Sparse joint counts over ``variables``: (cell codes, row counts).

        Codes follow :func:`cell_codes` in the given variable order. Counts
        are exact integers; they sum to n.
        """
        variables = tuple(variables)
        for v in variables:
            if not 0 <= v < self.p:
                raise IndexError(f"variable index {v} out of range for p={self.p}")
        q = self.alphabet.size
        codes = cell_codes(self.values.T, variables, q)
        cells = q ** len(variables)
        if cells > _MAX_DENSE_CELLS:
            return np.unique(codes, return_counts=True)
        dense = np.bincount(codes, minlength=cells)
        keys = np.nonzero(dense)[0]
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
    names: Sequence[str], codes: np.ndarray, tokens: Sequence[str],
    rules: tuple[tuple[str, str], ...], alphabet: tuple[str, ...] | None,
    extra: tuple[str, ...] = (),
) -> DiscreteDataset:
    """Dataset of ``tokens[codes]`` after ``rules`` (the first rule whose
    source equals a token wins; its result is not mapped again), indexed in
    ``alphabet`` or else in the sorted mapped tokens that occur plus
    ``extra``. Only the distinct tokens that occur are mapped and indexed.
    """
    first = dict(reversed(rules))
    used = np.flatnonzero(np.bincount(codes.ravel(), minlength=len(tokens)))
    mapped = {k: first.get(tokens[k], tokens[k]) for k in used.tolist()}
    alph = Alphabet(tuple(sorted({*mapped.values(), *extra})) if alphabet is None else alphabet)
    lut = np.zeros(len(tokens), dtype=np.min_scalar_type(alph.size - 1))
    lut[list(mapped)] = [alph.index_of(token) for token in mapped.values()]
    return DiscreteDataset(names, alph, lut[codes])


def load_csv(path: str | Path, options: IngestOptions = IngestOptions(),
             missing: str | None = None) -> DiscreteDataset:
    """Load a header-first, comma-separated UTF-8 file into a dataset.

    Cells are stripped, then mapped by ``options.value_map``; the alphabet
    is their sorted set, plus the ``missing`` token if one is named, unless
    ``options.alphabet`` is given. No quoting support: cells must not
    contain commas.
    """
    lines = [ln for ln in Path(path).read_text(encoding="utf-8").splitlines() if ln != ""]
    if not lines:
        raise ParseError(f"{path}: empty file")
    names = [t.strip() for t in lines[0].split(",")]
    p = len(names)
    ids: dict[str, int] = {}
    codes = array("q")  # int64 ids, 8 bytes each, viewed by numpy without a copy
    for rownum, line in enumerate(lines[1:], start=1):
        toks = line.split(",")
        if len(toks) != p:
            raise ParseError(f"{path}: body row {rownum} has {len(toks)} fields, expected {p}")
        codes.extend([ids.setdefault(t, len(ids)) for t in toks])
    if not codes:
        raise EmptyDatasetError(f"{path}: no data rows")
    return _relabel(names, np.frombuffer(codes, np.int64).reshape(-1, p),
                    [t.strip() for t in ids], options.value_map, options.alphabet,
                    () if missing is None else (missing,))


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
    return _relabel(ds.names, ds.values, ds.alphabet.symbols, rules, alphabet)


def filter_participation(
    raw: DiscreteDataset, missing_symbol: str, threshold: float
) -> DiscreteDataset:
    """Keep only columns whose fraction of non-missing entries is >= threshold.

    A ``missing_symbol`` outside the alphabet marks no entry missing. Sample
    rows are never dropped; column order is preserved.
    """
    if not 0.0 <= threshold <= 1.0:
        raise DatasetError(f"threshold {threshold} outside [0, 1]")
    if missing_symbol in raw.alphabet.symbols:
        present = (raw.values != raw.alphabet.index_of(missing_symbol)).sum(axis=0) / raw.n
    else:
        present = np.ones(raw.p)
    kept = [c for c in range(raw.p) if present[c] >= threshold]
    if not kept:
        raise EmptyDatasetError("participation filter removed every column")
    return DiscreteDataset([raw.names[c] for c in kept], raw.alphabet, raw.values[:, kept])
