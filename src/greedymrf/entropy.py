"""Entropies, conditional entropies, mutual information, and distribution
distance bounds, computed uniformly over empirical datasets and exact joint
tables.

All entropies are base-2 (bits) sums of one term, :func:`_plogp`; zero cells
add nothing, and conditional entropy is always a difference of joint
entropies, so no 0/0 conditional cell can arise. Datasets of at most 2^15
rows look their count terms up in a table of that term's own bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .dataset import _MAX_DENSE_CELLS, Alphabet, CapacityError, DiscreteDataset, extension_counts
from .models import IsingModel, JointDistribution, exact_joint

#: Float slack for equality-style checks against exact sources.
EXACT_TOL = 1e-12

#: Largest row count whose count terms a dataset's source tabulates (256 KiB).
_TERMS_MAX_ROWS = 1 << 15

#: Cells of one batch, zero clamp or entropy sum of an exact source (16 KiB).
_PIECE = 1 << 11


class DistributionSource:
    """Answers marginal-probability queries over variable subsets.

    Subclasses provide ``_cells``, the cells of one marginal that may be
    nonzero, and ``_extension_entropies``, the scores of a batch of greedy
    steps; entropies are cached per sorted variable tuple. The distribution
    of a source never changes, and it is safe to query from several threads.
    Besides the entropy cache, a source may hold count tables of its last
    batch of greedy steps for the next batch to refine; no result depends
    on whether they are there.
    """

    p: int
    alphabet: Alphabet
    #: What the masses of ``_cells`` sum to.
    _total: float = 1.0
    #: For integer masses, the term of every count c = 0.._total, or None.
    _terms: np.ndarray | None = None

    def __init__(self) -> None:
        self._entropy_cache: dict[tuple[int, ...], float] = {}

    def check_subset(self, variables: Iterable[int]) -> tuple[int, ...]:
        out = tuple(sorted(set(variables)))
        for v in out:
            if not 0 <= v < self.p:
                raise IndexError(f"variable index {v} out of range for p={self.p}")
        return out

    def dense_marginal(self, variables: Iterable[int]) -> np.ndarray:
        """Marginal over the sorted variable subset, mixed-radix indexed with
        the lowest variable as the most significant digit. Raises
        :class:`CapacityError` before any counting above 2^24 cells."""
        variables = self.check_subset(variables)
        cells = self.alphabet.size ** len(variables)
        if cells > _MAX_DENSE_CELLS:
            raise CapacityError(f"dense marginal over {len(variables)} variables too large")
        index, mass = self._cells(variables)
        probs = mass if self._total == 1.0 else mass / self._total
        if isinstance(index, slice):
            return probs
        out = np.zeros(cells)
        out[index] = probs
        return out

    def _cells(self, variables: tuple[int, ...]) -> tuple[np.ndarray | slice, np.ndarray]:
        """(index into the dense marginal over the sorted ``variables``; the
        masses there, which sum to ``_total``). The index is an array of
        sorted mixed-radix codes, and every other cell of the marginal is
        zero, or ``slice(None)`` when the masses are the whole marginal, in
        a fresh array."""
        raise NotImplementedError

    def entropy_bits(self, variables: tuple[int, ...]) -> float:
        got = self._entropy_cache.get(variables)
        if got is None:
            got = float(self._entropies(self._cells(variables)[1]))
            self._entropy_cache[variables] = got
        return got

    def removal_entropies(self, i: int, given: Iterable[int]) -> tuple[float, np.ndarray]:
        """H(X_i | X_given) and, for each j of the sorted ``given``,
        H(X_i | X_given without j), in bits: each an entropy difference of
        marginals summed out of one ``_cells`` table over given + (i,)."""
        given = self.check_subset(given)
        if i in given:
            raise ValueError(f"target variable {i} appears in the conditioning set")
        both = self.check_subset(given + (i,))
        q, at = self.alphabet.size, both.index(i)
        table = self._cells(both)
        rest = _sum_out(table, q, len(both), at)
        h_rest = self._entropies(rest[1])
        without = np.empty(len(given))
        for pos, j in enumerate(given):
            # j's position among both, and i's once j is gone
            skip = pos + (pos >= at)
            h_i = self._entropies(_sum_out(table, q, len(both), skip)[1])
            without[pos] = h_i - self._entropies(_sum_out(rest, q, len(given), pos)[1])
        return float(self._entropies(table[1]) - h_rest), without

    def _entropies(self, mass: np.ndarray) -> np.ndarray:
        return _entropies(mass, self._total, self._terms)

    def extension_entropies(self, steps: Iterable[tuple[int, Iterable[int]]]) -> np.ndarray:
        """H(X_i | X_given, X_k) in bits for every step (i, given) of a batch
        and every variable k: row j is step j, indexed by k.

        Every given set has the same size. Each entry is H(given, i, k) -
        H(given, k), from marginals the source builds for the whole batch at
        once; a row does not depend on the rest of the batch. For k in
        ``given`` the entry is H(X_i | X_given); for k = i it is 0.
        """
        nodes, sets = [], []
        for i, given in steps:
            given = self.check_subset(given)
            if not 0 <= i < self.p:
                raise IndexError(f"variable index {i} out of range for p={self.p}")
            if i in given:
                raise ValueError(f"target variable {i} appears in the conditioning set")
            nodes.append(i)
            sets.append(given)
        if len({len(given) for given in sets}) > 1:
            raise ValueError("the steps of a batch need conditioning sets of one size")
        return self._extension_entropies(nodes, sets) if nodes else np.zeros((0, self.p))

    def _extension_entropies(self, nodes: list[int], given: list[tuple[int, ...]]) -> np.ndarray:
        raise NotImplementedError


class EmpiricalSource(DistributionSource):
    """Plug-in distribution of a dataset."""

    def __init__(self, ds: DiscreteDataset):
        super().__init__()
        self.dataset = ds
        self.p = ds.p
        self.alphabet = ds.alphabet
        self._total = ds.n
        if ds.n <= _TERMS_MAX_ROWS:
            self._terms = _plogp(np.arange(ds.n + 1) / ds.n)
            self._terms.setflags(write=False)
        # The plane tables of the last batch of steps (see extension_counts).
        self._carried: dict = {}

    def _cells(self, variables: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
        return self.dataset.joint_counts(variables)

    def _extension_entropies(self, nodes: list[int], given: list[tuple[int, ...]]) -> np.ndarray:
        out = np.empty((len(nodes), self.p))
        carried, self._carried = self._carried, {}
        for at, joint, marginal in extension_counts(self.dataset, nodes, given, carried,
                                                    self._carried):
            out[at] = self._entropies(joint) - self._entropies(marginal)
        return out


class ExactSource(DistributionSource):
    """Exact distribution of a dense table, held as its summed-slot transform: along each
    variable's axis, slot 0 sums the variable out and slots 1..q-1 keep x_v = j. The marginal
    over S is the q^|S| cells with slot 0 off S, un-summed along S (slot 0 -= slots 1..q-1)."""

    def __init__(self, joint: JointDistribution, _owned: bool = False):
        super().__init__()
        self.p, self.alphabet = joint.p, joint.alphabet
        table = joint.probs.base if _owned else joint.probs.copy()
        self._summed = table.reshape((self.alphabet.size,) * self.p)
        slot_sums(self._summed, self.alphabet.size, self.p, range(self.p), np.add)

    @classmethod
    def of_model(cls, m: IsingModel) -> ExactSource:
        """A model's source, which sums the array exact_joint builds in place (``_owned``)."""
        return cls(exact_joint(m), _owned=True)

    def _view(self, variables: Iterable[int]) -> np.ndarray:
        # From a list: a tuple grown from a generator parks a p-slot tuple in CPython's free list.
        return self._summed[tuple([slice(None) if v in variables else 0 for v in range(self.p)])]

    def _cells(self, variables: tuple[int, ...]) -> tuple[slice, np.ndarray]:
        cells = self._view(variables).flatten()
        slot_sums(cells, self.alphabet.size, len(variables), range(len(variables)), np.subtract)
        tol = len(variables) * np.finfo(float).eps * self._summed.flat[0]  # un-summing's rounding
        for part in (cells[at:at + _PIECE] for at in range(0, cells.size, _PIECE)):
            part[part <= tol] = 0.0
        return slice(None), cells

    def _extension_entropies(self, nodes: list[int], given: list[tuple[int, ...]]) -> np.ndarray:
        # k scores H(C, i, k) - H(C, k), read off i's slot 0 (axis 0) before i is un-summed.
        q, width = self.alphabet.size, len(given[0]) + 2
        out = np.array([[conditional_entropy(self, i, own)] * self.p for i, own in zip(nodes, given)])
        out[range(len(nodes)), nodes] = 0.0
        pairs = [(row, k, i, own) for row, (i, own) in enumerate(zip(nodes, given))
                 for k in range(self.p) if k != i and k not in own]
        for at in range(0, len(pairs), per := max(1, _PIECE // q**width)):
            rows, ks, _, _ = zip(*pairs[at:at + per])
            cells = np.empty((len(rows),) + (q,) * width)
            for m, (_, k, i, own) in enumerate(pairs[at:at + per]):
                cells[m] = self._view({*own, i, k}).swapaxes(0, sum(v < i for v in own) + (k < i))
            slot_sums(cells, q, width, range(1, width), np.subtract)
            h_ck = _piece_entropies(cells.reshape(len(cells), q, -1)[:, 0])
            slot_sums(cells, q, width, [0], np.subtract)
            out[rows, ks] = _piece_entropies(cells.reshape(len(cells), -1)) - h_ck
            del cells  # before the next batch is gathered
        return out


def slot_sums(cells: np.ndarray, q: int, width: int, axes: Iterable[int], op: np.ufunc) -> None:
    """Sum (``op`` np.add) or un-sum (np.subtract) slots 1..q-1 into slot 0, in place, along
    ``axes`` of the ``width``-axis blocks filling ``cells``, by 1-D calls that buffer nothing."""
    for axis in axes:
        x = cells.reshape(-1, q, q ** (width - 1 - axis))
        for line in x if len(x) <= x.shape[2] else x.transpose(2, 1, 0):
            for j in range(1, q):
                op(line[0], line[j], out=line[0])


def _piece_entropies(mass: np.ndarray) -> np.ndarray:
    """Entropy in bits of each row of 2-d ``mass``, summed over column pieces."""
    return -sum(_plogp(mass[:, at:at + _PIECE]).sum(axis=1) for at in range(0, mass.shape[1], _PIECE))


def _sum_out(table: tuple[np.ndarray | slice, np.ndarray], q: int, width: int, axis: int
             ) -> tuple[np.ndarray | slice, np.ndarray]:
    """A ``_cells`` table over ``width`` sorted variables with the one at
    position ``axis`` summed out. Sparse cells stay sorted and their masses
    are summed in code order, and integer counts stay integers."""
    index, mass = table
    below = q ** (width - axis - 1)
    if isinstance(index, slice):
        return index, mass.reshape(-1, q, below).sum(axis=1).ravel()
    reduced = index // (q * below) * below + index % below
    if q ** (width - 1) > len(index):  # cells outnumber the occupied ones: sort the codes
        codes, inverse = np.unique(reduced, return_inverse=True)
        sums = np.bincount(inverse, weights=mass)
    else:
        sums = np.bincount(reduced, weights=mass)
        codes = np.flatnonzero(sums)
        sums = sums[codes]
    # Float sums of integer counts are exact below 2^53, so the cast is too.
    return codes, sums.astype(mass.dtype, copy=False)


def _plogp(probs: np.ndarray) -> np.ndarray:
    """p*log2(p) of every probability, 0 where p is 0."""
    logs = np.log2(probs, out=np.zeros_like(probs), where=probs > 0)
    logs *= probs
    return logs


def _entropies(mass: np.ndarray, total: float, terms: np.ndarray | None = None) -> np.ndarray:
    """Entropy in bits along the last axis of cell masses summing to ``total``.
    Integer masses look their terms up in ``terms``, ``_plogp`` of c / total
    for c = 0..total: the formula's bits, summed in the same order."""
    if terms is not None and mass.dtype.kind in "iu":
        return -terms.take(mass).sum(axis=-1)
    # Float probabilities are used as they are: dividing by 1.0 would only copy them.
    probs = mass if total == 1.0 and mass.dtype.kind == "f" else mass / total
    return -_plogp(probs).sum(axis=-1)


def entropy(src: DistributionSource, variables: Iterable[int]) -> float:
    """Joint entropy of the marginal on ``variables``, in bits; 0 for the
    empty set."""
    return src.entropy_bits(src.check_subset(variables))


def conditional_entropy(src: DistributionSource, i: int, given: Iterable[int]) -> float:
    """H(X_i | X_given) in bits, as entropy(given + i) - entropy(given)."""
    given_t = src.check_subset(given)
    if i in given_t:
        raise ValueError(f"target variable {i} appears in the conditioning set")
    joint_t = src.check_subset(given_t + (i,))
    return src.entropy_bits(joint_t) - src.entropy_bits(given_t)


def mutual_information(src: DistributionSource, i: int, j: int) -> float:
    """I(X_i; X_j) = H(X_i) - H(X_i | X_j), in bits."""
    if i == j:
        raise ValueError("mutual information needs two distinct variables")
    return entropy(src, (i,)) - conditional_entropy(src, i, (j,))


def _aligned_marginals(
    p_src: DistributionSource, q_src: DistributionSource, variables: Iterable[int]
) -> tuple[np.ndarray, np.ndarray, int]:
    if p_src.alphabet.symbols != q_src.alphabet.symbols:
        raise ValueError("sources must share one alphabet to be compared")
    a = p_src.check_subset(variables)
    b = q_src.check_subset(variables)
    if a != b:
        raise ValueError("variable subset invalid for one of the sources")
    return p_src.dense_marginal(a), q_src.dense_marginal(a), len(a)


def l1_distance(
    p_src: DistributionSource, q_src: DistributionSource, variables: Iterable[int]
) -> float:
    """Total variational distance sum |P - Q| over the marginal on
    ``variables``; lies in [0, 2]."""
    pm, qm, _ = _aligned_marginals(p_src, q_src, variables)
    return float(np.abs(pm - qm).sum())


@dataclass(frozen=True)
class EntropyL1Report:
    """Outcome of the entropy-vs-L1 continuity check.

    ``applicable`` is False when the L1 distance exceeds 1/2, outside the
    bound's validity region; ``holds`` is then vacuously True.
    """

    lhs: float
    rhs: float
    l1: float
    applicable: bool
    holds: bool


def check_entropy_l1_bound(
    p_src: DistributionSource, q_src: DistributionSource, variables: Iterable[int]
) -> EntropyL1Report:
    """Check |H(P) - H(Q)| <= -||P-Q||_1 log2(||P-Q||_1 / M) on the marginal,
    where M is the number of cells of the marginal's outcome space."""
    pm, qm, nvars = _aligned_marginals(p_src, q_src, variables)
    cells = p_src.alphabet.size**nvars
    l1 = float(np.abs(pm - qm).sum())
    lhs = abs(float(_entropies(pm, 1.0) - _entropies(qm, 1.0)))
    rhs = 0.0 if l1 == 0.0 else -l1 * math.log2(l1 / cells)
    applicable = l1 <= 0.5
    holds = (not applicable) or (lhs <= rhs + EXACT_TOL)
    return EntropyL1Report(lhs=lhs, rhs=rhs, l1=l1, applicable=applicable, holds=holds)


@dataclass(frozen=True)
class PinskerReport:
    """Outcome of the KL-vs-L1 check; an infinite KL holds vacuously."""

    kl_bits: float
    l1: float
    holds: bool


def check_pinsker(
    p_src: DistributionSource, q_src: DistributionSource, variables: Iterable[int]
) -> PinskerReport:
    """Check D(P||Q) >= ||P-Q||_1^2 / (2 ln 2) with the KL divergence in bits."""
    pm, qm, _ = _aligned_marginals(p_src, q_src, variables)
    l1 = float(np.abs(pm - qm).sum())
    support = pm > 0
    if np.any(qm[support] == 0):
        kl = math.inf
    else:
        kl = float(np.dot(pm[support], np.log2(pm[support] / qm[support])))
    holds = math.isinf(kl) or kl >= l1 * l1 / (2.0 * math.log(2)) - EXACT_TOL
    return PinskerReport(kl_bits=kl, l1=l1, holds=holds)
