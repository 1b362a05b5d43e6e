"""Entropies, conditional entropies, mutual information, and distribution
distance bounds, computed uniformly over empirical datasets and exact joint
tables.

All entropies are base-2 (bits) and come from one row-wise formula,
:func:`_entropies`. The 0*log(0) convention is enforced by skipping zero
cells, and conditional entropy is always computed as a difference of joint
entropies so no 0/0 conditional cell can arise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .dataset import _MAX_DENSE_CELLS, Alphabet, CapacityError, DiscreteDataset, extension_counts
from .models import JointDistribution, marginal

#: Float slack for equality-style checks against exact sources.
EXACT_TOL = 1e-12


class DistributionSource:
    """Answers marginal-probability queries over variable subsets.

    Subclasses provide ``_cells``, the nonzero cells of one marginal, and
    ``_extension_entropies``, the scores of one greedy step; entropies are
    cached per sorted variable tuple. Sources are immutable and thread-safe.
    """

    p: int
    alphabet: Alphabet

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
        out = np.zeros(cells)
        codes, probs = self._cells(variables)
        out[codes] = probs
        return out

    def _cells(self, variables: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
        """(ascending mixed-radix codes, probabilities) of the nonzero cells
        of the marginal over the sorted ``variables``."""
        raise NotImplementedError

    def entropy_bits(self, variables: tuple[int, ...]) -> float:
        got = self._entropy_cache.get(variables)
        if got is None:
            got = _entropy_of_probs(self._cells(variables)[1])
            self._entropy_cache[variables] = got
        return got

    def extension_entropies(self, i: int, given: tuple[int, ...]) -> np.ndarray:
        """H(X_i | X_given, X_k) in bits for every variable k, indexed by k.

        Each entry is H(given, i, k) - H(given, k), from marginals the source
        builds for the whole step at once. For k in ``given`` the entry is
        H(X_i | X_given); for k = i it is 0.
        """
        given = self.check_subset(given)
        if not 0 <= i < self.p:
            raise IndexError(f"variable index {i} out of range for p={self.p}")
        if i in given:
            raise ValueError(f"target variable {i} appears in the conditioning set")
        return self._extension_entropies(i, given)

    def _extension_entropies(self, i: int, given: tuple[int, ...]) -> np.ndarray:
        raise NotImplementedError


class EmpiricalSource(DistributionSource):
    """Plug-in distribution of a dataset."""

    def __init__(self, ds: DiscreteDataset):
        super().__init__()
        self.dataset = ds
        self.p = ds.p
        self.alphabet = ds.alphabet

    def _cells(self, variables: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
        codes, counts = self.dataset.joint_counts(variables)
        return codes, counts / self.dataset.n

    def _extension_entropies(self, i: int, given: tuple[int, ...]) -> np.ndarray:
        n, digits = self.dataset.n, self.dataset.values.T
        return np.concatenate([_entropies(joint, n) - _entropies(marginal, n) for joint, marginal
                               in extension_counts(digits, given, i, self.alphabet.size)])


class ExactSource(DistributionSource):
    """Exact distribution backed by a dense joint table. Marginals are axis
    sums of it (:func:`~greedymrf.models.marginal`); a greedy step halves the
    candidates, sums one half out and recurses into the other, and the other
    way round, so it reads the full table twice, not once per candidate."""

    def __init__(self, joint: JointDistribution):
        super().__init__()
        self.joint = joint
        self.p = joint.p
        self.alphabet = joint.alphabet

    def _cells(self, variables: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
        dense = self.joint.dense_marginal(variables)
        codes = np.flatnonzero(dense)
        return codes, dense[codes]

    def _extension_entropies(self, i: int, given: tuple[int, ...]) -> np.ndarray:
        base = tuple(sorted(given + (i,)))
        candidates = [k for k in range(self.p) if k not in base]
        out = np.zeros(self.p)
        table = self.joint.table  # the marginal over base when no k is left
        for k, table in _candidate_marginals(table, tuple(range(self.p)), base, candidates):
            axes = sorted(base + (k,))
            out[k] = _conditional(table, axes.index(i))
        if candidates:  # the last table with its k summed out is over base
            table = table.sum(axis=axes.index(k))
        out[list(given)] = _conditional(table, base.index(i))
        return out


def _candidate_marginals(
    table: np.ndarray, axes: tuple[int, ...], base: tuple[int, ...], candidates: list[int]
) -> Iterator[tuple[int, np.ndarray]]:
    """(k, marginal over sorted base + (k,)) for every k of ``candidates``, in
    order; ``table`` has the sorted ``axes``, which hold base and candidates."""
    if len(candidates) == 1:
        yield candidates[0], table
    elif candidates:
        half = len(candidates) // 2
        for part in (candidates[:half], candidates[half:]):
            keep = tuple(sorted(base + tuple(part)))
            yield from _candidate_marginals(marginal(table, axes, keep), keep, base, part)


def _entropies(mass: np.ndarray, total: float) -> np.ndarray:
    """Entropy in bits along the last axis of cell masses summing to ``total``."""
    # Float probabilities are used as they are: dividing by 1.0 would only copy them.
    probs = mass if total == 1.0 and mass.dtype.kind == "f" else mass / total
    logs = np.log2(probs, out=np.zeros_like(probs), where=probs > 0)
    logs *= probs
    return -logs.sum(axis=-1)


def _entropy_of_probs(probs: np.ndarray) -> float:
    return float(_entropies(probs, 1.0))


def _conditional(table: np.ndarray, axis: int) -> float:
    """H(every axis) - H(every axis but ``axis``) of a probability table."""
    return _entropy_of_probs(table.ravel()) - _entropy_of_probs(table.sum(axis=axis).ravel())


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
    lhs = abs(_entropy_of_probs(pm) - _entropy_of_probs(qm))
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
