"""Closed-form guarantee calculators and empirical measurement of the two
structural assumptions (non-degeneracy gap, correlation-decay profile) from
a distribution source, such as the exact source of a small model.

The calculators evaluate their formulas literally. Entropy-flavored constants
are quoted in bits; where a formula mixes in the natural-log constant ln 2
(the tree decay rate), that is evaluated as ln 2. The sample-size bound is
astronomically loose by design and is never used to size experiments here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Callable

import numpy as np

from .dataset import CapacityError
from .entropy import DistributionSource, conditional_entropy
from .models import MarkovGraph, graph_distance

#: Largest node degree for which the full gap enumeration is attempted.
GAP_DEGREE_CAP = 12
#: Largest variable count for one decay-profile deviation evaluation.
DECAY_VARS_CAP = 16


@dataclass(frozen=True)
class BoundReport:
    """One evaluated closed-form bound, with its inputs echoed back."""

    name: str
    inputs: dict[str, float]
    value: float
    formula: str


def decay_threshold(epsilon: float, max_degree: int, alphabet_size: int) -> float:
    """Required correlation-decay level eps^2 * q^(-2(D+1)^2) / 64.

    Greedy picks are safe once the decay function has fallen below this;
    extreme degrees underflow to 0.0, which is reported as-is.
    """
    if not epsilon > 0 or max_degree < 0 or alphabet_size < 2:
        raise ValueError("need epsilon > 0, max_degree >= 0, alphabet_size >= 2")
    return epsilon**2 * float(alphabet_size) ** (-2 * (max_degree + 1) ** 2) / 64.0


def sample_size_bound(
    epsilon: float,
    max_degree: int,
    alphabet_size: int,
    num_vars: int,
    delta: float,
    log_base2: bool = True,
) -> int:
    """Samples sufficient for uniformly accurate conditional entropies:
    2^15 * eps^-4 * q^(4(D+2)) * ((D+2) log(2q) + 2 log(p/delta)), rounded up.

    The information logs default to base 2 to match bit entropies; the
    natural-log reading is available behind ``log_base2=False``.
    """
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    if not epsilon > 0 or num_vars < 1 or alphabet_size < 2 or max_degree < 0:
        raise ValueError("invalid bound inputs")
    log = math.log2 if log_base2 else math.log
    d2 = max_degree + 2
    try:
        value = (
            2.0**15
            * epsilon**-4
            * float(alphabet_size) ** (4 * d2)
            * (d2 * log(2 * alphabet_size) + 2 * log(num_vars / delta))
        )
        return math.ceil(value)
    except OverflowError:
        raise ValueError("the sample size bound exceeds the float range") from None


@dataclass(frozen=True)
class IsingGuarantee:
    epsilon: float
    girth_bound: float


def ising_guarantee(beta: float, max_degree: int) -> IsingGuarantee:
    """Recovery constants for a zero-field Ising model with couplings of
    magnitude at least beta: the driving epsilon 2^-10 sinh^2(2 beta) and the
    girth above which recovery is guaranteed,
    (2^15 / ln 2) * (D^2 ln 2 - ln sinh(2 beta))."""
    limit = math.log(2.0) / (2.0 * max_degree) if max_degree > 0 else math.inf
    if not 0.0 < beta < limit:
        raise ValueError(
            f"beta must lie in (0, ln(2)/(2*max_degree)) = (0, {limit:.6g}); got {beta}"
        )
    eps = 2.0**-10 * math.sinh(2.0 * beta) ** 2
    g = 2.0**15 / math.log(2.0) * (max_degree**2 * math.log(2.0) - math.log(math.sinh(2.0 * beta)))
    return IsingGuarantee(epsilon=eps, girth_bound=g)


def ising_nondegeneracy_epsilon(beta: float, gamma: float, max_degree: int) -> float:
    """Non-degeneracy constant implied by exponential decay on an Ising model
    with beta < |theta| < gamma: 2^-7 e^(-6 gamma D) sinh^2(2 beta)."""
    if not 0.0 < beta < gamma:
        raise ValueError("need 0 < beta < gamma")
    if max_degree < 0:
        raise ValueError("max_degree must be nonnegative")
    return 2.0**-7 * math.exp(-6.0 * gamma * max_degree) * math.sinh(2.0 * beta) ** 2


#: One row per bound report, in report order: name, the inputs it needs
#: (keyword names of its calculator), an evaluator over those inputs and the
#: sample bound's ``log_base2`` flag, and the formula it echoes.
BOUNDS: tuple[tuple[str, tuple[str, ...], Callable[..., float], str], ...] = (
    ("decay_threshold", ("epsilon", "max_degree", "alphabet_size"),
     lambda a, _: decay_threshold(**a), "epsilon^2 * q^(-2(D+1)^2) / 64"),
    ("sample_size_bound", ("epsilon", "max_degree", "alphabet_size", "num_vars", "delta"),
     lambda a, log_base2: sample_size_bound(**a, log_base2=log_base2),
     "2^15 eps^-4 q^(4(D+2)) ((D+2) log 2q + 2 log p/delta)"),
    ("ising_epsilon", ("beta", "max_degree"),
     lambda a, _: ising_guarantee(**a).epsilon, "2^-10 sinh^2(2 beta)"),
    ("ising_girth_bound", ("beta", "max_degree"),
     lambda a, _: ising_guarantee(**a).girth_bound, "(2^15/ln 2)(D^2 ln 2 - ln sinh 2 beta)"),
    ("ising_nondegeneracy_epsilon", ("beta", "gamma", "max_degree"),
     lambda a, _: ising_nondegeneracy_epsilon(**a), "2^-7 e^(-6 gamma D) sinh^2(2 beta)"),
)
#: Every input name some bound reads.
BOUND_INPUTS = tuple(dict.fromkeys(k for _, needs, _, _ in BOUNDS for k in needs))


def all_bound_reports(*, log_base2: bool = True, **inputs: float | None) -> list[BoundReport]:
    """A report for every row of :data:`BOUNDS` whose inputs are all
    supplied (not None), in table order. Raises ValueError for an input
    that is not finite."""
    unknown = sorted(set(inputs) - set(BOUND_INPUTS))
    if unknown:
        raise TypeError(f"unknown bound inputs: {', '.join(unknown)}")
    infinite = [k for k, x in inputs.items() if x is not None and not math.isfinite(x)]
    if infinite:
        raise ValueError(f"bound inputs must be finite: {', '.join(infinite)}")
    out: list[BoundReport] = []
    for name, needs, evaluate, formula in BOUNDS:
        if all(inputs.get(k) is not None for k in needs):
            used = {k: inputs[k] for k in needs}
            out.append(BoundReport(name, used, float(evaluate(used, log_base2)), formula))
    return out


def _check_sizes(src: DistributionSource, g: MarkovGraph) -> None:
    # A smaller graph would silently measure the marginal of its first vertices.
    if g.p != src.p:
        raise ValueError(f"graph has {g.p} vertices, source has {src.p} variables")


def nondegeneracy_gap(src: DistributionSource, g: MarkovGraph, i: int) -> float:
    """Smallest conditional-entropy gain any true neighbor of i in ``g``
    provides, in bits, as the source ``src`` gives it.

    Minimizes, over sub-neighborhoods A of node i, remaining neighbors j, and
    two-hop vertices l adjacent to j, both gap families
    H(X_i|X_A) - H(X_i|X_A, X_j) and H(X_i|X_A, X_l) - H(X_i|X_A, X_j, X_l).
    The model satisfies the non-degeneracy condition for any epsilon strictly
    below the returned value. An isolated vertex yields +inf (empty minimand).
    Raises ValueError before any query when ``g`` and ``src`` differ in size.
    """
    _check_sizes(src, g)
    if not 0 <= i < g.p:
        raise IndexError(f"vertex {i} out of range")
    nbrs = g.neighbors(i)
    if len(nbrs) > GAP_DEGREE_CAP:
        raise CapacityError(f"degree {len(nbrs)} exceeds gap enumeration cap {GAP_DEGREE_CAP}")
    best = math.inf
    for size in range(len(nbrs)):
        for sub in combinations(nbrs, size):
            base = set(sub)
            h_base = conditional_entropy(src, i, base)
            for j in nbrs:
                if j in base:
                    continue
                gap = h_base - conditional_entropy(src, i, base | {j})
                best = min(best, gap)
                for l in g.neighbors(j):
                    if l == i:
                        continue
                    h_l = conditional_entropy(src, i, base | {l})
                    h_jl = conditional_entropy(src, i, base | {j, l})
                    best = min(best, h_l - h_jl)
    return best


def model_gap(src: DistributionSource, g: MarkovGraph) -> float:
    """Non-degeneracy gap minimized over every vertex of ``g``, from ``src``."""
    # Widest vertex first, so a degree past the cap fails before any query.
    return min(nondegeneracy_gap(src, g, i) for i in sorted(range(g.p), key=g.degree, reverse=True))


@dataclass(frozen=True)
class DecayProfile:
    """Worst-case influence of a far conditioning set on a node's local joint,
    mapped by the hop distance of the set."""

    node: int
    by_distance: dict[int, float]

    def is_monotone_decreasing(self) -> bool:
        ds = sorted(self.by_distance)
        return all(
            self.by_distance[a] >= self.by_distance[b] for a, b in zip(ds, ds[1:])
        )


def decay_profile(
    src: DistributionSource, g: MarkovGraph, i: int, max_set_size: int = 2
) -> DecayProfile:
    """Measure max |P(local | x_B) - P(local)| per distance d(i, B) in ``g``,
    from the marginals of the source ``src``.

    ``local`` is node i with its one- and two-hop neighborhoods; B ranges over
    nonempty subsets of the remaining vertices up to ``max_set_size``. Since
    the condition quantifies over all sets, bounding |B| makes the reported
    values a lower bound on the true worst case. The widest marginal is
    checked against DECAY_VARS_CAP, and ``g``'s size against ``src``'s,
    before the first query.
    """
    _check_sizes(src, g)
    if not 0 <= i < g.p:
        raise IndexError(f"vertex {i} out of range")
    one_hop = set(g.neighbors(i))
    two_hop = {w for j in one_hop for w in g.neighbors(j)} - one_hop - {i}
    local = tuple(sorted({i} | one_hop | two_hop))
    rest = [v for v in range(g.p) if v not in local]
    if len(local) + min(max_set_size, len(rest)) > DECAY_VARS_CAP:
        raise CapacityError("decay measurement exceeds the variable cap")
    q = src.alphabet.size
    p_local = src.dense_marginal(local)
    worst: dict[int, float] = {}
    for size in range(1, max_set_size + 1):
        for b_set in combinations(rest, size):
            dist = min(graph_distance(g, i, b) for b in b_set)
            if math.isinf(dist):
                continue
            union = tuple(sorted(local + b_set))
            m = src.dense_marginal(union).reshape((q,) * len(union))
            # Move the B axes to the back so rows index the local assignment.
            b_axes = tuple(union.index(b) for b in b_set)
            l_axes = tuple(union.index(v) for v in local)
            m = np.transpose(m, l_axes + b_axes).reshape(q ** len(local), q ** len(b_set))
            p_b = m.sum(axis=0)
            ok = p_b > 0
            cond = m[:, ok] / p_b[ok]
            dev = float(np.abs(cond - p_local[:, None]).max())
            key = int(dist)
            worst[key] = max(worst.get(key, 0.0), dev)
    return DecayProfile(node=i, by_distance=worst)
