"""Closed-form guarantee calculators, empirical measurement of the two
structural assumptions (non-degeneracy gap, correlation-decay profile) from
a distribution source, such as the exact source of a small model, and every
other check of the paper's claims: empirical_prob, the entropy-L1 and Pinsker
bounds, factor graphs, and the tree posterior and decay limit (CLI: bounds only).

The calculators evaluate their formulas literally. Entropy-flavored constants
are quoted in bits; where a formula mixes in the natural-log constant ln 2
(the tree decay rate), that is evaluated as ln 2. The sample-size bound is
astronomically loose by design and is never used to size experiments here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .dataset import CapacityError, DatasetError, DiscreteDataset, _as_index, check_indices
from .entropy import EXACT_TOL, DistributionSource, _entropies, conditional_entropy
from .models import Edge, IsingModel, MarkovGraph, _norm_edge, graph_distance, union

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
    limit = max_theta_for_tree_decay(max_degree) if max_degree > 0 else math.inf
    if not 0.0 < beta < limit:
        raise ValueError(
            f"beta must lie in (0, ln(2)/(2*max_degree)) = (0, {limit:.6g}); got {beta}"
        )
    eps = 2.0**-10 * math.sinh(2.0 * beta) ** 2
    g = 2.0**15 / math.log(2.0) * (max_degree**2 * math.log(2.0) - math.log(math.sinh(2.0 * beta)))
    return IsingGuarantee(epsilon=eps, girth_bound=g)


def max_theta_for_tree_decay(degree: int) -> float:
    """Largest admissible |theta| for the exponential tree-decay regime,
    ln(2) / (2 * degree)."""
    return math.log(2.0) / (2.0 * degree)


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


def _check_node(src: DistributionSource, g: MarkovGraph, i: int) -> int:
    # A smaller graph would silently measure the marginal of its first vertices.
    if g.p != src.p:
        raise ValueError(f"graph has {g.p} vertices, source has {src.p} variables")
    return check_indices((i,), g.p)[0]


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
    i = _check_node(src, g, i)
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
    i = _check_node(src, g, i)
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


@dataclass(frozen=True)
class Assignment:
    """A fixed value for each variable in a sorted, duplicate-free index set."""

    vars: tuple[int, ...]
    vals: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "vars", tuple(map(_as_index, self.vars)))
        object.__setattr__(self, "vals", tuple(map(_as_index, self.vals)))
        if len(self.vars) != len(self.vals):
            raise DatasetError("vars and vals must have equal length")
        if list(self.vars) != sorted(set(self.vars)):
            raise DatasetError("vars must be distinct and sorted ascending")


def empirical_prob(ds: DiscreteDataset, a: Assignment) -> float:
    """Fraction of sample rows matching the assignment; 1.0 for the empty one."""
    variables, values = check_indices(a.vars, ds.p), a.vals
    for v, x in zip(variables, values):
        if not 0 <= x < ds.alphabet.size:
            raise DatasetError(f"value {x} outside alphabet for variable {v}")
    match = np.all(ds.values[:, list(variables)] == np.asarray(values), axis=1)
    return int(match.sum()) / ds.n


def _aligned_marginals(
    p_src: DistributionSource, q_src: DistributionSource, variables: Iterable[int]
) -> tuple[np.ndarray, np.ndarray, float]:
    if p_src.alphabet.symbols != q_src.alphabet.symbols:
        raise ValueError("sources must share one alphabet to be compared")
    # Read once: ``variables`` may be a one-pass iterator.
    a = q_src.check_subset(p_src.check_subset(variables))
    pm, qm = p_src.dense_marginal(a), q_src.dense_marginal(a)
    return pm, qm, float(np.abs(pm - qm).sum())


def l1_distance(
    p_src: DistributionSource, q_src: DistributionSource, variables: Iterable[int]
) -> float:
    """Total variational distance sum |P - Q| over the marginal on
    ``variables``; lies in [0, 2]."""
    return _aligned_marginals(p_src, q_src, variables)[2]


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
    pm, qm, l1 = _aligned_marginals(p_src, q_src, variables)
    lhs = abs(float(_entropies(pm, 1.0) - _entropies(qm, 1.0)))
    rhs = 0.0 if l1 == 0.0 else -l1 * math.log2(l1 / pm.size)
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
    pm, qm, l1 = _aligned_marginals(p_src, q_src, variables)
    support = pm > 0
    if np.any(qm[support] == 0):
        kl = math.inf
    else:
        kl = float(np.dot(pm[support], np.log2(pm[support] / qm[support])))
    holds = math.isinf(kl) or kl >= l1 * l1 / (2.0 * math.log(2)) - EXACT_TOL
    return PinskerReport(kl_bits=kl, l1=l1, holds=holds)


class FactorGraph:
    """Bipartite variable/clique graph of a Markov graph.

    Vertices 0..p-1 are the variables; vertex p+k is the k-th maximal clique.
    """

    def __init__(self, p: int, cliques: Sequence[frozenset[int]]):
        self.p = p
        self.cliques = tuple(cliques)
        adj: list[list[int]] = [[] for _ in range(p + len(self.cliques))]
        for k, clique in enumerate(self.cliques):
            for v in clique:
                adj[v].append(p + k)
                adj[p + k].append(v)
        self._adj = tuple(tuple(sorted(a)) for a in adj)

    @property
    def num_vertices(self) -> int:
        return self.p + len(self.cliques)

    def neighbors(self, u: int) -> tuple[int, ...]:
        return self._adj[u]

    @property
    def incidences(self) -> frozenset[Edge]:
        return frozenset(
            (v, self.p + k) for k, clique in enumerate(self.cliques) for v in clique
        )


def _bron_kerbosch(adj: Sequence[set[int]], r: set[int], p: set[int], x: set[int]) -> Iterator[frozenset[int]]:
    # Pivoted recursive expansion; fine for the sparse, small graphs used here.
    if not p and not x:
        yield frozenset(r)
        return
    pivot = max(p | x, key=lambda u: len(adj[u] & p))
    for v in list(p - adj[pivot]):
        yield from _bron_kerbosch(adj, r | {v}, p & adj[v], x & adj[v])
        p.remove(v)
        x.add(v)


def maximal_cliques(g: MarkovGraph) -> list[frozenset[int]]:
    """All maximal cliques, sorted for determinism. Isolated vertices count."""
    adj = [set(g.neighbors(u)) for u in range(g.p)]
    found = list(_bron_kerbosch(adj, set(), set(range(g.p)), set()))
    return sorted(found, key=lambda c: tuple(sorted(c)))


def factor_graph(g: MarkovGraph) -> FactorGraph:
    """Factor graph whose clique vertices are the maximal cliques of ``g``."""
    return FactorGraph(g.p, maximal_cliques(g))


def is_forest(g: MarkovGraph) -> bool:
    """True iff the graph has no cycle (union-find over the edge set)."""
    parent = list(range(g.p))
    return all(union(parent, u, v) for u, v in g.edges)


def tree_spin_posterior(m: IsingModel, target: int, evidence: dict[int, int]) -> float:
    """P(X_target = +1 | evidence) on a tree model via upward message passing.

    ``evidence`` maps vertices to +-1 spins. Exact for forests of any size,
    which is what makes correlation-decay checks on deep trees feasible; the
    dense table backend is limited to ENUMERATION_CAP variables. Messages are
    normalized at every node so deep trees cannot overflow.
    """
    g = m.graph
    if not is_forest(g):
        raise ValueError("tree_spin_posterior requires an acyclic graph")
    for v, s in evidence.items():
        if s not in (-1, 1):
            raise ValueError(f"evidence spin for vertex {v} must be -1 or +1")
    if target in evidence:
        return 1.0 if evidence[target] == 1 else 0.0

    def message(child: int, parent: int) -> tuple[float, float]:
        # Scaled (mu(parent=-1), mu(parent=+1)) contributed by child's subtree.
        t = m.theta[_norm_edge(child, parent)]
        sub = [message(w, child) for w in g.neighbors(child) if w != parent]
        out = [0.0, 0.0]
        for pk, sp in ((0, -1), (1, 1)):
            total = 0.0
            for sc in ((evidence[child],) if child in evidence else (-1, 1)):
                val = math.exp(t * sc * sp)
                for mw in sub:
                    val *= mw[(sc + 1) >> 1]
                total += val
            out[pk] = total
        z = out[0] + out[1]
        return (out[0] / z, out[1] / z) if z > 0 else (0.0, 0.0)

    belief = [1.0, 1.0]
    for w in g.neighbors(target):
        mw = message(w, target)
        belief[0] *= mw[0]
        belief[1] *= mw[1]
    z = belief[0] + belief[1]
    if z == 0.0:
        raise ValueError("evidence has zero probability")
    return belief[1] / z
