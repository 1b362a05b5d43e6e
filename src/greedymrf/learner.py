"""Greedy neighborhood selection by conditional-entropy descent, the pruning
post-process, symmetrization into a graph, and the Chow-Liu tree baseline.

Per node, the greedy pass starts from an empty conditioning set and repeatedly
adds the candidate giving the lowest conditional entropy of the node, stopping
as soon as the best remaining candidate improves the current conditional
entropy by no more than epsilon/2. No pass reads another's state, so all
nodes' passes run in lockstep rounds, each scored from one batched table. On
finite samples this can admit spurious vertices; the prune step removes
candidates whose deletion costs no more than epsilon/2 of conditional
entropy, weakest contributor first.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .entropy import DistributionSource, conditional_entropy, mutual_information
from .models import MarkovGraph, union

STOP_THRESHOLD = "threshold"
STOP_CAP = "cap"
STOP_EXHAUSTED = "exhausted"

#: Relative tolerance for comparing entropies: values within
#: ``TIE_TOL * max(1, |h|)`` of each other are tied, so ties go to the lowest
#: index whatever order the counts were summed in, and a gain must clear
#: epsilon/2 by more than that slack.
TIE_TOL = 1e-9


def _slack(h: float) -> float:
    return TIE_TOL * max(1.0, abs(h))


@dataclass(frozen=True)
class LearnerConfig:
    epsilon: float
    max_neighborhood: int | None = None
    symmetrization: str = "AND"

    def __post_init__(self) -> None:
        if not 0.0 < self.epsilon < np.inf:
            raise ValueError(f"epsilon must be positive and finite, got {self.epsilon}")
        if self.max_neighborhood is not None and self.max_neighborhood < 1:
            raise ValueError("neighborhood cap must be >= 1 when present")
        if self.symmetrization not in ("AND", "OR"):
            raise ValueError("symmetrization must be 'AND' or 'OR'")


@dataclass(frozen=True)
class Pick:
    """One accepted vertex. ``runner_up`` is the candidate the same tie rule
    would have picked without ``vertex`` (None if it was the last candidate)
    and ``margin`` its conditional entropy minus ``entropy_after``."""

    vertex: int
    entropy_before: float
    entropy_after: float
    runner_up: int | None = None
    margin: float | None = None


@dataclass(frozen=True)
class NeighborhoodTrace:
    """Picks of one node and why the pass stopped. A threshold stop records
    the best rejected candidate and its entropy gain, which did not exceed
    epsilon/2 plus the ``TIE_TOL`` slack."""

    node: int
    picks: tuple[Pick, ...]
    stop_reason: str
    rejected: int | None = None
    rejected_gain: float | None = None

    @property
    def picked(self) -> tuple[int, ...]:
        return tuple(p.vertex for p in self.picks)


@dataclass(frozen=True)
class LearnResult:
    traces: tuple[NeighborhoodTrace, ...]
    graph: MarkovGraph
    asymmetric_pairs: tuple[tuple[int, int], ...]
    config: LearnerConfig
    pruned: dict[int, tuple[int, ...]] | None = field(default=None)

    def to_dict(self) -> dict:
        """JSON-ready document: traces, edges, asymmetric pairs, config echo."""
        doc = {
            "config": {
                "epsilon": self.config.epsilon,
                "max_neighborhood": self.config.max_neighborhood,
                "tie_break": "lowest_index",
                "symmetrization": self.config.symmetrization,
            },
            "num_vars": self.graph.p,
            "edges": [list(e) for e in self.graph.sorted_edges()],
            "asymmetric_pairs": [list(pair) for pair in self.asymmetric_pairs],
            "traces": [
                {
                    "node": t.node,
                    "stop_reason": t.stop_reason,
                    "picks": [
                        {
                            "vertex": p.vertex,
                            "entropy_before": p.entropy_before,
                            "entropy_after": p.entropy_after,
                        }
                        for p in t.picks
                    ],
                }
                for t in self.traces
            ],
        }
        if self.pruned is not None:
            doc["pruned_neighborhoods"] = {
                str(i): list(v) for i, v in sorted(self.pruned.items())
            }
        return doc


def _lowest(hs: np.ndarray) -> int:
    """Position of the first entry within the ``TIE_TOL`` slack of the minimum."""
    low = float(hs.min())
    return int(np.flatnonzero(hs <= low + _slack(low))[0])


def _lowest_rows(hs: np.ndarray) -> np.ndarray:
    """:func:`_lowest` of every row of a 2-d array, in one pass."""
    low = hs.min(axis=1)
    return (hs <= (low + TIE_TOL * np.maximum(1.0, np.abs(low)))[:, None]).argmax(axis=1)


def greedy_neighborhood(
    src: DistributionSource, i: int, cfg: LearnerConfig
) -> NeighborhoodTrace:
    """The greedy pass of node ``i`` alone (:func:`_greedy_passes` of one node)."""
    return _greedy_passes(src, [i], cfg)[0]


def _greedy_passes(
    src: DistributionSource, nodes: Sequence[int], cfg: LearnerConfig
) -> list[NeighborhoodTrace]:
    """Grow the estimated neighborhood of every node of ``nodes`` one argmin
    pick at a time, all passes in lockstep.

    Round s scores step s of every pass still running from one batched table
    (:meth:`DistributionSource.extension_entropies`); no pass reads another's
    state, so each trace is the one its node would get alone. A candidate is
    accepted only if it lowers the current conditional entropy by more than
    epsilon/2 plus the ``TIE_TOL`` slack; candidates within that slack of the
    minimum are tied, and the lowest vertex index wins.
    """
    if src.p < 2:
        raise ValueError("need at least two variables")
    for i in nodes:
        if not 0 <= i < src.p:
            raise IndexError(f"vertex {i} out of range for p={src.p}")
    cap = cfg.max_neighborhood if cfg.max_neighborhood is not None else src.p - 1
    chosen: list[list[int]] = [[] for _ in nodes]
    picks: list[list[Pick]] = [[] for _ in nodes]
    current = [conditional_entropy(src, i, ()) for i in nodes]
    stops: list[tuple] = [()] * len(nodes)
    running = list(range(len(nodes)))
    # Every running pass has made the same number of picks: the round's.
    for size in range(src.p):
        if not running:
            break
        if size == src.p - 1 or size >= cap:
            for j in running:
                stops[j] = (STOP_EXHAUSTED if size == src.p - 1 else STOP_CAP,)
            break
        hs = src.extension_entropies([(nodes[j], chosen[j]) for j in running])
        # The node and its picks are no candidates; ties still go to the
        # lowest index, which is the variable's own.
        at = np.arange(len(running))
        hs[at[:, None], [[nodes[j], *chosen[j]] for j in running]] = np.inf
        first = _lowest_rows(hs)
        bests = zip(first.tolist(), hs[at, first].tolist())
        seconds = [(None, None)] * len(running)
        if size < src.p - 2:  # another candidate is left
            hs[at, first] = np.inf
            second = _lowest_rows(hs)
            seconds = zip(second.tolist(), hs[at, second].tolist())
        still = []
        for j, (best, best_h), (runner_up, runner_h) in zip(running, bests, seconds):
            if current[j] - best_h <= cfg.epsilon / 2.0 + _slack(current[j]):
                stops[j] = (STOP_THRESHOLD, best, current[j] - best_h)
                continue
            margin = None if runner_up is None else runner_h - best_h
            picks[j].append(Pick(best, current[j], best_h, runner_up, margin))
            chosen[j].append(best)
            current[j] = best_h
            still.append(j)
        running = still
    return [NeighborhoodTrace(i, tuple(picks[j]), *stops[j]) for j, i in enumerate(nodes)]


def symmetrize(
    neighborhoods: Sequence[Iterable[int]], p: int, rule: str
) -> tuple[MarkovGraph, tuple[tuple[int, int], ...]]:
    """Combine directed neighborhood estimates into an undirected edge set.

    AND keeps {i, j} only when each endpoint selected the other; OR keeps the
    pair when either did. Ordered pairs present in one direction only are
    reported regardless of the rule.
    """
    sets = [set(nb) for nb in neighborhoods]
    asym = []
    edges = set()
    for i in range(p):
        for j in sorted(sets[i]):
            if i in sets[j]:
                edges.add((min(i, j), max(i, j)))
            else:
                asym.append((i, j))
                if rule == "OR":
                    edges.add((min(i, j), max(i, j)))
    return MarkovGraph(p, edges), tuple(sorted(asym))


def learn_structure(src: DistributionSource, cfg: LearnerConfig) -> LearnResult:
    """Run the greedy pass of every vertex, in lockstep, and symmetrize the
    estimates."""
    traces = tuple(_greedy_passes(src, range(src.p), cfg))
    graph, asym = symmetrize([t.picked for t in traces], src.p, cfg.symmetrization)
    return LearnResult(traces=traces, graph=graph, asymmetric_pairs=asym, config=cfg)


def prune_neighborhood(
    src: DistributionSource, i: int, candidate_set: Iterable[int], cfg: LearnerConfig
) -> tuple[int, ...]:
    """Drop candidates that stop contributing once the rest are conditioned on.

    Each round recomputes, for every member j, the entropy cost of removing it
    from the conditioning set, all from one marginal
    (:meth:`DistributionSource.removal_entropies`); the smallest contributor
    (lowest index among gains within the ``TIE_TOL`` slack of the minimum) is
    deleted while its gain is <= epsilon/2 plus that slack, until the set is
    stable.
    """
    kept = sorted(set(candidate_set))
    for j in kept:
        if j == i:
            raise ValueError("candidate set must not contain the node itself")
    while kept:
        h_full, without = src.removal_entropies(i, kept)
        slack = _slack(h_full)
        gains = without - h_full
        weakest = int(np.flatnonzero(gains <= gains.min() + slack)[0])
        if gains[weakest] <= cfg.epsilon / 2.0 + slack:
            del kept[weakest]
        else:
            break
    return tuple(kept)


def prune_result(src: DistributionSource, result: LearnResult) -> LearnResult:
    """Apply per-node pruning to a learn result and re-symmetrize."""
    pruned = {
        t.node: prune_neighborhood(src, t.node, t.picked, result.config)
        for t in result.traces
    }
    graph, asym = symmetrize(
        [pruned[i] for i in range(src.p)], src.p, result.config.symmetrization
    )
    return LearnResult(
        traces=result.traces,
        graph=graph,
        asymmetric_pairs=asym,
        config=result.config,
        pruned=pruned,
    )


def chow_liu(src: DistributionSource) -> MarkovGraph:
    """Maximum spanning tree under pairwise mutual-information weights.

    Kruskal's rule takes the edge of largest mutual information next; edges
    within the ``TIE_TOL`` slack of it are tied and the lexicographically
    lowest goes first, so summation order cannot change the tree.
    """
    p = src.p
    if p < 2:
        raise ValueError("need at least two variables")
    pairs = [(u, v) for u in range(p) for v in range(u + 1, p)]
    scores = np.array([-mutual_information(src, u, v) for u, v in pairs])
    parent = list(range(p))
    edges: list[tuple[int, int]] = []
    while len(edges) < p - 1:
        best = _lowest(scores)
        scores[best] = np.inf
        if union(parent, *pairs[best]):
            edges.append(pairs[best])
    return MarkovGraph(p, edges)
