"""Markov graphs, zero-field Ising models, inference backends and graph files;
factor graphs and the tree posterior, which check claims, are in :mod:`greedymrf.theory`.

The exact backend enumerates the full table (p <= ENUMERATION_CAP = 24), queried through
``entropy.ExactSource``; ``JointDistribution.dense_marginal``, a plain axis sum, is kept for
tests and the bench span. Larger models sample by the Gibbs chains of :mod:`greedymrf.gibbs`.
Spins -1/+1 are alphabet index 0/1 project-wide.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from .dataset import Alphabet, CapacityError, DiscreteDataset, SPIN_ALPHABET, check_indices

if TYPE_CHECKING:
    from .theory import FactorGraph

ENUMERATION_CAP = 24

Edge = tuple[int, int]


def _norm_edge(u: int, v: int) -> Edge:
    if u == v:
        raise ValueError(f"self-loop at vertex {u}")
    return (u, v) if u < v else (v, u)


class MarkovGraph:
    """Undirected simple graph on vertices 0..p-1."""

    def __init__(self, p: int, edges: Iterable[Edge]):
        if p < 1:
            raise ValueError("graph needs at least one vertex")
        norm = {_norm_edge(u, v) for u, v in edges}
        for u, v in norm:
            if not (0 <= u < p and 0 <= v < p):
                raise ValueError(f"edge ({u},{v}) outside vertex range 0..{p - 1}")
        self.p = p
        self.edges = frozenset(norm)
        adj: list[list[int]] = [[] for _ in range(p)]
        for u, v in norm:
            adj[u].append(v)
            adj[v].append(u)
        self._adj = tuple(tuple(sorted(a)) for a in adj)

    @property
    def num_vertices(self) -> int:
        return self.p

    def neighbors(self, u: int) -> tuple[int, ...]:
        return self._adj[u]

    def degree(self, u: int) -> int:
        return len(self._adj[u])

    def sorted_edges(self) -> list[Edge]:
        return sorted(self.edges)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MarkovGraph):
            return NotImplemented
        return self.p == other.p and self.edges == other.edges

    def __hash__(self) -> int:
        return hash((self.p, self.edges))

    def __repr__(self) -> str:
        return f"MarkovGraph(p={self.p}, |E|={len(self.edges)})"


def graph_distance(g: MarkovGraph | FactorGraph, u: int, v: int) -> float:
    """BFS hop distance between two vertices of any graph with ``num_vertices``
    and ``neighbors``; math.inf if disconnected."""
    u, v = check_indices((u, v), g.num_vertices)
    if u == v:
        return 0
    dist = {u: 0}
    queue = deque([u])
    while queue:
        w = queue.popleft()
        for x in g.neighbors(w):
            if x not in dist:
                dist[x] = dist[w] + 1
                if x == v:
                    return dist[x]
                queue.append(x)
    return math.inf


def girth(g: MarkovGraph | FactorGraph) -> float:
    """Length of the shortest cycle of a graph as graph_distance takes; math.inf for forests.

    Per-vertex BFS with cross-edge detection: every non-tree edge seen from
    root r closes a walk of length d[u]+d[w]+1 that contains a cycle no
    longer than itself, and a root on a shortest cycle reports its length
    exactly, so the minimum over roots is the girth.
    """
    best = math.inf
    n = g.num_vertices
    for root in range(n):
        dist = {root: 0}
        parent = {root: -1}
        queue = deque([root])
        while queue:
            u = queue.popleft()
            if dist[u] * 2 >= best:
                continue
            for w in g.neighbors(u):
                if w not in dist:
                    dist[w] = dist[u] + 1
                    parent[w] = u
                    queue.append(w)
                elif w != parent[u]:
                    best = min(best, dist[u] + dist[w] + 1)
    return best


@dataclass(frozen=True)
class IsingModel:
    """Zero-field Ising model: P(x) proportional to exp(sum theta_uv x_u x_v)."""

    graph: MarkovGraph
    theta: dict[Edge, float]

    def __post_init__(self) -> None:
        norm = {_norm_edge(u, v): t for (u, v), t in self.theta.items()}
        if set(norm) != set(self.graph.edges):
            raise ValueError("theta keys must be exactly the graph edges")
        if any(t == 0.0 for t in norm.values()):
            raise ValueError("edge parameters must be nonzero")
        object.__setattr__(self, "theta", norm)

    @property
    def p(self) -> int:
        return self.graph.p


class JointDistribution:
    """Dense probability table over all |alphabet|^p assignments, the only
    array it holds. Cell index is mixed-radix with variable 0 as the most
    significant digit, so :attr:`table` has one axis per variable and every
    marginal is a sum over the other axes."""

    def __init__(self, p: int, alphabet: Alphabet, probs: np.ndarray):
        probs = np.asarray(probs, dtype=np.float64).ravel()
        if probs.size != alphabet.size**p:
            raise ValueError("probability table has wrong size")
        if not probs.min() >= 0:
            raise ValueError("probability cell negative or NaN")
        if not abs(float(probs.sum()) - 1.0) <= 1e-12:
            raise ValueError("probability table does not sum to 1")
        self.p = p
        self.alphabet = alphabet
        self.probs = probs.view()
        self.probs.setflags(write=False)

    @property
    def table(self) -> np.ndarray:
        """The probabilities as a (q,) * p array, one axis per variable."""
        return self.probs.reshape((self.alphabet.size,) * self.p)

    def dense_marginal(self, variables: Sequence[int]) -> np.ndarray:
        """Exact marginal over ``variables``, a new array indexed as the table in sorted order."""
        variables = set(check_indices(variables, self.p))
        return self.table.sum(axis=tuple(set(range(self.p)) - variables)).ravel()


def check_enumerable(p: int) -> None:
    """Raise :class:`CapacityError` when a p-variable table is past ENUMERATION_CAP."""
    if p > ENUMERATION_CAP:
        raise CapacityError(f"exact enumeration needs p <= {ENUMERATION_CAP}, got {p}")


def exact_joint(m: IsingModel) -> JointDistribution:
    """Enumerate the full 2^p table of a model; p is capped at ENUMERATION_CAP."""
    p = m.p
    check_enumerable(p)
    # Axis w of the (2,) * p table is variable w: spin -1 at index 0, +1 at 1.
    spins = [np.array([-1.0, 1.0]).reshape((2,) + (1,) * (p - 1 - w)) for w in range(p)]
    energy = np.zeros((2,) * p)
    with np.errstate(over="ignore", invalid="ignore"):
        for (u, v), t in m.theta.items():
            energy += t * (spins[u] * spins[v])
        energy -= energy.max()
    if not np.isfinite(energy.min()):  # an overflow above leaves a NaN or -inf
        raise ValueError("model energy is not finite: an edge weight is too large")
    np.exp(energy, out=energy)  # in place, so the table is the only 2^p array
    energy /= energy.sum()
    return JointDistribution(p, SPIN_ALPHABET, energy)


def exact_sample(j: JointDistribution, n: int, seed: int) -> DiscreteDataset:
    """Draw n i.i.d. samples from a dense joint by inverse-CDF lookup."""
    if n < 1:
        raise ValueError("need n >= 1")
    rng = np.random.default_rng(seed)
    cdf = np.cumsum(j.probs)
    cdf[-1] = 1.0
    cells = np.searchsorted(cdf, rng.random(n), side="right")
    np.minimum(cells, j.probs.size - 1, out=cells)
    # Peel the base-q digits of each cell index, the last variable's first,
    # straight into the dataset's column-major array of small ints.
    q = j.alphabet.size
    values = np.empty((n, j.p), dtype=np.min_scalar_type(q - 1), order="F")
    digit = np.empty_like(cells)
    for column in reversed(values.T):
        np.divmod(cells, q, out=(cells, digit))
        column[:] = digit
    return DiscreteDataset([f"v{k}" for k in range(j.p)], j.alphabet, values, _owned=True)


def find(parent: list[int], u: int) -> int:
    """Root of ``u`` in the union-find forest ``parent``, halving the path."""
    while parent[u] != u:
        parent[u] = parent[parent[u]]
        u = parent[u]
    return u


def union(parent: list[int], u: int, v: int) -> bool:
    """Join the sets of ``u`` and ``v``; False if they were already one set."""
    ru, rv = find(parent, u), find(parent, v)
    parent[ru] = rv
    return ru != rv


def write_edge_list(g: MarkovGraph, path: str | Path) -> None:
    """Text format: first line is p, then one 'u v' pair per line, sorted."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{g.p}\n")
        for u, v in g.sorted_edges():
            fh.write(f"{u} {v}\n")


def read_edge_list(path: str | Path) -> MarkovGraph:
    lines = Path(path).read_text(encoding="utf-8").split()
    p = int(lines[0])
    rest = [int(x) for x in lines[1:]]
    if len(rest) % 2:
        raise ValueError(f"{path}: odd number of endpoints")
    edges = [(rest[k], rest[k + 1]) for k in range(0, len(rest), 2)]
    return MarkovGraph(p, edges)


def to_dot(g: MarkovGraph, names: Sequence[str] | None = None) -> str:
    """DOT text for external rendering; vertex order is fixed for determinism."""
    label = ((lambda u: '"' + names[u].replace("\\", "\\\\").replace('"', '\\"') + '"')
             if names is not None else str)
    lines = ["graph G {"]
    for u in range(g.p):
        lines.append(f"  {label(u)};")
    for u, v in g.sorted_edges():
        lines.append(f"  {label(u)} -- {label(v)};")
    lines.append("}")
    return "\n".join(lines) + "\n"
