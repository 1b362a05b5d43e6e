"""Constructors for the experiment and counter-example topologies with
parameterized Ising edge weights.

All constructors are deterministic given their spec (seeds included). Grid
vertices are numbered row-major so learned-graph comparisons are stable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .models import Edge, IsingModel, MarkovGraph, union

_ER_MAX_RETRIES = 1000


@dataclass(frozen=True)
class WeightRule:
    """How edge parameters are assigned.

    kind: 'const' (theta), 'uniform' (lo, hi, seed) drawing magnitudes from
    the open interval, or 'randsign' (theta, seed) for constant magnitude
    with a random sign per edge.
    """

    kind: str
    params: tuple[float, ...]

    @staticmethod
    def constant(theta: float) -> "WeightRule":
        return WeightRule("const", (theta,))

    @staticmethod
    def uniform_range(lo: float, hi: float, seed: int) -> "WeightRule":
        return WeightRule("uniform", (lo, hi, float(seed)))

    @staticmethod
    def constant_magnitude_random_sign(theta: float, seed: int) -> "WeightRule":
        return WeightRule("randsign", (theta, float(seed)))


@dataclass(frozen=True)
class ModelSpec:
    """A graph family plus a weight rule.

    family: 'grid' (k), 'chain' (p), 'cycle' (p), 'tree' (D, depth),
    'counterexample' (D), 'er' (p, prob, seed).
    """

    family: str
    params: tuple[float, ...]
    weights: WeightRule

    @staticmethod
    def grid(k: int, weights: WeightRule) -> "ModelSpec":
        return ModelSpec("grid", (float(k),), weights)

    @staticmethod
    def chain(p: int, weights: WeightRule) -> "ModelSpec":
        return ModelSpec("chain", (float(p),), weights)

    @staticmethod
    def cycle(p: int, weights: WeightRule) -> "ModelSpec":
        return ModelSpec("cycle", (float(p),), weights)

    @staticmethod
    def complete_dary_tree(degree: int, depth: int, weights: WeightRule) -> "ModelSpec":
        return ModelSpec("tree", (float(degree), float(depth)), weights)

    @staticmethod
    def counterexample(degree: int, weights: WeightRule) -> "ModelSpec":
        return ModelSpec("counterexample", (float(degree),), weights)

    @staticmethod
    def erdos_renyi(p: int, prob: float, seed: int, weights: WeightRule) -> "ModelSpec":
        return ModelSpec("er", (float(p), prob, float(seed)), weights)


def grid_graph(k: int) -> MarkovGraph:
    """k x k lattice, row-major vertex order."""
    if k < 2:
        raise ValueError("grid needs k >= 2")
    edges = []
    for r in range(k):
        for c in range(k):
            v = r * k + c
            if c + 1 < k:
                edges.append((v, v + 1))
            if r + 1 < k:
                edges.append((v, v + k))
    return MarkovGraph(k * k, edges)


def chain_graph(p: int) -> MarkovGraph:
    if p < 2:
        raise ValueError("chain needs p >= 2")
    return MarkovGraph(p, [(v, v + 1) for v in range(p - 1)])


def cycle_graph(p: int) -> MarkovGraph:
    if p < 3:
        raise ValueError("cycle needs p >= 3")
    return MarkovGraph(p, [(v, (v + 1) % p) for v in range(p)])


def complete_dary_tree_graph(degree: int, depth: int) -> MarkovGraph:
    """Complete tree where every internal node has ``degree`` children; the
    root is vertex 0 and levels are numbered breadth-first."""
    if degree < 1 or depth < 1:
        raise ValueError("tree needs degree >= 1 and depth >= 1")
    edges: list[Edge] = []
    level = [0]
    nxt = 1
    for _ in range(depth):
        children: list[int] = []
        for parent in level:
            for _ in range(degree):
                edges.append((parent, nxt))
                children.append(nxt)
                nxt += 1
        level = children
    return MarkovGraph(nxt, edges)


def counterexample_graph(degree: int) -> MarkovGraph:
    """Two hubs (0 and D+1) joined through D parallel middle vertices."""
    if degree < 1:
        raise ValueError("counterexample needs D >= 1")
    edges = []
    for i in range(1, degree + 1):
        edges.append((0, i))
        edges.append((i, degree + 1))
    return MarkovGraph(degree + 2, edges)


def erdos_renyi_graph(p: int, prob: float, seed: int) -> MarkovGraph:
    """Connected G(p, prob); disconnected draws are resampled (bounded)."""
    if p < 2 or not 0.0 < prob < 1.0:
        raise ValueError("erdos_renyi needs p >= 2 and 0 < prob < 1")
    rng = np.random.default_rng(seed)
    for _ in range(_ER_MAX_RETRIES):
        edges = [
            (u, v) for u in range(p) for v in range(u + 1, p) if rng.random() < prob
        ]
        g = MarkovGraph(p, edges)
        if _connected(g):
            return g
    raise ValueError(f"no connected graph found in {_ER_MAX_RETRIES} draws; raise prob")


def _connected(g: MarkovGraph) -> bool:
    parent = list(range(g.p))
    return sum(union(parent, u, v) for u, v in g.edges) == g.p - 1


def _assign_weights(g: MarkovGraph, rule: WeightRule) -> dict[Edge, float]:
    edges = g.sorted_edges()
    if rule.kind == "const":
        (theta,) = rule.params
        if theta == 0.0:
            raise ValueError("constant weight must be nonzero")
        return {e: theta for e in edges}
    if rule.kind == "uniform":
        lo, hi, seed = rule.params
        if not lo < hi:
            raise ValueError("uniform weight range needs lo < hi")
        rng = np.random.default_rng(int(seed))
        out = {}
        for e in edges:
            t = 0.0
            while t == 0.0:
                t = lo + (hi - lo) * rng.random()
            out[e] = t
        return out
    if rule.kind == "randsign":
        theta, seed = rule.params
        if theta == 0.0:
            raise ValueError("weight magnitude must be nonzero")
        rng = np.random.default_rng(int(seed))
        return {e: theta * (1.0 if rng.random() < 0.5 else -1.0) for e in edges}
    raise ValueError(f"unknown weight rule {rule.kind!r}")


def build(spec: ModelSpec) -> IsingModel:
    """Materialize a spec into an Ising model; deterministic given the spec."""
    fam = spec.family
    if fam == "grid":
        g = grid_graph(int(spec.params[0]))
    elif fam == "chain":
        g = chain_graph(int(spec.params[0]))
    elif fam == "cycle":
        g = cycle_graph(int(spec.params[0]))
    elif fam == "tree":
        g = complete_dary_tree_graph(int(spec.params[0]), int(spec.params[1]))
    elif fam == "counterexample":
        g = counterexample_graph(int(spec.params[0]))
    elif fam == "er":
        g = erdos_renyi_graph(int(spec.params[0]), spec.params[1], int(spec.params[2]))
    else:
        raise ValueError(f"unknown model family {fam!r}")
    return IsingModel(g, _assign_weights(g, spec.weights))


def parse_model_string(text: str) -> tuple[str, tuple[float, ...]]:
    """Parse CLI model grammar: 'grid:3', 'chain:5', 'cycle:7', 'tree:2,3',
    'counterexample:8', 'er:10,0.3,42'."""
    fam, _, rest = text.partition(":")
    fam = fam.strip()
    if fam not in ("grid", "chain", "cycle", "tree", "counterexample", "er"):
        raise ValueError(f"unknown model family {fam!r}")
    try:
        params = tuple(float(x) for x in rest.split(",")) if rest else ()
    except ValueError as exc:
        raise ValueError(f"bad model parameters in {text!r}") from exc
    want = {"grid": 1, "chain": 1, "cycle": 1, "tree": 2, "counterexample": 1, "er": 3}
    if len(params) != want[fam]:
        raise ValueError(f"family {fam!r} takes {want[fam]} parameter(s)")
    return fam, params


def parse_weight_string(text: str) -> WeightRule:
    """Parse CLI weight grammar: 'const:0.5', 'uniform:0.1,0.5,7',
    'randsign:0.5,7'."""
    kind, _, rest = text.partition(":")
    kind = kind.strip()
    try:
        params = tuple(float(x) for x in rest.split(",")) if rest else ()
    except ValueError as exc:
        raise ValueError(f"bad weight parameters in {text!r}") from exc
    want = {"const": 1, "uniform": 3, "randsign": 2}
    if kind not in want:
        raise ValueError(f"unknown weight rule {kind!r}")
    if len(params) != want[kind]:
        raise ValueError(f"weight rule {kind!r} takes {want[kind]} parameter(s)")
    return WeightRule(kind, params)


def model_from_strings(model_text: str, weight_text: str) -> IsingModel:
    fam, params = parse_model_string(model_text)
    return build(ModelSpec(fam, params, parse_weight_string(weight_text)))


def max_theta_for_tree_decay(degree: int) -> float:
    """Largest admissible |theta| for the exponential tree-decay regime,
    ln(2) / (2 * degree)."""
    return math.log(2.0) / (2.0 * degree)
