"""Constructors for the experiment and counter-example topologies with
parameterized Ising edge weights.

All constructors are deterministic given their spec (seeds included). Grid
vertices are numbered row-major so learned-graph comparisons are stable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any

import numpy as np

from .models import Edge, IsingModel, MarkovGraph, union

_ER_MAX_RETRIES = 1000


@dataclass(frozen=True)
class WeightRule:
    """How edge parameters are assigned: ``kind`` names a row of :data:`WEIGHT_RULES`."""

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
    """A graph family, a row of :data:`MODEL_FAMILIES`, plus a weight rule."""

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
        parent = list(range(p))  # union-find: connected iff p - 1 edges join two sets
        if sum(union(parent, u, v) for u, v in g.edges) == p - 1:
            return g
    raise ValueError(f"no connected graph found in {_ER_MAX_RETRIES} draws; raise prob")


def _uniform_weights(edges: list[Edge], lo: float, hi: float, seed: int) -> dict[Edge, float]:
    if not lo < hi:
        raise ValueError("uniform weight range needs lo < hi")
    rng = np.random.default_rng(seed)
    out = {}
    for e in edges:
        while (t := lo + (hi - lo) * rng.random()) == 0.0:
            pass  # a zero weight is no edge: draw again
        out[e] = t
    return out


def _random_sign_weights(edges: list[Edge], theta: float, seed: int) -> dict[Edge, float]:
    rng = np.random.default_rng(seed)
    return {e: theta * (1.0 if rng.random() < 0.5 else -1.0) for e in edges}


def _tree_size(degree: int, depth: int) -> int:
    """Vertices of the complete tree; past depth 62 a tree of degree >= 2 is
    counted to depth 62 only, which is already more than 2^62 vertices."""
    if degree < 2:
        return depth + 1 if degree else 1
    return (degree ** (min(depth, 62) + 1) - 1) // (degree - 1)


#: A grammar maps each name to its builder and its parameters, each a
#: (name, kind) pair: kind ``int`` is a whole number, ``float`` a finite real.
#: A model family's row ends with its size: the vertex count of the graph
#: its builder would make from the same parameters, with nothing built.
Grammar = dict[str, tuple[Any, ...]]
#: Model families; each builder takes the parameters and returns the graph.
MODEL_FAMILIES: Grammar = {
    "grid": (grid_graph, (("K", int),), lambda k: k * k),
    "chain": (chain_graph, (("P", int),), lambda p: p),
    "cycle": (cycle_graph, (("P", int),), lambda p: p),
    "tree": (complete_dary_tree_graph, (("D", int), ("DEPTH", int)), _tree_size),
    "counterexample": (counterexample_graph, (("D", int),), lambda d: d + 2),
    "er": (erdos_renyi_graph, (("P", int), ("PROB", float), ("SEED", int)), lambda p, *_: p),
}
#: Weight rules; each builder takes the sorted edges and the parameters and
#: returns every edge's weight. A zero weight fails in :class:`IsingModel`.
WEIGHT_RULES: Grammar = {
    "const": (lambda edges, theta: dict.fromkeys(edges, theta), (("T", float),)),
    "uniform": (_uniform_weights, (("LO", float), ("HI", float), ("SEED", int))),
    "randsign": (_random_sign_weights, (("T", float), ("SEED", int))),
}


def _resolve(grammar: Grammar, what: str, name: str, params: tuple[float, ...]) -> tuple:
    """``name``'s builder and arguments, whole numbers as ``int``. Raises ValueError for an
    unknown name, a wrong count, or a parameter not finite or, if whole, not integral or
    negative (every whole-number parameter is a count or a seed)."""
    if name not in grammar:
        raise ValueError(f"unknown {what} {name!r}")
    builder, kinds = grammar[name][:2]
    if len(params) != len(kinds):
        raise ValueError(f"{what} {name!r} takes {len(kinds)} parameter(s)")
    for (label, kind), x in zip(kinds, params):
        if not math.isfinite(x) or (kind is int and (x != int(x) or x < 0)):
            must = "a whole number >= 0" if kind is int else "finite"
            raise ValueError(f"{what} {name!r}: {label} must be {must}, got {x!r}")
    return builder, tuple(kind(x) for (_, kind), x in zip(kinds, params))


def grammar_help(grammar: Grammar) -> str:
    """Every entry with its parameters, 'grid:K | ...', then the whole-number ones."""
    forms = " | ".join(f"{name}:{','.join(label for label, _ in kinds)}"
                       for name, (_, kinds, *_) in grammar.items())
    whole = dict.fromkeys(label for _, kinds, *_ in grammar.values() for label, k in kinds if k is int)
    return f"{forms} ({', '.join(whole)}: whole numbers >= 0)"


def model_size(spec: ModelSpec) -> int:
    """The number of vertices ``build(spec)`` would make, from the checked
    parameters alone, so a capacity check can fail before anything is built."""
    _, args = _resolve(MODEL_FAMILIES, "model family", spec.family, spec.params)
    return MODEL_FAMILIES[spec.family][2](*args)


def build(spec: ModelSpec) -> IsingModel:
    """Materialize a spec, its parameters checked first; deterministic given the spec."""
    make_graph, g_args = _resolve(MODEL_FAMILIES, "model family", spec.family, spec.params)
    weigh, w_args = _resolve(WEIGHT_RULES, "weight rule", spec.weights.kind, spec.weights.params)
    g = make_graph(*g_args)
    return IsingModel(g, weigh(g.sorted_edges(), *w_args))


def _parse(grammar: Grammar, what: str, text: str) -> tuple[str, tuple[float, ...]]:
    name, _, rest = text.partition(":")
    name = name.strip()
    try:
        params = tuple(float(x) for x in rest.split(",")) if rest else ()
    except ValueError as exc:
        raise ValueError(f"bad {what} parameters in {text!r}") from exc
    _resolve(grammar, what, name, params)
    return name, params


def parse_model_string(text: str) -> tuple[str, tuple[float, ...]]:
    """Parse CLI model grammar over :data:`MODEL_FAMILIES`, e.g. 'grid:3' or 'er:10,0.3,42'."""
    return _parse(MODEL_FAMILIES, "model family", text)


def parse_weight_string(text: str) -> WeightRule:
    """Parse CLI weight grammar over :data:`WEIGHT_RULES`, e.g. 'const:0.5' or 'randsign:0.5,7'."""
    return WeightRule(*_parse(WEIGHT_RULES, "weight rule", text))


def spec_from_strings(model_text: str, weight_text: str) -> ModelSpec:
    """The spec of a CLI model string and weight string, both checked."""
    return ModelSpec(*parse_model_string(model_text), parse_weight_string(weight_text))


def model_from_strings(model_text: str, weight_text: str) -> IsingModel:
    return build(spec_from_strings(model_text, weight_text))
