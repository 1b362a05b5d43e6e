"""Seeded benchmark inputs and their ground truth, built with numpy only.

The learn workloads read CSV files written here. They never come from
greedymrf's own samplers, so a sampler rewrite cannot change what the
learner is asked to recover. Each input directory holds the CSV and a
``truth.json`` with the true edge set by variable name.

Usage: python bench/inputs.py {grid10|votes|er18} SEED ROOT
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np

GRID_K = 10
GRID_THETA = 0.4
GRID_ROWS = 5000
GRID_SWEEPS = 200

# er:P,PROB,GRAPH_SEED of the oracle workload.
ER_MODEL = (18, 0.15, 3)

VOTE_MEMBERS = 20
VOTE_NOISE = 20
VOTE_THETA = 0.8
VOTE_ROWS = 100_000
VOTE_MEMBER_ABSENT = 0.05
VOTE_NOISE_ABSENT = 0.40


def grid_edges(k: int) -> list[tuple[int, int]]:
    """Row-major k x k lattice edges, each as (lower, higher) vertex index."""
    out = []
    for r in range(k):
        for c in range(k):
            v = r * k + c
            if c + 1 < k:
                out.append((v, v + 1))
            if r + 1 < k:
                out.append((v, v + k))
    return out


def sample_grid(seed: int, k: int = GRID_K, theta: float = GRID_THETA,
                rows: int = GRID_ROWS, sweeps: int = GRID_SWEEPS) -> np.ndarray:
    """``rows`` independent checkerboard heat-bath chains on a zero-field
    k x k Ising grid; the last state of each chain is one +-1 sample row."""
    rng = np.random.default_rng(seed)
    # Chains are the last axis so each site's states are contiguous; the
    # zero border gives edge sites fewer neighbours (free boundary).
    s = np.zeros((k + 2, k + 2, rows), dtype=np.int8)
    s[1:-1, 1:-1] = rng.choice(np.array([-1, 1], dtype=np.int8), size=(k, k, rows))
    inner = s[1:-1, 1:-1]
    parity = np.add.outer(np.arange(k), np.arange(k)) % 2
    # P(up) for every possible local field, -4..4, indexed by field + 4.
    p_up = (1.0 / (1.0 + np.exp(-2.0 * theta * np.arange(-4, 5)))).astype(np.float32)
    for _ in range(sweeps):
        for color in (0, 1):
            mask = parity == color
            field = s[:-2, 1:-1] + s[2:, 1:-1] + s[1:-1, :-2] + s[1:-1, 2:]
            prob = p_up[field[mask] + 4]
            up = rng.random(prob.shape, dtype=np.float32) < prob
            inner[mask] = np.where(up, 1, -1).astype(np.int8)
    return inner.reshape(k * k, rows).T.copy()


def erdos_renyi_edges(p: int, prob: float, seed: int) -> list[tuple[int, int]]:
    """Edges of the CLI's ``er:P,PROB,SEED`` model: pairs (u < v) in
    lexicographic order, each kept when a uniform draw falls below ``prob``;
    draws are repeated until the graph is connected."""
    rng = np.random.default_rng(seed)
    while True:
        edges = [(u, v) for u in range(p) for v in range(u + 1, p) if rng.random() < prob]
        root = list(range(p))

        def find(u: int) -> int:
            while root[u] != u:
                u = root[u]
            return u

        for u, v in edges:
            root[find(u)] = find(v)
        if len({find(u) for u in range(p)}) == 1:
            return edges


def tree_parent(v: int) -> int:
    """Parent of member ``v`` in the heap-ordered binary tree rooted at 0."""
    return (v - 1) // 2


def sample_votes(seed: int) -> tuple[list[str], np.ndarray, list[tuple[str, str]]]:
    """Voting table: members on a binary-tree Ising model interleaved with
    independent low-participation columns.

    Returns (column names, token matrix, true member edges by name).
    """
    rng = np.random.default_rng(seed)
    agree = 1.0 / (1.0 + np.exp(-2.0 * VOTE_THETA))
    spins = np.empty((VOTE_ROWS, VOTE_MEMBERS), dtype=np.int8)
    spins[:, 0] = np.where(rng.random(VOTE_ROWS) < 0.5, 1, -1)
    for v in range(1, VOTE_MEMBERS):
        same = rng.random(VOTE_ROWS) < agree
        spins[:, v] = np.where(same, spins[:, tree_parent(v)], -spins[:, tree_parent(v)])
    tokens = np.array(["Nay", "Yea", "Absent"])
    members = np.where(spins > 0, 1, 0)
    members[rng.random(members.shape) < VOTE_MEMBER_ABSENT] = 2
    noise = np.where(rng.random((VOTE_ROWS, VOTE_NOISE)) < 0.5, 1, 0)
    noise[rng.random(noise.shape) < VOTE_NOISE_ABSENT] = 2
    names: list[str] = []
    cols: list[np.ndarray] = []
    for j in range(max(VOTE_MEMBERS, VOTE_NOISE)):
        if j < VOTE_MEMBERS:
            names.append(f"m{j:02d}")
            cols.append(members[:, j])
        if j < VOTE_NOISE:
            names.append(f"x{j:02d}")
            cols.append(noise[:, j])
    table = tokens[np.stack(cols, axis=1)]
    edges = [(f"m{tree_parent(v):02d}", f"m{v:02d}") for v in range(1, VOTE_MEMBERS)]
    return names, table, edges


def _write_csv(path: Path, names: list[str], tokens: np.ndarray) -> None:
    body = "\n".join(",".join(row) for row in tokens.tolist())
    path.write_text(",".join(names) + "\n" + body + "\n", encoding="utf-8")


def _publish(out: Path, names: list[str] | None, tokens: np.ndarray | None,
             edges: list[tuple[str, str]]) -> None:
    """Write data.csv and truth.json into a temporary sibling, then rename it
    into place so an interrupted run never leaves a half-written input."""
    tmp = out.with_name(out.name + ".tmp")
    tmp.mkdir(parents=True, exist_ok=True)
    if names is not None:
        _write_csv(tmp / "data.csv", names, tokens)
    truth = {"edges": sorted([sorted(e) for e in edges])}
    (tmp / "truth.json").write_text(json.dumps(truth) + "\n", encoding="utf-8")
    tmp.rename(out)


def _grid(seed: int):
    spins = sample_grid(seed)
    names = [f"v{v}" for v in range(GRID_K * GRID_K)]
    edges = [(names[u], names[v]) for u, v in grid_edges(GRID_K)]
    return names, np.where(spins > 0, "1", "-1"), edges


def _er18(seed: int):
    # The oracle builds its model itself; only the truth is written here.
    p, prob, graph_seed = ER_MODEL
    return None, None, [(str(u), str(v)) for u, v in erdos_renyi_edges(p, prob, graph_seed)]


KINDS = {"grid10": _grid, "votes": sample_votes, "er18": _er18}


def ensure(kind: str, root: Path, seed: int) -> Path:
    """Directory holding ``kind``'s input for ``seed``, made once and cached:
    data.csv (absent for er18) and truth.json."""
    out = root / f"{kind}-{seed}"
    if not out.exists():
        _publish(out, *KINDS[kind](seed))
    return out


if __name__ == "__main__":
    kind, seed, root = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    print(ensure(kind, root, seed))
