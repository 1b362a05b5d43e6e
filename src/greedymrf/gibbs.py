"""Single-site Gibbs sampling of zero-field Ising models, for models past the
exact enumeration cap: chains advanced one colour class at a time across a
batch, and the Gelman-Rubin check of whether they mixed."""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate
from typing import Sequence

import numpy as np

from .dataset import _MAX_DENSE_CELLS, SPIN_ALPHABET, CapacityError, DiscreteDataset
from .models import IsingModel, MarkovGraph


@dataclass(frozen=True)
class GibbsConfig:
    """Chain controls. ``burn_in`` / ``thinning`` are in full sweeps over all
    sites; burn_in defaults to 1000*p when left as None."""

    seed: int
    burn_in: int | None = None
    thinning: int = 10

    def __post_init__(self) -> None:
        if self.thinning < 1 or (self.burn_in is not None and self.burn_in < 0):
            raise ValueError("need gibbs thinning >= 1 and burn-in >= 0")
        if self.seed < 0:
            raise ValueError(f"need seed >= 0, got {self.seed}")


def check_couplings(p: int) -> None:
    """Raise :class:`CapacityError` when a p x p coupling matrix is past the
    dense-table cap (p > 4096)."""
    if p * p > _MAX_DENSE_CELLS:
        raise CapacityError(f"a {p} x {p} coupling matrix exceeds the dense-table cap")


def coupling_matrix(m: IsingModel, position: Sequence[int] | None = None) -> np.ndarray:
    """The symmetric p x p matrix W = 2*Theta: W[u, v] = 2*theta_uv on each
    edge, 0 elsewhere. For +-1 spins x, site v's local field is h_v = x @ W[:, v]
    and P(X_v = +1 | the other spins) = 1 / (1 + exp(-h_v)). With
    ``position``, site v is row and column ``position[v]`` instead of v.
    Raises :class:`CapacityError` before allocating when p^2 exceeds the
    dense-table cap (p > 4096)."""
    check_couplings(m.p)
    at = range(m.p) if position is None else position
    w = np.zeros((m.p, m.p))
    for (u, v), t in m.theta.items():
        w[at[u], at[v]] = w[at[v], at[u]] = 2.0 * t
    return w


def gibbs_full_conditional(m: IsingModel, site: int, spins: Sequence[int]) -> float:
    """P(X_site = +1 | all other spins) for +-1 spin values; the value given
    for ``site`` itself is ignored."""
    h = float(np.asarray(spins, dtype=np.float64) @ coupling_matrix(m)[:, site])
    return 1.0 / (1.0 + math.exp(-h))


def greedy_colouring(g: MarkovGraph) -> list[int]:
    """Proper vertex colouring: vertex by vertex in index order, the lowest
    colour no lower-indexed neighbour holds. Grids take two colours."""
    colour: list[int] = []
    for u in range(g.p):
        taken = {colour[v] for v in g.neighbors(u) if v < u}
        colour.append(next(c for c in range(len(taken) + 1) if c not in taken))
    return colour


# Uniforms are drawn at most this many doubles (64 KiB) at a time, or one
# sweep of every chain where that is more. On a 5x5 grid with 4 chains (2
# vCPUs) blocks of 2^16 doubles ran no faster and added about 0.6 MiB to the
# peak memory of the whole experiment.
_BLOCK_DOUBLES = 1 << 13


class GibbsChains:
    """Independent single-site Gibbs chains of one model, one per
    :class:`GibbsConfig`, advanced together by colour class (chromatic Gibbs:
    Gonzalez, Low, Gretton & Guestrin, AISTATS 2011). The configs share one
    burn-in and thinning, since the chains sweep in step.

    A sweep updates the classes of :func:`greedy_colouring` in turn, lowest
    colour first. No two sites of a class are adjacent, so a whole class is
    one update across every chain: its local fields are ``W[class] @ spins``
    with W from :func:`coupling_matrix` and the spins held site-major,
    (sites, chains), so that each class's rows of W, fields, thresholds and
    spins are contiguous blocks. Chain b starts from
    ``default_rng(cfgs[b].seed).integers(0, 2, size=p)``; the same generator
    then gives one uniform per site update, sweep after sweep, sites in class
    order. A chain's rows therefore depend on its own config only, not on the
    batch, and several :meth:`draw` calls give the rows of one call.
    """

    def __init__(self, m: IsingModel, cfgs: Sequence[GibbsConfig]):
        if len({(c.burn_in, c.thinning) for c in cfgs}) != 1:
            raise ValueError("need at least one chain, all with one burn-in and thinning")
        colour = greedy_colouring(m.graph)
        # Sites sorted by colour, so each class is a slice of this order.
        order = sorted(range(m.p), key=lambda v: (colour[v], v))
        self._column = sorted(range(m.p), key=order.__getitem__)  # site -> position in order
        w = coupling_matrix(m, self._column)
        # A column sum of |2W| is the largest field a site sees; W is symmetric,
        # so its rows are its columns, each summed without a p x p copy.
        with np.errstate(over="ignore"):
            if not all(np.isfinite(2.0 * np.abs(col).sum()) for col in w):
                raise ValueError("model energy is not finite: an edge weight is too large")
        # With bits b = (x + 1) / 2, the field x @ W is b @ 2W - sum(W); the
        # kernel keeps bits and moves sum(W) onto the threshold.
        self._offset = w.sum(axis=0)
        w *= 2.0
        ends = list(accumulate(colour.count(c) for c in range(max(colour) + 1)))
        # W is symmetric, so a class's columns are its rows: a contiguous view
        # of the one p x p matrix, not a copy.
        self._classes = [(slice(a, b), w[a:b]) for a, b in zip([0] + ends, ends)]
        self._rngs = [np.random.default_rng(c.seed) for c in cfgs]
        first = np.array([r.integers(0, 2, size=m.p) for r in self._rngs]).reshape(-1, m.p)
        self._bits = np.ascontiguousarray(first[:, order].T, dtype=np.float64)  # (p, chains)
        burn_in, self._thinning = cfgs[0].burn_in, cfgs[0].thinning
        self._burn = 1000 * m.p if burn_in is None else burn_in

    def draw(self, rows: int) -> np.ndarray:
        """The next ``rows`` samples of every chain as alphabet indices (0 for
        spin -1, 1 for +1), shaped (chains, rows, p). The first call runs the
        burn-in first; each row follows ``thinning`` further sweeps."""
        bits = self._bits
        p, chains = bits.shape
        sweeps = self._burn + rows * self._thinning
        block = max(1, min(sweeps, _BLOCK_DOUBLES // (chains * p)))
        # A site turns +1 when u < sigmoid(h), that is when log(u) - log1p(-u) < h.
        # Each chain's thresholds are made in its own block, then laid out
        # (sweep, site, chain) beside the other chains'.
        logit = np.empty((block, p, chains))
        uniforms, scratch = np.empty((block, p)), np.empty((block, p))
        # Comparing into bools and copying them is faster than comparing into
        # floats; the ``dot`` method skips ``np.dot``'s dispatch, same product.
        new = np.empty((p, chains), dtype=bool)
        steps = [(logit[:, s], w.dot, np.empty((w.shape[0], chains)), new[s], bits[s])
                 for s, w in self._classes]
        out = np.empty((chains, rows, p), dtype=np.uint8)
        row, take_at = 0, self._burn + self._thinning
        less = np.less
        for start in range(0, sweeps, block):
            size = min(block, sweeps - start)
            u, v = uniforms[:size], scratch[:size]
            with np.errstate(divide="ignore"):  # u = 0 gives -inf: always +1
                for b, rng in enumerate(self._rngs):
                    rng.random(out=u)
                    np.log1p(np.negative(u, out=v), out=v)
                    np.log(u, out=u)
                    u -= v
                    u += self._offset
                    logit[:size, :, b] = u
            for t in range(size):
                for threshold, dot, field, class_new, class_bits in steps:
                    dot(bits, field)
                    less(threshold[t], field, class_new)
                    class_bits[...] = class_new
                if start + t + 1 == take_at:
                    out[:, row] = bits.T
                    row += 1
                    take_at += self._thinning
        self._burn = 0
        return out[:, :, self._column]


def gibbs_sample(m: IsingModel, n: int, cfg: GibbsConfig) -> DiscreteDataset:
    """``n`` rows of one chromatic Gibbs chain (:class:`GibbsChains`);
    deterministic given the seed."""
    if n < 1:
        raise ValueError("need n >= 1")
    values = GibbsChains(m, [cfg]).draw(n)[0]
    return DiscreteDataset([f"v{k}" for k in range(m.p)], SPIN_ALPHABET, values)


def gelman_rubin(stat: np.ndarray) -> float | None:
    """Potential scale reduction R-hat of one statistic traced by m chains
    of n draws, shaped (m, n) (Gelman & Rubin 1992): sqrt(((n-1)/n W + B/n)
    / W), with W the mean within-chain variance and B/n the variance of the
    chain means. None for fewer than two chains or draws, or when W is 0.
    R-hat is unchanged by an affine map of the statistic."""
    stat = np.asarray(stat, dtype=np.float64)
    m, n = stat.shape
    if m < 2 or n < 2:
        return None
    within = float(stat.var(axis=1, ddof=1).mean())
    if within == 0.0:
        return None
    between = float(stat.mean(axis=1).var(ddof=1))
    return math.sqrt(((n - 1) / n * within + between) / within)


def chain_rhats(g: MarkovGraph, samples: np.ndarray) -> tuple[float | None, float | None]:
    """(R-hat of the magnetization, largest R-hat over the edges' x_u * x_v)
    of chains shaped (chains, rows, p) in alphabet indices. Both statistics
    are taken in an affine form: the mean index over sites, and whether u and
    v disagree. An edge whose R-hat is None is left out of the maximum."""
    edges = [gelman_rubin(samples[:, :, u] != samples[:, :, v]) for u, v in g.sorted_edges()]
    return gelman_rubin(samples.mean(axis=2)), max((r for r in edges if r is not None), default=None)
