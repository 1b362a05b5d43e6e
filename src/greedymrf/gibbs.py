"""Single-site Gibbs sampling of zero-field Ising models, for models past the
exact enumeration cap: chains advanced one colour class at a time, with time
segments of every chain run side by side as lanes of one batch, each from its
chain's exact state found by a bounding-chain lead-in; and the Gelman-Rubin
check of whether they mixed."""

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


# Thresholds are made in blocks of at most this many doubles (64 KiB) per
# buffer, or one sweep of every lane where that is more. On a 5x5 grid with
# 4 chains (2 vCPUs) blocks of 2^16 doubles ran no faster and added about
# 0.6 MiB to the peak memory of the whole experiment.
_BLOCK_DOUBLES = 1 << 13
# A draw runs at most _LANES (chain, time segment) lanes side by side, and
# finds each segment's start state by a lead-in of _LEAD_IN sweeps (see
# GibbsChains.draw). On a 5x5 grid with 4 chains (2 vCPUs), 32 lanes drew
# 9% faster than 16 and 64 slower; over 60 seed sets (960 lanes) a lead-in
# of 128 sweeps left 5 lanes' bounds apart, one of 256 none.
_LANES = 16
_LEAD_IN = 256


def _stream(state: dict, doubles: int) -> np.random.Generator:
    """A generator ``doubles`` doubles past the PCG64 ``state``: ``random()``
    takes one 64-bit step per double."""
    bits = np.random.PCG64(0)
    bits.state = state
    bits.advance(doubles)
    return np.random.Generator(bits)


class GibbsChains:
    """Independent single-site Gibbs chains of one model, one per
    :class:`GibbsConfig`, advanced together by colour class (chromatic Gibbs:
    Gonzalez, Low, Gretton & Guestrin, AISTATS 2011). The configs share one
    burn-in and thinning, since the chains sweep in step.

    A sweep updates the classes of :func:`greedy_colouring` in turn, lowest
    colour first. No two sites of a class are adjacent, so a whole class is
    one update across every lane: its local fields are ``W[class] @ spins``
    with W from :func:`coupling_matrix` and the spins held site-major,
    (sites, lanes), so that each class's rows of W, fields, thresholds and
    spins are contiguous blocks. Chain b starts from
    ``default_rng(cfgs[b].seed).integers(0, 2, size=p)``; the same generator
    then gives one uniform per site update, sweep after sweep, sites in class
    order. A chain's rows therefore depend on its own config only, not on the
    batch, and several :meth:`draw` calls give the rows of one call.

    :meth:`draw` runs time segments of the chains as lanes of one batch, each
    from its chain's exact state, so it leaves the rows, spins and generator
    positions of the sweeps run one after another.
    """

    def __init__(self, m: IsingModel, cfgs: Sequence[GibbsConfig]):
        if len({(c.burn_in, c.thinning) for c in cfgs}) != 1:
            raise ValueError("need at least one chain, all with one burn-in and thinning")
        colour = greedy_colouring(m.graph)
        # Sites sorted by colour, so each class is a slice of this order.
        order = sorted(range(m.p), key=lambda v: (colour[v], v))
        self._column = sorted(range(m.p), key=order.__getitem__)  # site -> position in order
        w = coupling_matrix(m, self._column)
        # A row sum of |2W| is the largest field a site sees; W is symmetric,
        # so each row is summed without a p x p copy.
        with np.errstate(over="ignore"):
            mass = np.array([2.0 * np.abs(row).sum() for row in w])
        if not np.isfinite(mass).all():
            raise ValueError("model energy is not finite: an edge weight is too large")
        # A dot of p terms rounds, in any order, to within p * 2^-53 of its
        # terms' magnitudes; a lead-in widens its bounds by 8 (p + 2) times
        # that, for the rounding of the field, its bounds and their widening.
        # Shaped (sites, lower and upper bound, 1).
        self._slack = 2.0**-50 * (m.p + 2) * mass[:, None, None] * [[-1.0], [1.0]]
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

    def _run(self, bits: np.ndarray, streams: list, sweeps: int,
             rows: np.ndarray | None = None) -> None:
        """Advance the lanes ``bits``, (sites, lanes), by ``sweeps`` sweeps,
        lane l's uniforms drawn from ``streams[l]``. With ``rows``, (lanes,
        rows, p), store the spins after every ``thinning``-th sweep. ``bits``
        twice as wide as ``streams`` is a bounding chain per lane: all lanes'
        lower spins, then their upper spins, each field widened into a bound
        on the rounded field of any spins between them."""
        if not (sweeps and streams):
            return
        p, width = bits.shape
        lanes = len(streams)
        pairs = width // lanes
        block = max(1, min(sweeps, _BLOCK_DOUBLES // (lanes * p)))
        # A site turns +1 when u < sigmoid(h), that is when log(u) - log1p(-u) < h.
        # A block's thresholds are made lane-major, with log1p(-u) held in
        # the threshold buffer, then laid out (sweep, site, lane).
        uniforms, logit = np.empty(block * p * lanes), np.empty((block, p, lanes))
        # Comparing into bools and copying them is faster than comparing into
        # floats; the ``dot`` method skips ``np.dot``'s dispatch, same product.
        new = np.empty((p, pairs, lanes), dtype=bool)
        spins = bits.reshape(p, pairs, lanes)
        lo, hi = spins[:, 0], spins[:, -1]
        steps = []
        for s, w in self._classes:
            field = np.empty((w.shape[0], width))
            widen = None
            if pairs == 2:
                # Exactly, x @ W lies within lo @ W and hi @ W widened by the
                # negative couplings to sites where lo < hi.
                row, col = np.nonzero(w < 0)
                widen = (self._slack[s], row, col, w[row, col, None])
            steps.append((logit[:, s, None], w.dot, field, field.reshape(-1, pairs, lanes),
                          widen, new[s], spins[s]))
        less = np.less
        for start in range(0, sweeps, block):
            size = min(block, sweeps - start)
            u = uniforms[:lanes * size * p].reshape(lanes, size, p)
            v = logit.reshape(-1)[:lanes * size * p].reshape(lanes, size, p)
            for rng, lane in zip(streams, u):
                rng.random(out=lane)
            with np.errstate(divide="ignore"):  # u = 0 gives -inf: always +1
                np.log1p(np.negative(u, out=v), out=v)
                np.log(u, out=u)
            u -= v
            u += self._offset
            logit[:size] = u.transpose(1, 2, 0)
            for t in range(size):
                for threshold, dot, field, fields, widen, class_new, class_spins in steps:
                    dot(bits, field)
                    if widen is not None:
                        slack, row, col, weight = widen
                        fields += slack
                        if len(row):
                            shift = np.zeros((len(field), lanes))
                            np.add.at(shift, row, weight * (lo[col] - hi[col]))
                            fields[:, 0] -= shift
                            fields[:, 1] += shift
                    less(threshold[t], fields, class_new)
                    class_spins[...] = class_new
                if rows is not None and (start + t + 1) % self._thinning == 0:
                    rows[:, (start + t + 1) // self._thinning - 1] = bits.T

    def draw(self, rows: int) -> np.ndarray:
        """The next ``rows`` samples of every chain as alphabet indices (0 for
        spin -1, 1 for +1), shaped (chains, rows, p). The first call runs the
        burn-in first; each row follows ``thinning`` further sweeps.

        Each chain's rows are cut into equal time segments, the last one
        padded, and each (chain, segment) lane gets a lead-in: the
        ``_LEAD_IN`` sweeps before the segment, run from all spins -1 and all
        +1 at once on the chain's own uniforms. That is a bounding chain
        (Huber 2004): its lower and upper spins hold between them the path of
        every state the lead-in could start from, for the rounded fields too.
        Where they meet at the segment start, every entry state, the true one
        included, ends in that state (the coupling of Propp & Wilson 1996),
        so the segment runs from its chain's exact state. A lane whose bounds
        did not meet runs after its predecessor, from that lane's end state,
        and a first segment from its chain's true start, burn-in and all. A
        lane's uniforms come from a copy of its chain's generator moved to its
        first sweep by ``bit_generator.advance``; the generators end advanced
        past the whole draw (which drops PCG64's buffered uint32, which
        ``random()`` never reads)."""
        p, chains = self._bits.shape
        thinning, burn = self._thinning, self._burn
        # A segment shorter than a lead-in would cost more sweeps than it saves.
        segments = max(1, min(_LANES // chains, rows, rows * thinning // _LEAD_IN))
        length = -(-rows // segments)  # rows per segment
        segments = -(-rows // length) if rows else 1
        lanes = range(chains * segments)  # lane l is segment l % segments of chain l // segments
        begin = [burn + l % segments * length * thinning for l in lanes]
        states = [rng.bit_generator.state for rng in self._rngs]
        streams, start = [None] * len(lanes), [None] * len(lanes)
        lead = [l for l in lanes if begin[l] > _LEAD_IN]
        lead_streams = [_stream(states[l // segments], (begin[l] - _LEAD_IN) * p) for l in lead]
        bounds = np.zeros((p, 2 * len(lead)))
        bounds[:, len(lead):] = 1.0
        self._run(bounds, lead_streams, _LEAD_IN)
        for j, l in enumerate(lead):
            if (bounds[:, j] == bounds[:, len(lead) + j]).all():
                start[l], streams[l] = bounds[:, j], lead_streams[j]
        cold = [l for l in lanes[::segments] if start[l] is None]
        bits = np.ascontiguousarray(self._bits[:, [l // segments for l in cold]])
        for l in cold:
            streams[l] = _stream(states[l // segments], 0)
        self._run(bits, [streams[l] for l in cold], burn)
        for j, l in enumerate(cold):
            start[l] = bits[:, j]
        out = np.empty((chains, segments * length, p), dtype=np.uint8)
        by_lane = out.reshape(len(lanes), length, p)
        ready = [l for l in lanes if start[l] is not None] if length else []
        while ready:
            bits = np.array([start[l] for l in ready]).T.copy()
            got = by_lane if len(ready) == len(lanes) else np.empty((len(ready), length, p),
                                                                    dtype=np.uint8)
            self._run(bits, [streams[l] for l in ready], length * thinning, got)
            following = []
            for j, l in enumerate(ready):
                if got is not by_lane:
                    by_lane[l] = got[j]
                if (l + 1) % segments and start[l + 1] is None:
                    start[l + 1], streams[l + 1] = bits[:, j], streams[l]
                    following.append(l + 1)
            ready = following
        for rng in self._rngs:
            rng.bit_generator.advance((burn + rows * thinning) * p)
        last = out[:, rows - 1] if rows else np.array(start)
        self._bits = np.ascontiguousarray(last.T, dtype=np.float64)
        self._burn = 0
        return out[:, :rows][:, :, self._column]


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
