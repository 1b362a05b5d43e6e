"""Independent brute-force reference implementations used to pin expected
values, deliberately sharing no code with the package. All but
:func:`axis_marginal` are pure python + math: enumeration over explicit
state dictionaries instead of packed numpy tables.
"""

import math
from itertools import groupby, product

import numpy as np


def ising_table(p, theta):
    """Exact joint over +-1 spin tuples for potential exp(sum t*x_u*x_v).

    theta: dict mapping (u, v) -> coupling.
    """
    weights = {}
    for state in product((-1, 1), repeat=p):
        energy = sum(t * state[u] * state[v] for (u, v), t in theta.items())
        weights[state] = math.exp(energy)
    z = sum(weights.values())
    return {s: w / z for s, w in weights.items()}


def marginal(table, variables):
    out = {}
    for state, pr in table.items():
        key = tuple(state[v] for v in variables)
        out[key] = out.get(key, 0.0) + pr
    return out


def axis_marginal(table, variables, keep):
    """Sum the numpy ``table``, whose axes are the sorted ``variables``, onto
    the sorted subset ``keep``, shaped (q,) * len(keep): the axis-sum
    reference for dense tables. Each run of consecutive kept or summed axes
    is merged into one dimension, and the summed dimensions are reduced one
    at a time, largest first, so each pass reads the least."""
    keep = set(keep)
    q = table.shape[0] if table.ndim else 1
    runs = [(kept, q ** len(list(run))) for kept, run in groupby(variables, keep.__contains__)]
    out = table.reshape([size for _, size in runs])
    summed = [a for a, (kept, _) in enumerate(runs) if not kept]
    for axis in sorted(summed, key=lambda a: -runs[a][1]):
        out = out.sum(axis=axis, keepdims=True)
    return out.reshape((q,) * len(keep))


def entropy_bits(dist):
    return -sum(pr * math.log2(pr) for pr in dist.values() if pr > 0)


def cond_entropy_bits(table, i, given):
    given = tuple(sorted(given))
    return entropy_bits(marginal(table, given + (i,))) - entropy_bits(marginal(table, given))


def mutual_information_bits(table, i, j):
    return entropy_bits(marginal(table, (i,))) - cond_entropy_bits(table, i, (j,))


def prune_neighborhood(table, i, candidates, epsilon, tie_tol):
    """The prune rule from brute-force conditional entropies: while the set
    is not empty, find the member whose removal raises H(X_i | X_rest)
    least, the lowest index among rises within tie_tol * max(1, |H|) of the
    least, and drop it if its rise is at most epsilon/2 plus that slack.

    Returns (kept, closest): ``closest`` is the smallest distance of any
    rise from a cut it was compared against, so a caller can tell a case
    that float rounding could decide.
    """
    kept = sorted(set(candidates))
    closest = math.inf
    while kept:
        h_full = cond_entropy_bits(table, i, kept)
        slack = tie_tol * max(1.0, abs(h_full))
        rises = [cond_entropy_bits(table, i, [k for k in kept if k != j]) - h_full for j in kept]
        low = min(rises)
        closest = min([closest] + [abs(r - (low + slack)) for r in rises])
        weakest = next(pos for pos, r in enumerate(rises) if r <= low + slack)
        cut = epsilon / 2.0 + slack
        closest = min(closest, abs(rises[weakest] - cut))
        if rises[weakest] > cut:
            break
        del kept[weakest]
    return tuple(kept), closest


def conditional_prob(table, target_vars, target_vals, given_vars, given_vals):
    """P(X_target = target_vals | X_given = given_vals) from the table."""
    num = 0.0
    den = 0.0
    for state, pr in table.items():
        if all(state[v] == x for v, x in zip(given_vars, given_vals)):
            den += pr
            if all(state[v] == x for v, x in zip(target_vars, target_vals)):
                num += pr
    if den == 0.0:
        raise ZeroDivisionError("conditioning event has zero probability")
    return num / den


def greedy_first_pick(table, i, p):
    """Candidate minimizing H(X_i | X_k), lowest index on ties."""
    best, best_h = None, None
    for k in range(p):
        if k == i:
            continue
        h = cond_entropy_bits(table, i, (k,))
        if best_h is None or h < best_h - 1e-15:
            best, best_h = k, h
    return best


def counterexample_pair_marginal(degree, theta, k):
    """Closed-form P(x_0, x_k) for the two-hub graph, by transfer summation.

    Vertices: 0 and degree+1 are hubs, 1..degree the middles. For the hub
    pair, each middle contributes a factor 2*cosh(theta*(x_0 + x_hub)); for a
    middle k the remaining degree-1 middles factor the same way once x_hub is
    summed out. Entirely independent of the package's table enumeration.
    """
    hub = degree + 1
    out = {}
    if k == hub:
        for x0 in (-1, 1):
            for xh in (-1, 1):
                out[(x0, xh)] = (2.0 * math.cosh(theta * (x0 + xh))) ** degree
    else:
        for x0 in (-1, 1):
            for xk in (-1, 1):
                total = 0.0
                for xh in (-1, 1):
                    total += (
                        math.exp(theta * xk * (x0 + xh))
                        * (2.0 * math.cosh(theta * (x0 + xh))) ** (degree - 1)
                    )
                out[(x0, xk)] = total
    z = sum(out.values())
    return {s: w / z for s, w in out.items()}


def binary_entropy(prob):
    if prob in (0.0, 1.0):
        return 0.0
    return -(prob * math.log2(prob) + (1 - prob) * math.log2(1 - prob))


def dary_tree_root_given_all_ones(degree, depth, theta):
    """P(X_root = +1 | all leaves = +1) on a complete tree with equal
    coupling, via the depth recursion over subtree root posteriors."""
    a = 1.0  # depth 0: the "root" is itself a fixed leaf
    for _ in range(depth):
        up = (math.exp(theta) * a + math.exp(-theta) * (1.0 - a)) ** degree
        down = (math.exp(-theta) * a + math.exp(theta) * (1.0 - a)) ** degree
        a = up / (up + down)
    return a
