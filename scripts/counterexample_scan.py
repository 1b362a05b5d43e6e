#!/usr/bin/env python3
"""Scan the two-hub counter-example for the spurious first pick.

For the family with vertices {0, 1..D, D+1} and edges {0,i}, {i,D+1}, the
greedy pass for node 0 starts picking the far hub D+1 (not a neighbor) once D
crosses a threshold. This script scans D upward, prints the per-candidate
conditional entropies, and then shows that pruning repairs the estimate.

Example:
    python scripts/counterexample_scan.py --theta 0.9 --max-degree 10
"""

import argparse

from greedymrf.entropy import ExactSource, conditional_entropy
from greedymrf.generators import ModelSpec, WeightRule, build
from greedymrf.learner import LearnerConfig, greedy_neighborhood, prune_neighborhood


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--theta", type=float, default=0.9)
    ap.add_argument("--max-degree", type=int, default=10)
    ap.add_argument("--epsilon", type=float, default=1e-6)
    args = ap.parse_args()

    threshold = None
    for degree in range(1, args.max_degree + 1):
        model = build(ModelSpec.counterexample(degree, WeightRule.constant(args.theta)))
        src = ExactSource.of_model(model)
        hub = degree + 1
        h_nbr = conditional_entropy(src, 0, [1])
        h_hub = conditional_entropy(src, 0, [hub])
        tr = greedy_neighborhood(src, 0, LearnerConfig(epsilon=args.epsilon, max_neighborhood=1))
        first = tr.picked[0]
        tag = "HUB (spurious)" if first == hub else "neighbor"
        print(
            f"D={degree:2d}: H(X0|X_nbr)={h_nbr:.6f} H(X0|X_hub)={h_hub:.6f}"
            f" first pick={first} [{tag}]"
        )
        if first == hub and threshold is None:
            threshold = degree
    if threshold is None:
        print(f"no spurious pick up to D={args.max_degree}; raise --max-degree or theta")
        return 1
    print(f"\nthreshold: D={threshold} at theta={args.theta}")

    model = build(ModelSpec.counterexample(threshold, WeightRule.constant(args.theta)))
    src = ExactSource.of_model(model)
    cfg = LearnerConfig(epsilon=args.epsilon)
    tr = greedy_neighborhood(src, 0, cfg)
    pruned = prune_neighborhood(src, 0, tr.picked, cfg)
    print(f"full greedy picks for node 0: {tr.picked}")
    print(f"after pruning:                {pruned}")
    print(f"true neighborhood:            {model.graph.neighbors(0)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
