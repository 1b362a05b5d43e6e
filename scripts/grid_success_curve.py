#!/usr/bin/env python3
"""Success-probability curves on square-grid models.

Sweeps sample counts for one or more grid sizes and reports, per epsilon, the
smallest n whose exact-recovery rate reaches the target. Writes one
results.csv/summary.json pair per grid size under --out-dir.

Example:
    python scripts/grid_success_curve.py --sizes 3 --trials 50 \
        --n 100,200,400,800,1600,3200 --epsilon 0.03,0.045,0.06 --out-dir runs/grid
"""

import argparse
import json
from pathlib import Path

from greedymrf.experiment import ExperimentSpec, experiment_summary, run_experiment
from greedymrf.generators import ModelSpec, WeightRule


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--sizes", default="3", help="comma-separated grid side lengths")
    ap.add_argument("--theta", type=float, default=0.5)
    ap.add_argument("--n", default="100,200,400,800,1600,3200")
    ap.add_argument("--epsilon", default="0.03,0.045,0.06")
    ap.add_argument("--trials", type=int, default=50)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--sampler", choices=("exact", "gibbs"), default="exact")
    ap.add_argument("--out-dir", default="runs/grid")
    args = ap.parse_args()

    out = Path(args.out_dir)
    for size in (int(s) for s in args.sizes.split(",")):
        spec = ExperimentSpec(
            model=ModelSpec.grid(size, WeightRule.constant(args.theta)),
            n_values=tuple(int(x) for x in args.n.split(",")),
            epsilons=tuple(float(x) for x in args.epsilon.split(",")),
            trials=args.trials,
            seed=args.seed,
            sampler=args.sampler,
        )
        run_dir = out / f"grid{size}"
        run_dir.mkdir(parents=True, exist_ok=True)
        cells = run_experiment(spec, run_dir / "results.csv")
        summary = experiment_summary(spec, cells)
        (run_dir / "summary.json").write_text(
            json.dumps(summary, indent=2, sort_keys=True) + "\n"
        )
        print(f"grid {size}x{size} (p={size * size}):")
        for eps, n_star in summary["min_n_at_target"].items():
            print(f"  epsilon={eps}: minimal n at target = {n_star}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
