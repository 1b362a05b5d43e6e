"""Recovery experiments: sweep sample counts and thresholds on one model,
learn from sampled datasets and record the exact-recovery rate per cell."""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from pathlib import Path

from .dataset import SPIN_ALPHABET, DiscreteDataset
from .entropy import EmpiricalSource
from .generators import ModelSpec, build, model_size
from .gibbs import GibbsChains, GibbsConfig, chain_rhats, check_couplings
from .learner import LearnerConfig, learn_structure
from .models import check_enumerable, exact_joint, exact_sample

RESULTS_HEADER = "n,epsilon,trials,successes,success_rate,mean_runtime_s"
# Gibbs chains whose R-hat exceeds this are logged as not mixed.
RHAT_LIMIT = 1.1


@dataclass(frozen=True)
class ExperimentSpec:
    model: ModelSpec
    n_values: tuple[int, ...]
    epsilons: tuple[float, ...]
    trials: int = 50
    success_target: float = 0.95
    seed: int = 0
    sampler: str = "exact"
    gibbs_burn_in: int | None = None
    gibbs_thinning: int = 10

    def __post_init__(self) -> None:
        if list(self.n_values) != sorted(set(self.n_values)):
            raise ValueError("n values must be strictly ascending")
        if not self.n_values or not self.epsilons:
            raise ValueError("need at least one n and one epsilon")
        if self.n_values[0] < 1 or not all(0.0 < eps < math.inf for eps in self.epsilons):
            raise ValueError("need every n >= 1 and every epsilon positive and finite")
        if self.trials < 1:
            raise ValueError("need trials >= 1")
        if not 0.0 < self.success_target <= 1.0:
            raise ValueError("success target must lie in (0, 1]")
        if self.sampler not in ("exact", "gibbs"):
            raise ValueError("sampler must be 'exact' or 'gibbs'")
        # Rejects a negative seed and bad Gibbs settings here, before any sampling.
        GibbsConfig(seed=self.seed, burn_in=self.gibbs_burn_in, thinning=self.gibbs_thinning)
        # And a model past its sampler's cap, before the graph is built.
        (check_enumerable if self.sampler == "exact" else check_couplings)(model_size(self.model))


@dataclass(frozen=True)
class CellResult:
    n: int
    epsilon: float
    trials: int
    successes: int
    success_rate: float
    mean_runtime_s: float
    mean_precision: float
    mean_recall: float
    # R-hat of the trial chains' first n rows; None for exact samples.
    rhat_magnetization: float | None
    rhat_edge_max: float | None


def _precision_recall(learned: set, truth: set) -> tuple[float, float]:
    hit = len(learned & truth)
    precision = hit / len(learned) if learned else 1.0
    recall = hit / len(truth) if truth else 1.0
    return precision, recall


def _log_unmixed(n: int, rhats: tuple[float | None, float | None]) -> None:
    import logging  # here, not at the top: it would add to every CLI start

    logging.getLogger(__name__).warning(
        "gibbs chains at n=%d may not have mixed: R-hat %s (magnetization), %s (edges, max) "
        "above %s; consider a longer --gibbs-burn-in", n, *rhats, RHAT_LIMIT)


def run_experiment(
    spec: ExperimentSpec, results_path: Path, no_timing: bool = False
) -> list[CellResult]:
    """Sweep (n, epsilon) cells, writing one CSV row per cell as it finishes
    so partial results survive a capacity failure mid-grid.

    Trial t samples once, with seed ``spec.seed ^ t``, to the largest n, before
    ``results_path`` is opened; each n's datasets are the first n rows of the
    trials' draws. The Gibbs sampler runs one chain per trial, all in a batch."""
    model = build(spec.model)
    truth = set(model.graph.edges)
    seeds = [spec.seed ^ trial for trial in range(spec.trials)]
    if spec.sampler == "exact":
        joint = exact_joint(model)
        samples = [exact_sample(joint, spec.n_values[-1], seed).values for seed in seeds]
    else:
        cfgs = [GibbsConfig(seed, spec.gibbs_burn_in, spec.gibbs_thinning) for seed in seeds]
        samples = GibbsChains(model, cfgs).draw(spec.n_values[-1])
    names = [f"v{k}" for k in range(model.p)]
    cells: list[CellResult] = []
    results_path.parent.mkdir(parents=True, exist_ok=True)
    with open(results_path, "w", encoding="utf-8") as fh:
        fh.write(RESULTS_HEADER + "\n")
        for n in spec.n_values:
            datasets = [DiscreteDataset(names, SPIN_ALPHABET, rows[:n]) for rows in samples]
            rhats = (chain_rhats(model.graph, samples[:, :n]) if spec.sampler == "gibbs"
                     else (None, None))
            if any(r is not None and r > RHAT_LIMIT for r in rhats):
                _log_unmixed(n, rhats)
            for eps in spec.epsilons:
                successes = 0
                runtimes = []
                precisions = []
                recalls = []
                for ds in datasets:
                    src = EmpiricalSource(ds)
                    started = time.perf_counter()
                    result = learn_structure(src, LearnerConfig(epsilon=eps))
                    runtimes.append(time.perf_counter() - started)
                    got = set(result.graph.edges)
                    successes += int(got == truth)
                    pr, rc = _precision_recall(got, truth)
                    precisions.append(pr)
                    recalls.append(rc)
                mean_rt = 0.0 if no_timing else sum(runtimes) / len(runtimes)
                cell = CellResult(
                    n=n,
                    epsilon=eps,
                    trials=spec.trials,
                    successes=successes,
                    success_rate=successes / spec.trials,
                    mean_runtime_s=mean_rt,
                    mean_precision=sum(precisions) / len(precisions),
                    mean_recall=sum(recalls) / len(recalls),
                    rhat_magnetization=rhats[0],
                    rhat_edge_max=rhats[1],
                )
                cells.append(cell)
                fh.write(
                    f"{cell.n},{cell.epsilon:.10g},{cell.trials},{cell.successes},"
                    f"{cell.success_rate:.6f},{cell.mean_runtime_s:.6f}\n"
                )
                fh.flush()
    return cells


def experiment_summary(spec: ExperimentSpec, cells: list[CellResult]) -> dict:
    """Minimal n reaching the target per epsilon (no interpolation) plus the
    best epsilon per n, with partial-recovery means and the Gibbs chains'
    R-hat logged alongside."""
    min_n: dict[str, int | None] = {}
    for eps in spec.epsilons:
        hit = [c.n for c in cells if c.epsilon == eps and c.success_rate >= spec.success_target]
        min_n[f"{eps:.10g}"] = min(hit) if hit else None
    best_eps: dict[str, float] = {}
    for n in spec.n_values:
        row = [c for c in cells if c.n == n]
        top = max(row, key=lambda c: (c.success_rate, -c.epsilon))
        best_eps[str(n)] = top.epsilon
    return {
        "model": {"family": spec.model.family, "params": list(spec.model.params)},
        "weights": {"kind": spec.model.weights.kind, "params": list(spec.model.weights.params)},
        "trials": spec.trials,
        "seed": spec.seed,
        "sampler": spec.sampler,
        "success_target": spec.success_target,
        "min_n_at_target": min_n,
        "best_epsilon_per_n": best_eps,
        "cells": [
            {
                "n": c.n,
                "epsilon": c.epsilon,
                "success_rate": c.success_rate,
                "mean_precision": c.mean_precision,
                "mean_recall": c.mean_recall,
                "rhat_magnetization": c.rhat_magnetization,
                "rhat_edge_max": c.rhat_edge_max,
            }
            for c in cells
        ],
    }
