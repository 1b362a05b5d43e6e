"""greedymrf benchmark: four CLI workloads, timed end to end in fresh processes.

Usage (from the repository root):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each workload is a ``python -m greedymrf ...`` command run as a child
process, one child at a time, with ``src`` on PYTHONPATH so no install is
needed. Inputs are generated from the seed with numpy only (bench/inputs.py)
and cached under .bench_work/. Every run's outputs are checked against
ground truth; a failed check counts as a failed run and the benchmark goes on.

--trace 0 reports the end-to-end metrics: the median wall time and peak
memory of the run's invocations, the median set-up time of fresh imports,
and the share of invocations that passed their check. --trace 1 alternates untraced runs with
runs under bench/traced_cli.py and reports per-layer metrics from its spans,
plus the tracing overhead. The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}. The line before it is
a JSON report with the environment, per-run figures and the pick-trace
digest; the same report is written to .bench_work/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

ROOT = Path.cwd()
WORK = ROOT / ".bench_work"
BENCH = Path(__file__).resolve().parent

# Each run must end within 180 s, the first (which builds nothing but
# generates inputs) included; children are killed past their share of it.
RUN_LIMIT_S = 170.0
MIN_TIMED_RUNS = 3
SETUP_REPEATS = 9
RESULTS_HEADER = "n,epsilon,trials,successes,success_rate,mean_runtime_s"
# Lowest mean recall at n=1600 accepted from the Gibbs experiment. The
# greedymrf 0.1.0 code scored 0.9875 or more there on every seed tried, so
# recall below 0.9 means the sampler or the learner broke, not bad luck.
EXPERIMENT_RECALL_FLOOR = 0.9


def _load_json(path: Path):
    return json.loads(path.read_text(encoding="utf-8"))


def metric_units(kind: str) -> dict[str, str]:
    """Name -> unit of the "end_to_end" or "per_layer" metrics; they are
    declared once, in BENCHMARK.json."""
    return {m["name"]: m["unit"] for m in _load_json(BENCH.parent / "BENCHMARK.json")[kind]}


def _named_edges(result: dict) -> list[list[str]]:
    names = result.get("variable_names")
    label = (lambda v: names[v]) if names else str
    return sorted(sorted([label(u), label(v)]) for u, v in result["edges"])


def _edge_check(truth: list[list[str]]) -> Callable[[Path], str | None]:
    def check(out: Path) -> str | None:
        got = _named_edges(_load_json(out / "result.json"))
        if got != truth:
            missing = [e for e in truth if e not in got]
            extra = [e for e in got if e not in truth]
            return f"edge set differs from truth: missing {missing}, extra {extra}"
        return None

    return check


def prepare_inputs(kind: str, seed: int) -> tuple[Path, list[list[str]]]:
    """Input directory and true edges for ``kind``. Generation runs in its
    own process: this one stays small (no numpy, no input arrays), because a
    spawned child's peak RSS starts from its parent's."""
    out = WORK / "inputs" / f"{kind}-{seed}"
    if not out.exists():
        subprocess.run([sys.executable, str(BENCH / "inputs.py"), kind, str(seed),
                        str(WORK / "inputs")], check=True, stdout=subprocess.DEVNULL, timeout=120)
    return out, _load_json(out / "truth.json")["edges"]


def _learn(kind: str, flags: list[str]):
    def prepare(seed: int):
        src, truth = prepare_inputs(kind, seed)
        return ["learn", str(src / "data.csv"), *flags], _edge_check(truth)

    return prepare


def _oracle(seed: int):
    # The graph is fixed and the seed draws the edge signs, so every seed
    # asks for the same amount of work (52 accepted picks once recovered).
    _, truth = prepare_inputs("er18", 0)
    args = ["oracle", "--model", "er:18,0.15,3", "--theta", f"randsign:0.5,{seed}",
            "--epsilon", "0.02", "--prune"]
    return args, _edge_check(truth)


def _experiment(seed: int):
    n_values, eps, trials = (400, 1600), 0.06, 4
    # Trial t samples with seed base ^ t, so bases that are multiples of 4
    # give every benchmark seed its own four chains.
    args = ["experiment", "--model", "grid:5", "--theta", "const:0.5",
            "--n", ",".join(map(str, n_values)), "--epsilon", str(eps),
            "--trials", str(trials), "--seed", str(seed * trials), "--sampler", "gibbs"]

    def check(out: Path) -> str | None:
        lines = (out / "results.csv").read_text(encoding="utf-8").splitlines()
        if lines[0] != RESULTS_HEADER:
            return f"results.csv header is {lines[0]!r}"
        rows = [r.split(",") for r in lines[1:]]
        cells = [(int(r[0]), float(r[1])) for r in rows]
        if cells != [(n, eps) for n in n_values]:
            return f"results.csv cells are {cells}"
        if any(int(r[2]) != trials for r in rows):
            return "results.csv trials column is wrong"
        summary = _load_json(out / "summary.json")
        top = [c for c in summary["cells"] if c["n"] == n_values[-1]]
        if len(top) != 1 or top[0]["mean_recall"] < EXPERIMENT_RECALL_FLOOR:
            return f"recall at n={n_values[-1]} below {EXPERIMENT_RECALL_FLOOR}: {top}"
        return None

    return args, check


# Why each workload is in the benchmark is recorded in BENCHMARK.json.
# Each maps a seed to (CLI arguments before --out-dir, output checker).
WORKLOADS = {
    "learn_grid10": _learn("grid10", ["--epsilon", "0.03", "--prune"]),
    "learn_votes": _learn("votes", [
        "--epsilon", "0.1", "--map", "Yea=+1", "--map", "Nay=-1", "--map", "Absent=-1",
        "--missing", "Absent", "--participation", "0.75", "--prune"]),
    "oracle_er18": _oracle,
    "experiment_gibbs_grid5": _experiment,
}


def pick_digest(out: Path) -> str:
    """SHA-256 over what the learner decided, without float entropies: each
    node's picked vertices and stop reason plus the pruned neighbourhoods
    (learn/oracle), or the results rows without the timing column and the
    summary (experiment)."""
    h = hashlib.sha256()
    if (out / "result.json").exists():
        doc = _load_json(out / "result.json")
        decided = {
            "traces": [[t["node"], [p["vertex"] for p in t["picks"]], t["stop_reason"]]
                       for t in doc["traces"]],
            "pruned": doc.get("pruned_neighborhoods"),
        }
        h.update(json.dumps(decided, sort_keys=True).encode())
    else:
        rows = (out / "results.csv").read_text(encoding="utf-8").splitlines()
        h.update("\n".join(r.rsplit(",", 1)[0] for r in rows).encode())
        h.update((out / "summary.json").read_bytes())
    return h.hexdigest()


@dataclass
class ChildRun:
    code: int
    wall_s: float
    peak_rss_mb: float


def run_child(argv: list[str], stderr_path: Path, timeout_s: float) -> ChildRun:
    """Spawn one child and reap it with wait4, so its peak RSS is its own
    rather than the maximum over every child so far (RUSAGE_CHILDREN)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    with open(stderr_path, "wb") as err:
        started = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
        # Wait for exit without reaping (WNOWAIT): until the single wait4
        # below, the pid cannot be recycled, so a late kill is harmless.
        killer = threading.Timer(timeout_s, os.kill, (proc.pid, signal.SIGKILL))
        killer.start()
        try:
            os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
        finally:
            killer.cancel()
            killer.join()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ChildRun(proc.returncode, wall, usage.ru_maxrss / 1024.0)


def setup_times(scratch: Path, deadline: float) -> list[float]:
    """Spawn-to-exit time of fresh interpreters that import greedymrf.cli;
    one untimed import first so byte-code compilation is not counted."""
    argv = [sys.executable, "-c", "import greedymrf.cli"]
    times = []
    for k in range(SETUP_REPEATS + 1):
        child = run_child(argv, scratch / "setup.stderr", max(1.0, deadline - time.perf_counter()))
        if child.code != 0:
            err = (scratch / "setup.stderr").read_text(errors="replace")
            raise RuntimeError(f"importing greedymrf.cli failed: {err}")
        if k:
            times.append(child.wall_s)
    return times


def layer_metrics(doc: dict) -> dict[str, float]:
    """Per-layer metrics from one traced run's spans and counters. A metric
    whose span was absent from the traced code is left out."""
    names = doc["names"]
    spans = doc["spans"]
    child_ns = [0] * len(spans)
    for name_idx, start, end, parent in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    by_name: dict[str, list[int]] = {}
    for sid, span in enumerate(spans):
        by_name.setdefault(names[span[0]], []).append(sid)
    under_experiment = set()
    for sid, (name_idx, _, _, parent) in enumerate(spans):
        if names[name_idx] == "cli.run_experiment" or parent in under_experiment:
            under_experiment.add(sid)
    absent = set(doc["absent"])
    counters = doc["counters"]

    def dur(sid: int) -> float:
        return (spans[sid][2] - spans[sid][1]) / 1e9

    def total(name: str, only=None) -> float:
        return sum((dur(s) for s in by_name.get(name, []) if only is None or s in only), 0.0)

    def self_s(*span_names: str) -> float:
        spans_of = (s for n in span_names for s in by_name.get(n, []))
        return sum((dur(s) - child_ns[s] / 1e9 for s in spans_of), 0.0)

    def calls(name: str) -> int:
        return len(by_name.get(name, []))

    queries = calls("entropy.entropy_bits")
    misses = sum(1 for s in by_name.get("entropy.entropy_bits", []) if child_ns[s] > 0)
    sweeps = counters.get("models.gibbs_sweeps", 0)
    site_updates = counters.get("models.gibbs_site_updates", 0)
    gibbs_s = total("models.gibbs_sample")
    sampling = ("models.gibbs_sample", "models.exact_sample")
    out = {
        # metric: (value, spans it needs)
        "dataset.load_csv_s": (total("dataset.load_csv"), ["dataset.load_csv"]),
        "dataset.filter_participation_s": (total("dataset.filter_participation"),
                                           ["dataset.filter_participation"]),
        "dataset.remap_values_s": (total("dataset.remap_values"), ["dataset.remap_values"]),
        "dataset.cells_parsed": (counters.get("dataset.cells_parsed", 0), ["dataset.load_csv"]),
        "dataset.joint_counts_calls": (calls("dataset.joint_counts"), ["dataset.joint_counts"]),
        "dataset.joint_counts_s": (total("dataset.joint_counts"), ["dataset.joint_counts"]),
        "dataset.rows_scanned": (counters.get("dataset.rows_scanned", 0), ["dataset.joint_counts"]),
        "dataset.bytes_scanned_computed": (counters.get("dataset.bytes_scanned", 0),
                                           ["dataset.joint_counts"]),
        "entropy.queries": (queries, ["entropy.entropy_bits"]),
        "entropy.misses": (misses, ["entropy.entropy_bits"]),
        "entropy.hit_ratio": (1.0 - misses / queries if queries else 0.0, ["entropy.entropy_bits"]),
        "entropy.conditional_entropy_calls": (calls("entropy.conditional_entropy"),
                                              ["entropy.conditional_entropy"]),
        "entropy.entropy_bits_self_s": (self_s("entropy.entropy_bits"), ["entropy.entropy_bits"]),
        "models.exact_joint_s": (total("models.exact_joint"), ["models.exact_joint"]),
        "models.table_cells": (counters.get("models.table_cells", 0), ["models.exact_joint"]),
        "models.dense_marginal_calls": (calls("models.dense_marginal"), ["models.dense_marginal"]),
        "models.dense_marginal_s": (total("models.dense_marginal"), ["models.dense_marginal"]),
        "models.table_bytes_summed_computed": (counters.get("models.table_bytes_summed", 0),
                                               ["models.dense_marginal"]),
        "models.gibbs_sample_calls": (calls("models.gibbs_sample"), ["models.gibbs_sample"]),
        "models.gibbs_sample_s": (gibbs_s, ["models.gibbs_sample"]),
        "models.gibbs_sweeps_computed": (sweeps, ["models.gibbs_sample"]),
        "models.gibbs_ns_per_site_update": (gibbs_s * 1e9 / site_updates if site_updates else 0.0,
                                            ["models.gibbs_sample"]),
        "learner.learn_structure_calls": (calls("learner.learn_structure"),
                                          ["learner.learn_structure"]),
        "learner.learn_structure_s": (total("learner.learn_structure"),
                                      ["learner.learn_structure"]),
        "learner.greedy_nodes": (calls("learner.greedy_neighborhood"),
                                 ["learner.greedy_neighborhood"]),
        "learner.picks": (counters.get("learner.picks", 0), ["learner.greedy_neighborhood"]),
        "learner.candidates_scored": (counters.get("learner.candidates_scored", 0),
                                      ["learner.greedy_neighborhood"]),
        "learner.greedy_self_s": (self_s("learner.greedy_neighborhood"),
                                  ["learner.greedy_neighborhood"]),
        "learner.prune_result_s": (total("learner.prune_result"), ["learner.prune_result"]),
        "generators.build_s": (total("generators.build"), ["generators.build"]),
        "cli.self_s": (self_s("cli.main", "cli.run_experiment"), ["cli.run_experiment"]),
        "cli.run_experiment_s": (total("cli.run_experiment"), ["cli.run_experiment"]),
        "cli.experiment_sampling_s": (sum(total(n, under_experiment) for n in sampling),
                                      ["cli.run_experiment", *sampling]),
        "cli.experiment_learning_s": (total("learner.learn_structure", under_experiment),
                                      ["cli.run_experiment", "learner.learn_structure"]),
        "trace.spans": (len(spans), []),
    }
    return {k: v for k, (v, needs) in out.items() if not absent.intersection(needs)}


def read_commit() -> str:
    """Commit of the checkout, read from .git directly (never from a parent
    directory); 'unknown' in an exported tree."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        target = ROOT / ".git" / ref[5:]
        return target.read_text().strip() if target.is_file() else "unknown"
    return ref


def environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "commit": read_commit(),
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    started = time.perf_counter()
    hard_deadline = started + RUN_LIMIT_S
    if not (ROOT / "src" / "greedymrf" / "cli.py").is_file():
        print("bench: run from the repository root; src/greedymrf is missing", file=sys.stderr)
        return 2

    scratch = WORK / "runs" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    try:
        report = measure(args, scratch, hard_deadline)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    print(json.dumps(report, sort_keys=True))
    summary = {k: report[k] for k in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(summary))
    return 0


def measure(args: argparse.Namespace, scratch: Path, hard_deadline: float) -> dict:
    cli_args, check = WORKLOADS[args.workload](args.seed)
    runs: list[dict] = []
    digests: set[str] = set()

    def invoke(traced: bool) -> dict:
        out = scratch / f"out-{len(runs)}"
        argv = [sys.executable, "-m", "greedymrf", *cli_args, "--out-dir", str(out)]
        spans_path = scratch / f"spans-{len(runs)}.json"
        if traced:
            argv = [sys.executable, str(BENCH / "traced_cli.py"), str(spans_path), "--", *argv[3:]]
        child = run_child(argv, scratch / "child.stderr", hard_deadline - time.perf_counter())
        record = {"traced": traced, "exit": child.code, "wall_s": child.wall_s,
                  "peak_rss_mb": child.peak_rss_mb, "error": None}
        if child.code != 0:
            tail = (scratch / "child.stderr").read_text(errors="replace")[-2000:]
            record["error"] = f"exit code {child.code}: {tail}"
        else:
            try:
                record["error"] = check(out)
                record["digest"] = pick_digest(out)
                digests.add(record["digest"])
                if traced:
                    record["layers"] = layer_metrics(_load_json(spans_path))
            except (OSError, ValueError, KeyError, IndexError) as exc:
                record["error"] = f"output check raised {exc!r}"
        shutil.rmtree(out, ignore_errors=True)
        runs.append(record)
        return record

    setup = [] if args.trace else setup_times(scratch, hard_deadline)
    per_round = 2 if args.trace else 1
    min_rounds = 1 if args.trace else MIN_TIMED_RUNS
    t0 = time.perf_counter()
    while True:
        invoke(False)
        if args.trace:
            invoke(True)
        elapsed = time.perf_counter() - t0
        round_s = elapsed / (len(runs) // per_round)
        if len(runs) >= min_rounds * per_round and elapsed + round_s > args.seconds:
            break
        if time.perf_counter() + 2 * round_s > hard_deadline:
            break

    failed = sum(1 for r in runs if r["error"])
    if len(digests) > 1:
        # Same inputs must give the same decisions, traced or not.
        failed = len(runs)
    ok = [r for r in runs if not r["error"] and not r["traced"]]
    if args.trace:
        traced = [r["layers"] for r in runs if r["traced"] and not r["error"]]
        plain = statistics.median(r["wall_s"] for r in runs if not r["traced"])
        with_tracer = statistics.median(r["wall_s"] for r in runs if r["traced"])
        keys = sorted(set().union(*traced)) if traced else []
        values = {k: statistics.median(t[k] for t in traced) for k in keys}
        values.update({"trace.untraced_wall_s": plain, "trace.traced_wall_s": with_tracer,
                       "trace.overhead_s": with_tracer - plain})
        units = metric_units("per_layer")
        metrics = {k: {"value": values[k], "unit": u} for k, u in units.items() if k in values}
        absent = sorted(set(units) - set(metrics))
    else:
        walls = [r["wall_s"] for r in (ok or runs)]
        values = {
            "wall_s": statistics.median(walls),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in (ok or runs)),
            "ok_frac": (len(runs) - failed) / len(runs),
        }
        units = metric_units("end_to_end")
        metrics = {k: {"value": values[k], "unit": u} for k, u in units.items()}
        absent = []
    return {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "command": ["python", "-m", "greedymrf", *cli_args],
        "environment": environment(),
        "digests": sorted(digests),
        "setup_runs_s": setup,
        "runs": runs,
        "absent": absent,
        "correct": failed == 0,
        "attempted": len(runs),
        "failed": failed,
        "metrics": metrics,
    }


if __name__ == "__main__":
    sys.exit(main())
