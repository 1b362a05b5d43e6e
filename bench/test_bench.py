"""Tests of the benchmark itself: tracing must not change what the CLI
writes, inputs must follow the seed, and BENCHMARK.json must name exactly
the metrics run.py reports.

Run from the repository root: python -m pytest bench
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
REPO = BENCH.parent
sys.path[:0] = [str(BENCH), str(REPO / "src")]

import inputs  # noqa: E402
import run  # noqa: E402


def _cli(argv: list[str], traced: bool, spans: Path) -> None:
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    prefix = [sys.executable, str(BENCH / "traced_cli.py"), str(spans), "--"] if traced \
        else [sys.executable, "-m", "greedymrf"]
    subprocess.run(prefix + argv, cwd=REPO, env=env, check=True, timeout=120)


def _files(out: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


@pytest.fixture(scope="module")
def small_csv(tmp_path_factory) -> Path:
    spins = inputs.sample_grid(seed=5, k=3, rows=400, sweeps=30)
    path = tmp_path_factory.mktemp("data") / "grid3.csv"
    inputs._write_csv(path, [f"v{v}" for v in range(9)], np.where(spins > 0, "1", "-1"))
    return path


@pytest.mark.parametrize("command", ["learn", "oracle", "experiment"])
def test_traced_run_writes_identical_files(command, small_csv, tmp_path):
    argv = {
        "learn": ["learn", str(small_csv), "--epsilon", "0.05", "--prune"],
        "oracle": ["oracle", "--model", "grid:3", "--theta", "const:0.5",
                   "--epsilon", "0.02", "--prune"],
        "experiment": ["experiment", "--model", "grid:3", "--theta", "const:0.5",
                       "--n", "100,200", "--epsilon", "0.05", "--trials", "2",
                       "--seed", "3", "--sampler", "gibbs", "--gibbs-burn-in", "50",
                       "--no-timing"],
    }[command]
    spans = tmp_path / "spans.json"
    _cli(argv + ["--out-dir", str(tmp_path / "plain")], traced=False, spans=spans)
    _cli(argv + ["--out-dir", str(tmp_path / "traced")], traced=True, spans=spans)
    assert _files(tmp_path / "plain") == _files(tmp_path / "traced")
    doc = json.loads(spans.read_text())
    assert doc["absent"] == []
    layers = run.layer_metrics(doc)
    assert layers["learner.learn_structure_calls"] >= 1
    assert layers["entropy.misses"] <= layers["entropy.queries"]


def test_layer_metrics_self_time_and_misses():
    ms = 1_000_000
    doc = {
        "names": ["cli.main", "entropy.entropy_bits", "dataset.joint_counts"],
        # [name, start ns, end ns, parent]: main 0-10 ms holds a cache miss
        # (entropy 1-5 ms with counting 2-4 ms) and a cache hit (6-7 ms).
        "spans": [[0, 0, 10 * ms, -1], [1, 1 * ms, 5 * ms, 0], [2, 2 * ms, 4 * ms, 1],
                  [1, 6 * ms, 7 * ms, 0]],
        "counters": {"dataset.rows_scanned": 7},
        "absent": ["cli.run_experiment"],
    }
    got = run.layer_metrics(doc)
    assert got["entropy.queries"] == 2
    assert got["entropy.misses"] == 1
    assert got["entropy.entropy_bits_self_s"] == pytest.approx(0.003)
    assert got["dataset.joint_counts_s"] == pytest.approx(0.002)
    assert got["dataset.rows_scanned"] == 7
    assert "cli.self_s" not in got and "cli.experiment_learning_s" not in got


def test_inputs_follow_the_seed():
    a = inputs.sample_grid(seed=1, k=4, rows=50, sweeps=5)
    assert np.array_equal(a, inputs.sample_grid(seed=1, k=4, rows=50, sweeps=5))
    assert not np.array_equal(a, inputs.sample_grid(seed=2, k=4, rows=50, sweeps=5))
    assert inputs.erdos_renyi_edges(18, 0.15, 3) == inputs.erdos_renyi_edges(18, 0.15, 3)


def test_erdos_renyi_truth_matches_the_cli_model():
    from greedymrf.generators import erdos_renyi_graph

    for seed in (1, 2, 3):
        assert inputs.erdos_renyi_edges(18, 0.15, seed) == \
            erdos_renyi_graph(18, 0.15, seed).sorted_edges()


def test_benchmark_json_names_the_reported_metrics():
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert set(run.metric_units("end_to_end")) == {"wall_s", "setup_s", "peak_rss_mb", "ok_frac"}
    empty = {"names": [], "spans": [], "counters": {}, "absent": []}
    traced_only = {"trace.untraced_wall_s", "trace.traced_wall_s", "trace.overhead_s"}
    assert set(run.layer_metrics(empty)) | traced_only == set(run.metric_units("per_layer"))


def test_child_peak_rss_is_its_own(tmp_path):
    # A child's ru_maxrss starts from its parent's peak, so measure from a
    # fresh interpreter that, like run.py, imports no numpy.
    script = (
        "import sys; sys.path.insert(0, %r); import run; from pathlib import Path\n"
        "big = run.run_child([sys.executable, '-c', 'b = bytearray(200 << 20)'], Path(%r), 60)\n"
        "small = run.run_child([sys.executable, '-c', 'pass'], Path(%r), 60)\n"
        "print(big.code, small.code, big.peak_rss_mb, small.peak_rss_mb)\n"
    ) % (str(BENCH), str(tmp_path / "a"), str(tmp_path / "b"))
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         check=True, timeout=120).stdout.split()
    big_code, small_code, big_mb, small_mb = int(out[0]), int(out[1]), float(out[2]), float(out[3])
    assert big_code == small_code == 0
    assert big_mb > 200 > 50 > small_mb


def test_hung_child_is_killed_at_its_deadline(tmp_path):
    sleeper = [sys.executable, "-c", "import time; time.sleep(60)"]
    hung = run.run_child(sleeper, tmp_path / "err", 0.5)
    assert hung.code == -9
    assert hung.wall_s < 10
