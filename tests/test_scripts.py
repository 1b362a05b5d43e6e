"""The example scripts run end to end on small inputs."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, args, cwd):
    paths = [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=120,
    )


def test_counterexample_scan_finds_the_threshold(tmp_path):
    proc = run_script("counterexample_scan.py", ["--theta", "0.9", "--max-degree", "4"], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert "threshold: D=3 at theta=0.9" in proc.stdout
    assert "after pruning:                (1, 2, 3)" in proc.stdout


def test_grid_success_curve_writes_a_run_per_size(tmp_path):
    out = tmp_path / "runs"
    proc = run_script(
        "grid_success_curve.py",
        ["--sizes", "3", "--trials", "2", "--n", "100,200", "--epsilon", "0.06",
         "--out-dir", str(out)],
        tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    assert "grid 3x3 (p=9):" in proc.stdout
    rows = (out / "grid3" / "results.csv").read_text().splitlines()
    assert rows[0] == "n,epsilon,trials,successes,success_rate,mean_runtime_s"
    assert len(rows) == 3
    assert (out / "grid3" / "summary.json").is_file()


@pytest.mark.parametrize("size, error", [
    ("1", "grid needs k >= 2"),
    ("x", "invalid literal for int() with base 10: 'x'"),
])
def test_grid_success_curve_rejects_a_size_in_one_line(tmp_path, size, error):
    out = tmp_path / "runs"
    proc = run_script(
        "grid_success_curve.py",
        ["--sizes", size, "--trials", "2", "--n", "100", "--out-dir", str(out)],
        tmp_path,
    )
    assert proc.returncode == 1
    assert proc.stderr == f"grid_success_curve: grid {size}: {error}\n"
    assert not out.exists()
