"""End-to-end command-line behaviour: artifacts, determinism, schemas."""

import json
import math
import subprocess
import sys

import numpy as np
import pytest

from greedymrf.cli import main
from greedymrf.experiment import ExperimentSpec, run_experiment
from greedymrf.generators import ModelSpec, WeightRule, build
from greedymrf.models import exact_joint, exact_sample, read_edge_list
from greedymrf.dataset import write_csv

RESULTS_HEADER = "n,epsilon,trials,successes,success_rate,mean_runtime_s"


def sample_csv(tmp_path, spec, n, seed, name="data.csv"):
    model = build(spec)
    ds = exact_sample(exact_joint(model), n, seed=seed)
    path = tmp_path / name
    write_csv(ds, path)
    return model, path


class TestLearn:
    def test_independent_csv_gives_empty_edges(self, tmp_path):
        rng = np.random.default_rng(0)
        rows = ["a,b,c"] + [
            ",".join(str(x) for x in rng.integers(0, 2, size=3)) for _ in range(400)
        ]
        f = tmp_path / "ind.csv"
        f.write_text("\n".join(rows) + "\n")
        out = tmp_path / "out"
        rc = main(["learn", str(f), "--epsilon", "0.1", "--out-dir", str(out)])
        assert rc == 0
        assert read_edge_list(out / "graph.edges").edges == frozenset()
        doc = json.loads((out / "result.json").read_text())
        assert doc["edges"] == []

    def test_chain3_sampled_recovery(self, tmp_path):
        model, f = sample_csv(tmp_path, ModelSpec.chain(3, WeightRule.constant(0.5)), 20000, 1)
        out = tmp_path / "out"
        rc = main(["learn", str(f), "--epsilon", "0.05", "--out-dir", str(out)])
        assert rc == 0
        assert read_edge_list(out / "graph.edges") == model.graph
        assert (out / "graph.dot").read_text().startswith("graph G {")

    def test_voting_pipeline(self, tmp_path):
        # senators s3 and s4 miss too many votes and must be dropped
        rng = np.random.default_rng(5)
        header = "s0,s1,s2,s3,s4"
        lines = [header]
        for r in range(40):
            row = []
            for c in range(5):
                if c == 3 and r < 20:
                    row.append("Absent")
                elif c == 4 and r < 15:
                    row.append("Absent")
                else:
                    row.append("Yea" if rng.random() < 0.5 else "Nay")
            lines.append(",".join(row))
        f = tmp_path / "votes.csv"
        f.write_text("\n".join(lines) + "\n")
        out = tmp_path / "out"
        rc = main([
            "learn", str(f), "--epsilon", "0.2", "--out-dir", str(out),
            "--map", "Yea=+1", "--map", "Nay=-1", "--map", "Absent=-1",
            "--missing", "Absent", "--participation", "0.75",
        ])
        assert rc == 0
        doc = json.loads((out / "result.json").read_text())
        assert doc["variable_names"] == ["s0", "s1", "s2"]
        assert doc["num_vars"] == 3

    def test_participation_with_missing_token_that_never_occurs(self, tmp_path):
        rng = np.random.default_rng(6)
        lines = ["s0,s1,s2"] + [",".join(rng.choice(["Yea", "Nay"], size=3)) for _ in range(40)]
        f = tmp_path / "votes.csv"
        f.write_text("\n".join(lines) + "\n")
        out = tmp_path / "out"
        rc = main([
            "learn", str(f), "--epsilon", "0.2", "--out-dir", str(out),
            "--map", "Yea=+1", "--map", "Nay=-1", "--map", "Absent=-1",
            "--missing", "Absent", "--participation", "0.75",
        ])
        assert rc == 0
        doc = json.loads((out / "result.json").read_text())
        assert doc["variable_names"] == ["s0", "s1", "s2"]

    def test_participation_with_a_single_distinct_token(self, tmp_path):
        # The raw file holds one token only; the missing token still makes
        # a two-symbol raw alphabet, so the filter and the map can run.
        f = tmp_path / "one.csv"
        f.write_text("a,b\nYea,Yea\nYea,Yea\n")
        out = tmp_path / "out"
        rc = main([
            "learn", str(f), "--map", "Yea=+1", "--alphabet=+1,-1", "--missing", "Absent",
            "--participation", "0.75", "--epsilon", "0.1", "--out-dir", str(out),
        ])
        assert rc == 0
        doc = json.loads((out / "result.json").read_text())
        assert doc["variable_names"] == ["a", "b"]
        assert read_edge_list(out / "graph.edges").edges == frozenset()

    def test_participation_ingest_relabels_twice(self, tmp_path, monkeypatch):
        # the raw tokens are relabelled once inside load_csv and the kept
        # columns once more for the value map, not once per column
        from greedymrf import dataset

        calls = []
        relabel = dataset._relabel
        monkeypatch.setattr(dataset, "_relabel", lambda *a: calls.append(1) or relabel(*a))
        f = tmp_path / "v.csv"
        f.write_text("a,b,c\nYea,Nay,Absent\nNay,Nay,Yea\nYea,Absent,Absent\n")
        rc = main([
            "learn", str(f), "--map", "Yea=+1", "--map", "Nay=-1", "--map", "Absent=-1",
            "--missing", "Absent", "--participation", "0.6", "--epsilon", "0.1",
            "--out-dir", str(tmp_path / "out"),
        ])
        assert rc == 0 and len(calls) == 2

    def test_participation_needs_missing_flag(self, tmp_path):
        _, f = sample_csv(tmp_path, ModelSpec.chain(3, WeightRule.constant(0.5)), 100, 2)
        rc = main(["learn", str(f), "--epsilon", "0.1", "--participation", "0.75",
                   "--out-dir", str(tmp_path / "x")])
        assert rc != 0

    def test_missing_file_fails(self, tmp_path):
        rc = main(["learn", str(tmp_path / "nope.csv"), "--epsilon", "0.1",
                   "--out-dir", str(tmp_path)])
        assert rc != 0

    def test_prune_flag_writes_pruned_neighborhoods(self, tmp_path):
        model, f = sample_csv(tmp_path, ModelSpec.chain(3, WeightRule.constant(0.5)), 20000, 3)
        out = tmp_path / "out"
        rc = main(["learn", str(f), "--epsilon", "0.05", "--prune", "--out-dir", str(out)])
        assert rc == 0
        doc = json.loads((out / "result.json").read_text())
        assert "pruned_neighborhoods" in doc

    def test_deterministic_outputs(self, tmp_path):
        _, f = sample_csv(tmp_path, ModelSpec.chain(3, WeightRule.constant(0.5)), 2000, 4)
        outs = []
        for d in ("a", "b"):
            out = tmp_path / d
            assert main(["learn", str(f), "--epsilon", "0.05", "--out-dir", str(out)]) == 0
            outs.append({
                name: (out / name).read_bytes()
                for name in ("result.json", "graph.dot", "graph.edges")
            })
        assert outs[0] == outs[1]


class TestOracle:
    def test_chain4_exact_recovery(self, tmp_path):
        out = tmp_path / "out"
        rc = main(["oracle", "--model", "chain:4", "--theta", "const:0.5",
                   "--epsilon", "0.05", "--out-dir", str(out)])
        assert rc == 0
        g = read_edge_list(out / "graph.edges")
        assert g.edges == frozenset({(0, 1), (1, 2), (2, 3)})
        trace = (out / "trace.txt").read_text()
        assert "node 0" in trace and "H_before" in trace

    def test_counterexample_trace_first_pick(self, tmp_path):
        out = tmp_path / "out"
        rc = main(["oracle", "--model", "counterexample:4", "--theta", "const:0.9",
                   "--epsilon", "0.0001", "--out-dir", str(out)])
        assert rc == 0
        doc = json.loads((out / "result.json").read_text())
        node0 = next(t for t in doc["traces"] if t["node"] == 0)
        assert node0["picks"][0]["vertex"] == 5  # the far hub, not a neighbor

    def test_trace_shows_near_flips_and_result_schema_is_unchanged(self, tmp_path):
        out = tmp_path / "out"
        assert main(["oracle", "--model", "counterexample:4", "--theta", "const:0.9",
                     "--epsilon", "0.0001", "--out-dir", str(out)]) == 0
        lines = (out / "trace.txt").read_text().splitlines()
        assert lines[0].startswith("node 0: stop=")
        assert lines[1].startswith("  pick 5: H_before=") and " runner_up=1 margin=0.1176" in lines[1]
        stops = [ln for ln in lines if ln.startswith("node ")]
        assert any(" rejected=" in ln and " gain=" in ln for ln in stops)
        doc = json.loads((out / "result.json").read_text())
        for t in doc["traces"]:
            assert set(t) == {"node", "stop_reason", "picks"}
            for pick in t["picks"]:
                assert set(pick) == {"vertex", "entropy_before", "entropy_after"}

    def test_tree_matches_chow_liu_mode(self, tmp_path):
        greedy_out = tmp_path / "g"
        cl_out = tmp_path / "c"
        assert main(["oracle", "--model", "tree:2,2", "--theta", "const:0.5",
                     "--epsilon", "0.02", "--out-dir", str(greedy_out)]) == 0
        assert main(["oracle", "--model", "tree:2,2", "--theta", "const:0.5",
                     "--epsilon", "0.02", "--chow-liu", "--out-dir", str(cl_out)]) == 0
        assert read_edge_list(greedy_out / "graph.edges") == read_edge_list(cl_out / "graph.edges")

    def test_capacity_error_is_reported(self, tmp_path):
        rc = main(["oracle", "--model", "grid:5", "--theta", "const:0.5",
                   "--epsilon", "0.05", "--out-dir", str(tmp_path)])
        assert rc != 0


def test_library_modules_do_not_import_the_cli():
    code = (
        "import importlib, pkgutil, sys, greedymrf\n"
        "for m in pkgutil.iter_modules(greedymrf.__path__, 'greedymrf.'):\n"
        "    if m.name not in ('greedymrf.cli', 'greedymrf.__main__'):\n"
        "        importlib.import_module(m.name)\n"
        "print(' '.join(sorted(n for n in sys.modules if n.startswith('greedymrf'))))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    loaded = proc.stdout.split()
    assert "greedymrf.experiment" in loaded and "greedymrf.cli" not in loaded


class TestExperiment:
    def run(self, tmp_path, sub, extra=()):
        out = tmp_path / sub
        rc = main([
            "experiment", "--model", "grid:3", "--theta", "const:0.5",
            "--n", "200,400,800", "--epsilon", "0.045", "--trials", "5",
            "--seed", "11", "--out-dir", str(out), *extra,
        ])
        assert rc == 0
        return out

    def test_schema_and_success_monotone(self, tmp_path):
        out = self.run(tmp_path, "a")
        lines = (out / "results.csv").read_text().strip().splitlines()
        assert lines[0] == RESULTS_HEADER
        rows = [ln.split(",") for ln in lines[1:]]
        assert len(rows) == 3
        rates = [float(r[4]) for r in rows]
        # non-decreasing within the allowed noise slack
        best = 0.0
        for rate in rates:
            assert rate >= best - 0.1
            best = max(best, rate)
        summary = json.loads((out / "summary.json").read_text())
        assert summary["min_n_at_target"]["0.045"] in (400, 800)

    def test_fixed_seed_byte_identical(self, tmp_path):
        a = self.run(tmp_path, "a", ("--no-timing",))
        b = self.run(tmp_path, "b", ("--no-timing",))
        assert (a / "results.csv").read_bytes() == (b / "results.csv").read_bytes()
        assert (a / "summary.json").read_bytes() == (b / "summary.json").read_bytes()

    def test_gibbs_sampler_path(self, tmp_path):
        out = tmp_path / "g"
        rc = main([
            "experiment", "--model", "chain:3", "--theta", "const:0.5",
            "--n", "500", "--epsilon", "0.05", "--trials", "3", "--sampler", "gibbs",
            "--gibbs-burn-in", "100", "--gibbs-thinning", "2",
            "--seed", "1", "--out-dir", str(out),
        ])
        assert rc == 0
        lines = (out / "results.csv").read_text().strip().splitlines()
        assert len(lines) == 2

    def test_descending_n_rejected(self, tmp_path):
        rc = main([
            "experiment", "--model", "chain:3", "--theta", "const:0.5",
            "--n", "400,200", "--epsilon", "0.05", "--out-dir", str(tmp_path),
        ])
        assert rc != 0

    @pytest.mark.parametrize("n, eps, sampler", [
        ("100,200", "0.05,-1", "exact"),
        ("0,100", "0.05", "exact"),
        ("100", "0.0", "exact"),
        ("100,200", "0.05,-1", "gibbs"),
    ])
    def test_invalid_n_or_epsilon_rejected_before_sampling(self, tmp_path, n, eps, sampler):
        rc = main([
            "experiment", "--model", "grid:3", "--theta", "const:0.5", "--n", n,
            "--epsilon", eps, "--trials", "2", "--sampler", sampler, "--out-dir", str(tmp_path),
        ])
        assert rc == 1
        assert not (tmp_path / "results.csv").exists()


@pytest.mark.slow
class TestRuntimeTrend:
    def test_learn_time_envelope(self):
        # across p in {9, 16, 25} at fixed n, mean learn time should stay
        # within a cubic envelope (x4 slack); across n at fixed p, within a
        # linear envelope (x2 slack). Loose by construction: timing noise.
        n = 2000
        times = {}
        for k in (3, 4, 5):
            spec = ExperimentSpec(
                model=ModelSpec.grid(k, WeightRule.constant(0.5)),
                n_values=(n,),
                epsilons=(0.045,),
                trials=3,
                seed=5,
                sampler="exact" if k <= 4 else "gibbs",
                gibbs_burn_in=100,
                gibbs_thinning=1,
            )
            import tempfile
            from pathlib import Path

            with tempfile.TemporaryDirectory() as d:
                cells = run_experiment(spec, Path(d) / "r.csv")
            times[k * k] = max(cells[0].mean_runtime_s, 1e-4)
        assert times[25] / times[9] <= 4.0 * (25 / 9) ** 3
        assert times[16] / times[9] <= 4.0 * (16 / 9) ** 3

        spec_small = ExperimentSpec(
            model=ModelSpec.grid(3, WeightRule.constant(0.5)),
            n_values=(2000, 8000), epsilons=(0.045,), trials=3, seed=5,
        )
        import tempfile
        from pathlib import Path

        with tempfile.TemporaryDirectory() as d:
            cells = run_experiment(spec_small, Path(d) / "r.csv")
        t_small = max(cells[0].mean_runtime_s, 1e-4)
        t_big = max(cells[1].mean_runtime_s, 1e-4)
        assert t_big / t_small <= 2.0 * (8000 / 2000)


class TestBounds:
    def test_partial_flags_print_ising_reports(self, capsys):
        rc = main(["bounds", "--beta", "0.1", "--max-degree", "2"])
        assert rc == 0
        text = capsys.readouterr().out
        assert "ising_epsilon" in text
        assert f"{2**-10 * math.sinh(0.2)**2:.12g}"[:10] in text

    def test_json_mode_parses_and_echoes(self, capsys):
        rc = main(["bounds", "--beta", "0.1", "--gamma", "0.15", "--max-degree", "2",
                   "--epsilon", "0.5", "--alphabet-size", "2", "--num-vars", "16",
                   "--delta", "0.05", "--json"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["inputs"]["beta"] == 0.1
        assert {r["name"] for r in doc["reports"]} == {
            "decay_threshold", "sample_size_bound", "ising_epsilon",
            "ising_girth_bound", "ising_nondegeneracy_epsilon",
        }

    def test_no_flags_is_usage_error(self):
        assert main(["bounds"]) == 2

    def test_inconsistent_ordering_fails(self):
        assert main(["bounds", "--beta", "0.3", "--gamma", "0.2", "--max-degree", "2"]) != 0

    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "greedymrf", "bounds", "--beta", "0.1",
             "--max-degree", "2"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert "ising_epsilon" in proc.stdout
