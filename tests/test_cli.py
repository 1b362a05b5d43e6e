"""End-to-end command-line behaviour: artifacts, determinism, schemas."""

import importlib
import json
import math
import os
import pkgutil
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import greedymrf
from greedymrf.cli import _trace_lines, main
from greedymrf.entropy import EmpiricalSource
from greedymrf.experiment import ExperimentSpec, run_experiment
from greedymrf.generators import MODEL_FAMILIES, WEIGHT_RULES, ModelSpec, WeightRule, build
from greedymrf.gibbs import GibbsConfig, gibbs_sample
from greedymrf.learner import LearnerConfig, LearnResult, NeighborhoodTrace, Pick
from greedymrf.models import MarkovGraph, exact_joint, exact_sample, read_edge_list
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

    def test_participation_ingest_relabels_once(self, tmp_path, monkeypatch):
        # load_csv relabels the kept columns once, value map included,
        # straight from the raw-token ids: no raw dataset is relabelled first
        from greedymrf import dataset

        calls = []
        relabel = dataset._relabel
        monkeypatch.setattr(dataset, "_relabel",
                            lambda *a, **k: calls.append(1) or relabel(*a, **k))
        f = tmp_path / "v.csv"
        f.write_text("a,b,c\nYea,Nay,Absent\nNay,Nay,Yea\nYea,Absent,Absent\n")
        rc = main([
            "learn", str(f), "--map", "Yea=+1", "--map", "Nay=-1", "--map", "Absent=-1",
            "--missing", "Absent", "--participation", "0.6", "--epsilon", "0.1",
            "--out-dir", str(tmp_path / "out"),
        ])
        assert rc == 0 and len(calls) == 1

    def test_participation_ingest_is_clean_under_dev_mode(self, tmp_path):
        # -X dev -W error turns an unclosed file, a deprecated call or any
        # other warning on the ingest path into a failure or stderr output.
        rng = np.random.default_rng(5)
        table = rng.choice(["Yea", "Nay", "Absent"], size=(4000, 6), p=[0.45, 0.45, 0.1])
        table[:, 5] = rng.choice(["Yea", "Absent"], size=4000)
        f = tmp_path / "v.csv"
        f.write_text("\n".join([",".join(f"m{k}" for k in range(6))]
                               + [",".join(row) for row in table]) + "\n")
        root = Path(__file__).resolve().parent.parent
        paths = [str(root / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]
        proc = subprocess.run(
            [sys.executable, "-X", "dev", "-W", "error", "-m", "greedymrf", "learn", str(f),
             "--map", "Yea=+1", "--map", "Nay=-1", "--map", "Absent=-1", "--missing", "Absent",
             "--participation", "0.75", "--epsilon", "0.1", "--out-dir", str(tmp_path / "out")],
            env=dict(os.environ, PYTHONPATH=os.pathsep.join(paths)),
            capture_output=True, text=True, timeout=120)
        assert (proc.returncode, proc.stderr) == (0, "")
        doc = json.loads((tmp_path / "out" / "result.json").read_text())
        assert doc["variable_names"] == [f"m{k}" for k in range(5)]

    def test_participation_needs_missing_flag(self, tmp_path):
        _, f = sample_csv(tmp_path, ModelSpec.chain(3, WeightRule.constant(0.5)), 100, 2)
        rc = main(["learn", str(f), "--epsilon", "0.1", "--participation", "0.75",
                   "--out-dir", str(tmp_path / "x")])
        assert rc != 0

    def test_missing_needs_participation_flag(self, tmp_path, capsys):
        _, f = sample_csv(tmp_path, ModelSpec.chain(3, WeightRule.constant(0.5)), 100, 2)
        out = tmp_path / "x"
        rc = main(["learn", str(f), "--epsilon", "0.1", "--missing", "Q", "--out-dir", str(out)])
        assert rc == 1
        assert capsys.readouterr().err.count("\n") == 1
        assert not out.exists()

    def copied_pair_csv(self, tmp_path):
        # Column b copies column a, so the one true edge is a-b.
        rng = np.random.default_rng(8)
        rows = ["a,b"] + [f"{t},{t}" for t in rng.choice(["Y", "N"], size=200)]
        f = tmp_path / "yn.csv"
        f.write_text("\n".join(rows) + "\n")
        return f

    def test_map_file_skips_comments_and_blanks_and_keeps_later_equals(self, tmp_path):
        f = self.copied_pair_csv(tmp_path)
        rules = tmp_path / "rules.txt"
        rules.write_text("# token map\n\n  Y = a=b  \nN=c\n")
        out = tmp_path / "out"
        # Both mapped tokens must be in the forced alphabet, or ingest fails.
        rc = main(["learn", str(f), "--epsilon", "0.1", "--map-file", str(rules),
                   "--alphabet", "a=b,c", "--out-dir", str(out)])
        assert rc == 0
        assert json.loads((out / "result.json").read_text())["edges"] == [[0, 1]]

    def test_map_file_line_without_equals_fails(self, tmp_path):
        f = self.copied_pair_csv(tmp_path)
        rules = tmp_path / "rules.txt"
        rules.write_text("Y=1\nN\n")
        rc = main(["learn", str(f), "--epsilon", "0.1", "--map-file", str(rules),
                   "--out-dir", str(tmp_path / "out")])
        assert rc == 1
        assert not (tmp_path / "out").exists()

    def test_map_flag_without_equals_fails(self, tmp_path):
        f = self.copied_pair_csv(tmp_path)
        rc = main(["learn", str(f), "--epsilon", "0.1", "--map", "Y",
                   "--out-dir", str(tmp_path / "out")])
        assert rc == 1

    def test_nan_epsilon_is_rejected(self, tmp_path):
        rng = np.random.default_rng(9)
        rows = [",".join(f"v{k}" for k in range(16))] + [
            ",".join(str(x) for x in rng.integers(0, 2, size=16)) for _ in range(300)
        ]
        f = tmp_path / "wide.csv"
        f.write_text("\n".join(rows) + "\n")
        out = tmp_path / "out"
        assert main(["learn", str(f), "--epsilon", "nan", "--out-dir", str(out)]) == 1
        assert not out.exists()

    def test_invalid_utf8_names_the_row(self, tmp_path, capsys):
        f = tmp_path / "bad.csv"
        f.write_bytes(b"a,b\n0,1\n1,0\n1,\xff\n0,0\n")
        out = tmp_path / "out"
        assert main(["learn", str(f), "--epsilon", "0.1", "--out-dir", str(out)]) == 1
        assert "body row 3 is not valid UTF-8" in capsys.readouterr().err
        assert not out.exists()

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

    def test_tied_picks_print_an_unsigned_zero_margin(self, tmp_path):
        # A tie's margin and a zero gain are float noise of either sign; the
        # trace prints them as 0.0000000000 whatever the sign.
        picks = (Pick(1, 1.0, 0.75, 3, -1e-17), Pick(2, 0.75, 0.5, 4, -0.0))
        trace = NeighborhoodTrace(0, picks, "threshold", 5, -2e-17)
        result = LearnResult((trace,), MarkovGraph(6, [(0, 1), (0, 2)]), (), LearnerConfig(0.01))
        assert _trace_lines(result) == [
            "node 0: stop=threshold rejected=5 gain=0.0000000000",
            "  pick 1: H_before=1.0000000000 H_after=0.7500000000 runner_up=3 margin=0.0000000000",
            "  pick 2: H_before=0.7500000000 H_after=0.5000000000 runner_up=4 margin=0.0000000000",
        ]
        out = tmp_path / "out"  # the grid's centre ties its four neighbours
        assert main(["oracle", "--model", "grid:3", "--theta", "const:0.5", "--epsilon", "0.001",
                     "--out-dir", str(out)]) == 0
        lines = (out / "trace.txt").read_text().splitlines()
        assert "-0.0000000000" not in "\n".join(lines)
        centre = next(n for n, line in enumerate(lines) if line.startswith("node 4:"))
        assert lines[centre + 1].endswith(" runner_up=3 margin=0.0000000000")

    def test_tree_matches_chow_liu_mode(self, tmp_path):
        greedy_out = tmp_path / "g"
        cl_out = tmp_path / "c"
        assert main(["oracle", "--model", "tree:2,2", "--theta", "const:0.5",
                     "--epsilon", "0.02", "--out-dir", str(greedy_out)]) == 0
        assert main(["oracle", "--model", "tree:2,2", "--theta", "const:0.5",
                     "--epsilon", "0.02", "--chow-liu", "--out-dir", str(cl_out)]) == 0
        assert read_edge_list(greedy_out / "graph.edges") == read_edge_list(cl_out / "graph.edges")

    def test_degree_hint_caps_picks_at_twice_the_hint(self, tmp_path):
        out = tmp_path / "out"
        rc = main(["oracle", "--model", "grid:3", "--theta", "const:0.5", "--epsilon", "0.001",
                   "--degree-hint", "1", "--out-dir", str(out)])
        assert rc == 0
        doc = json.loads((out / "result.json").read_text())
        assert doc["config"]["max_neighborhood"] == 2
        assert max(len(t["picks"]) for t in doc["traces"]) == 2
        # The centre of the grid has four neighbours and stops at the cap.
        assert doc["traces"][4]["stop_reason"] == "cap"

    def test_nan_epsilon_is_rejected(self, tmp_path):
        out = tmp_path / "out"
        rc = main(["oracle", "--model", "grid:3", "--theta", "const:0.5", "--epsilon", "nan",
                   "--out-dir", str(out)])
        assert rc == 1
        assert not out.exists()

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


def test_package_and_cli_import_only_what_they_run():
    # The root re-exports nothing, learn and oracle never load the experiment
    # harness, the Gibbs sampler or the bound calculators, and experiment
    # never loads the bound calculators either.
    code = (
        "import sys\n"
        "loaded = lambda: sorted(n for n in sys.modules if n.startswith('greedymrf.'))\n"
        "import greedymrf\n"
        "print(' '.join(loaded()))\n"
        "import greedymrf.cli\n"
        "print(' '.join(loaded()))\n"
        "import greedymrf.experiment\n"
        "print(' '.join(loaded()))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    root, cli, experiment = (line.split() for line in proc.stdout.split("\n")[:3])
    assert root == [] and "greedymrf.cli" in cli
    assert not {"greedymrf.experiment", "greedymrf.gibbs", "greedymrf.theory"} & set(cli)
    assert "greedymrf.experiment" in experiment and "greedymrf.theory" not in experiment


def test_each_submodule_attribute_is_the_module():
    # A top-level re-export named like its module would shadow it, and
    # ``import greedymrf.entropy as m`` would bind that name instead.
    for info in pkgutil.iter_modules(greedymrf.__path__, "greedymrf."):
        if info.name != "greedymrf.__main__":
            importlib.import_module(info.name)
            assert getattr(greedymrf, info.name.split(".")[1]) is sys.modules[info.name]


def test_bench_tracer_finds_every_layer():
    # The bench tracer wraps package functions by name; a refactor that
    # renames or drops one would silently lose that layer's metrics.
    root = Path(__file__).resolve().parent.parent
    code = (
        "import json, sys\n"
        "sys.path.insert(0, 'bench')\n"
        "from traced_cli import Tracer, install\n"
        "tracer = Tracer()\n"
        "install(tracer)\n"
        "print(json.dumps(tracer.absent))\n"
    )
    paths = [str(root / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
    proc = subprocess.run([sys.executable, "-c", code], cwd=root, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []


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

    @pytest.mark.parametrize("sampler", ["exact", "gibbs"])
    def test_datasets_are_prefixes_of_one_draw_per_trial(self, tmp_path, sampler):
        spec = ExperimentSpec(
            model=ModelSpec.grid(3, WeightRule.constant(0.4)), n_values=(30, 70, 120),
            epsilons=(0.05, 0.1), trials=3, seed=9, sampler=sampler,
            gibbs_burn_in=20, gibbs_thinning=2,
        )
        seen = []
        with mock.patch("greedymrf.experiment.EmpiricalSource",
                        side_effect=lambda ds: seen.append(ds) or EmpiricalSource(ds)):
            run_experiment(spec, tmp_path / "r.csv")
        # Cells run n by n, epsilon by epsilon, trial by trial.
        by_cell = [seen[k:k + spec.trials] for k in range(0, len(seen), spec.trials)]
        largest = by_cell[-1]
        for ds in largest:
            assert ds.n == 120
        for cell, n in zip(by_cell, (30, 30, 70, 70, 120, 120)):
            for trial, ds in enumerate(cell):
                assert np.array_equal(ds.values, largest[trial].values[:n])
        model = build(spec.model)
        if sampler == "exact":
            # The same rows as an n-row draw with the trial's seed at every n.
            joint = exact_joint(model)
            for cell, n in zip(by_cell, (30, 30, 70, 70, 120, 120)):
                for trial, ds in enumerate(cell):
                    assert ds == exact_sample(joint, n, 9 ^ trial)
            return
        for trial, ds in enumerate(largest):
            cfg = GibbsConfig(seed=9 ^ trial, burn_in=20, thinning=2)
            assert ds == gibbs_sample(model, 120, cfg)

    @pytest.mark.parametrize("sampler, draw", [
        ("exact", "greedymrf.experiment.exact_sample"),
        ("gibbs", "greedymrf.experiment.GibbsChains.draw"),
    ])
    def test_sampler_failure_leaves_no_results(self, tmp_path, sampler, draw):
        spec = ExperimentSpec(
            model=ModelSpec.chain(3, WeightRule.constant(0.5)), n_values=(20, 40),
            epsilons=(0.1,), trials=3, seed=1, sampler=sampler, gibbs_burn_in=5,
        )
        out = tmp_path / "out"
        with mock.patch(draw, side_effect=RuntimeError("sampler failed")):
            with pytest.raises(RuntimeError, match="sampler failed"):
                run_experiment(spec, out / "results.csv")
        assert not out.exists()

    @pytest.mark.parametrize("sampler", ["exact", "gibbs"])
    def test_negative_seed_rejected_before_sampling(self, tmp_path, capsys, sampler):
        out = tmp_path / "out"
        rc = main(["experiment", "--model", "chain:3", "--theta", "const:0.5", "--n", "50",
                   "--epsilon", "0.1", "--seed", "-1", "--sampler", sampler,
                   "--out-dir", str(out)])
        err = capsys.readouterr().err
        assert rc == 1
        assert err == "greedymrf experiment: need seed >= 0, got -1\n"
        assert not out.exists()

    def test_gibbs_fields_that_overflow_are_rejected(self, tmp_path, capsys):
        def run(theta):
            out = tmp_path / theta
            rc = main(["experiment", "--model", "chain:3", "--theta", theta, "--sampler", "gibbs",
                       "--n", "50", "--epsilon", "0.1", "--trials", "2", "--gibbs-burn-in", "10",
                       "--out-dir", str(out)])
            return rc, capsys.readouterr().err, out

        rc, err, out = run("const:1e308")
        assert rc == 1
        assert err == ("greedymrf experiment: model energy is not finite: "
                       "an edge weight is too large\n")
        assert not out.exists()
        # The largest field here, 8e307, is finite: the chains run (without a warning).
        rc, err, out = run("const:1e307")
        assert rc == 0 and err == ""
        assert len((out / "results.csv").read_text().splitlines()) == 2

    def test_summary_reports_chain_rhat(self, tmp_path):
        def run(sub, *flags):
            out = tmp_path / sub
            assert main([
                "experiment", "--model", "grid:3", "--theta", "const:0.4", "--n", "50,200",
                "--epsilon", "0.05", "--trials", "3", "--seed", "2", "--gibbs-burn-in", "50",
                "--gibbs-thinning", "2", "--out-dir", str(out), *flags,
            ]) == 0
            assert (out / "results.csv").read_text().splitlines()[0] == RESULTS_HEADER
            return json.loads((out / "summary.json").read_text())

        exact = run("exact", "--sampler", "exact")
        assert all(c["rhat_magnetization"] is None and c["rhat_edge_max"] is None
                   for c in exact["cells"])
        gibbs = run("gibbs", "--sampler", "gibbs")
        for c in gibbs["cells"]:
            assert 0.9 < c["rhat_magnetization"] < 1.5 and 0.9 < c["rhat_edge_max"] < 1.5
        one = run("one", "--sampler", "gibbs", "--trials", "1")
        assert all(c["rhat_magnetization"] is None for c in one["cells"])

    def test_unmixed_chains_are_logged(self, tmp_path, caplog):
        # No burn-in and strong couplings: the chains keep their start states.
        spec = ExperimentSpec(
            model=ModelSpec.grid(3, WeightRule.constant(2.0)), n_values=(40,),
            epsilons=(0.05,), trials=4, seed=0, sampler="gibbs",
            gibbs_burn_in=0, gibbs_thinning=1,
        )
        with caplog.at_level("WARNING", logger="greedymrf.experiment"):
            cells = run_experiment(spec, tmp_path / "r.csv")
        assert cells[0].rhat_magnetization > 1.1
        assert len(caplog.records) == 1 and "R-hat" in caplog.records[0].getMessage()

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

    @pytest.mark.parametrize("flag, value", [
        ("--gibbs-thinning", "0"), ("--gibbs-thinning", "-3"), ("--gibbs-burn-in", "-7"),
    ])
    def test_invalid_gibbs_settings_rejected_before_sampling(self, tmp_path, flag, value):
        rc = main([
            "experiment", "--model", "grid:3", "--theta", "const:0.5", "--n", "100",
            "--epsilon", "0.05", "--trials", "2", "--sampler", "gibbs", flag, value,
            "--out-dir", str(tmp_path),
        ])
        assert rc == 1
        assert not (tmp_path / "results.csv").exists()


class TestRejectedModels:
    """A model or weight string that cannot be built ends the run with exit
    status 1, one stderr line and no output directory."""

    @pytest.mark.parametrize("model, theta", [
        ("grid:3.7", "const:0.5"),
        ("er:10.5,0.3,42", "const:0.5"),
        ("tree:2,2.9", "const:0.5"),
        ("grid:inf", "const:0.5"),
        ("chain:1e400", "const:0.5"),
        ("grid:nan", "const:0.5"),
        ("grid:3,4", "const:0.5"),
        ("blob:3", "const:0.5"),
        ("chain:3", "uniform:0.1,0.5,7.9"),
        ("chain:3", "const:inf"),
        ("chain:3", "const:1e308"),
        ("grid:1", "const:0.5"),
        ("er:10,0.3,-1", "const:0.5"),
        ("chain:3", "randsign:0.5,-1"),
        ("chain:3", "uniform:0.1,0.5,-3"),
    ])
    @pytest.mark.parametrize("command", ["oracle", "experiment"])
    def test_one_line_and_no_directory(self, tmp_path, capsys, command, model, theta):
        out = tmp_path / "out"
        extra = ["--epsilon", "0.1"] if command == "oracle" else ["--n", "50", "--epsilon", "0.1"]
        rc = main([command, "--model", model, "--theta", theta, *extra, "--out-dir", str(out)])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith(f"greedymrf {command}: ") and err.count("\n") == 1, err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("sampler", ["exact", "gibbs"])
    def test_experiment_fails_before_making_its_directory(self, tmp_path, sampler):
        # grid:5 has p = 25, past the exact sampler's 24; gibbs runs it.
        out = tmp_path / "out"
        argv = ["experiment", "--model", "grid:5", "--theta", "const:0.3", "--n", "20",
                "--epsilon", "0.1", "--trials", "1", "--sampler", sampler,
                "--gibbs-burn-in", "5", "--out-dir", str(out)]
        assert main(argv) == (1 if sampler == "exact" else 0)
        assert out.exists() == (sampler == "gibbs")

    @pytest.mark.parametrize("argv, message", [
        (["oracle", "--model", "grid:300"], "exact enumeration needs p <= 24, got 90000"),
        (["oracle", "--model", "chain:200000"], "exact enumeration needs p <= 24, got 200000"),
        (["oracle", "--model", "grid:1e9"], "exact enumeration needs p <= 24, got 10**18"),
        (["oracle", "--model", "tree:2,1e12"], "exact enumeration needs p <= 24, got "),
        (["oracle", "--model", "er:25,0.5,1"], "exact enumeration needs p <= 24, got 25"),
        (["experiment", "--model", "grid:5", "--n", "50"],
         "exact enumeration needs p <= 24, got 25"),
        (["experiment", "--model", "grid:65", "--n", "50", "--sampler", "gibbs"],
         "a 4225 x 4225 coupling matrix exceeds the dense-table cap"),
    ])
    def test_models_past_a_cap_fail_before_they_are_built(self, tmp_path, capsys, monkeypatch,
                                                         argv, message):
        # p comes from the family's parameters; the graph is never built.
        for module in ("cli", "experiment"):
            monkeypatch.setattr(f"greedymrf.{module}.build", mock.Mock(side_effect=AssertionError))
        out = tmp_path / "out"
        rc = main(argv + ["--theta", "const:0.5", "--epsilon", "0.1", "--out-dir", str(out)])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith(f"greedymrf {argv[0]}: {message.replace('10**18', str(10**18))}")
        assert err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("command", ["oracle", "experiment"])
    def test_help_lists_every_table_entry(self, capsys, monkeypatch, command):
        monkeypatch.setenv("COLUMNS", "200")  # argparse breaks words longer than a line
        with pytest.raises(SystemExit):
            main([command, "--help"])
        text = capsys.readouterr().out
        for table in (MODEL_FAMILIES, WEIGHT_RULES):
            for name, (_, kinds, *_) in table.items():
                assert f"{name}:{','.join(label for label, _ in kinds)}" in text


class TestNonFiniteInputs:
    """An infinite threshold or bound input, or a bound past the float range,
    exits 1 with one stderr line and writes nothing."""

    @pytest.mark.parametrize("argv", [
        ["oracle", "--model", "chain:3", "--theta", "const:0.5", "--epsilon", "inf"],
        ["experiment", "--model", "chain:3", "--theta", "const:0.5", "--n", "50",
         "--epsilon", "0.1,inf"],
        ["bounds", "--beta", "0.1", "--gamma", "inf", "--max-degree", "2", "--json"],
        ["bounds", "--epsilon", "0.1", "--max-degree", "100", "--alphabet-size", "10",
         "--num-vars", "10", "--delta", "0.1"],
    ])
    def test_one_line_and_no_output(self, tmp_path, capsys, argv):
        out = tmp_path / "out"
        if argv[0] != "bounds":
            argv = argv + ["--out-dir", str(out)]
        rc = main(argv)
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.err.startswith(f"greedymrf {argv[0]}: ")
        assert captured.err.count("\n") == 1 and captured.out == ""
        assert not out.exists()


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
