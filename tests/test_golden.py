"""SHA-256 digests of command outputs on small seeded inputs.

Counting and pruning changes must keep every output byte-identical, entropy
floats included, so these digests pin the files a run writes: ``learn
--prune`` (result.json, graph.dot, graph.edges), ``oracle --prune`` (the same
plus trace.txt) and ``experiment --no-timing`` (results.csv, summary.json).
The digests depend on numpy's float results for log2 and sums; if a numpy
upgrade moves them, re-record them only after checking that the graphs,
picks and pruned sets are unchanged.
"""

import hashlib

import numpy as np
import pytest

from greedymrf.cli import main
from greedymrf.dataset import Alphabet, write_csv
from greedymrf.generators import ModelSpec, WeightRule, build
from greedymrf.models import JointDistribution, exact_joint, exact_sample


def grid_csv(tmp_path):
    # 4x4 grid at n = 800: passes run deep enough to leave the bit planes.
    ds = exact_sample(exact_joint(build(ModelSpec.grid(4, WeightRule.constant(0.4)))), 800, 3)
    write_csv(ds, tmp_path / "grid.csv")
    return ["learn", str(tmp_path / "grid.csv"), "--epsilon", "0.02", "--prune"]


def ternary_csv(tmp_path):
    # A peaked random table over 6 ternary variables.
    w = np.random.default_rng(5).random(3**6) ** 4
    joint = JointDistribution(6, Alphabet(("a", "b", "c")), w / w.sum())
    write_csv(exact_sample(joint, 1500, 5), tmp_path / "ternary.csv")
    return ["learn", str(tmp_path / "ternary.csv"), "--epsilon", "0.005", "--prune"]


def votes_csv(tmp_path):
    # Yea/Nay/Absent tokens through the map and participation filter.
    rng = np.random.default_rng(7)
    spins = exact_sample(exact_joint(build(ModelSpec.grid(3, WeightRule.constant(0.5)))), 600, 7)
    tokens = np.where(spins.values == 1, "Yea", "Nay")
    tokens[rng.random(tokens.shape) < 0.05] = "Absent"
    tokens[rng.random(tokens.shape[0]) < 0.5, 8] = "Absent"
    lines = [",".join(f"s{k}" for k in range(9))] + [",".join(row) for row in tokens]
    (tmp_path / "votes.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    return ["learn", str(tmp_path / "votes.csv"), "--epsilon", "0.01", "--prune",
            "--map", "Yea=+1", "--map", "Nay=-1", "--map", "Absent=-1",
            "--missing", "Absent", "--participation", "0.75"]


def oracle_er(tmp_path):
    return ["oracle", "--model", "er:12,0.25,3", "--theta", "randsign:0.5,3",
            "--epsilon", "0.02", "--prune"]


def oracle_grid(tmp_path):
    return ["oracle", "--model", "grid:3", "--theta", "const:0.5", "--epsilon", "0.001",
            "--prune"]


def oracle_counterexample(tmp_path):
    # The far hub is picked first and then pruned.
    return ["oracle", "--model", "counterexample:4", "--theta", "const:0.9", "--epsilon", "1e-5",
            "--prune"]


def experiment_exact(tmp_path):
    return ["experiment", "--model", "grid:3", "--theta", "const:0.5", "--n", "100,400",
            "--epsilon", "0.045", "--trials", "4", "--seed", "11", "--no-timing"]


def experiment_gibbs(tmp_path):
    return ["experiment", "--model", "grid:3", "--theta", "const:0.5", "--n", "300",
            "--epsilon", "0.045", "--trials", "3", "--seed", "2", "--sampler", "gibbs",
            "--gibbs-burn-in", "200", "--no-timing"]


GOLDEN = {
    grid_csv: {
        "graph.dot": "08ba9a4fa724bb8aae3708417ce3cb716e7f5e0f6937fcc4d0610cdeefcd02e2",
        "graph.edges": "d8bcf952a24b84985f0557fdeebae2b9735d332f3dc9b3f71691abb802dbb89d",
        "result.json": "3140c6947ed4b7c3810d28416a308b50978389ede4a6abae12fde40586e29ee3",
    },
    ternary_csv: {
        "graph.dot": "635a8c9bf357e5274c7f55653cfc6ffa33f5519ee73336a057a54546dc99d88c",
        "graph.edges": "f06554e1ff0c3eb0fef1c93013542183878da29717029b3d2ebfb8b5dfca5ae2",
        "result.json": "e3c8a1cbd8f75ab5b60eb2523cbcded05961efe199e7c929f8b4103c60a0d190",
    },
    votes_csv: {
        "graph.dot": "2464ea1573cbb7b817a95da358bf1136cf900aea6535177693594d281ab6a1c6",
        "graph.edges": "5bc63fa8bda28092dd008e8c48f881aef6a873393ff393d1b669983d96273b03",
        "result.json": "9dde074802986352eebb9783ea3dcfa3a2c7fe8d395535a2868985ed6849f31e",
    },
    oracle_er: {
        "graph.dot": "8dfed6055e54dfdf973e8547848d53f2a5ba66866dd4bc88bd7a6ad26e0c3fe4",
        "graph.edges": "f4b78ee809ee78541cfafaa8f88389a2d2e2630e64c3e6160aa7e17d60c9a751",
        "result.json": "7f80c68182091defdaac260fe0e69ddc62feb6ba5088547a4c7845311bb9119b",
        "trace.txt": "d33c5a07f5c8f022cf1419cddf4addfebb4b6b7c16b8d1dd4da97f52d7e25f27",
    },
    oracle_grid: {
        "graph.dot": "dd07d1114bc741b212a0e4e33f18cd0c44bd2a870fbe7f810cca4f6024798163",
        "graph.edges": "9d4206d0b620f6b489cd6248229b69ae6bc736ff70a1d57c16b7f5ad409265b8",
        "result.json": "597b93fb14e4039afc0fb3878eb5cd96fe571806233e803c91c103af0c07dbc0",
        "trace.txt": "dc850fdc0409cf8091c833ad0daa7a20873a9c169c9ab700e24bc26e22d57e88",
    },
    oracle_counterexample: {
        "graph.dot": "585d84b7775b3f61236588df6032b9c6c5fe61d704dc02724be07401fb6f0506",
        "graph.edges": "79b243d458a2fee5ac8b1d6066b729b41b894a2da9cb487c7648ac124b7c5af8",
        "result.json": "49aece557902d29435eb038a9c48b1ce90182957273d9aca6c14d3866ad05b27",
        "trace.txt": "1b1dccf7aceebdbaba09ac407bd894385e5c25c87eb57b39694cfcac4bb5efdc",
    },
    experiment_exact: {
        "results.csv": "473b6c9301c98e524b006ce63858f88676316e3c11e8bbc2b1ba4caac34de56f",
        "summary.json": "0edeebefb41e2be7efcb6fb9cc2a2dd572d286417b8fcf6a1c5a84eb67f10069",
    },
    experiment_gibbs: {
        "results.csv": "1c512e7dd746e51da5f113dc371a212c4b47eea4401e54a4243d9e0d1648f8f0",
        "summary.json": "14b765ae07a831ec6c954597e0424f8ded7cc5ab095ebb7d952ea2a2803af10c",
    },
}


@pytest.mark.parametrize("case", list(GOLDEN), ids=lambda case: case.__name__)
def test_outputs_match_their_recorded_digests(tmp_path, case):
    out = tmp_path / "out"
    assert main([*case(tmp_path), "--out-dir", str(out)]) == 0
    got = {f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in sorted(out.iterdir())}
    assert got == GOLDEN[case]
