"""SHA-256 digests of command outputs on small seeded inputs.

Counting and pruning changes must keep every output byte-identical, entropy
floats included, so these digests pin the files a run writes: ``learn
--prune`` (result.json, graph.dot, graph.edges), ``oracle --prune`` (the same
plus trace.txt) and ``experiment --no-timing`` (results.csv, summary.json).
The digests depend on numpy's float results for log2 and sums; if a numpy
upgrade moves them, re-record them only after checking that the graphs,
picks and pruned sets are unchanged.

The oracle digests pin an exact source's floats too, which a new way of
computing its marginals moves in the last bits. Re-record them only with a
test that runs the new and the old computation side by side and finds every
pick, runner-up, stop, rejected candidate, pruned set and graph equal, with
every entropy within 1e-12 (as ``TestDecisionsMatchAxisSums`` in
``test_learner.py`` does for the summed-slot transform), and only when
``graph.dot`` and ``graph.edges`` keep their digests.
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


def tall_votes_csv(tmp_path):
    # 20000 rows x 8 columns: past dataset._PLANE_ROWS, so the starting
    # entropies and every prune table are counted from bit planes. Seven
    # members on a chain, each agreeing with the one before with p = 0.8,
    # and one low-participation column that the filter drops.
    rng = np.random.default_rng(29)
    rows, members = 20000, 7
    spins = np.empty((rows, members), dtype=bool)
    spins[:, 0] = rng.random(rows) < 0.5
    for v in range(1, members):
        spins[:, v] = spins[:, v - 1] ^ (rng.random(rows) < 0.2)
    codes = np.column_stack((spins, rng.random(rows) < 0.5)).astype(np.intp)
    codes[rng.random(codes.shape) < 0.05] = 2
    codes[rng.random(rows) < 0.5, members] = 2
    tokens = np.array(["Nay", "Yea", "Absent"])[codes]
    lines = [",".join(f"m{k}" for k in range(members + 1))] + [",".join(row) for row in tokens]
    (tmp_path / "tall.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    return ["learn", str(tmp_path / "tall.csv"), "--epsilon", "0.01", "--prune",
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
    tall_votes_csv: {
        "graph.dot": "ca3297dc24acea3e2d0d169a62f4ff77390da23331612959807ff712843adf3d",
        "graph.edges": "d59012f693ad020069f4f431d907bf023f3a52405407774e9bd7b3451e961a7f",
        "result.json": "f007bf18cdef69adb8c28fd836d8d64ee985c1fb5b880ae0e9ed20de8f214c06",
    },
    oracle_er: {
        "graph.dot": "8dfed6055e54dfdf973e8547848d53f2a5ba66866dd4bc88bd7a6ad26e0c3fe4",
        "graph.edges": "f4b78ee809ee78541cfafaa8f88389a2d2e2630e64c3e6160aa7e17d60c9a751",
        "result.json": "bddf65f7790fde50d7cecbdf70e9814f2fc7ae4b4723a2259228c362e2669b57",
        "trace.txt": "0fdcd7295d9c49539a7fc40201280eb1bb654260276d43a51e013fea2f085c43",
    },
    oracle_grid: {
        "graph.dot": "dd07d1114bc741b212a0e4e33f18cd0c44bd2a870fbe7f810cca4f6024798163",
        "graph.edges": "9d4206d0b620f6b489cd6248229b69ae6bc736ff70a1d57c16b7f5ad409265b8",
        "result.json": "6998f3d398d0637a424ffc0a8c38b22d98b1de04a08878ca62cd1a8bfde98ba1",
        "trace.txt": "5a592653b2f41a0dd292c4981fa958069379916e40f817fa79e6854fca6960b7",
    },
    oracle_counterexample: {
        "graph.dot": "585d84b7775b3f61236588df6032b9c6c5fe61d704dc02724be07401fb6f0506",
        "graph.edges": "79b243d458a2fee5ac8b1d6066b729b41b894a2da9cb487c7648ac124b7c5af8",
        "result.json": "946c5d9a0a89b16d3679f415e7adddcf52a91f0c44edcff3a00784d2279c2848",
        "trace.txt": "29c8225a54ff8cc6d1a7d5ec90d3a197aeddb8ce7f048f98d61f5fe768c5d2cd",
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
