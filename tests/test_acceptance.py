"""Acceptance suite: one test per shipped guarantee, each printing a
PASS/FAIL line (visible under ``pytest tests/test_acceptance.py -v -s``).

Expected values are pinned by the independent brute-force helpers in
_oracle.py or by inline arithmetic, never by the code paths under test.
"""

import math
import time
from functools import lru_cache
from itertools import combinations, product

import numpy as np

from greedymrf.cli import main
from greedymrf.dataset import Alphabet, DiscreteDataset, write_csv
from greedymrf.entropy import (
    EmpiricalSource,
    ExactSource,
    conditional_entropy,
)
from greedymrf.experiment import ExperimentSpec, run_experiment
from greedymrf.generators import (
    ModelSpec,
    WeightRule,
    build,
    erdos_renyi_graph,
)
from greedymrf.learner import LearnerConfig, chow_liu, greedy_neighborhood, learn_structure, prune_neighborhood
from greedymrf.models import (
    IsingModel,
    JointDistribution,
    MarkovGraph,
    exact_joint,
    exact_sample,
    graph_distance,
)
from greedymrf.theory import (
    check_entropy_l1_bound,
    check_pinsker,
    decay_threshold,
    factor_graph,
    ising_guarantee,
    ising_nondegeneracy_epsilon,
    max_theta_for_tree_decay,
    model_gap,
    sample_size_bound,
    tree_spin_posterior,
)

from _oracle import (
    counterexample_pair_marginal,
    dary_tree_root_given_all_ones,
    entropy_bits,
    greedy_first_pick,
    ising_table,
)


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    line = f"[acceptance] {num:02d} {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, f"criterion {num} ({name}) failed: {detail}"


RECOVERY_SPECS = (
    [ModelSpec.chain(p, WeightRule.constant(0.5)) for p in range(3, 9)]
    + [ModelSpec.complete_dary_tree(5, 1, WeightRule.constant(0.5))]
    + [ModelSpec.complete_dary_tree(2, 3, WeightRule.constant(0.5))]
    + [ModelSpec.cycle(p, WeightRule.constant(0.5)) for p in range(5, 10)]
    + [ModelSpec.grid(3, WeightRule.constant(0.5))]
)


@lru_cache(maxsize=None)
def _exact_setup(spec: ModelSpec):
    model = build(spec)
    joint = exact_joint(model)
    src = ExactSource(joint)
    return model, joint, src, model_gap(src, model.graph)


@lru_cache(maxsize=1)
def _counterexample_threshold() -> int:
    for degree in range(1, 17):
        model, _, src, _ = _exact_setup(
            ModelSpec.counterexample(degree, WeightRule.constant(0.9))
        )
        tr = greedy_neighborhood(src, 0, LearnerConfig(epsilon=1e-6, max_neighborhood=1))
        if tr.picked[0] == degree + 1:
            return degree
    return -1


def test_criterion_01_exact_oracle_recovery():
    started = time.perf_counter()
    for spec in RECOVERY_SPECS:
        model, joint, src, gap = _exact_setup(spec)
        assert gap > 0, f"{spec.family}: non-positive gap"
        res = learn_structure(src, LearnerConfig(epsilon=0.5 * gap, symmetrization="AND"))
        assert res.graph == model.graph, f"{spec.family}{spec.params}: wrong edges"
    elapsed = time.perf_counter() - started
    _report(1, "exact-oracle recovery", elapsed < 60.0, f"{len(RECOVERY_SPECS)} models, {elapsed:.1f}s")


def test_criterion_02_counterexample_reproduction():
    started = time.perf_counter()
    theta = 0.9
    thresh = _counterexample_threshold()
    ok = 1 <= thresh <= 16
    # below the threshold the first pick is a true middle vertex
    for degree in range(1, thresh):
        _, _, src, _ = _exact_setup(ModelSpec.counterexample(degree, WeightRule.constant(theta)))
        tr = greedy_neighborhood(src, 0, LearnerConfig(epsilon=1e-6, max_neighborhood=1))
        ok = ok and (1 <= tr.picked[0] <= degree)
    # closed-form transfer marginals pin the pairwise conditional entropies
    for degree in range(1, thresh + 2):
        _, _, src, _ = _exact_setup(ModelSpec.counterexample(degree, WeightRule.constant(theta)))
        for k in (1, degree + 1):
            pair = counterexample_pair_marginal(degree, theta, k)
            h_k = entropy_bits({(a,): sum(pair[(x0, xk)] for x0 in (-1, 1) if xk == a)
                                for (x0, xk) in pair for a in [xk]})
            expect = entropy_bits(pair) - h_k
            got = conditional_entropy(src, 0, [k])
            assert abs(got - expect) < 1e-10, f"D={degree} k={k}"
    # full enumeration oracle confirms the first pick at both regimes
    for degree in (1, thresh):
        table = ising_table(
            degree + 2,
            {(0, i): theta for i in range(1, degree + 1)}
            | {(i, degree + 1): theta for i in range(1, degree + 1)},
        )
        pick = greedy_first_pick(table, 0, degree + 2)
        if degree == 1:
            ok = ok and pick == 1
        else:
            ok = ok and pick == degree + 1
    elapsed = time.perf_counter() - started
    _report(2, "counter-example first pick", ok and elapsed < 120.0,
            f"D_thresh={thresh}, {elapsed:.1f}s")


def test_criterion_03_super_neighborhood_and_pruning():
    thresh = _counterexample_threshold()
    specs = list(RECOVERY_SPECS) + [
        ModelSpec.counterexample(thresh, WeightRule.constant(0.9)),
        ModelSpec.counterexample(thresh + 1, WeightRule.constant(0.9)),
    ]
    checked = 0
    for spec in specs:
        model, joint, src, gap = _exact_setup(spec)
        cfg = LearnerConfig(epsilon=0.5 * gap)
        for i in range(model.p):
            truth = set(model.graph.neighbors(i))
            picks = set(greedy_neighborhood(src, i, cfg).picked)
            assert truth <= picks, f"{spec.family}{spec.params} node {i}: missing neighbors"
            pruned = prune_neighborhood(src, i, picks, cfg)
            assert set(pruned) == truth, f"{spec.family}{spec.params} node {i}: prune failed"
            checked += 1
    _report(3, "super-neighborhood + pruning", True, f"{checked} node checks")


def _random_tree_model(rng, p, lo=0.3, hi=0.6):
    order = rng.permutation(p).tolist()
    edges = [(order[k], order[int(rng.integers(0, k))]) for k in range(1, p)]
    g = MarkovGraph(p, edges)
    return IsingModel(g, {e: float(lo + (hi - lo) * rng.random()) for e in g.sorted_edges()})


def test_criterion_04_chow_liu_equivalence():
    rng = np.random.default_rng(404)
    trees = 0
    while trees < 20:
        p = int(rng.integers(4, 11))
        model = _random_tree_model(rng, p)
        joint = exact_joint(model)
        src = ExactSource(joint)
        gap = model_gap(src, model.graph)
        res = learn_structure(src, LearnerConfig(epsilon=0.5 * gap, symmetrization="AND"))
        assert res.graph == chow_liu(src), f"tree {trees}: greedy != chow-liu"
        assert res.graph == model.graph, f"tree {trees}: wrong tree"
        trees += 1
    _report(4, "chow-liu equivalence on trees", True, f"{trees} random trees")


def _random_source(rng):
    if rng.random() < 0.5:
        p = int(rng.integers(2, 5))
        w = rng.random(2**p) + 1e-3
        return ExactSource(JointDistribution(p, Alphabet(("-1", "1")), w / w.sum()))
    p = int(rng.integers(2, 5))
    rows = rng.integers(0, 2, size=(int(rng.integers(4, 60)), p))
    names = [f"c{k}" for k in range(p)]
    return EmpiricalSource(DiscreteDataset(names, Alphabet(("-1", "1")), rows))


def test_criterion_05_monotonicity_and_distance_bounds():
    rng = np.random.default_rng(505)
    applicable = 0
    for _ in range(1000):
        src = _random_source(rng)
        p = src.p
        i = int(rng.integers(0, p))
        others = [v for v in range(p) if v != i]
        rng.shuffle(others)
        cut = int(rng.integers(0, len(others)))
        given, rest = others[:cut], others[cut:]
        if rest:
            j = rest[0]
            h_with = conditional_entropy(src, i, given + [j])
            h_without = conditional_entropy(src, i, given)
            assert h_with <= h_without + 1e-12
        # distance bounds on a random marginal pair from two fresh sources
        q_src = _random_source(rng)
        common = min(src.p, q_src.p)
        size = int(rng.integers(1, common + 1))
        sub = tuple(sorted(rng.choice(common, size=size, replace=False).tolist()))
        rep1 = check_entropy_l1_bound(src, q_src, sub)
        assert rep1.holds
        applicable += int(rep1.applicable)
        assert check_pinsker(src, q_src, sub).holds
    _report(5, "monotonicity + distance bounds", applicable > 100,
            f"1000 cases, {applicable} inside the L1 validity region")


def test_criterion_06_tree_decay():
    checked = 0
    for degree in (2, 3):
        theta = 0.9 * max_theta_for_tree_decay(degree)
        for depth in range(1, 6):
            model = build(
                ModelSpec.complete_dary_tree(degree, depth, WeightRule.constant(theta))
            )
            g = model.graph
            leaves = [v for v in range(model.p) if g.degree(v) == 1 and v != 0]
            child = g.neighbors(0)[0]
            bound = 2.0 ** (-depth / 3.0)
            base_child = math.exp(theta) / (math.exp(theta) + math.exp(-theta))
            if len(leaves) <= 9:
                configs = list(product((-1, 1), repeat=len(leaves)))
            else:
                configs = [(1,) * len(leaves)]
                # the all-ones posterior must match the independent recursion
                rec = dary_tree_root_given_all_ones(degree, depth, theta)
                bp = tree_spin_posterior(model, 0, {v: 1 for v in leaves})
                assert abs(bp - rec) < 1e-12
            for config in configs:
                ev = dict(zip(leaves, config))
                dev = abs(tree_spin_posterior(model, 0, ev) - 0.5)
                assert dev < bound, f"D={degree} depth={depth}: root decay violated"
                for sr in (-1, 1):
                    got = tree_spin_posterior(model, child, {0: sr, **ev})
                    base = base_child if sr == 1 else 1.0 - base_child
                    assert abs(got - base) < 4.0 * bound, (
                        f"D={degree} depth={depth}: child decay violated"
                    )
                checked += 1
    _report(6, "tree correlation decay", True, f"{checked} leaf configurations")


def _leaf_conditional_table(model, root=0):
    joint = exact_joint(model)
    leaves = sorted(v for v in range(model.p) if model.graph.degree(v) == 1 and v != root)
    axes = sorted([root] + leaves)
    m = joint.dense_marginal(axes).reshape((2,) * len(axes))
    m = np.moveaxis(m, axes.index(root), 0)
    return leaves, m


def test_criterion_07_monotone_flips_and_worst_case():
    # positive couplings, depth <= 3, degree <= 3, exhaustive over the table
    rng = np.random.default_rng(707)
    irregular = MarkovGraph(
        10, [(0, 1), (0, 2), (1, 3), (1, 4), (2, 5), (3, 6), (3, 7), (5, 8), (5, 9)]
    )
    models = [
        build(ModelSpec.complete_dary_tree(2, 3, WeightRule.constant(0.3))),
        build(ModelSpec.complete_dary_tree(3, 2, WeightRule.uniform_range(0.1, 0.5, 77))),
        IsingModel(irregular, {e: float(0.1 + 0.4 * rng.random()) for e in irregular.sorted_edges()}),
    ]
    flips = 0
    for model in models:
        leaves, m = _leaf_conditional_table(model)
        L = len(leaves)
        worst = -1.0
        at_ones = None
        for xs in product(range(2), repeat=L):
            cond = m[(1,) + xs] / m[(slice(None),) + xs].sum()
            dev = abs(cond - 0.5)  # zero-field single-site marginal is exactly 1/2
            worst = max(worst, dev)
            if xs == (1,) * L:
                at_ones = dev
            for k in range(L):
                if xs[k] == 1:
                    continue
                flipped = xs[:k] + (1,) + xs[k + 1 :]
                cond_hi = m[(1,) + flipped] / m[(slice(None),) + flipped].sum()
                assert cond_hi >= cond - 1e-14, "leaf flip decreased the root posterior"
                flips += 1
        assert at_ones is not None and abs(at_ones - worst) <= 1e-14, "all-ones not maximal"
    _report(7, "leaf-flip monotonicity + worst case", True, f"{flips} flips over {len(models)} trees")


def test_criterion_08_factor_graph_distance_doubling():
    rng = np.random.default_rng(808)
    pairs = 0
    for _ in range(100):
        p = int(rng.integers(4, 13))
        prob = float(rng.uniform(0.2, 0.5))
        g = erdos_renyi_graph(p, prob, seed=int(rng.integers(10**9)))
        fg = factor_graph(g)
        for u, v in combinations(range(p), 2):
            d = graph_distance(g, u, v)
            if math.isinf(d):
                continue
            assert graph_distance(fg, u, v) == 2 * d, f"pair ({u},{v})"
            pairs += 1
    _report(8, "factor-graph distance doubling", True, f"{pairs} pairs over 100 graphs")


def test_criterion_09_finite_sample_protocol(tmp_path):
    started = time.perf_counter()
    spec = ExperimentSpec(
        model=ModelSpec.grid(3, WeightRule.constant(0.5)),
        n_values=(100, 200, 400, 800, 1600, 3200),
        epsilons=(0.03, 0.045, 0.06),
        trials=50,
        success_target=0.95,
        seed=2026,
        sampler="exact",
    )
    cells = run_experiment(spec, tmp_path / "results.csv")
    reached = {}
    for eps in spec.epsilons:
        rates = [c.success_rate for c in cells if c.epsilon == eps]
        hit = [c.n for c in cells if c.epsilon == eps and c.success_rate >= 0.95]
        reached[eps] = min(hit) if hit else None
        # monotone trend within the noise slack: never drop more than 0.1
        # below the best rate seen at a smaller n
        best = 0.0
        for rate in rates:
            assert rate >= best - 0.1, f"eps={eps}: non-monotone beyond slack"
            best = max(best, rate)
    ok = any(n is not None and n <= 10**6 for n in reached.values())
    elapsed = time.perf_counter() - started
    detail = ", ".join(f"eps={e:g}: n*={n}" for e, n in reached.items())
    _report(9, "finite-sample success protocol", ok and elapsed < 900.0,
            f"{detail}, {elapsed:.1f}s")


def test_criterion_10_bound_calculators():
    # hand-derived anchors, evaluated inline
    assert abs(decay_threshold(0.8, 1, 2) - 0.8**2 * 2.0**-8 / 64.0) <= 1e-9 * 3.90625e-5
    assert abs(decay_threshold(0.8, 1, 2) - 3.90625e-5) <= 1e-9 * 3.90625e-5
    assert abs(decay_threshold(1.0, 0, 2) - 0.00390625) <= 1e-9 * 0.00390625
    hand = 2.0**15 * 0.5**-4 * 2.0**16 * (4 * math.log2(4.0) + 2 * math.log2(16 / 0.05))
    assert abs(sample_size_bound(0.5, 2, 2, 16, 0.05) - hand) <= 1.0  # ceil rounding
    got2 = ising_guarantee(0.1, 2)
    hand2 = 2.0**-10 * math.sinh(0.2) ** 2
    assert abs(got2.epsilon - hand2) <= 1e-9 * hand2
    hand2g = 2.0**15 / math.log(2.0) * (4 * math.log(2.0) - math.log(math.sinh(0.2)))
    assert abs(got2.girth_bound - hand2g) <= 1e-9 * hand2g
    hand6 = 2.0**-7 * math.exp(-3.6) * math.sinh(0.5) ** 2
    assert abs(ising_nondegeneracy_epsilon(0.25, 0.3, 2) - hand6) <= 1e-9 * hand6

    rng = np.random.default_rng(1010)
    for _ in range(100):
        eps = float(rng.uniform(0.05, 1.5))
        d = int(rng.integers(0, 4))
        q = int(rng.integers(2, 5))
        p = int(rng.integers(2, 64))
        delta = float(rng.uniform(0.01, 0.5))
        # quadratic homogeneity of the decay threshold
        assert abs(decay_threshold(2 * eps, d, q) - 4 * decay_threshold(eps, d, q)) <= (
            1e-12 * decay_threshold(2 * eps, d, q)
        )
        # quartic homogeneity and monotonicity of the sample bound
        lo = sample_size_bound(eps, d, q, p, delta)
        assert abs(sample_size_bound(eps / 2, d, q, p, delta) - 16 * lo) <= 16
        assert sample_size_bound(eps, d, q, p + 3, delta) >= lo
        assert sample_size_bound(eps, d, q, p, delta / 2) >= lo
        # sinh monotonicity of the recovery epsilon
        dd = int(rng.integers(1, 5))
        hi_beta = math.log(2.0) / (2.0 * dd)
        b1 = float(rng.uniform(0.01, 0.9) * hi_beta)
        b2 = float(rng.uniform(b1 / hi_beta, 0.99) * hi_beta)
        if b2 > b1:
            assert ising_guarantee(b2, dd).epsilon > ising_guarantee(b1, dd).epsilon
        # degree monotonicity of the decayed non-degeneracy constant
        beta = float(rng.uniform(0.01, 0.2))
        gamma = beta + float(rng.uniform(0.01, 0.2))
        assert ising_nondegeneracy_epsilon(beta, gamma, dd + 1) < (
            ising_nondegeneracy_epsilon(beta, gamma, dd)
        )
    _report(10, "bound calculators", True, "anchors + 100 randomized identities")


def test_criterion_11_cli_determinism(tmp_path, capsys):
    model = build(ModelSpec.chain(3, WeightRule.constant(0.5)))
    csv_path = tmp_path / "data.csv"
    write_csv(exact_sample(exact_joint(model), 3000, seed=6), csv_path)

    def run_all(tag: str) -> dict[str, bytes]:
        base = tmp_path / tag
        blobs: dict[str, bytes] = {}
        assert main(["learn", str(csv_path), "--epsilon", "0.05", "--prune",
                     "--out-dir", str(base / "learn")]) == 0
        assert main(["oracle", "--model", "grid:3", "--theta", "const:0.5",
                     "--epsilon", "0.02", "--out-dir", str(base / "oracle")]) == 0
        assert main(["experiment", "--model", "chain:3", "--theta", "const:0.5",
                     "--n", "200,400", "--epsilon", "0.05", "--trials", "4",
                     "--seed", "3", "--no-timing", "--out-dir", str(base / "exp")]) == 0
        assert main(["bounds", "--beta", "0.1", "--gamma", "0.2", "--max-degree", "2",
                     "--epsilon", "0.5", "--alphabet-size", "2", "--num-vars", "9",
                     "--delta", "0.05", "--json"]) == 0
        blobs["bounds.stdout"] = capsys.readouterr().out.encode()
        for rel in (
            "learn/result.json", "learn/graph.dot", "learn/graph.edges",
            "oracle/result.json", "oracle/trace.txt", "oracle/graph.edges",
            "exp/results.csv", "exp/summary.json",
        ):
            blobs[rel] = (base / rel).read_bytes()
        return blobs

    first = run_all("a")
    second = run_all("b")
    assert set(first) == set(second)
    diffs = [k for k in first if first[k] != second[k]]
    _report(11, "CLI determinism", not diffs,
            f"{len(first)} artifacts byte-compared" + (f"; diffs: {diffs}" if diffs else ""))
