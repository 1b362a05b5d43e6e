"""Greedy neighborhood selection, pruning, symmetrization, and Chow-Liu."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from greedymrf.dataset import SPIN_ALPHABET, Alphabet, DiscreteDataset
from greedymrf.entropy import EmpiricalSource, ExactSource
from greedymrf.generators import ModelSpec, WeightRule, build
from greedymrf.learner import (
    TIE_TOL,
    LearnerConfig,
    chow_liu,
    greedy_neighborhood,
    learn_structure,
    prune_neighborhood,
    prune_result,
)
from greedymrf.models import IsingModel, JointDistribution, MarkovGraph, exact_joint
from greedymrf.theory import model_gap

from _oracle import cond_entropy_bits, greedy_first_pick, ising_table, mutual_information_bits


def exact_source(spec):
    model = build(spec)
    return model, ExactSource(exact_joint(model))


def uniform_source(p):
    m = IsingModel(MarkovGraph(p, []), {})
    return ExactSource(exact_joint(m))


def random_tree_model(rng, p, lo=0.3, hi=0.6):
    """Uniform random labeled tree via a random attachment order."""
    order = rng.permutation(p).tolist()
    edges = []
    for k in range(1, p):
        edges.append((order[k], order[int(rng.integers(0, k))]))
    g = MarkovGraph(p, edges)
    theta = {e: float(lo + (hi - lo) * rng.random()) for e in g.sorted_edges()}
    return IsingModel(g, theta)


class TestGreedyNeighborhood:
    def test_independent_variables_pick_nothing(self):
        src = uniform_source(4)
        tr = greedy_neighborhood(src, 0, LearnerConfig(epsilon=0.05))
        assert tr.picked == ()
        assert tr.stop_reason == "threshold"

    def test_chain3_node0_picks_only_its_neighbor(self):
        _, src = exact_source(ModelSpec.chain(3, WeightRule.constant(0.5)))
        tr = greedy_neighborhood(src, 0, LearnerConfig(epsilon=0.05))
        assert tr.picked == (1,)
        table = ising_table(3, {(0, 1): 0.5, (1, 2): 0.5})
        assert greedy_first_pick(table, 0, 3) == 1

    def test_counterexample_first_pick_crosses_to_far_hub(self):
        # scan upward until the hub wins the first argmin
        thresh = None
        for degree in range(1, 9):
            _, src = exact_source(ModelSpec.counterexample(degree, WeightRule.constant(0.9)))
            tr = greedy_neighborhood(src, 0, LearnerConfig(epsilon=1e-4, max_neighborhood=1))
            if tr.picked[0] == degree + 1:
                thresh = degree
                break
        assert thresh is not None and thresh <= 16
        # well below the threshold the first pick is a true neighbor
        _, src = exact_source(ModelSpec.counterexample(1, WeightRule.constant(0.9)))
        tr = greedy_neighborhood(src, 0, LearnerConfig(epsilon=1e-4, max_neighborhood=1))
        assert tr.picked[0] in (1,)

    def test_trace_gains_exceed_half_epsilon(self):
        _, src = exact_source(ModelSpec.grid(3, WeightRule.constant(0.5)))
        cfg = LearnerConfig(epsilon=0.04)
        for i in range(9):
            tr = greedy_neighborhood(src, i, cfg)
            for p in tr.picks:
                assert p.entropy_before - p.entropy_after > cfg.epsilon / 2
            befores = [p.entropy_before for p in tr.picks]
            assert befores == sorted(befores, reverse=True)

    def test_symmetric_ties_go_to_lowest_index(self):
        # neighbours tied by the grid's symmetry must not be split by float
        # summation order
        model, src = exact_source(ModelSpec.grid(3, WeightRule.constant(0.5)))
        table = ising_table(9, model.theta)
        cfg = LearnerConfig(epsilon=0.02, max_neighborhood=1)
        for i in range(9):
            assert greedy_neighborhood(src, i, cfg).picked == (greedy_first_pick(table, i, 9),)

    def test_cap_stops_and_reports(self):
        _, src = exact_source(ModelSpec.grid(3, WeightRule.constant(0.5)))
        tr = greedy_neighborhood(src, 4, LearnerConfig(epsilon=0.01, max_neighborhood=2))
        assert len(tr.picked) == 2
        assert tr.stop_reason == "cap"

    def test_determinism(self):
        _, src = exact_source(ModelSpec.grid(3, WeightRule.constant(0.5)))
        cfg = LearnerConfig(epsilon=0.04)
        assert greedy_neighborhood(src, 4, cfg) == greedy_neighborhood(src, 4, cfg)

    def test_bad_config_rejected(self):
        with pytest.raises(ValueError):
            LearnerConfig(epsilon=0.0)
        with pytest.raises(ValueError):
            LearnerConfig(epsilon=0.1, max_neighborhood=0)
        with pytest.raises(ValueError):
            LearnerConfig(epsilon=0.1, symmetrization="XOR")


class TestLearnStructure:
    def test_independent_variables_give_empty_graph(self):
        res = learn_structure(uniform_source(4), LearnerConfig(epsilon=0.05))
        assert res.graph.edges == frozenset()
        assert res.asymmetric_pairs == ()

    def test_chain3_and_rule(self):
        _, src = exact_source(ModelSpec.chain(3, WeightRule.constant(0.5)))
        res = learn_structure(src, LearnerConfig(epsilon=0.05))
        assert res.graph.edges == frozenset({(0, 1), (1, 2)})

    def test_grid3_exact_recovery(self):
        model, src = exact_source(ModelSpec.grid(3, WeightRule.constant(0.5)))
        gap = model_gap(exact_joint(model), model.graph)
        res = learn_structure(src, LearnerConfig(epsilon=0.9 * gap))
        assert res.graph == model.graph

    def test_or_rule_keeps_one_sided_picks(self):
        neigh = [(1,), (), ()]
        from greedymrf.learner import symmetrize

        g_and, asym = symmetrize(neigh, 3, "AND")
        g_or, _ = symmetrize(neigh, 3, "OR")
        assert g_and.edges == frozenset()
        assert g_or.edges == frozenset({(0, 1)})
        assert asym == ((0, 1),)

    def test_result_to_dict_round_trips_edges(self):
        _, src = exact_source(ModelSpec.chain(3, WeightRule.constant(0.5)))
        res = learn_structure(src, LearnerConfig(epsilon=0.05))
        doc = res.to_dict()
        assert doc["edges"] == [[0, 1], [1, 2]]
        assert doc["config"]["epsilon"] == 0.05
        assert {t["node"] for t in doc["traces"]} == {0, 1, 2}


class TestPrune:
    def test_true_neighborhood_survives(self):
        model, src = exact_source(ModelSpec.chain(5, WeightRule.constant(0.5)))
        cfg = LearnerConfig(epsilon=0.05)
        for i in range(5):
            nbrs = model.graph.neighbors(i)
            assert prune_neighborhood(src, i, nbrs, cfg) == tuple(sorted(nbrs))

    def test_distant_vertex_removed(self):
        model, src = exact_source(ModelSpec.chain(5, WeightRule.constant(0.5)))
        cfg = LearnerConfig(epsilon=0.05)
        kept = prune_neighborhood(src, 0, (1, 4), cfg)
        assert kept == (1,)

    def test_empty_set(self):
        _, src = exact_source(ModelSpec.chain(3, WeightRule.constant(0.5)))
        assert prune_neighborhood(src, 0, (), LearnerConfig(epsilon=0.05)) == ()

    def test_prune_result_restores_counterexample(self):
        degree = 4
        model, src = exact_source(ModelSpec.counterexample(degree, WeightRule.constant(0.9)))
        res = learn_structure(src, LearnerConfig(epsilon=1e-5))
        hub_edge = (0, degree + 1)
        assert hub_edge in res.graph.edges  # the spurious pick is mutual here
        pruned = prune_result(src, res)
        assert pruned.graph == model.graph


class TestChowLiu:
    def test_chain4_recovered(self):
        model, src = exact_source(ModelSpec.chain(4, WeightRule.constant(0.5)))
        assert chow_liu(src) == model.graph

    def test_star_recovered(self):
        model, src = exact_source(ModelSpec.complete_dary_tree(4, 1, WeightRule.constant(0.5)))
        assert chow_liu(src) == model.graph

    def test_two_variables_single_edge(self):
        src = uniform_source(2)
        assert chow_liu(src).edges == frozenset({(0, 1)})

    def test_matches_oracle_mst_on_random_tree(self):
        rng = np.random.default_rng(31)
        model = random_tree_model(rng, 6)
        src = ExactSource(exact_joint(model))
        table = ising_table(model.p, dict(model.theta))
        # oracle: greedy Kruskal over brute-force MI weights
        scored = sorted(
            (-mutual_information_bits(table, u, v), u, v)
            for u in range(6)
            for v in range(u + 1, 6)
        )
        parent = list(range(6))

        def find(u):
            while parent[u] != u:
                parent[u] = parent[parent[u]]
                u = parent[u]
            return u

        edges = set()
        for _, u, v in scored:
            ru, rv = find(u), find(v)
            if ru != rv:
                parent[ru] = rv
                edges.add((u, v))
        assert chow_liu(src).edges == frozenset(edges)

    def test_summation_order_cannot_change_the_tree(self):
        # On this table some edges' mutual informations differ by less than
        # 1e-12 between two summation orders of the same marginals; sorting
        # by the raw floats put a different tree out for each order.
        model = build(ModelSpec.erdos_renyi(18, 0.15, 3, WeightRule.constant_magnitude_random_sign(0.5, 0)))
        joint = exact_joint(model)

        class Reordered(ExactSource):
            def _cells(self, variables):
                drop = tuple(v for v in range(self.p) if v not in variables)
                dense = self.joint.probs.reshape((2,) * self.p).sum(axis=drop).ravel()
                codes = np.flatnonzero(dense)
                return codes, dense[codes]

        tree = chow_liu(ExactSource(joint))
        assert chow_liu(Reordered(joint)) == tree
        assert (0, 3) in tree.edges and (3, 9) not in tree.edges

    @pytest.mark.parametrize("model", [
        build(ModelSpec.grid(3, WeightRule.constant(0.5))),
        build(ModelSpec.cycle(5, WeightRule.constant(0.4))),
        IsingModel(MarkovGraph(5, [(u, v) for u in range(5) for v in range(u + 1, 5)]),
                   {(u, v): 0.3 for u in range(5) for v in range(u + 1, 5)}),
    ], ids=["grid3", "cycle5", "complete5"])
    def test_ties_follow_the_oracle_kruskal_under_the_tie_rule(self, model):
        # every edge of each model ties with others; the lexicographically
        # lower edge of a tie goes first
        src = ExactSource(exact_joint(model))
        table = ising_table(model.p, dict(model.theta))
        weights = {
            (u, v): mutual_information_bits(table, u, v)
            for u in range(model.p) for v in range(u + 1, model.p)
        }
        parent = list(range(model.p))

        def find(u):
            while parent[u] != u:
                u = parent[u]
            return u

        edges = set()
        while weights:
            top = max(weights.values())
            u, v = min(e for e, w in weights.items() if w >= top - TIE_TOL * max(1.0, abs(top)))
            del weights[(u, v)]
            if find(u) != find(v):
                parent[find(u)] = find(v)
                edges.add((u, v))
        assert chow_liu(src).edges == frozenset(edges)

    def test_greedy_equals_chow_liu_on_exact_trees(self):
        rng = np.random.default_rng(29)
        for _ in range(5):
            p = int(rng.integers(4, 9))
            model = random_tree_model(rng, p)
            joint = exact_joint(model)
            src = ExactSource(joint)
            gap = model_gap(joint, model.graph)
            res = learn_structure(src, LearnerConfig(epsilon=0.9 * gap, symmetrization="AND"))
            assert res.graph == chow_liu(src)
            assert res.graph == model.graph


class TestSuperNeighborhood:
    def test_exact_sources_pick_supersets(self):
        specs = [
            ModelSpec.chain(5, WeightRule.constant(0.5)),
            ModelSpec.cycle(6, WeightRule.constant(0.5)),
            ModelSpec.grid(3, WeightRule.constant(0.5)),
        ]
        for spec in specs:
            model, src = exact_source(spec)
            gap = model_gap(exact_joint(model), model.graph)
            cfg = LearnerConfig(epsilon=0.9 * gap)
            for i in range(model.p):
                tr = greedy_neighborhood(src, i, cfg)
                assert set(model.graph.neighbors(i)) <= set(tr.picked)

    def test_true_neighbors_picked_while_any_remain(self):
        # while the true neighborhood is incomplete, every accepted pick is a
        # true neighbor on these small exact models
        for spec in (
            ModelSpec.grid(3, WeightRule.constant(0.5)),
            ModelSpec.complete_dary_tree(2, 3, WeightRule.constant(0.5)),
        ):
            model, src = exact_source(spec)
            gap = model_gap(exact_joint(model), model.graph)
            cfg = LearnerConfig(epsilon=0.9 * gap)
            for i in range(model.p):
                nbrs = set(model.graph.neighbors(i))
                undiscovered = set(nbrs)
                for pick in greedy_neighborhood(src, i, cfg).picks:
                    if undiscovered:
                        assert pick.vertex in nbrs
                        undiscovered.discard(pick.vertex)


@settings(max_examples=40, deadline=None)
@given(st.integers(3, 5), st.data())
def test_empirical_and_exact_sources_agree(p, data):
    # the same distribution as shuffled rows and as an exact table must make
    # the same decisions, whatever order each backend sums its counts in
    mult = np.array(data.draw(st.lists(st.integers(0, 4), min_size=2**p, max_size=2**p)))
    assume(mult.sum() > 0)
    seed = data.draw(st.integers(0, 2**32 - 1))
    eps = data.draw(st.sampled_from([0.005, 0.02, 0.05, 0.1]))
    states = np.indices((2,) * p).reshape(p, -1).T
    rows = np.random.default_rng(seed).permutation(np.repeat(states, mult, axis=0))
    ds = DiscreteDataset([f"v{k}" for k in range(p)], SPIN_ALPHABET, rows)
    sources = [
        EmpiricalSource(ds),
        ExactSource(JointDistribution(p, SPIN_ALPHABET, mult / mult.sum())),
    ]
    cfg = LearnerConfig(epsilon=eps)
    emp, exact = (prune_result(src, learn_structure(src, cfg)) for src in sources)
    for a, b in zip(emp.traces, exact.traces):
        assert (a.picked, a.stop_reason) == (b.picked, b.stop_reason)
        for pa, pb in zip(a.picks, b.picks):
            assert abs(pa.entropy_after - pb.entropy_after) <= 1e-9
    assert emp.pruned == exact.pruned
    assert emp.graph == exact.graph


def decisions(src, eps):
    res = prune_result(src, learn_structure(src, LearnerConfig(epsilon=eps)))
    return [(t.picked, t.stop_reason) for t in res.traces], res.pruned, res.graph


@settings(max_examples=40, deadline=None)
@given(st.integers(3, 5), st.integers(2, 3), st.data())
def test_row_order_and_value_labels_do_not_change_decisions(p, q, data):
    mult = np.array(data.draw(st.lists(st.integers(0, 4), min_size=q**p, max_size=q**p)))
    assume(mult.sum() > 0)
    eps = data.draw(st.sampled_from([0.005, 0.02, 0.05, 0.1]))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    states = np.indices((q,) * p).reshape(p, -1).T
    rows = np.repeat(states, mult, axis=0)
    relabel = np.array([rng.permutation(q) for _ in range(p)])
    moved = relabel[np.arange(p), rng.permutation(rows)]
    alphabet = Alphabet(tuple(f"s{k}" for k in range(q)))
    names = [f"v{k}" for k in range(p)]
    a, b = (EmpiricalSource(DiscreteDataset(names, alphabet, r)) for r in (rows, moved))
    assert decisions(a, eps) == decisions(b, eps)


@settings(max_examples=40, deadline=None)
@given(st.integers(3, 6), st.integers(0, 2**16), st.data())
def test_permuted_columns_give_the_permuted_graph(p, seed, data):
    model = build(ModelSpec.erdos_renyi(p, 0.5, seed, WeightRule.uniform_range(0.2, 1.0, seed)))
    joint = exact_joint(model)
    perm = data.draw(st.permutations(range(p)))  # old variable v becomes perm[v]
    order = np.argsort(perm)  # new axis j holds old variable order[j]
    table = joint.probs.reshape((2,) * p).transpose(order).ravel()
    moved = ExactSource(JointDistribution(p, SPIN_ALPHABET, table))
    eps = data.draw(st.sampled_from([0.005, 0.02, 0.05]))
    _, pruned, graph = decisions(ExactSource(joint), eps)
    _, moved_pruned, moved_graph = decisions(moved, eps)
    assert moved_graph == MarkovGraph(p, [(perm[u], perm[v]) for u, v in graph.edges])
    assert moved_pruned == {perm[i]: tuple(sorted(perm[j] for j in pruned[i])) for i in pruned}


class TestNearFlips:
    def test_counterexample_runner_up_and_margin_match_oracle(self):
        model, src = exact_source(ModelSpec.counterexample(4, WeightRule.constant(0.9)))
        table = ising_table(model.p, model.theta)
        hs = {k: cond_entropy_bits(table, 0, (k,)) for k in range(1, model.p)}
        first = greedy_neighborhood(src, 0, LearnerConfig(epsilon=1e-4)).picks[0]
        best = greedy_first_pick(table, 0, model.p)
        rest = {k: h for k, h in hs.items() if k != best}
        runner_up = min(k for k, h in rest.items() if h <= min(rest.values()) + 1e-9)
        assert (first.vertex, first.runner_up) == (best, runner_up) == (5, 1)
        assert first.margin == pytest.approx(hs[runner_up] - hs[best], abs=1e-9)
        assert first.margin > 0

    def test_every_pick_names_the_oracle_runner_up(self):
        model, src = exact_source(ModelSpec.grid(3, WeightRule.uniform_range(0.3, 0.9, 4)))
        table = ising_table(model.p, model.theta)
        for i in range(model.p):
            chosen: tuple = ()
            for pick in greedy_neighborhood(src, i, LearnerConfig(epsilon=0.02)).picks:
                hs = {k: cond_entropy_bits(table, i, chosen + (k,))
                      for k in range(model.p) if k != i and k not in chosen}
                rest = {k: h for k, h in hs.items() if k != pick.vertex}
                runner_up = min(k for k, h in rest.items() if h <= min(rest.values()) + 1e-9)
                assert pick.runner_up == runner_up
                assert pick.margin == pytest.approx(hs[runner_up] - hs[pick.vertex], abs=1e-9)
                chosen += (pick.vertex,)

    def test_threshold_stop_records_best_rejected_candidate(self):
        model, src = exact_source(ModelSpec.chain(4, WeightRule.constant(0.5)))
        table = ising_table(model.p, model.theta)
        cfg = LearnerConfig(epsilon=0.05)
        tr = greedy_neighborhood(src, 1, cfg)
        assert (tr.picked, tr.stop_reason, tr.rejected) == ((0, 2), "threshold", 3)
        gain = cond_entropy_bits(table, 1, (0, 2)) - cond_entropy_bits(table, 1, (0, 2, 3))
        assert tr.rejected_gain == pytest.approx(gain, abs=1e-9)
        assert tr.rejected_gain <= cfg.epsilon / 2

    def test_cap_and_exhausted_stops_record_no_rejection(self):
        _, src = exact_source(ModelSpec.chain(3, WeightRule.constant(0.5)))
        capped = greedy_neighborhood(src, 1, LearnerConfig(epsilon=0.05, max_neighborhood=1))
        exhausted = greedy_neighborhood(src, 1, LearnerConfig(epsilon=1e-9))
        assert (capped.stop_reason, capped.rejected, capped.rejected_gain) == ("cap", None, None)
        assert exhausted.stop_reason == "exhausted" and exhausted.rejected is None
        assert exhausted.picks[-1].runner_up is None and exhausted.picks[-1].margin is None


class TestEmpiricalLearning:
    def test_chain3_from_samples(self):
        from greedymrf.models import exact_sample

        model = build(ModelSpec.chain(3, WeightRule.constant(0.5)))
        joint = exact_joint(model)
        for seed in (0, 1, 2):
            ds = exact_sample(joint, 20000, seed=seed)
            res = learn_structure(EmpiricalSource(ds), LearnerConfig(epsilon=0.05))
            assert res.graph == model.graph
