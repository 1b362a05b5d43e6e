"""Graphs, factor graphs, exact joints, samplers, and tree-model structure."""

import math
import tracemalloc
from functools import cache
from itertools import combinations, product
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from greedymrf.dataset import CapacityError
from greedymrf.generators import (
    ModelSpec,
    WeightRule,
    build,
    complete_dary_tree_graph,
    erdos_renyi_graph,
    max_theta_for_tree_decay,
    model_from_strings,
)
from greedymrf.gibbs import (
    GibbsChains,
    GibbsConfig,
    gelman_rubin,
    gibbs_full_conditional,
    gibbs_sample,
    greedy_colouring,
)
from greedymrf.models import (
    IsingModel,
    MarkovGraph,
    exact_joint,
    exact_sample,
    factor_graph,
    girth,
    graph_distance,
    is_forest,
    maximal_cliques,
    read_edge_list,
    to_dot,
    tree_spin_posterior,
    write_edge_list,
)

from _oracle import conditional_prob, ising_table


def const_model(spec):
    return build(spec)


def spin_marginal(joint, variables):
    """Dense marginal reshaped to one axis per variable."""
    return joint.dense_marginal(variables).reshape((2,) * len(variables))


class TestMarkovGraph:
    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            MarkovGraph(3, [(1, 1)])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            MarkovGraph(3, [(0, 7)])

    def test_duplicate_edges_collapse(self):
        g = MarkovGraph(3, [(0, 1), (1, 0)])
        assert len(g.edges) == 1

    def test_edge_list_round_trip(self, tmp_path):
        g = MarkovGraph(4, [(0, 1), (2, 3), (1, 2)])
        f = tmp_path / "g.edges"
        write_edge_list(g, f)
        assert read_edge_list(f) == g

    def test_dot_output_mentions_every_edge(self):
        g = MarkovGraph(3, [(0, 2)])
        text = to_dot(g)
        assert "0 -- 2;" in text and text.startswith("graph G {")


class TestExactJoint:
    def test_empty_graph_is_uniform(self):
        m = IsingModel(MarkovGraph(2, []), {})
        j = exact_joint(m)
        assert np.allclose(j.probs, 0.25)

    def test_single_edge_closed_form(self):
        m = const_model(ModelSpec.chain(2, WeightRule.constant(0.5)))
        j = exact_joint(m)
        agree = math.exp(0.5) / (2 * (math.exp(0.5) + math.exp(-0.5)))
        assert agree == pytest.approx(0.365529, abs=1e-6)
        # cells: (-,-), (-,+), (+,-), (+,+)
        assert j.probs[0] == pytest.approx(agree, abs=1e-12)
        assert j.probs[3] == pytest.approx(agree, abs=1e-12)

    def test_sign_flip_symmetry_is_exact(self):
        m = const_model(ModelSpec.grid(3, WeightRule.uniform_range(0.2, 0.8, 3)))
        j = exact_joint(m)
        flipped = j.probs[::-1]  # complementing all bits reverses the index
        assert np.array_equal(j.probs, flipped)

    def test_single_site_marginals_are_uniform(self):
        m = const_model(ModelSpec.cycle(5, WeightRule.constant(0.7)))
        j = exact_joint(m)
        for v in range(5):
            assert spin_marginal(j, [v])[1] == pytest.approx(0.5, abs=1e-12)

    def test_matches_bruteforce_oracle(self):
        theta = {(0, 1): 0.4, (1, 2): -0.6, (0, 3): 0.9}
        m = IsingModel(MarkovGraph(4, list(theta)), dict(theta))
        j = exact_joint(m)
        table = ising_table(4, theta)
        for idx, state in enumerate(product((-1, 1), repeat=4)):
            assert j.probs[idx] == pytest.approx(table[state], abs=1e-12)

    def test_capacity_error(self):
        g = MarkovGraph(25, [(v, v + 1) for v in range(24)])
        m = IsingModel(g, {e: 0.5 for e in g.edges})
        with pytest.raises(CapacityError):
            exact_joint(m)

    @pytest.mark.parametrize("bad", [np.nan, -np.inf], ids=["nan", "-inf"])
    def test_nan_or_negative_tables_are_rejected(self, bad):
        from greedymrf.dataset import SPIN_ALPHABET
        from greedymrf.models import JointDistribution

        # NaN compares False both ways, so each check must fail on it.
        for probs in (np.full(4, bad), np.array([0.5, 0.5, 0.0, bad])):
            with pytest.raises(ValueError):
                JointDistribution(2, SPIN_ALPHABET, probs)

    @pytest.mark.parametrize("theta", [1e308, -1e308, 9e307, np.inf])
    def test_energy_that_is_not_finite_is_rejected(self, theta):
        # 1e308 on two edges sums past the largest float; 9e307 does not,
        # but the spread between the lowest and highest energy does.
        m = IsingModel(MarkovGraph(3, [(0, 1), (1, 2)]), {(0, 1): theta, (1, 2): theta})
        with pytest.raises(ValueError, match="not finite"):
            exact_joint(m)

    def test_table_is_built_in_place(self):
        # exp and the normalisation reuse the energy array: one 2^p table,
        # plus numpy's 64 KiB ufunc buffer for the broadcast edge terms.
        m = build(ModelSpec.grid(4, WeightRule.constant_magnitude_random_sign(0.5, 3)))
        tracemalloc.start()
        try:
            j = exact_joint(m)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.15 * j.probs.nbytes

    def test_separation_makes_conditional_local(self):
        # on a path 0-1-2 the middle vertex screens off the far end
        j = exact_joint(const_model(ModelSpec.chain(3, WeightRule.constant(0.5))))
        m012 = spin_marginal(j, [0, 1, 2])
        m01 = spin_marginal(j, [0, 1])
        for x0, x1, x2 in product(range(2), repeat=3):
            lhs = m012[x0, x1, x2] / m012[:, x1, x2].sum()
            rhs = m01[x0, x1] / m01[:, x1].sum()
            assert lhs == pytest.approx(rhs, abs=1e-12)


class TestSampling:
    def test_exact_sample_point_mass(self):
        from greedymrf.dataset import Alphabet
        from greedymrf.models import JointDistribution

        probs = np.zeros(4)
        probs[2] = 1.0  # assignment (1, 0)
        j = JointDistribution(2, Alphabet(("-1", "1")), probs)
        ds = exact_sample(j, 50, seed=1)
        assert (ds.values == [1, 0]).all()

    def test_exact_sample_uniform_frequencies(self):
        m = IsingModel(MarkovGraph(2, []), {})
        ds = exact_sample(exact_joint(m), 40000, seed=2)
        for v0 in range(2):
            for v1 in range(2):
                freq = np.mean((ds.values[:, 0] == v0) & (ds.values[:, 1] == v1))
                assert abs(freq - 0.25) < 0.01

    def test_exact_sample_matches_table(self):
        j = exact_joint(const_model(ModelSpec.chain(3, WeightRule.constant(0.5))))
        ds = exact_sample(j, 50000, seed=3)
        for idx, state in enumerate(product(range(2), repeat=3)):
            freq = np.mean(np.all(ds.values == state, axis=1))
            assert abs(freq - j.probs[idx]) < 0.01

    def test_exact_sample_deterministic(self):
        j = exact_joint(const_model(ModelSpec.chain(3, WeightRule.constant(0.5))))
        a = exact_sample(j, 100, seed=9)
        b = exact_sample(j, 100, seed=9)
        assert a == b

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32), n=st.integers(1, 300), p=st.integers(1, 6),
           q=st.integers(2, 4))
    def test_exact_sample_digits_equal_unravel_index(self, seed, n, p, q):
        from greedymrf.dataset import Alphabet
        from greedymrf.models import JointDistribution

        rng = np.random.default_rng(seed)
        w = rng.random(q**p) * (rng.random(q**p) < 0.7)
        w[-1] += 0.1
        j = JointDistribution(p, Alphabet(tuple(f"s{k}" for k in range(q))), w / w.sum())
        ds = exact_sample(j, n, seed)
        cdf = np.cumsum(j.probs)
        cdf[-1] = 1.0
        cells = np.searchsorted(cdf, np.random.default_rng(seed).random(n), side="right")
        want = np.stack(np.unravel_index(np.minimum(cells, q**p - 1), (q,) * p), axis=1)
        assert np.array_equal(ds.values, want)
        assert ds.values.dtype == np.uint8 and ds.values.flags.f_contiguous
        assert not ds.values.flags.writeable

    def test_exact_sample_peak_is_the_rows_and_three_int64_columns(self):
        # The digits of the cell indices are peeled straight into the uint8
        # column-major rows: beside them only the uniforms, the cell indices,
        # one digit column (8 bytes a row each) and the cdf. unravel_index
        # and a stacked int64 copy took 26 MiB here.
        j = exact_joint(model_from_strings("grid:4", "const:0.5"))
        exact_sample(j, 10, 0)  # first-call imports stay untraced
        n = 100000
        tracemalloc.start()
        try:
            ds = exact_sample(j, n, 0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= ds.values.nbytes + 3 * 8 * n + j.probs.nbytes

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2**63), n=st.integers(1, 400), more=st.integers(0, 3200))
    def test_exact_sample_rows_are_prefixes_of_a_longer_draw(self, seed, n, more):
        j = exact_joint(sampler_model("grid:3"))
        longer = exact_sample(j, n + more, seed)
        assert np.array_equal(longer.values[:n], exact_sample(j, n, seed).values)

    def test_gibbs_full_conditional(self):
        m = const_model(ModelSpec.chain(3, WeightRule.constant(0.5)))
        # middle site with both neighbors at +1
        assert gibbs_full_conditional(m, 1, [1, 0, 1]) == pytest.approx(
            math.e / (math.e + math.exp(-1)), abs=1e-12
        )
        assert gibbs_full_conditional(m, 1, [1, 0, 1]) == pytest.approx(0.880797, abs=1e-6)

    def test_gibbs_isolated_vertex_is_fair(self):
        m = IsingModel(MarkovGraph(2, []), {})
        ds = gibbs_sample(m, 10000, GibbsConfig(seed=4, burn_in=50, thinning=1))
        freq = ds.values[:, 0].mean()
        assert abs(freq - 0.5) < 3 * 0.5 / math.sqrt(10000)

    def test_gibbs_matches_exact_joint(self):
        m = const_model(ModelSpec.chain(3, WeightRule.constant(0.5)))
        j = exact_joint(m)
        agree_exact = float(spin_marginal(j, [0, 1])[0, 0] + spin_marginal(j, [0, 1])[1, 1])
        ds = gibbs_sample(m, 50000, GibbsConfig(seed=5))
        agree_emp = np.mean(ds.values[:, 0] == ds.values[:, 1])
        assert abs(agree_emp - agree_exact) < 0.01

    def test_gibbs_deterministic(self):
        m = const_model(ModelSpec.chain(3, WeightRule.constant(0.5)))
        cfg = GibbsConfig(seed=6, burn_in=20, thinning=2)
        assert gibbs_sample(m, 50, cfg) == gibbs_sample(m, 50, cfg)

    @pytest.mark.parametrize("burn_in, thinning", [(None, 0), (None, -3), (-7, 10)])
    def test_gibbs_settings_are_validated(self, burn_in, thinning):
        with pytest.raises(ValueError):
            GibbsConfig(seed=0, burn_in=burn_in, thinning=thinning)

    def test_zero_burn_in_is_allowed(self):
        m = const_model(ModelSpec.chain(3, WeightRule.constant(0.5)))
        assert gibbs_sample(m, 5, GibbsConfig(seed=0, burn_in=0, thinning=1)).n == 5


# Sampler models: 2-colourable, odd cycle, sparse random graphs with mixed
# signs and with uniform weights, the complete graph and no edges at all.
SAMPLER_MODELS = {
    "grid:3": ("grid:3", "const:0.5"),
    "cycle:5": ("cycle:5", "uniform:0.2,0.7,1"),
    "er-randsign": ("er:18,0.15,3", "randsign:0.5,4"),
    "er-uniform": ("er:18,0.15,3", "uniform:0.1,0.6,5"),
    "complete:5": None,
    "edgeless:4": None,
}


@cache
def sampler_model(name):
    if name == "complete:5":
        edges = list(combinations(range(5), 2))
        return IsingModel(MarkovGraph(5, edges), {e: (-0.2, 0.3)[k % 2] for k, e in enumerate(edges)})
    if name == "edgeless:4":
        return IsingModel(MarkovGraph(4, []), {})
    return model_from_strings(*SAMPLER_MODELS[name])


@cache
def sampler_table(name):
    return exact_joint(sampler_model(name)).table


sampler_names = st.sampled_from(sorted(SAMPLER_MODELS))


def reference_draw(chains, rows, block_doubles):
    """:meth:`GibbsChains.draw` as a plain loop over one sweep at a time:
    each class's comparison written straight into the float spins."""
    bits = chains._bits
    p, batch = bits.shape
    sweeps = chains._burn + rows * chains._thinning
    block = max(1, min(sweeps, block_doubles // (batch * p)))
    out, done = [], 0
    for start in range(0, sweeps, block):
        size = min(block, sweeps - start)
        logit = np.empty((size, p, batch))
        for b, rng in enumerate(chains._rngs):
            u = rng.random((size, p))
            with np.errstate(divide="ignore"):
                logit[:, :, b] = np.log(u) - np.log1p(-u) + chains._offset
        for t in range(size):
            for s, w in chains._classes:
                np.less(logit[t, s], np.dot(w, bits), out=bits[s])
            done += 1
            if done > chains._burn and (done - chains._burn) % chains._thinning == 0:
                out.append(bits.T.astype(np.uint8))
    return np.stack(out, axis=1)[:, :, chains._column]


class TestChromaticGibbs:
    @pytest.mark.parametrize("name", sorted(SAMPLER_MODELS))
    def test_colouring_is_proper_and_lowest_first(self, name):
        g = sampler_model(name).graph
        colour = greedy_colouring(g)
        assert all(colour[u] != colour[v] for u, v in g.edges)
        for u in range(g.p):
            below = {colour[v] for v in g.neighbors(u) if v < u}
            assert colour[u] == min(set(range(g.p + 1)) - below)

    def test_colour_counts(self):
        assert max(greedy_colouring(sampler_model("grid:3").graph)) == 1
        assert max(greedy_colouring(sampler_model("cycle:5").graph)) == 2
        assert max(greedy_colouring(sampler_model("complete:5").graph)) == 4
        assert max(greedy_colouring(sampler_model("edgeless:4").graph)) == 0

    @settings(max_examples=40, deadline=None)
    @given(name=sampler_names, data=st.data())
    def test_full_conditional_matches_exact_joint(self, name, data):
        m = sampler_model(name)
        site = data.draw(st.integers(0, m.p - 1))
        bits = data.draw(st.lists(st.integers(0, 1), min_size=m.p, max_size=m.p))
        table = sampler_table(name)
        up, down = list(bits), list(bits)
        up[site], down[site] = 1, 0
        want = table[tuple(up)] / (table[tuple(up)] + table[tuple(down)])
        spins = [2 * b - 1 for b in bits]
        assert gibbs_full_conditional(m, site, spins) == pytest.approx(want, rel=1e-9)

    @settings(max_examples=25, deadline=None)
    @given(
        name=sampler_names,
        seeds=st.lists(st.integers(0, 2**32), min_size=5, max_size=5),
        burn_in=st.integers(0, 30),
        thinning=st.integers(1, 3),
        n=st.integers(1, 40),
        split=st.integers(0, 40),
    )
    def test_batch_rows_equal_each_chain_run_alone(self, name, seeds, burn_in, thinning, n, split):
        m = sampler_model(name)
        split = min(split, n)
        chains = GibbsChains(m, [GibbsConfig(s, burn_in, thinning) for s in seeds])
        rows = np.concatenate((chains.draw(split), chains.draw(n - split)), axis=1)
        assert rows.shape == (5, n, m.p)
        for seed, chain in zip(seeds, rows):
            alone = gibbs_sample(m, n, GibbsConfig(seed=seed, burn_in=burn_in, thinning=thinning))
            assert np.array_equal(chain, alone.values)

    def test_three_colour_cycle_matches_exact_pair_marginals(self):
        m = sampler_model("cycle:5")
        cfgs = [GibbsConfig(seed, burn_in=200, thinning=2) for seed in range(8)]
        rows = GibbsChains(m, cfgs).draw(5000).reshape(-1, m.p)
        j = exact_joint(m)
        for u, v in m.graph.sorted_edges():
            want = spin_marginal(j, [u, v])
            got = np.histogram2d(rows[:, u], rows[:, v], bins=2, range=[[0, 2], [0, 2]])[0]
            assert np.abs(got / len(rows) - want).max() < 0.015

    def test_blocks_smaller_than_the_run_give_the_same_rows(self, monkeypatch):
        m = sampler_model("grid:3")
        cfgs = [GibbsConfig(seed, burn_in=7, thinning=3) for seed in (1, 2)]
        whole = GibbsChains(m, cfgs).draw(50)
        monkeypatch.setattr("greedymrf.gibbs._BLOCK_DOUBLES", 1)
        assert np.array_equal(GibbsChains(m, cfgs).draw(50), whole)

    @settings(max_examples=60, deadline=None)
    @given(
        name=st.sampled_from(["grid:3", "cycle:5", "er-randsign"]),
        seeds=st.lists(st.integers(0, 2**32), min_size=1, max_size=8),
        burn_in=st.integers(0, 30),
        thinning=st.integers(1, 3),
        n=st.integers(1, 30),
        block=st.sampled_from([1, 1 << 13]),
    )
    def test_rows_equal_a_float_compare_reference(self, name, seeds, burn_in, thinning, n, block):
        m = sampler_model(name)
        cfgs = [GibbsConfig(s, burn_in, thinning) for s in seeds]
        with mock.patch("greedymrf.gibbs._BLOCK_DOUBLES", block):
            got = GibbsChains(m, cfgs).draw(n)
            want = reference_draw(GibbsChains(m, cfgs), n, block)
        assert got.dtype == want.dtype and np.array_equal(got, want)

    def test_setup_holds_one_coupling_matrix(self):
        m = model_from_strings("grid:20", "const:0.3")
        cfgs = [GibbsConfig(seed) for seed in range(4)]
        GibbsChains(sampler_model("grid:3"), cfgs)  # first-call imports stay untraced
        tracemalloc.start()
        try:
            GibbsChains(m, cfgs)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * m.p * m.p * 8

    def test_too_many_sites_fail_before_the_coupling_matrix(self):
        # 4097^2 cells exceed the 2^24 dense cap: a 128 MiB matrix
        m = model_from_strings("chain:4097", "const:0.3")
        tracemalloc.start()
        try:
            with pytest.raises(CapacityError):
                GibbsChains(m, [GibbsConfig(0)])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < m.p * m.p
        GibbsChains(model_from_strings("chain:64", "const:0.3"), [GibbsConfig(0)])

    def test_needs_a_chain_and_shared_valid_settings(self):
        m = sampler_model("grid:3")
        with pytest.raises(ValueError):
            GibbsChains(m, [])
        with pytest.raises(ValueError):
            GibbsChains(m, [GibbsConfig(0, burn_in=5), GibbsConfig(1, burn_in=6)])
        with pytest.raises(ValueError):
            GibbsConfig(0, thinning=0)
        with pytest.raises(ValueError):
            GibbsConfig(0, burn_in=-1)


class TestGelmanRubin:
    def test_undefined_cases_are_none(self):
        assert gelman_rubin(np.ones((1, 10))) is None
        assert gelman_rubin(np.ones((3, 1))) is None
        assert gelman_rubin(np.ones((3, 10))) is None

    def test_closed_form(self):
        stat = np.array([[0.0, 2.0], [2.0, 4.0]])
        # W = 2, B/n = var([1, 3]) = 2, so R = sqrt((W/2 + 2) / W).
        assert gelman_rubin(stat) == pytest.approx(math.sqrt(1.5))

    def test_mixed_chains_near_one_and_stuck_chains_far_above(self):
        rng = np.random.default_rng(0)
        assert gelman_rubin(rng.normal(size=(4, 2000))) < 1.01
        stuck = rng.normal(size=(4, 2000)) + np.arange(4)[:, None]
        assert gelman_rubin(stuck) > 1.1
        assert gelman_rubin(2.0 * stuck - 3.0) == pytest.approx(gelman_rubin(stuck))


class TestFactorGraph:
    def test_triangle_single_clique(self):
        g = MarkovGraph(3, [(0, 1), (1, 2), (0, 2)])
        fg = factor_graph(g)
        assert len(fg.cliques) == 1
        assert fg.cliques[0] == frozenset({0, 1, 2})
        assert len(fg.incidences) == 3

    def test_path_two_cliques(self):
        g = MarkovGraph(3, [(0, 1), (1, 2)])
        fg = factor_graph(g)
        assert sorted(tuple(sorted(c)) for c in fg.cliques) == [(0, 1), (1, 2)]

    def test_four_cycle_edge_cliques_and_girth(self):
        g = MarkovGraph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        fg = factor_graph(g)
        assert len(fg.cliques) == 4
        assert all(len(c) == 2 for c in fg.cliques)
        assert girth(fg) == 8

    def test_isolated_vertex_gets_singleton_clique(self):
        g = MarkovGraph(2, [])
        assert maximal_cliques(g) == [frozenset({0}), frozenset({1})]


class TestDistanceAndGirth:
    def test_distance_basics(self):
        g = MarkovGraph(3, [(0, 1), (1, 2)])
        assert graph_distance(g, 1, 1) == 0
        assert graph_distance(g, 0, 1) == 1
        assert graph_distance(g, 0, 2) == 2

    def test_path5_and_factor_distance(self):
        g = MarkovGraph(5, [(v, v + 1) for v in range(4)])
        assert graph_distance(g, 0, 4) == 4
        assert graph_distance(factor_graph(g), 0, 4) == 8

    def test_disconnected_is_infinite(self):
        g = MarkovGraph(4, [(0, 1), (2, 3)])
        assert math.isinf(graph_distance(g, 0, 3))

    def test_tree_girth_infinite(self):
        g = complete_dary_tree_graph(2, 3)
        assert math.isinf(girth(g))
        assert is_forest(g)

    def test_grid_girth_four(self):
        for k in (2, 3, 4):
            assert girth(build(ModelSpec.grid(k, WeightRule.constant(0.5))).graph) == 4

    def test_cycle_girth(self):
        g = build(ModelSpec.cycle(5, WeightRule.constant(0.5))).graph
        assert girth(g) == 5
        assert girth(factor_graph(g)) == 10

    def test_factor_distance_doubles(self):
        # d_f = 2 d for every connected variable pair
        rng = np.random.default_rng(17)
        for trial in range(25):
            p = int(rng.integers(4, 13))
            g = erdos_renyi_graph(p, 0.35, seed=int(rng.integers(10**6)))
            fg = factor_graph(g)
            for u, v in combinations(range(p), 2):
                d = graph_distance(g, u, v)
                if math.isinf(d):
                    continue
                assert graph_distance(fg, u, v) == 2 * d


class TestTreePosterior:
    def test_matches_dense_table(self):
        model = build(ModelSpec.complete_dary_tree(2, 2, WeightRule.uniform_range(0.1, 0.5, 8)))
        j = exact_joint(model)
        leaves = [v for v in range(model.p) if model.graph.degree(v) == 1]
        rng = np.random.default_rng(21)
        table = ising_table(model.p, dict(model.theta))
        for _ in range(10):
            spins = [int(s) for s in rng.integers(0, 2, size=len(leaves)) * 2 - 1]
            bp = tree_spin_posterior(model, 0, dict(zip(leaves, spins)))
            direct = conditional_prob(table, (0,), (1,), tuple(leaves), tuple(spins))
            assert bp == pytest.approx(direct, abs=1e-12)

    def test_rejects_cyclic_graph(self):
        model = build(ModelSpec.cycle(4, WeightRule.constant(0.5)))
        with pytest.raises(ValueError):
            tree_spin_posterior(model, 0, {2: 1})

    def test_evidence_on_target(self):
        model = build(ModelSpec.chain(3, WeightRule.constant(0.5)))
        assert tree_spin_posterior(model, 1, {1: 1}) == 1.0
        assert tree_spin_posterior(model, 1, {1: -1}) == 0.0


class TestTreeLeafStructure:
    """Monotonicity and worst-case leaf configuration on positive-coupling trees."""

    def leaf_conditional_table(self, model, root=0):
        j = exact_joint(model)
        leaves = sorted(v for v in range(model.p) if model.graph.degree(v) == 1 and v != root)
        m = spin_marginal(j, sorted([root] + leaves))
        axes = sorted([root] + leaves)
        root_ax = axes.index(root)
        m = np.moveaxis(m, root_ax, 0)
        return leaves, m  # m[x_root, x_leaf_1, ..., x_leaf_L]

    def test_leaf_flip_monotonicity(self):
        for spec in (
            ModelSpec.complete_dary_tree(2, 3, WeightRule.constant(0.3)),
            ModelSpec.complete_dary_tree(3, 2, WeightRule.uniform_range(0.05, 0.4, 5)),
        ):
            model = build(spec)
            leaves, m = self.leaf_conditional_table(model)
            L = len(leaves)
            for xs in product(range(2), repeat=L):
                if 0 not in xs:
                    continue
                k = xs.index(0)
                flipped = xs[:k] + (1,) + xs[k + 1 :]
                p_lo = m[(1,) + xs] / m[(slice(None),) + xs].sum()
                p_hi = m[(1,) + flipped] / m[(slice(None),) + flipped].sum()
                assert p_hi >= p_lo - 1e-12

    def test_all_ones_attains_worst_case(self):
        for spec in (
            ModelSpec.complete_dary_tree(2, 3, WeightRule.constant(0.3)),
            ModelSpec.complete_dary_tree(3, 2, WeightRule.uniform_range(0.05, 0.4, 5)),
        ):
            model = build(spec)
            leaves, m = self.leaf_conditional_table(model)
            L = len(leaves)
            best = -1.0
            at_ones = None
            for xs in product(range(2), repeat=L):
                cond = m[(1,) + xs] / m[(slice(None),) + xs].sum()
                dev = abs(cond - 0.5)  # single-site marginals are exactly 1/2
                best = max(best, dev)
                if xs == (1,) * L:
                    at_ones = dev
            assert at_ones == pytest.approx(best, abs=1e-12)

    def test_decay_bound_small_tree(self):
        # |P(x_r | x_L) - P(x_r)| < 2^(-depth/3) under the admissible coupling
        degree, depth = 2, 3
        theta = 0.9 * max_theta_for_tree_decay(degree)
        model = build(ModelSpec.complete_dary_tree(degree, depth, WeightRule.constant(theta)))
        leaves, m = self.leaf_conditional_table(model)
        bound = 2.0 ** (-depth / 3.0)
        for xs in product(range(2), repeat=len(leaves)):
            cond = m[(1,) + xs] / m[(slice(None),) + xs].sum()
            assert abs(cond - 0.5) < bound
