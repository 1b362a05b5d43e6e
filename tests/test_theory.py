"""Bound calculators and assumption measurement on small exact models."""

import math
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from greedymrf.dataset import Alphabet, CapacityError, DiscreteDataset
from greedymrf.entropy import EmpiricalSource, ExactSource, conditional_entropy, entropy
from greedymrf.generators import ModelSpec, WeightRule, build, model_size
from greedymrf.learner import LearnerConfig, greedy_neighborhood
from greedymrf.models import (IsingModel, JointDistribution, MarkovGraph, exact_joint, exact_sample,
                              graph_distance)
from greedymrf.theory import (
    Assignment,
    all_bound_reports,
    check_entropy_l1_bound,
    check_pinsker,
    decay_profile,
    decay_threshold,
    empirical_prob,
    ising_guarantee,
    ising_nondegeneracy_epsilon,
    l1_distance,
    model_gap,
    nondegeneracy_gap,
    sample_size_bound,
)

from _oracle import binary_entropy, cond_entropy_bits, ising_table


class TestDecayThreshold:
    def test_hand_values(self):
        assert decay_threshold(0.8, 1, 2) == pytest.approx(0.8**2 * 2**-8 / 64, rel=1e-12)
        assert decay_threshold(0.8, 1, 2) == pytest.approx(3.90625e-5, rel=1e-9)
        assert decay_threshold(1.0, 0, 2) == pytest.approx(0.00390625, rel=1e-9)

    def test_quadratic_in_epsilon(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            eps = float(rng.uniform(0.01, 2.0))
            d = int(rng.integers(0, 4))
            q = int(rng.integers(2, 5))
            assert decay_threshold(2 * eps, d, q) == pytest.approx(
                4 * decay_threshold(eps, d, q), rel=1e-12
            )

    def test_extreme_degree_underflows_to_zero(self):
        assert decay_threshold(1.0, 40, 2) == 0.0


class TestSampleSizeBound:
    def test_hand_value(self):
        expect = 2**15 * 0.5**-4 * 2**16 * (4 * math.log2(4) + 2 * math.log2(16 / 0.05))
        got = sample_size_bound(0.5, 2, 2, 16, 0.05)
        assert got == math.ceil(expect)
        assert abs(got - expect) <= 1.0
        assert got == pytest.approx(8.4676e11, rel=1e-3)

    def test_natural_log_variant(self):
        expect = 2**15 * 0.5**-4 * 2**16 * (4 * math.log(4) + 2 * math.log(16 / 0.05))
        assert sample_size_bound(0.5, 2, 2, 16, 0.05, log_base2=False) == math.ceil(expect)

    def test_quartic_in_epsilon(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            eps = float(rng.uniform(0.05, 1.0))
            d = int(rng.integers(0, 3))
            q = int(rng.integers(2, 4))
            p = int(rng.integers(2, 50))
            delta = float(rng.uniform(0.01, 0.5))
            lo = sample_size_bound(eps, d, q, p, delta)
            hi = sample_size_bound(eps / 2, d, q, p, delta)
            # exact 16x up to the integer rounding of each side
            assert abs(hi - 16 * lo) <= 16

    def test_monotone_in_p_and_delta(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            eps = float(rng.uniform(0.05, 1.0))
            d = int(rng.integers(0, 3))
            q = int(rng.integers(2, 4))
            p = int(rng.integers(2, 50))
            delta = float(rng.uniform(0.02, 0.5))
            base = sample_size_bound(eps, d, q, p, delta)
            assert sample_size_bound(eps, d, q, p + 5, delta) >= base
            assert sample_size_bound(eps, d, q, p, delta / 2) >= base

    def test_bad_delta(self):
        with pytest.raises(ValueError):
            sample_size_bound(0.5, 2, 2, 16, 1.5)

    def test_nan_epsilon_is_rejected_by_both_calculators(self):
        with pytest.raises(ValueError, match="epsilon"):
            decay_threshold(float("nan"), 2, 2)
        with pytest.raises(ValueError, match="invalid bound inputs"):
            sample_size_bound(float("nan"), 2, 2, 16, 0.05)


class TestIsingGuarantee:
    def test_hand_value(self):
        got = ising_guarantee(0.1, 2)
        assert got.epsilon == pytest.approx(2**-10 * math.sinh(0.2) ** 2, rel=1e-12)
        assert got.epsilon == pytest.approx(3.9586e-5, rel=1e-4)
        expect_girth = 2**15 / math.log(2) * (4 * math.log(2) - math.log(math.sinh(0.2)))
        assert got.girth_bound == pytest.approx(expect_girth, rel=1e-12)

    def test_epsilon_increasing_in_beta(self):
        d = 2
        betas = np.linspace(0.01, math.log(2) / (2 * d) - 1e-6, 50)
        values = [ising_guarantee(float(b), d).epsilon for b in betas]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_vanishing_beta_limits(self):
        # epsilon -> 0 and the girth bound diverges (like -log beta)
        values = [ising_guarantee(10.0**-k, 2) for k in (3, 6, 9, 12)]
        eps = [v.epsilon for v in values]
        girths = [v.girth_bound for v in values]
        assert all(a > b for a, b in zip(eps, eps[1:]))
        assert eps[-1] < 1e-25
        assert all(a < b for a, b in zip(girths, girths[1:]))
        assert girths[-1] > 1e6

    def test_beta_range_enforced(self):
        with pytest.raises(ValueError):
            ising_guarantee(0.0, 2)
        with pytest.raises(ValueError):
            ising_guarantee(0.2, 2)  # ln(2)/4 ~ 0.173


class TestIsingNondegeneracyEpsilon:
    def test_hand_value(self):
        got = ising_nondegeneracy_epsilon(0.25, 0.3, 2)
        assert got == pytest.approx(2**-7 * math.exp(-3.6) * math.sinh(0.5) ** 2, rel=1e-12)
        assert got == pytest.approx(5.796478332887176e-5, rel=1e-9)

    def test_gamma_d_to_zero_limit(self):
        # with gamma*D -> 0 the value approaches 2^-7 sinh^2(2 beta)
        beta = 0.2
        got = ising_nondegeneracy_epsilon(beta, beta + 1e-9, 0)
        assert got == pytest.approx(2**-7 * math.sinh(2 * beta) ** 2, rel=1e-6)

    def test_decreasing_in_degree(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            beta = float(rng.uniform(0.01, 0.2))
            gamma = beta + float(rng.uniform(0.01, 0.2))
            a = ising_nondegeneracy_epsilon(beta, gamma, 1)
            b = ising_nondegeneracy_epsilon(beta, gamma, 3)
            assert b < a

    def test_ordering_enforced(self):
        with pytest.raises(ValueError):
            ising_nondegeneracy_epsilon(0.3, 0.2, 2)


class TestNondegeneracyGap:
    def test_isolated_vertex_is_infinite(self):
        m = IsingModel(MarkovGraph(2, []), {})
        assert math.isinf(nondegeneracy_gap(ExactSource.of_model(m), m.graph, 0))

    def test_two_node_closed_form(self):
        # single family: H(X_0) - H(X_0 | X_1) = 1 - H_b(agreement prob)
        for theta in (0.5, 1.0):
            m = build(ModelSpec.chain(2, WeightRule.constant(theta)))
            agree = math.exp(theta) / (math.exp(theta) + math.exp(-theta))
            expect = 1.0 - binary_entropy(agree)
            got = nondegeneracy_gap(ExactSource.of_model(m), m.graph, 0)
            assert got == pytest.approx(expect, abs=1e-12)

    def test_chain3_matches_enumerated_oracle(self):
        m = build(ModelSpec.chain(3, WeightRule.constant(0.5)))
        table = ising_table(3, {(0, 1): 0.5, (1, 2): 0.5})
        got = nondegeneracy_gap(ExactSource.of_model(m), m.graph, 1)
        assert got > 0
        best = math.inf
        nbrs = (0, 2)
        for size in range(len(nbrs)):
            for sub in combinations(nbrs, size):
                h_base = cond_entropy_bits(table, 1, sub)
                for j in nbrs:
                    if j in sub:
                        continue
                    best = min(best, h_base - cond_entropy_bits(table, 1, set(sub) | {j}))
                    for l in (0, 2):  # neighbors of j other than node 1
                        pass  # chain: N(j) = {1}, so the two-hop family is empty
        assert got == pytest.approx(best, abs=1e-12)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(7)
        base = build(ModelSpec.grid(2, WeightRule.uniform_range(0.2, 0.7, 9)))
        perm = rng.permutation(base.p).tolist()
        mapped_edges = {(perm[u], perm[v]): t for (u, v), t in base.theta.items()}
        permuted = IsingModel(
            MarkovGraph(base.p, list(mapped_edges)), mapped_edges
        )
        jb, jp = ExactSource.of_model(base), ExactSource.of_model(permuted)
        for i in range(base.p):
            a = nondegeneracy_gap(jb, base.graph, i)
            b = nondegeneracy_gap(jp, permuted.graph, perm[i])
            assert a == pytest.approx(b, abs=1e-10)

    def test_degree_cap(self):
        m = build(ModelSpec.complete_dary_tree(13, 1, WeightRule.constant(0.1)))
        with pytest.raises(CapacityError):
            nondegeneracy_gap(ExactSource.of_model(m), m.graph, 0)

    def test_model_gap_bounds_every_node(self):
        m = build(ModelSpec.cycle(5, WeightRule.constant(0.5)))
        src = ExactSource.of_model(m)
        g = model_gap(src, m.graph)
        assert all(nondegeneracy_gap(src, m.graph, i) >= g for i in range(5))


class TestDecayProfile:
    def test_independent_model_has_zero_influence(self):
        m = IsingModel(MarkovGraph(5, [(0, 1)]), {(0, 1): 0.5})
        prof = decay_profile(ExactSource.of_model(m), m.graph, 0, max_set_size=1)
        # vertices 2..4 are disconnected from 0: no finite distances at all
        assert prof.by_distance == {}

    def test_chain5_profile_decreases(self):
        m = build(ModelSpec.chain(5, WeightRule.constant(0.5)))
        prof = decay_profile(ExactSource.of_model(m), m.graph, 0, max_set_size=1)
        assert set(prof.by_distance) == {3, 4}
        assert prof.by_distance[4] < prof.by_distance[3]
        assert prof.is_monotone_decreasing()
        assert all(0.0 <= v <= 1.0 for v in prof.by_distance.values())

    def test_chain5_value_matches_oracle(self):
        m = build(ModelSpec.chain(5, WeightRule.constant(0.5)))
        prof = decay_profile(ExactSource.of_model(m), m.graph, 0, max_set_size=1)
        table = ising_table(5, {(k, k + 1): 0.5 for k in range(4)})
        # local block of node 0 is {0,1,2}; B={3} at distance 3, B={4} at 4
        from _oracle import conditional_prob, marginal

        for b, dist in ((3, 3), (4, 4)):
            m_local = marginal(table, (0, 1, 2))
            worst = 0.0
            for xb in (-1, 1):
                for xs in product((-1, 1), repeat=3):
                    cond = conditional_prob(table, (0, 1, 2), xs, (b,), (xb,))
                    worst = max(worst, abs(cond - m_local[xs]))
            assert prof.by_distance[dist] == pytest.approx(worst, abs=1e-12)

    def test_tree_profile_monotone(self):
        m = build(ModelSpec.complete_dary_tree(2, 3, WeightRule.constant(0.3)))
        prof = decay_profile(ExactSource.of_model(m), m.graph, 0, max_set_size=1)
        assert prof.is_monotone_decreasing()

    def test_cycle_profile_reports_without_asserting_monotone(self):
        # cyclic models may break monotonicity; the profile reports it rather
        # than hiding it, and values stay in range
        m = build(ModelSpec.cycle(8, WeightRule.constant(0.5)))
        prof = decay_profile(ExactSource.of_model(m), m.graph, 0, max_set_size=2)
        assert prof.by_distance  # distances 3 and 4 reachable
        assert all(0.0 <= v <= 1.0 for v in prof.by_distance.values())
        assert isinstance(prof.is_monotone_decreasing(), bool)

    def test_max_set_size_widens_or_keeps_profile(self):
        m = build(ModelSpec.chain(6, WeightRule.constant(0.5)))
        src = ExactSource.of_model(m)
        narrow = decay_profile(src, m.graph, 0, max_set_size=1)
        wide = decay_profile(src, m.graph, 0, max_set_size=2)
        for d, v in narrow.by_distance.items():
            assert wide.by_distance[d] >= v - 1e-15


class _CountingSource(ExactSource):
    """An exact source that counts the marginal tables it reads."""

    calls = 0

    def _cells(self, variables):
        self.calls += 1
        return super()._cells(variables)


class TestCapacityBeforeWork:
    def test_model_gap_checks_every_degree_first(self):
        # the star's centre, the last vertex, is the only one past the cap
        star = MarkovGraph(14, [(k, 13) for k in range(13)])
        src = _CountingSource.of_model(IsingModel(star, dict.fromkeys(star.sorted_edges(), 0.1)))
        with pytest.raises(CapacityError):
            model_gap(src, star)
        assert src.calls == 0

    def test_decay_checks_the_widest_marginal_first(self):
        # node 0's local block is 0, 1..7 and 8..14 (15 variables); 15 and 16
        # hang off 8 and 9, so single far sets fit the cap of 16 and pairs do not
        edges = [(0, k) for k in range(1, 8)] + [(k, k + 7) for k in range(1, 8)]
        g = MarkovGraph(17, edges + [(8, 15), (9, 16)])
        src = _CountingSource.of_model(IsingModel(g, dict.fromkeys(g.sorted_edges(), 0.1)))
        with pytest.raises(CapacityError):
            decay_profile(src, g, 0, max_set_size=2)
        assert src.calls == 0
        assert set(decay_profile(src, g, 0, max_set_size=1).by_distance) == {3}
        assert src.calls > 0

    @pytest.mark.parametrize("p", [3, 4, 6])
    def test_graph_and_source_sizes_are_checked_first(self, p):
        # a smaller graph would measure the marginal of its first vertices
        m = build(ModelSpec.chain(5, WeightRule.constant(0.5)))
        src = _CountingSource.of_model(m)
        g = MarkovGraph(p, [(k, k + 1) for k in range(p - 1)])
        for measure in (lambda: model_gap(src, g), lambda: nondegeneracy_gap(src, g, 0),
                        lambda: decay_profile(src, g, 0, max_set_size=1)):
            with pytest.raises(ValueError, match=f"graph has {p} vertices, source has 5"):
                measure()
        assert src.calls == 0
        assert model_gap(src, m.graph) > 0


def _axis_sum_profile(joint, g, i, max_set_size):
    """The decay measurement over JointDistribution.dense_marginal: for each
    far set B and each assignment x_B, P(local | x_B) is the slice of the
    joint of local and B at x_B, normalised."""
    q = joint.alphabet.size
    one_hop = set(g.neighbors(i))
    local = sorted({i} | one_hop | {w for j in one_hop for w in g.neighbors(j)})
    p_local = joint.dense_marginal(local)
    worst = {}
    for size in range(1, max_set_size + 1):
        for b_set in combinations([v for v in range(g.p) if v not in local], size):
            dist = min(graph_distance(g, i, b) for b in b_set)
            if math.isinf(dist):
                continue
            union = sorted(local + list(b_set))
            table = joint.dense_marginal(union).reshape((q,) * len(union))
            for xb in product(range(q), repeat=size):
                at = dict(zip(b_set, xb))
                block = table[tuple(at.get(v, slice(None)) for v in union)]
                if block.sum() > 0:
                    dev = float(np.abs(block.ravel() / block.sum() - p_local).max())
                    worst[int(dist)] = max(worst.get(int(dist), 0.0), dev)
    return worst


_FAMILIES = st.one_of(
    st.builds(lambda p, prob, seed: ("er", (p, prob, seed)),
              st.integers(2, 10), st.floats(0.3, 0.7), st.integers(0, 999)),
    st.builds(lambda p: ("cycle", (p,)), st.integers(3, 10)),
    st.builds(lambda d, depth: ("tree", (d, depth)), st.integers(1, 3), st.integers(1, 3)),
)
_WEIGHTS = st.one_of(
    st.builds(lambda t, seed: WeightRule("randsign", (t, seed)),
              st.floats(0.1, 1.0), st.integers(0, 999)),
    st.builds(lambda t: WeightRule("const", (t,)), st.floats(-1.0, 1.0).filter(bool)),
)


class TestSourceContract:
    @settings(max_examples=40, deadline=None)
    @given(_FAMILIES, _WEIGHTS, st.integers(1, 2), st.data())
    def test_decay_matches_axis_sums(self, family, weights, max_set_size, data):
        spec = ModelSpec(family[0], tuple(map(float, family[1])), weights)
        assume(model_size(spec) <= 10)
        m = build(spec)
        i = data.draw(st.integers(0, m.p - 1))
        got = decay_profile(ExactSource.of_model(m), m.graph, i, max_set_size)
        want = _axis_sum_profile(exact_joint(m), m.graph, i, max_set_size)
        assert set(got.by_distance) == set(want)
        for d, v in want.items():
            assert got.by_distance[d] == pytest.approx(v, abs=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 5), st.sampled_from([2, 3]), st.integers(0, 2**16))
    def test_exact_and_empirical_sources_agree(self, p, q, seed):
        # rows list each assignment as often as its weight, so both sources
        # hold one distribution and must give one gap and one profile
        weights = np.random.default_rng(seed).integers(0, 4, size=q**p)
        assume(weights.sum() > 0)
        alphabet = Alphabet(tuple(map(str, range(q))))
        exact = ExactSource(JointDistribution(p, alphabet, weights / weights.sum()))
        rows = np.stack(np.unravel_index(np.repeat(np.arange(q**p), weights), (q,) * p), axis=1)
        empirical = EmpiricalSource(DiscreteDataset([f"x{k}" for k in range(p)], alphabet, rows))
        g = MarkovGraph(p, [(k, k + 1) for k in range(p - 1)])
        for i in range(p):
            assert nondegeneracy_gap(exact, g, i) == pytest.approx(
                nondegeneracy_gap(empirical, g, i), abs=1e-12)
            a = decay_profile(exact, g, i, max_set_size=2).by_distance
            b = decay_profile(empirical, g, i, max_set_size=2).by_distance
            assert set(a) == set(b)
            for d, v in b.items():
                assert a[d] == pytest.approx(v, abs=1e-12)


class TestBoundReports:
    def test_partial_inputs_compute_partial_reports(self):
        reports = all_bound_reports(beta=0.1, max_degree=2)
        names = {r.name for r in reports}
        assert names == {"ising_epsilon", "ising_girth_bound"}

    def test_full_inputs_compute_everything(self):
        reports = all_bound_reports(
            epsilon=0.5, beta=0.1, gamma=0.2, max_degree=2,
            alphabet_size=2, num_vars=16, delta=0.05,
        )
        names = {r.name for r in reports}
        assert names == {
            "decay_threshold",
            "sample_size_bound",
            "ising_epsilon",
            "ising_girth_bound",
            "ising_nondegeneracy_epsilon",
        }
        for r in reports:
            assert math.isfinite(r.value)

    def test_no_inputs_no_reports(self):
        assert all_bound_reports() == []

    @pytest.mark.parametrize("log_base2", [True, False])
    def test_every_report_pinned_from_its_closed_form(self, log_base2):
        eps, beta, gamma, d, q, p, delta = 0.5, 0.1, 0.15, 2, 3, 16, 0.05
        log = math.log2 if log_base2 else math.log
        s2 = math.sinh(2 * beta) ** 2
        expected = [
            ("decay_threshold", {"epsilon": eps, "max_degree": d, "alphabet_size": q},
             eps**2 * q ** (-2 * (d + 1) ** 2) / 64, "epsilon^2 * q^(-2(D+1)^2) / 64"),
            ("sample_size_bound",
             {"epsilon": eps, "max_degree": d, "alphabet_size": q, "num_vars": p, "delta": delta},
             math.ceil(2**15 * eps**-4 * q ** (4 * (d + 2))
                       * ((d + 2) * log(2 * q) + 2 * log(p / delta))),
             "2^15 eps^-4 q^(4(D+2)) ((D+2) log 2q + 2 log p/delta)"),
            ("ising_epsilon", {"beta": beta, "max_degree": d}, s2 / 2**10,
             "2^-10 sinh^2(2 beta)"),
            ("ising_girth_bound", {"beta": beta, "max_degree": d},
             2**15 / math.log(2) * (d**2 * math.log(2) - math.log(math.sinh(2 * beta))),
             "(2^15/ln 2)(D^2 ln 2 - ln sinh 2 beta)"),
            ("ising_nondegeneracy_epsilon", {"beta": beta, "gamma": gamma, "max_degree": d},
             math.exp(-6 * gamma * d) * s2 / 2**7, "2^-7 e^(-6 gamma D) sinh^2(2 beta)"),
        ]
        reports = all_bound_reports(
            epsilon=eps, beta=beta, gamma=gamma, max_degree=d, alphabet_size=q,
            num_vars=p, delta=delta, log_base2=log_base2,
        )
        assert [r.name for r in reports] == [e[0] for e in expected]
        for r, (_, inputs, value, formula) in zip(reports, expected):
            assert r.inputs == inputs
            assert type(r.value) is float and r.value == pytest.approx(value, rel=1e-12)
            assert r.formula == formula

    def test_a_report_needs_every_one_of_its_inputs(self):
        reports = all_bound_reports(epsilon=0.5, max_degree=2, alphabet_size=2, num_vars=8,
                                    gamma=0.2)
        assert [r.name for r in reports] == ["decay_threshold"]
        assert all_bound_reports(beta=0.1, gamma=0.2, delta=0.1, num_vars=4) == []

    def test_unknown_input_is_refused(self):
        with pytest.raises(TypeError):
            all_bound_reports(eps=0.5, max_degree=2, alphabet_size=2)


# Every public entry that takes a variable or vertex index, called with the
# index ``v`` on a chain of three: its joint, exact source, sample and graph.
_INDEXED = {
    "joint_counts": lambda j, src, ds, g, v: ds.joint_counts((0, v)),
    "empirical_prob": lambda j, src, ds, g, v: empirical_prob(ds, Assignment((v,), (0,))),
    "entropy": lambda j, src, ds, g, v: entropy(src, (0, v)),
    "conditional_entropy/target": lambda j, src, ds, g, v: conditional_entropy(src, v, (1,)),
    "conditional_entropy/given": lambda j, src, ds, g, v: conditional_entropy(src, 1, (v,)),
    "extension_entropies/target": lambda j, src, ds, g, v: src.extension_entropies([(v, ())]),
    "extension_entropies/given": lambda j, src, ds, g, v: src.extension_entropies([(1, (v,))]),
    "removal_entropies/target": lambda j, src, ds, g, v: src.removal_entropies(v, (1,)),
    "removal_entropies/given": lambda j, src, ds, g, v: src.removal_entropies(1, (v,)),
    "greedy_neighborhood": lambda j, src, ds, g, v: greedy_neighborhood(
        src, v, LearnerConfig(epsilon=0.1)),
    "dense_marginal": lambda j, src, ds, g, v: j.dense_marginal((0, v)),
    "graph_distance/u": lambda j, src, ds, g, v: graph_distance(g, v, 0),
    "graph_distance/v": lambda j, src, ds, g, v: graph_distance(g, 0, v),
    "nondegeneracy_gap": lambda j, src, ds, g, v: nondegeneracy_gap(src, g, v),
    "decay_profile": lambda j, src, ds, g, v: decay_profile(src, g, v),
}


def _call_indexed(entry, v):
    model = build(ModelSpec.chain(3, WeightRule.constant(0.5)))
    joint = exact_joint(model)
    return _INDEXED[entry](joint, ExactSource(joint), exact_sample(joint, 20, 0), model.graph, v)


@pytest.mark.parametrize("v, error, message", [
    (-1, IndexError, r"index -1 out of range 0\.\.2"),
    (3, IndexError, r"index 3 out of range 0\.\.2"),
    (0.5, TypeError, r"index 0\.5 is not an integer"),
    (1.0, TypeError, r"index 1\.0 is not an integer"),
    (np.float64(0), TypeError, r"index np\.float64\(0\.0\) is not an integer"),
    ("0", TypeError, r"index '0' is not an integer"),
    # numpy would read a bool index as a mask
    (True, TypeError, r"index True is not an integer"),
], ids=["-1", "3", "0.5", "1.0", "np.float64(0)", "'0'", "True"])
@pytest.mark.parametrize("entry", sorted(_INDEXED))
def test_every_indexed_entry_rejects_an_index_out_of_range(entry, v, error, message):
    with pytest.raises(error, match=message):
        _call_indexed(entry, v)


@pytest.mark.parametrize("entry", sorted(_INDEXED))
def test_every_indexed_entry_takes_a_numpy_integer_as_the_int(entry):
    def outcome(v):
        try:
            return repr(_call_indexed(entry, v))
        except ValueError as exc:  # target 1 in its own conditioning set (1,)
            return repr(exc)

    assert outcome(np.int64(1)) == outcome(1)


@pytest.mark.parametrize("check", [l1_distance, check_entropy_l1_bound, check_pinsker])
def test_marginal_comparisons_read_a_one_pass_variable_iterator_once(check):
    joint = exact_joint(build(ModelSpec.chain(3, WeightRule.constant(0.5))))
    p_src, q_src = ExactSource(joint), EmpiricalSource(exact_sample(joint, 50, 1))
    assert check(p_src, q_src, (v for v in [0, 1])) == check(p_src, q_src, [0, 1])


@pytest.mark.parametrize("vars_, vals", [((0, "0"), (0, 0)), ((0, 1), (0, 0.5))])
def test_assignment_rejects_a_non_integer_before_comparing_indices(vars_, vals):
    with pytest.raises(TypeError, match=r"index ('0'|0\.5) is not an integer"):
        Assignment(vars_, vals)
