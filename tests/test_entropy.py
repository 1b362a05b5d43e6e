"""Entropy, conditional entropy, mutual information, and the two
distribution-distance bounds, checked against brute-force references."""

import math
import tracemalloc
from itertools import product
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from greedymrf import dataset
from greedymrf.dataset import Alphabet, CapacityError, DiscreteDataset, extension_counts
from greedymrf.entropy import (
    EmpiricalSource,
    ExactSource,
    check_entropy_l1_bound,
    check_pinsker,
    conditional_entropy,
    entropy,
    l1_distance,
    mutual_information,
)
from greedymrf.generators import ModelSpec, WeightRule, build
from greedymrf.learner import LearnerConfig, learn_structure
from greedymrf.models import JointDistribution, SPIN_ALPHABET, exact_joint
from greedymrf.models import marginal as axis_marginal

from _oracle import cond_entropy_bits, entropy_bits, ising_table, marginal

CHAIN3 = ModelSpec.chain(3, WeightRule.constant(0.5))


def empirical(rows, q=2):
    symbols = tuple(sorted(f"s{k}" for k in range(q)))
    names = [f"c{k}" for k in range(len(rows[0]))]
    return EmpiricalSource(DiscreteDataset(names, Alphabet(symbols), np.asarray(rows)))


def counts_source(*counts):
    """Single binary variable with the given value counts."""
    rows = [[0]] * counts[0] + [[1]] * counts[1]
    return empirical(rows)


def random_joint(rng, p, q=2):
    w = rng.random(q**p) + 1e-3
    return JointDistribution(p, Alphabet(tuple(f"s{k}" for k in range(q))), w / w.sum())


class TestEntropy:
    def test_uniform_bit(self):
        assert entropy(counts_source(2, 2), [0]) == pytest.approx(1.0, abs=1e-12)

    def test_point_mass(self):
        src = empirical([[0, 0], [0, 1]])
        assert entropy(src, [0]) == 0.0

    def test_counts_3_1(self):
        expect = -(0.75 * math.log2(0.75) + 0.25 * math.log2(0.25))
        assert entropy(counts_source(3, 1), [0]) == pytest.approx(expect, abs=1e-12)
        assert expect == pytest.approx(0.811278, abs=1e-6)

    def test_empty_set_is_zero(self):
        assert entropy(counts_source(3, 1), []) == 0.0

    def test_wide_entropy_counts_occupied_cells_but_dense_marginal_is_capped(self):
        # 2^30 cells: the entropy reads the occupied ones only, while the
        # dense marginal refuses before a row is counted
        rng = np.random.default_rng(4)
        rows = rng.integers(0, 2, size=(10, 30))[rng.integers(0, 10, size=50)].tolist()
        src = empirical(rows)
        assert abs(entropy(src, range(30)) - entropy_bits(row_table(rows))) <= 1e-12
        with mock.patch.object(DiscreteDataset, "joint_counts", side_effect=AssertionError("counted")):
            with pytest.raises(CapacityError):
                src.dense_marginal(range(30))

    def test_bounds_error(self):
        with pytest.raises(IndexError):
            entropy(counts_source(1, 1), [5])

    def test_matches_oracle_on_exact_chain(self):
        src = ExactSource(exact_joint(build(CHAIN3)))
        table = ising_table(3, {(0, 1): 0.5, (1, 2): 0.5})
        for subset in [(0,), (1,), (0, 1), (0, 2), (0, 1, 2)]:
            assert entropy(src, subset) == pytest.approx(
                entropy_bits(marginal(table, subset)), abs=1e-12
            )


class TestConditionalEntropy:
    def test_functional_dependence(self):
        src = empirical([[0, 0], [1, 1], [0, 0], [1, 1]])
        assert conditional_entropy(src, 1, [0]) == pytest.approx(0.0, abs=1e-12)

    def test_independence(self):
        src = empirical([[0, 0], [0, 1], [1, 0], [1, 1]])
        assert conditional_entropy(src, 0, [1]) == pytest.approx(1.0, abs=1e-12)

    def test_empty_conditioning_is_marginal_entropy(self):
        src = counts_source(3, 1)
        assert conditional_entropy(src, 0, []) == entropy(src, [0])

    def test_chain_neighbor_beats_two_hop(self):
        src = ExactSource(exact_joint(build(CHAIN3)))
        table = ising_table(3, {(0, 1): 0.5, (1, 2): 0.5})
        h1 = conditional_entropy(src, 0, [1])
        h2 = conditional_entropy(src, 0, [2])
        assert h1 == pytest.approx(cond_entropy_bits(table, 0, (1,)), abs=1e-12)
        assert h2 == pytest.approx(cond_entropy_bits(table, 0, (2,)), abs=1e-12)
        assert h1 < h2

    def test_target_in_conditioning_set_rejected(self):
        with pytest.raises(ValueError):
            conditional_entropy(counts_source(1, 1), 0, [0])


class TestMutualInformation:
    def test_independent_pair(self):
        src = empirical([[0, 0], [0, 1], [1, 0], [1, 1]])
        assert mutual_information(src, 0, 1) == pytest.approx(0.0, abs=1e-12)

    def test_copy_pair(self):
        src = empirical([[0, 0], [1, 1]])
        assert mutual_information(src, 0, 1) == pytest.approx(1.0, abs=1e-12)

    def test_single_edge_closed_form(self):
        # coupling 1.0 gives agreement probability e/(e + 1/e) ~ 0.880797
        model = build(ModelSpec.chain(2, WeightRule.constant(1.0)))
        src = ExactSource(exact_joint(model))
        agree = math.e / (math.e + math.exp(-1))
        assert agree == pytest.approx(0.880797, abs=1e-6)
        hb = -(agree * math.log2(agree) + (1 - agree) * math.log2(1 - agree))
        assert mutual_information(src, 0, 1) == pytest.approx(1.0 - hb, abs=1e-12)

    def test_symmetry(self):
        src = ExactSource(exact_joint(build(CHAIN3)))
        for i, j in [(0, 1), (0, 2), (1, 2)]:
            assert abs(mutual_information(src, i, j) - mutual_information(src, j, i)) <= 1e-12

    def test_same_variable_rejected(self):
        with pytest.raises(ValueError):
            mutual_information(counts_source(1, 1), 2, 2)


class TestL1Distance:
    def test_identical(self):
        src = counts_source(3, 1)
        assert l1_distance(src, src, [0]) == 0.0

    def test_disjoint_point_masses(self):
        a = empirical([[0, 0]])
        b = empirical([[1, 1]])
        assert l1_distance(a, b, [0, 1]) == pytest.approx(2.0, abs=1e-12)

    def test_hand_arithmetic(self):
        assert l1_distance(counts_source(3, 1), counts_source(1, 1), [0]) == pytest.approx(
            0.5, abs=1e-12
        )

    def test_alphabet_mismatch(self):
        with pytest.raises(ValueError):
            l1_distance(counts_source(1, 1), empirical([[0]], q=3), [0])


class TestEntropyL1Bound:
    def test_equal_distributions(self):
        src = counts_source(3, 1)
        rep = check_entropy_l1_bound(src, src, [0])
        assert rep.lhs == 0.0 and rep.rhs == 0.0 and rep.holds and rep.applicable

    def test_hand_arithmetic(self):
        rep = check_entropy_l1_bound(counts_source(3, 1), counts_source(1, 1), [0])
        assert rep.l1 == pytest.approx(0.5, abs=1e-12)
        assert rep.lhs == pytest.approx(1.0 - 0.8112781244591328, abs=1e-12)
        assert rep.rhs == pytest.approx(-0.5 * math.log2(0.5 / 2.0), abs=1e-12)
        assert rep.rhs == pytest.approx(1.0, abs=1e-12)
        assert rep.holds

    def test_outside_validity_region_is_inapplicable(self):
        a = empirical([[0, 0]])
        b = empirical([[1, 1]])
        rep = check_entropy_l1_bound(a, b, [0, 1])
        assert not rep.applicable
        assert rep.holds  # vacuous

    def test_randomized_pairs(self):
        rng = np.random.default_rng(11)
        applicable = 0
        for _ in range(1000):
            p = int(rng.integers(1, 4))
            a = ExactSource(random_joint(rng, p))
            b = ExactSource(random_joint(rng, p))
            size = int(rng.integers(1, p + 1))
            sub = tuple(sorted(rng.choice(p, size=size, replace=False).tolist()))
            rep = check_entropy_l1_bound(a, b, sub)
            assert rep.holds
            applicable += int(rep.applicable)
        assert applicable > 200  # the region is exercised, not just skipped


class TestPinsker:
    def test_equal_distributions(self):
        src = counts_source(3, 1)
        rep = check_pinsker(src, src, [0])
        assert rep.kl_bits == 0.0 and rep.l1 == 0.0 and rep.holds

    def test_disjoint_supports_vacuous(self):
        a = empirical([[0, 0]])
        b = empirical([[1, 1]])
        rep = check_pinsker(a, b, [0, 1])
        assert math.isinf(rep.kl_bits)
        assert rep.holds

    def test_hand_arithmetic(self):
        rep = check_pinsker(counts_source(3, 1), counts_source(1, 1), [0])
        kl = 0.75 * math.log2(1.5) + 0.25 * math.log2(0.5)
        assert rep.kl_bits == pytest.approx(kl, abs=1e-12)
        assert rep.kl_bits == pytest.approx(0.188722, abs=1e-6)
        assert rep.l1**2 / (2 * math.log(2)) == pytest.approx(0.180337, abs=1e-6)
        assert rep.holds

    def test_randomized_pairs(self):
        rng = np.random.default_rng(13)
        for _ in range(1000):
            p = int(rng.integers(1, 4))
            a = ExactSource(random_joint(rng, p))
            b = ExactSource(random_joint(rng, p))
            size = int(rng.integers(1, p + 1))
            sub = tuple(sorted(rng.choice(p, size=size, replace=False).tolist()))
            assert check_pinsker(a, b, sub).holds


class TestInvariants:
    def test_conditioning_never_hurts(self):
        rng = np.random.default_rng(5)
        for _ in range(300):
            if rng.random() < 0.5:
                p = int(rng.integers(2, 5))
                src = ExactSource(random_joint(rng, p))
            else:
                p = int(rng.integers(2, 5))
                rows = rng.integers(0, 2, size=(int(rng.integers(2, 40)), p))
                src = empirical(rows.tolist())
            i = int(rng.integers(0, p))
            others = [v for v in range(p) if v != i]
            rng.shuffle(others)
            cut = int(rng.integers(0, len(others)))
            given = others[:cut]
            rest = others[cut:]
            if not rest:
                continue
            j = rest[0]
            assert conditional_entropy(src, i, given + [j]) <= (
                conditional_entropy(src, i, given) + 1e-12
            )

    def test_true_neighborhood_minimizes_conditional_entropy(self):
        # Markov blanket beats any other conditioning set of size <= 4.
        from itertools import combinations

        for spec in (
            ModelSpec.chain(5, WeightRule.constant(0.5)),
            ModelSpec.grid(3, WeightRule.constant(0.5)),
        ):
            model = build(spec)
            src = ExactSource(exact_joint(model))
            p = model.p
            for i in range(p):
                nbrs = model.graph.neighbors(i)
                h_star = conditional_entropy(src, i, nbrs)
                others = [v for v in range(p) if v != i]
                for size in range(0, 5):
                    for sub in combinations(others, size):
                        assert h_star <= conditional_entropy(src, i, sub) + 1e-12

    def test_chain_rule(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            p = int(rng.integers(2, 5))
            src = ExactSource(random_joint(rng, p))
            order = rng.permutation(p).tolist()
            total = 0.0
            seen: list[int] = []
            for v in order:
                total += conditional_entropy(src, v, seen)
                seen.append(v)
            assert total == pytest.approx(entropy(src, range(p)), abs=1e-10)

    def test_spin_alphabet_sources_compare(self):
        # empirical samples of an exact model share its alphabet
        from greedymrf.models import exact_sample

        joint = exact_joint(build(CHAIN3))
        ds = exact_sample(joint, 500, seed=3)
        emp = EmpiricalSource(ds)
        exa = ExactSource(joint)
        assert ds.alphabet.symbols == SPIN_ALPHABET.symbols
        assert l1_distance(emp, exa, [0, 1]) < 0.3


def check_extension_entropies(src, table, i, given, rows):
    """Every entry of the one-table step scores against the brute-force oracle
    and the per-candidate path, with chunks of one, some and all variables."""
    for chunk in (1, 2, src.p):
        with mock.patch.object(dataset, "_CHUNK_ELEMENTS", chunk * rows):
            hs = src.extension_entropies(i, given)
        assert hs.shape == (src.p,)
        for k in range(src.p):
            assert abs(hs[k] - cond_entropy_bits(table, i, given + (k,))) <= 1e-9
            if k != i and k not in given:
                assert abs(hs[k] - conditional_entropy(src, i, given + (k,))) <= 1e-9


def row_table(rows):
    """Oracle table of the empirical distribution of ``rows``."""
    table: dict = {}
    for row in rows:
        table[tuple(row)] = table.get(tuple(row), 0.0) + 1.0 / len(rows)
    return table


def draw_target_and_given(data, p):
    i = data.draw(st.integers(0, p - 1))
    others = [v for v in range(p) if v != i]
    given = data.draw(st.lists(st.sampled_from(others), unique=True, max_size=p - 1))
    return i, tuple(sorted(given))


class TestExtensionEntropies:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(3, 6), st.integers(0, 2**16), st.data())
    def test_exact_sources_match_oracle(self, p, seed, data):
        spec = ModelSpec.erdos_renyi(p, 0.5, seed, WeightRule.uniform_range(0.2, 1.0, seed))
        model = build(spec)
        src = ExactSource(exact_joint(model))
        table = ising_table(p, model.theta)
        i, given_vars = draw_target_and_given(data, p)
        check_extension_entropies(src, table, i, given_vars, rows=2**p)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(3, 5), st.integers(2, 3), st.data())
    def test_empirical_sources_match_oracle(self, p, q, data):
        # n is often below q^(|given|+1), where the given cells are compressed
        n = data.draw(st.integers(1, 40))
        rows = data.draw(
            st.lists(st.lists(st.integers(0, q - 1), min_size=p, max_size=p),
                     min_size=n, max_size=n)
        )
        i, given_vars = draw_target_and_given(data, p)
        check_extension_entropies(empirical(rows, q=q), row_table(rows), i, given_vars, rows=n)

    def test_occupied_cells_are_compressed(self):
        # 5 rows over 3 ternary given variables occupy 3 of the 27 given
        # cells and 5 of the 81 (given, x_3) cells
        rows = [[0, 0, 0, 0, 1], [0, 0, 0, 1, 1], [1, 2, 0, 0, 0], [2, 2, 2, 1, 2], [1, 2, 0, 2, 2]]
        src = empirical(rows, q=3)
        digits = src.dataset.values.T
        blocks = list(extension_counts(digits, (0, 1, 2), 3, 3))
        assert [(j.shape, g.shape) for j, g in blocks] == [((5, 3 * 5), (5, 3 * 3))]
        joint, marginal = blocks[0]
        assert (joint.sum(axis=1) == 5).all() and (marginal.sum(axis=1) == 5).all()

    def test_large_alphabet_tables_stay_within_the_chunk_bound(self):
        # 300 symbols over 1000 rows: a step needs up to 300 * 1000 cells per
        # variable, more than _CHUNK_ELEMENTS once |C| >= 1, so those steps
        # count occupied cells only; no bincount may outgrow the bound.
        rows = np.random.default_rng(5).integers(0, 300, size=(1000, 5))
        src = empirical(rows, q=300)
        res = learn_structure(src, LearnerConfig(epsilon=0.05))
        sizes = []
        bincount = np.bincount

        def recorded(*args, **kwargs):
            out = bincount(*args, **kwargs)
            sizes.append(out.size)
            return out

        for t in res.traces:
            chosen: tuple = ()
            for pick in t.picks:
                with mock.patch("numpy.bincount", side_effect=recorded):
                    hs = src.extension_entropies(t.node, tuple(sorted(chosen)))
                assert hs[pick.vertex] == pytest.approx(pick.entropy_after, abs=1e-9)
                for k in range(src.p):
                    if k != t.node and k not in chosen:
                        h = conditional_entropy(src, t.node, chosen + (k,))
                        assert abs(hs[k] - h) <= 1e-9
                chosen += (pick.vertex,)
        assert max(len(t.picks) for t in res.traces) >= 2
        assert 0 < max(sizes) <= max(dataset._CHUNK_ELEMENTS, 1000)

    def test_target_in_given_rejected(self):
        with pytest.raises(ValueError):
            empirical([[0, 1, 0]]).extension_entropies(1, (0, 1))

    def test_too_wide_given_fails_before_counting(self):
        rows = np.random.default_rng(3).integers(0, 2, size=(6, 65)).tolist()
        src = empirical(rows)
        table = row_table(rows)
        widest = tuple(range(62))
        hs = src.extension_entropies(64, widest)
        for k in (62, 63):
            assert abs(hs[k] - cond_entropy_bits(table, 64, widest + (k,))) <= 1e-9
        with mock.patch("numpy.bincount", side_effect=AssertionError("counted")):
            with pytest.raises(CapacityError):
                src.extension_entropies(64, tuple(range(63)))


def random_table(seed, p, q):
    """Random joint table with some empty cells, and its oracle dictionary."""
    rng = np.random.default_rng(seed)
    w = rng.random(q**p) * (rng.random(q**p) < 0.8)
    w[rng.integers(q**p)] += 0.5
    joint = JointDistribution(p, Alphabet(tuple(f"s{k}" for k in range(q))), w / w.sum())
    return joint, dict(zip(product(range(q), repeat=p), joint.probs.tolist()))


class TestAxisSums:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(3, 6), st.integers(2, 3), st.integers(0, 2**32 - 1), st.data())
    def test_random_tables_match_oracle(self, p, q, seed, data):
        joint, table = random_table(seed, p, q)
        variables = tuple(sorted(data.draw(st.sets(st.integers(0, p - 1)))))
        dense = joint.dense_marginal(variables)
        ref = marginal(table, variables)
        assert dense.shape == (q ** len(variables),)
        for cell, key in enumerate(product(range(q), repeat=len(variables))):
            assert abs(dense[cell] - ref.get(key, 0.0)) <= 1e-12
        src = ExactSource(joint)
        i, drawn = draw_target_and_given(data, p)
        everyone_else = tuple(v for v in range(p) if v != i)
        for given_vars in (drawn, (), everyone_else):
            hs = src.extension_entropies(i, given_vars)
            for k in range(p):
                assert abs(hs[k] - cond_entropy_bits(table, i, given_vars + (k,))) <= 1e-9

    def test_marginal_sums_runs_largest_first(self):
        # axes 0,1 | 2 | 3,4,5 | 6 of a binary table: the summed runs are
        # (0,1) with 4 cells and (3,4,5) with 8, reduced in that order: 8, 4
        sums = []

        class Recorded(np.ndarray):
            def sum(self, axis, **kwargs):
                sums.append(self.shape[axis])
                return super().sum(axis=axis, **kwargs)

        table = np.arange(2.0**7).reshape((2,) * 7)
        got = axis_marginal(table.view(Recorded), range(7), (2, 6))
        assert sums == [8, 4]
        assert np.array_equal(got, table.sum(axis=(0, 1, 3, 4, 5)))

    def test_marginal_over_every_variable_is_a_copy(self):
        joint, _ = random_table(3, 4, 2)
        full = joint.dense_marginal(range(4))
        assert np.array_equal(full, joint.probs) and not np.shares_memory(full, joint.probs)
        full[0] = 0.0  # writeable, like every other marginal

    @pytest.mark.parametrize("i, given_vars", [
        (0, ()), (5, (1, 8, 12)), (9, (0, 2, 4, 6)), (15, tuple(range(13))), (0, tuple(range(1, 15))),
    ])
    def test_first_step_allocates_less_than_the_table(self, i, given_vars):
        # The step reads the table through axis sums; it builds no
        # per-state columns (p * 2^p bytes) and no copy of the table. When C
        # holds all but one or two variables the last marginal is (nearly)
        # the table itself, and its entropy adds only a log buffer.
        bound = 1.0 if len(given_vars) <= 4 else 1.25
        w = np.random.default_rng(7).random(2**16)
        src = ExactSource(JointDistribution(16, SPIN_ALPHABET, w / w.sum()))
        tracemalloc.start()
        try:
            src.extension_entropies(i, given_vars)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < bound * src.joint.probs.nbytes
