"""Entropy, conditional entropy, mutual information, and the two
distribution-distance bounds, checked against brute-force references."""

import math
import sys
import threading
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
    _TERMS_MAX_ROWS,
    EXACT_TOL,
    EmpiricalSource,
    ExactSource,
    _entropies,
    _plogp,
    _sum_out,
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

from _oracle import axis_marginal, cond_entropy_bits, entropy_bits, ising_table, marginal

CHAIN3 = ModelSpec.chain(3, WeightRule.constant(0.5))


def empirical(rows, q=2):
    symbols = tuple(sorted(f"s{k}" for k in range(q)))
    names = [f"c{k}" for k in range(len(rows[0]))]
    return EmpiricalSource(DiscreteDataset(names, Alphabet(symbols), np.asarray(rows)))


def step(src, i, given):
    """H(X_i | X_given, X_k) for every k, from a batch of one step."""
    return src.extension_entropies([(i, given)])[0]


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
            hs = step(src, i, given)
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
        blocks = list(extension_counts(src.dataset, [3], [(0, 1, 2)]))
        assert [(at, j.shape, g.shape) for at, j, g in blocks] == [
            ((0, slice(0, 5)), (5, 3 * 5), (5, 3 * 3))]
        _, joint, marginal = blocks[0]
        assert (joint.sum(axis=1) == 5).all() and (marginal.sum(axis=1) == 5).all()

    def test_large_alphabet_tables_stay_within_the_chunk_bound(self):
        # 300 symbols over 1000 rows: a step needs up to 300 * 1000 cells per
        # variable, more than _CHUNK_ELEMENTS once |C| >= 1, so those steps
        # count occupied cells only; no bincount may outgrow the bound, in a
        # round of every node's steps or in one step.
        rows = np.random.default_rng(5).integers(0, 300, size=(1000, 5))
        src = empirical(rows, q=300)
        sizes = []
        bincount = np.bincount

        def recorded(*args, **kwargs):
            out = bincount(*args, **kwargs)
            sizes.append(out.size)
            return out

        with mock.patch("numpy.bincount", side_effect=recorded):
            res = learn_structure(src, LearnerConfig(epsilon=0.05))
        assert 0 < max(sizes) <= max(dataset._CHUNK_ELEMENTS, 1000)

        for t in res.traces:
            chosen: tuple = ()
            for pick in t.picks:
                with mock.patch("numpy.bincount", side_effect=recorded):
                    hs = step(src, t.node, tuple(sorted(chosen)))
                assert hs[pick.vertex] == pytest.approx(pick.entropy_after, abs=1e-9)
                for k in range(src.p):
                    if k != t.node and k not in chosen:
                        h = conditional_entropy(src, t.node, chosen + (k,))
                        assert abs(hs[k] - h) <= 1e-9
                chosen += (pick.vertex,)
        assert max(len(t.picks) for t in res.traces) >= 2
        assert 0 < max(sizes) <= max(dataset._CHUNK_ELEMENTS, 1000)
        assert src.dataset._planes is None

    @settings(max_examples=80, deadline=None)
    @given(st.integers(2, 4), st.integers(1, 200), st.integers(3, 7), st.integers(0, 2**16),
           st.sampled_from([1, 64, 1 << 18]), st.sampled_from([1, 256, 1 << 15]), st.data())
    def test_a_batch_row_is_its_one_step_row_bit_for_bit(self, q, n, p, seed, chunk, words,
                                                          data):
        # Copied and negated columns leave some nodes few occupied cells and
        # others many, so a batch past the rows mixes steps of different m;
        # small chunks and plane buffers split a batch into many blocks and
        # send steps with many cells to the occupied-key branch.
        rng = np.random.default_rng(seed)
        rows = rng.integers(0, q, size=(n, p))
        rows[:, 1] = rows[:, 0]
        rows[:, 2] = q - 1 - rows[:, 0]
        src = empirical(rows, q=q)
        size = data.draw(st.integers(0, p - 2))
        nodes = data.draw(st.lists(st.integers(0, p - 1), min_size=1, max_size=2 * p))
        steps = [(i, tuple(sorted(data.draw(st.permutations([v for v in range(p) if v != i]))[:size])))
                 for i in nodes]
        with mock.patch.multiple(dataset, _CHUNK_ELEMENTS=chunk, _PLANE_WORDS=words):
            batch = src.extension_entropies(steps)
            alone = [step(src, i, given_vars) for i, given_vars in steps]
        assert batch.shape == (len(steps), p)
        for row, want in zip(batch, alone):
            assert np.array_equal(row, want)

    def test_batches_need_one_given_size_and_valid_steps(self):
        src = empirical([[0, 1, 0], [1, 1, 0]])
        assert src.extension_entropies([]).shape == (0, 3)
        with pytest.raises(ValueError, match="one size"):
            src.extension_entropies([(0, (1,)), (1, ())])
        with pytest.raises(IndexError):
            src.extension_entropies([(0, ()), (3, ())])

    def test_a_plane_round_stays_within_a_few_plane_buffers(self):
        # grid10-sized data, n = 5000 and p = 100: a round of all 100 nodes'
        # plane steps ANDs into one reused buffer, so its peak does not grow
        # with the nodes. One step at m = 32 allocated about 2.2 MiB when
        # each chunk of variables got a new block.
        rows = np.random.default_rng(0).integers(0, 2, size=(5000, 100))
        src = empirical(rows)
        src.extension_entropies([(0, ())])  # builds the planes
        for size in range(5):
            steps = [(i, tuple((i + 1 + k) % 100 for k in range(size))) for i in range(100)]
            tracemalloc.start()
            try:
                src.extension_entropies(steps)
                held, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak <= 4 * 8 * dataset._PLANE_WORDS
            # The tables held for the next round: each step's x_k >= 1 counts
            # and cell totals in uint16, about 320 KiB at m = 16, plus half a
            # KiB for its key and view; none once the next round leaves the
            # planes.
            m = 2 ** (size + 1)
            tables = 100 * (100 + 1) * m * 2 if 2 * m <= dataset._PLANE_CELLS else 0
            assert held <= tables + 512 * len(steps) + 16 * 1024

    def test_target_in_given_rejected(self):
        with pytest.raises(ValueError):
            step(empirical([[0, 1, 0]]), 1, (0, 1))

    def test_too_wide_given_fails_before_counting(self):
        rows = np.random.default_rng(3).integers(0, 2, size=(6, 65)).tolist()
        src = empirical(rows)
        table = row_table(rows)
        widest = tuple(range(62))
        hs = step(src, 64, widest)
        for k in (62, 63):
            assert abs(hs[k] - cond_entropy_bits(table, 64, widest + (k,))) <= 1e-9
        with mock.patch("numpy.bincount", side_effect=AssertionError("counted")):
            with pytest.raises(CapacityError):
                step(src, 64, tuple(range(63)))


def count_table(rows):
    """Oracle table of the empirical distribution of ``rows``, each cell its
    row count over n, so no cell carries summation error."""
    table: dict = {}
    for row in map(tuple, rows):
        table[row] = table.get(row, 0) + 1
    return {state: c / len(rows) for state, c in table.items()}


def step_blocks(src, i, given):
    """The (joint, marginal) counts of one step, one row per variable; every
    variable's row is yielded once."""
    blocks = list(extension_counts(src.dataset, [i], [given]))
    out = []
    for part in (1, 2):
        rows = np.full((1, src.p, blocks[0][part].shape[-1]), -1, dtype=blocks[0][part].dtype)
        for block in blocks:
            assert (rows[block[0]] == -1).all()
            rows[block[0]] = block[part]
        assert (rows >= 0).all()
        out.append(rows[0])
    return out


class TestBitPlaneCounts:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 4), st.integers(1, 300), st.integers(3, 7), st.integers(0, 2**16),
           st.booleans(), st.data())
    def test_matches_oracle_and_the_bincount(self, q, n, p, seed, wide, data):
        # n mod 64 varies, so the last word of every plane has padding bits,
        # which the value-0 rows of a cell must not count; copied and negated
        # columns give steps with few occupied cells, which the bincount
        # counts whatever the plane cutoff
        rng = np.random.default_rng(seed)
        rows = rng.integers(0, q, size=(n, p))
        rows[:, 1] = rows[:, 0]
        rows[:, 2] = q - 1 - rows[:, 0]
        src = empirical(rows, q=q)
        i = data.draw(st.integers(0, p - 1))
        others = [v for v in range(p) if v != i]
        # a narrow set keeps (q-1) * q^(|C|+1) within the plane cutoff
        narrow = max(s for s in range(p) if (q - 1) * q ** (s + 1) <= dataset._PLANE_CELLS)
        size = data.draw(st.integers(narrow + 1, p - 1) if wide and narrow + 1 < p
                         else st.integers(0, min(narrow, p - 1)))
        given_vars = tuple(sorted(data.draw(st.permutations(others))[:size]))
        hs = step(src, i, given_vars)
        table = count_table(rows)
        for k in range(p):
            assert abs(hs[k] - cond_entropy_bits(table, i, given_vars + (k,))) <= 1e-12
        planes = step_blocks(src, i, given_vars)
        with mock.patch.object(dataset, "_PLANE_CELLS", 0):
            bincounts = step_blocks(src, i, given_vars)
            assert np.array_equal(step(src, i, given_vars), hs)
        for got, want in zip(planes, bincounts):
            assert got.dtype == want.dtype and np.array_equal(got, want)

    def test_planes_are_built_once_by_the_first_plane_step(self):
        rows = np.random.default_rng(4).integers(0, 2, size=(1000, 9))
        src = empirical(rows)
        ds = src.dataset
        # |C| = 5 occupies 64 (C, x_i) cells, beyond the cutoff
        step(src, 0, (1, 2, 3, 4, 5))
        assert ds._planes is None
        with mock.patch.object(dataset, "_pack_words", wraps=dataset._pack_words) as pack:
            step(src, 0, (1,))
            planes = ds._planes
            built = pack.call_count
            step(src, 3, (1, 2))
            assert ds._planes is planes and pack.call_count == built
        assert planes.shape == (9, 1, 16) and not planes.flags.writeable
        assert planes.nbytes <= ds.values.nbytes
        for k in range(9):
            bits = np.unpackbits(planes[k].view(np.uint8), bitorder="little")
            assert np.array_equal(bits[:1000], rows[:, k]) and not bits[1000:].any()

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 12), st.integers(1, 200), st.integers(1, 4))
    def test_planes_never_outgrow_the_values(self, q, n, p):
        rows = np.arange(n * p).reshape(n, p) % q
        ds = empirical(rows, q=q).dataset
        planes = ds.bit_planes()
        fits = (q - 1) * p * -(-n // 64) * 8 <= ds.values.nbytes
        assert (planes is not None) == fits
        if planes is not None:
            assert planes.nbytes <= ds.values.nbytes
        else:
            assert ds._planes is None
        if q > 9:
            assert planes is None

    @settings(max_examples=40, deadline=None)
    @given(q=st.integers(2, 4), p=st.integers(2, 6), seed=st.integers(0, 2**32 - 1),
           n=st.sampled_from([1, 100, dataset._PLANE_ROWS + 1, 40000]), data=st.data())
    def test_query_entropies_are_bit_identical_on_both_paths(self, q, p, seed, n, data):
        # The crossover patched to send every query that fits the planes to
        # them, or none: entropies and prune tables read the same counts, so
        # they are the same floats, with the term table (n <= 2^15) and without.
        rows = np.random.default_rng(seed).integers(0, q, size=(n, p))
        rows[:, 1] = rows[:, 0]
        variables = tuple(sorted(data.draw(st.lists(st.integers(0, p - 1), max_size=p,
                                                    unique=True))))
        i = data.draw(st.integers(0, p - 1))
        given_vars = data.draw(st.lists(st.sampled_from([v for v in range(p) if v != i]),
                                        max_size=p - 1, unique=True))
        got = []
        for crossover in (0, 1 << 62):
            src = empirical(rows, q=q)
            with mock.patch.object(dataset, "_PLANE_ROWS", crossover):
                got.append((src.entropy_bits(variables), *src.removal_entropies(i, given_vars)))
        (h, h_i, without), (h_codes, h_i_codes, without_codes) = got
        assert h == h_codes and h_i == h_i_codes
        assert without.tobytes() == without_codes.tobytes()


class TestCarriedTables:
    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from([2, 3]), st.integers(1, 300), st.integers(3, 8), st.integers(0, 2**16),
           st.data())
    def test_a_warm_source_gives_a_fresh_sources_rows_bit_for_bit(self, q, n, p, seed, data):
        # Rounds of lockstep passes in random pick orders, so each round's
        # new variable lands at any sorted position; each round takes a
        # random subset of the nodes, so a batch mixes steps with a table of
        # last round and steps without one, and the rounds run on past the
        # bit planes.
        rng = np.random.default_rng(seed)
        rows = rng.integers(0, q, size=(n, p))
        rows[:, 1] = rows[:, 0]
        src = empirical(rows, q=q)
        orders = {i: data.draw(st.permutations([v for v in range(p) if v != i])) for i in range(p)}
        take, taken, rounds = dataset._take_carried, [], []

        def recorded(*args):
            got = take(*args)
            taken.append(got is not None)
            return got

        with mock.patch.object(dataset, "_take_carried", side_effect=recorded):
            for size in range(min(p - 1, 6)):
                rounds.append(data.draw(st.sets(st.sampled_from(range(p)), min_size=1)))
                steps = [(i, tuple(sorted(orders[i][:size]))) for i in sorted(rounds[-1])]
                warm = src.extension_entropies(steps)
                assert np.array_equal(warm, empirical(rows, q=q).extension_entropies(steps))
        # On binary data of 8 or more rows, a node of rounds 0 and 1 takes
        # its round-0 table.
        if q == 2 and n >= 8 and rounds[0] & rounds[1]:
            assert any(taken)

    def test_threads_sharing_a_source_get_a_fresh_sources_rows(self):
        # Six threads run lockstep rounds on one source, so the tables one
        # batch keeps are taken, or missed, by another thread's batch.
        rows = np.random.default_rng(8).integers(0, 2, size=(700, 10))
        rounds = [[(i, tuple((i + 1 + k) % 10 for k in range(size))) for i in range(10)]
                  for size in range(6)]
        want = [empirical(rows).extension_entropies(steps) for steps in rounds]
        src, failures = empirical(rows), []

        def work():
            for _ in range(8):
                for steps, expected in zip(rounds, want):
                    if not np.array_equal(src.extension_entropies(steps), expected):
                        failures.append(steps)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work) for _ in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not failures

    def test_lockstep_rounds_count_only_the_new_variables_nonzero_cells(self):
        rows = np.random.default_rng(2).integers(0, 2, size=(3000, 12))
        src = empirical(rows)
        ands = []
        bitwise_and = np.bitwise_and

        def recorded(x, y, **kwargs):
            ands.append(np.broadcast_shapes(x.shape, y.shape)[3])  # cells per step
            return bitwise_and(x, y, **kwargs)

        for size in range(6):
            steps = [(i, tuple((i + 1 + k) % 12 for k in range(size))) for i in range(12)]
            ands.clear()
            with mock.patch("numpy.bitwise_and", side_effect=recorded):
                src.extension_entropies(steps)
            # Round 0 and the rounds past the planes count in full; the
            # planes of rounds 1-4 AND half the cells of a full count.
            want = {0: [2], 5: []}.get(size, [2 ** size])
            assert sorted(set(ands)) == want
            m = 2 ** (size + 1)
            held = src._carried
            if 2 * m <= dataset._PLANE_CELLS:
                assert len(held) == 12
                for table in held.values():
                    assert table.shape == (12 + 1, m) and table.dtype == np.uint16
            else:
                assert not held


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
            hs = step(src, i, given_vars)
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

    def test_full_width_dense_marginal_is_the_axis_sum_itself(self):
        # A slice(None) index means the hook's array is the whole marginal:
        # dense_marginal returns it without filling a second array.
        w = np.random.default_rng(9).random(2**16)
        table = w / w.sum()
        src = ExactSource(JointDistribution(16, SPIN_ALPHABET, table))
        tracemalloc.start()
        try:
            full = src.dense_marginal(range(16))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * w.nbytes
        assert np.abs(full - table).max() <= EXACT_TOL
        assert not np.shares_memory(full, table)
        full[0] = 0.0  # writeable, like every other marginal

    def test_full_width_marginal_and_entropy_copy_the_table_at_most_once(self):
        # The hook hands the un-summed marginal over as it is: no cell codes,
        # no gathered copy. The entropy adds only its log buffer and the mask
        # of nonzero cells.
        w = np.random.default_rng(8).random(2**16)
        table_bytes = w.nbytes
        for query, bound in ((lambda s: s.dense_marginal(range(16)), 2.1),
                             (lambda s: entropy(s, range(16)), 2.25)):
            src = ExactSource(JointDistribution(16, SPIN_ALPHABET, w / w.sum()))
            tracemalloc.start()
            try:
                query(src)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak <= bound * table_bytes

    @pytest.mark.parametrize("i, given_vars", [
        (0, ()), (5, (1, 8, 12)), (9, (0, 2, 4, 6)), (15, tuple(range(13))), (0, tuple(range(1, 15))),
    ])
    def test_first_step_allocates_less_than_the_table(self, i, given_vars):
        # The step reads q^(|C|+2) cells per candidate; it builds no
        # per-state columns (p * 2^p bytes) and no copy of the table. When C
        # holds all but one or two variables a candidate's block is half or
        # all of the table, and its entropy is summed over fixed-size
        # pieces, so no second block-sized buffer is made.
        bound = 1.0 if len(given_vars) <= 4 else 1.25
        w = np.random.default_rng(7).random(2**16)
        src = ExactSource(JointDistribution(16, SPIN_ALPHABET, w / w.sum()))
        tracemalloc.start()
        try:
            step(src, i, given_vars)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < bound * w.nbytes


@st.composite
def sparse_tables(draw):
    """(joint, oracle dictionary): q = 2-3 values, p = 2-7 variables, with
    zero cells, cells many orders of magnitude below the rest, and peaks."""
    q, p = draw(st.integers(2, 3)), draw(st.integers(2, 7))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    w = rng.random(q**p) ** draw(st.sampled_from([1, 4, 32]))
    w[rng.random(q**p) < draw(st.sampled_from([0.0, 0.3, 0.9]))] = 0.0
    w[rng.random(q**p) < 0.2] *= draw(st.sampled_from([1e-9, 1e-17, 1e-300]))
    w[rng.integers(q**p)] += 0.5
    joint = JointDistribution(p, Alphabet(tuple(f"s{k}" for k in range(q))), w / w.sum())
    return joint, dict(zip(product(range(q), repeat=p), joint.probs.tolist()))


class TestSummedSlots:
    @settings(max_examples=200, deadline=None)
    @given(sparse_tables(), st.data())
    def test_marginals_and_steps_match_the_oracle(self, drawn, data):
        # Un-summing subtracts, so a cell that should be zero must still
        # read exactly 0.0 (check_pinsker tests qm == 0) and none may be
        # negative.
        joint, table = drawn
        p, q = joint.p, joint.alphabet.size
        src = ExactSource(joint)
        for variables in (tuple(range(p)), tuple(sorted(data.draw(st.sets(st.integers(0, p - 1)))))):
            dense = src.dense_marginal(variables)
            ref = marginal(table, variables)
            want = np.array([ref.get(key, 0.0) for key in product(range(q), repeat=len(variables))])
            assert np.abs(dense - want).max() <= EXACT_TOL
            assert dense.min() >= 0.0
            assert np.all(dense[want == 0.0] == 0.0)
        i, given_vars = draw_target_and_given(data, p)
        hs = step(src, i, given_vars)
        assert hs[i] == 0.0
        # Each of a block's q^w cells may be off by about w * eps, which moves
        # its -x*log2(x) by at most that times log2(1/x), under 64 here.
        tol = EXACT_TOL + q ** (len(given_vars) + 2) * (len(given_vars) + 2) * 2.0**-52 * 64
        for k in set(range(p)) - {i}:
            assert abs(hs[k] - cond_entropy_bits(table, i, set(given_vars) | {k})) <= tol

    def test_a_model_source_holds_one_table(self):
        # of_model sums the array exact_joint builds in place: building and
        # transforming never hold a second 2^p array.
        model = build(ModelSpec.erdos_renyi(18, 0.15, 3, WeightRule.constant_magnitude_random_sign(0.5, 3)))
        tracemalloc.start()
        try:
            src = ExactSource.of_model(model)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * 8 * 2**18
        want = ExactSource(exact_joint(model))
        for variables in ((), (3,), (0, 5, 17), tuple(range(18))):
            assert np.array_equal(src.dense_marginal(variables), want.dense_marginal(variables))


def formula_entropies(mass, total):
    """The row-wise entropy formula of integer masses: each count divided by
    the total, a masked log2, the product, one sum along the last axis."""
    probs = mass / total
    logs = np.log2(probs, out=np.zeros_like(probs), where=probs > 0)
    logs *= probs
    return -logs.sum(axis=-1)


@st.composite
def count_rows(draw):
    """(n, integer rows of counts summing to n, 1-d or 2-d, zeros often)."""
    n = draw(st.one_of(st.integers(1, 64), st.integers(1, _TERMS_MAX_ROWS),
                       st.just(_TERMS_MAX_ROWS)))
    width = draw(st.sampled_from([1, 2, 3, 4, 8, 16, 33, 64, 257]))
    shape = draw(st.sampled_from([(), (1,), (3,), (2, 5)]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    # Cells left out of a row's support are zeros; a support of one cell
    # holds all n.
    weights = rng.random(shape + (width,)) * (rng.random(shape + (width,)) < draw(
        st.sampled_from([0.0, 0.1, 0.5, 1.0])))
    weights[..., rng.integers(width)] += 1e-3
    mass = rng.multinomial(n, weights / weights.sum(axis=-1, keepdims=True))
    return n, mass.astype(np.int64)


def source_of_rows(n, p=3, seed=0):
    return empirical(np.random.default_rng(seed).integers(0, 2, size=(n, p)))


class TestTermTable:
    @settings(max_examples=200, deadline=None)
    @given(count_rows())
    def test_table_entropies_are_the_formula_bits(self, drawn):
        n, mass = drawn
        terms = source_of_rows(n)._terms
        got = _entropies(mass, n, terms)
        want = formula_entropies(mass, n)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
        for row, h in zip(mass.reshape(-1, mass.shape[-1]), np.ravel(got)):
            oracle = entropy_bits({k: c / n for k, c in enumerate(row.tolist())})
            assert abs(h - oracle) <= EXACT_TOL

    def test_table_only_up_to_the_row_bound(self):
        assert source_of_rows(_TERMS_MAX_ROWS)._terms.shape == (_TERMS_MAX_ROWS + 1,)
        assert source_of_rows(_TERMS_MAX_ROWS + 1)._terms is None
        assert ExactSource(exact_joint(build(CHAIN3)))._terms is None

    def test_sources_past_the_bound_give_the_tables_answers(self):
        n = _TERMS_MAX_ROWS + 1
        plain, tabled = source_of_rows(n, p=5, seed=3), source_of_rows(n, p=5, seed=3)
        tabled._terms = _plogp(np.arange(n + 1) / n)
        for src in (plain, tabled):
            src.bits = (entropy(src, (0, 2, 4)),
                        src.extension_entropies([(i, (3,)) for i in (0, 1, 2, 4)]).tobytes(),
                        src.removal_entropies(1, (0, 2, 3)))
        assert plain.bits[:2] == tabled.bits[:2]
        assert plain.bits[2][0] == tabled.bits[2][0]
        assert plain.bits[2][1].tobytes() == tabled.bits[2][1].tobytes()

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from([2, 3]), st.integers(1, 300), st.integers(2, 6), st.integers(0, 2**16),
           st.data())
    def test_a_source_without_its_table_gives_the_same_bits(self, q, n, p, seed, data):
        # Greedy steps (plane, chunked and occupied-cell counts), pruning's
        # summed-out tables and single entropies, with and without the table.
        rows = np.random.default_rng(seed).integers(0, q, size=(n, p))
        i = data.draw(st.integers(0, p - 1))
        given_vars = tuple(sorted(data.draw(st.permutations([v for v in range(p) if v != i]))
                                  [: data.draw(st.integers(0, p - 1))]))
        got = []
        for table in (True, False):
            src = empirical(rows, q=q)
            assert src._terms is not None
            if not table:
                src._terms = None
            got.append((step(src, i, given_vars).tobytes(),
                        entropy(src, given_vars + (i,)),
                        *(x.tobytes() if isinstance(x, np.ndarray) else x
                          for x in (src.removal_entropies(i, given_vars) if given_vars else ()))))
        assert got[0] == got[1]

    def test_pruning_sums_integer_counts_as_integers(self):
        src = source_of_rows(500, p=6, seed=1)
        table = src._cells((0, 2, 3, 5))
        for axis in range(4):
            codes, mass = _sum_out(table, 2, 4, axis)
            assert mass.dtype == table[1].dtype and mass.sum() == 500
