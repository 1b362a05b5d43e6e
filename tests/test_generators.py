"""Topology constructors and weight rules."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from greedymrf.generators import (
    MODEL_FAMILIES,
    WEIGHT_RULES,
    ModelSpec,
    WeightRule,
    build,
    max_theta_for_tree_decay,
    model_from_strings,
    model_size,
    parse_model_string,
    parse_weight_string,
)
from greedymrf.models import girth


class TestFamilies:
    def test_grid3(self):
        m = build(ModelSpec.grid(3, WeightRule.constant(0.5)))
        assert m.p == 9
        assert len(m.graph.edges) == 12
        assert girth(m.graph) == 4
        assert all(t == 0.5 for t in m.theta.values())

    def test_chain3_edges(self):
        m = build(ModelSpec.chain(3, WeightRule.constant(0.5)))
        assert m.graph.edges == frozenset({(0, 1), (1, 2)})

    def test_counterexample_degrees(self):
        m = build(ModelSpec.counterexample(8, WeightRule.constant(0.9)))
        assert m.p == 10
        assert len(m.graph.edges) == 16
        assert m.graph.degree(0) == 8
        assert m.graph.degree(9) == 8
        assert all(m.graph.degree(v) == 2 for v in range(1, 9))
        assert girth(m.graph) == 4

    def test_star_is_depth_one_tree(self):
        m = build(ModelSpec.complete_dary_tree(5, 1, WeightRule.constant(0.5)))
        assert m.p == 6
        assert m.graph.degree(0) == 5

    def test_tree_girth_infinite(self):
        m = build(ModelSpec.complete_dary_tree(2, 4, WeightRule.constant(0.4)))
        assert math.isinf(girth(m.graph))

    def test_cycle_girth(self):
        for p in (3, 5, 8):
            m = build(ModelSpec.cycle(p, WeightRule.constant(0.5)))
            assert girth(m.graph) == p

    def test_counterexample_girth_four(self):
        for d in (2, 3, 5):
            m = build(ModelSpec.counterexample(d, WeightRule.constant(0.9)))
            assert girth(m.graph) == 4

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            build(ModelSpec.grid(1, WeightRule.constant(0.5)))
        with pytest.raises(ValueError):
            build(ModelSpec.erdos_renyi(6, 1.5, 0, WeightRule.constant(0.5)))

    def test_erdos_renyi_connected_and_deterministic(self):
        a = build(ModelSpec.erdos_renyi(10, 0.3, 42, WeightRule.constant(0.5)))
        b = build(ModelSpec.erdos_renyi(10, 0.3, 42, WeightRule.constant(0.5)))
        assert a.graph == b.graph
        from greedymrf.models import graph_distance

        assert all(
            not math.isinf(graph_distance(a.graph, 0, v)) for v in range(10)
        )


class TestWeights:
    def test_build_deterministic_with_seeds(self):
        spec = ModelSpec.grid(3, WeightRule.uniform_range(0.1, 0.6, 7))
        assert build(spec).theta == build(spec).theta

    def test_uniform_range_respects_decay_precondition(self):
        degree = 3
        hi = max_theta_for_tree_decay(degree)
        spec = ModelSpec.complete_dary_tree(degree, 3, WeightRule.uniform_range(0.0, hi, 11))
        m = build(spec)
        assert all(0.0 < abs(t) < hi for t in m.theta.values())

    def test_random_sign_keeps_magnitude(self):
        spec = ModelSpec.grid(3, WeightRule.constant_magnitude_random_sign(0.5, 3))
        m = build(spec)
        assert all(abs(t) == 0.5 for t in m.theta.values())
        assert any(t < 0 for t in m.theta.values())

    def test_zero_constant_rejected(self):
        with pytest.raises(ValueError):
            build(ModelSpec.chain(3, WeightRule.constant(0.0)))


class TestCliGrammar:
    def test_model_strings(self):
        assert parse_model_string("grid:3") == ("grid", (3.0,))
        assert parse_model_string("tree:2,3") == ("tree", (2.0, 3.0))
        assert parse_model_string("er:10,0.3,42") == ("er", (10.0, 0.3, 42.0))
        with pytest.raises(ValueError):
            parse_model_string("blob:3")
        with pytest.raises(ValueError):
            parse_model_string("grid:3,4")

    def test_weight_strings(self):
        assert parse_weight_string("const:0.5") == WeightRule.constant(0.5)
        assert parse_weight_string("uniform:0.1,0.5,7") == WeightRule.uniform_range(0.1, 0.5, 7)
        with pytest.raises(ValueError):
            parse_weight_string("const:a")

    def test_model_from_strings(self):
        m = model_from_strings("counterexample:4", "const:0.9")
        assert m.p == 6
        assert all(t == 0.9 for t in m.theta.values())


# Every family and rule: its constructor and a strategy for valid arguments.
WHOLE = st.integers(0, 10**6)
REAL = st.floats(0.05, 2.0) | st.floats(-2.0, -0.05)
FAMILY_CASES = {
    "grid": (ModelSpec.grid, st.tuples(st.integers(2, 4))),
    "chain": (ModelSpec.chain, st.tuples(st.integers(2, 8))),
    "cycle": (ModelSpec.cycle, st.tuples(st.integers(3, 8))),
    "tree": (ModelSpec.complete_dary_tree, st.tuples(st.integers(1, 3), st.integers(1, 3))),
    "counterexample": (ModelSpec.counterexample, st.tuples(st.integers(1, 6))),
    "er": (ModelSpec.erdos_renyi, st.tuples(st.integers(2, 8), st.floats(0.4, 0.9), WHOLE)),
}
RULE_CASES = {
    "const": (WeightRule.constant, st.tuples(REAL)),
    "uniform": (WeightRule.uniform_range,
                st.tuples(st.floats(-1.0, 1.0), st.floats(0.01, 1.0), WHOLE)
                .map(lambda t: (t[0], t[0] + t[1], t[2]))),
    "randsign": (WeightRule.constant_magnitude_random_sign, st.tuples(REAL, WHOLE)),
}


def grammar_text(name, params):
    return f"{name}:{','.join(repr(x) for x in params)}"


def test_cases_cover_both_tables():
    assert set(FAMILY_CASES) == set(MODEL_FAMILIES)
    assert set(RULE_CASES) == set(WEIGHT_RULES)


class TestGrammarTables:
    @settings(max_examples=120, deadline=None)
    @given(data=st.data(), family=st.sampled_from(sorted(FAMILY_CASES)),
           rule=st.sampled_from(sorted(RULE_CASES)))
    def test_valid_strings_round_trip(self, data, family, rule):
        make_spec, family_args = FAMILY_CASES[family]
        make_rule, rule_args = RULE_CASES[rule]
        fargs, rargs = data.draw(family_args), data.draw(rule_args)
        spec = make_spec(*fargs, make_rule(*rargs))
        parsed = parse_model_string(grammar_text(family, fargs))
        assert parsed == (spec.family, spec.params)
        assert all(type(x) is float for x in parsed[1])
        assert parse_weight_string(grammar_text(rule, rargs)) == spec.weights
        model = model_from_strings(grammar_text(family, fargs), grammar_text(rule, rargs))
        expect = build(spec)
        assert model.graph == expect.graph and model.theta == expect.theta
        assert model_size(spec) == expect.p

    @staticmethod
    def bad_params(data, kinds):
        """Valid-looking params but for one that breaks the check."""
        params = [3.0 if kind is int else 0.5 for _, kind in kinds]
        at = data.draw(st.integers(0, len(kinds) - 1))
        bad = [math.inf, -math.inf, math.nan]
        if kinds[at][1] is int:
            bad.append(data.draw(st.floats(-100, 100).filter(lambda x: x != int(x))))
            bad.append(float(data.draw(st.integers(-10**6, -1))))
        params[at] = data.draw(st.sampled_from(bad))
        return tuple(params)

    @settings(max_examples=120, deadline=None)
    @given(data=st.data(), grammar=st.sampled_from(["model", "weight"]))
    def test_bad_params_are_rejected_by_parsers_and_build(self, data, grammar):
        table = MODEL_FAMILIES if grammar == "model" else WEIGHT_RULES
        name = data.draw(st.sampled_from(sorted(table)))
        kinds = table[name][1]
        params = self.bad_params(data, kinds)
        count = data.draw(st.sampled_from([n for n in range(5) if n != len(kinds)]))
        wrong_count = tuple([2.0] * count)
        parse = parse_model_string if grammar == "model" else parse_weight_string
        for text in (grammar_text(name, params), grammar_text(name, wrong_count),
                     grammar_text("nosuch", params)):
            with pytest.raises(ValueError):
                parse(text)
        good = WeightRule.constant(0.5)
        for bad in (params, wrong_count):
            spec = (ModelSpec(name, bad, good) if grammar == "model"
                    else ModelSpec.chain(3, WeightRule(name, bad)))
            with pytest.raises(ValueError):
                build(spec)

    @pytest.mark.parametrize("text", ["grid:3.7", "er:10.5,0.3,42", "tree:2,2.9",
                                      "grid:inf", "chain:1e400", "grid:nan"])
    def test_reported_model_strings_are_rejected(self, text):
        with pytest.raises(ValueError, match="must be a whole number"):
            parse_model_string(text)

    @pytest.mark.parametrize("parse, text, label", [
        (parse_weight_string, "randsign:0.5,-1", "SEED"),
        (parse_weight_string, "uniform:0.1,0.5,-3", "SEED"),
        (parse_model_string, "er:10,0.3,-1", "SEED"),
        (parse_model_string, "grid:-3", "K"),
        (parse_model_string, "tree:2,-1", "DEPTH"),
    ])
    def test_negative_whole_numbers_are_rejected(self, parse, text, label):
        with pytest.raises(ValueError, match=f"'{text.split(':')[0]}': {label} must be a "
                                             "whole number >= 0"):
            parse(text)

    def test_reported_weight_string_is_rejected(self):
        with pytest.raises(ValueError, match="SEED must be a whole number"):
            parse_weight_string("uniform:0.1,0.5,7.9")
        with pytest.raises(ValueError, match="T must be finite"):
            parse_weight_string("const:-inf")
