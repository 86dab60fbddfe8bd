"""Coverage signatures, the cumulative map, and the steering policy."""

import random

import pytest

from repro.fuzz.coverage import (SATURATED_MIN_RUNS, STALE_ROUNDS,
                                 CoverageMap, SteeringState, oracle_keys,
                                 template_weights)
from repro.fuzz.generator import TEMPLATES, generate_program
from repro.fuzz.oracle import check_program
from repro.trace.signature import RULE_PREFIX, rule_keys, signature_of

pytestmark = pytest.mark.fuzz


def _signature(name="arith", seed="cov"):
    template = TEMPLATES[name]
    params = template.sample_params(random.Random(f"{seed}:{name}"))
    res = check_program(template.build(params), coverage=True)
    assert res.signature is not None
    return res.signature


class TestSignatures:
    def test_coverage_check_carries_signature(self):
        sig = _signature("arith")
        assert sig, "a verified program must exercise at least one rule"
        assert any(k.startswith(RULE_PREFIX) for k in sig)
        assert any(k.startswith("step:") for k in sig)

    def test_rule_keys_carry_dispatch_granularity(self):
        # (judgment, type-constructor) pairs, not just rule names: an
        # arith program must show which operand types hit the binop rule
        sig = _signature("arith")
        binops = [k for k in rule_keys(sig) if ":binop:" in k]
        assert binops and all("int" in k for k in binops)

    def test_signature_is_deterministic(self):
        assert _signature("loop_sum") == _signature("loop_sum")

    def test_templates_differ_in_signature(self):
        assert _signature("arith") != _signature("ptr_inc")

    def test_no_coverage_means_no_signature(self):
        template = TEMPLATES["arith"]
        params = template.sample_params(random.Random("cov:off"))
        res = check_program(template.build(params), coverage=False)
        assert res.signature is None

    def test_signature_of_none_trace(self):
        assert signature_of(None) == frozenset()


class TestCoverageMap:
    def test_observe_reports_new_keys_once(self):
        m = CoverageMap()
        assert set(m.observe(["a", "b"], 3)) == {"a", "b"}
        assert m.observe(["a"], 5) == []
        assert m.counts == {"a": 2, "b": 1}
        assert m.first_seen == {"a": 3, "b": 3}

    def test_first_seen_takes_minimum_index(self):
        m = CoverageMap()
        m.observe(["k"], 9)
        m.observe(["k"], 2)
        assert m.first_seen["k"] == 2

    def test_missing_lists_unexercised_baseline_keys(self):
        m = CoverageMap()
        m.observe(["rule:a", "rule:b"], 0)
        assert m.missing(["rule:a", "rule:c", "rule:b"]) == ["rule:c"]

    def test_roundtrip_and_schema_guard(self):
        m = CoverageMap()
        m.observe(["rule:a", "step:b"], 7)
        back = CoverageMap.from_dict(m.to_dict())
        assert back.counts == m.counts and back.first_seen == m.first_seen
        bad = m.to_dict()
        bad["coverage_schema_version"] = 999
        with pytest.raises(ValueError, match="schema"):
            CoverageMap.from_dict(bad)

    def test_category_counts(self):
        m = CoverageMap()
        m.observe(["rule:a", "rule:b", "exec:pass", "ub:oob"], 0)
        assert m.category_counts() == {"exec": 1, "rule": 2, "ub": 1}


class TestSteering:
    def test_unexplored_templates_get_boosted(self):
        state = SteeringState()
        state.observe("old", 0, 0)
        w = template_weights(["old", "new"], state, 1)
        assert w["new"] > w["old"]

    def test_novel_templates_keep_their_boost(self):
        state = SteeringState()
        for _ in range(SATURATED_MIN_RUNS):
            state.observe("novel", 2, 5)
            state.observe("stale", 0, 0)
        w = template_weights(["novel", "stale"], state, 5 + STALE_ROUNDS)
        assert w["novel"] > w["stale"]

    def test_saturated_templates_are_damped_but_never_zero(self):
        state = SteeringState()
        for _ in range(SATURATED_MIN_RUNS):
            state.observe("sat", 0, 0)
        w = template_weights(["sat"], state, STALE_ROUNDS + 5)
        assert 0.0 < w["sat"] < 1.0

    def test_lightly_sampled_templates_are_never_damped(self):
        # fewer than SATURATED_MIN_RUNS samples is not enough evidence
        # of saturation, even with no new keys for many rounds
        state = SteeringState()
        state.observe("young", 0, 0)
        w = template_weights(["young"], state, 50)
        assert w["young"] >= 1.0

    def test_weights_are_pure_function_of_history(self):
        state = SteeringState()
        state.observe("a", 3, 0)
        state.observe("b", 0, 0)
        assert template_weights(["a", "b"], state, 1) == \
            template_weights(["a", "b"], state, 1)

    def test_weighted_generation_is_deterministic(self):
        w = {"arith": 5.0, "div": 0.5}
        a = generate_program(11, 4, ["arith", "div"], weights=w)
        b = generate_program(11, 4, ["arith", "div"], weights=w)
        assert a.source == b.source and a.template == b.template

    def test_oracle_keys_vocabulary(self):
        assert oracle_keys("pass", None) == ["exec:pass"]
        assert oracle_keys("ub", "use-after-free") == \
            ["exec:ub", "ub:use-after-free"]
        assert oracle_keys(None, None) == []
