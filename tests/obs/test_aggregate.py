"""Per-rule cost accounting: stack replay, determinism, merges."""

import pytest

from repro.obs import (AGGREGATE_SCHEMA_VERSION, SOLVER_PREFIX, CostEntry,
                       RuleCostMap, costs_of_outcomes, render_top_rules)
from repro.trace.signature import RULE_PREFIX
from repro.trace.tracer import FunctionTrace, TraceEvent, UnitTrace


def span(seq, cat, name, depth, dur, **args):
    return TraceEvent(seq, TraceEvent.SPAN, cat, name, depth,
                      ts=0.0, dur=dur, args=args)


def synthetic_trace():
    """One rule span (0.10s) containing two solver spans (0.04s + 0.02s)
    and one unaccounted frontend span (0.01s), then a sibling rule."""
    events = [
        span(0, "rule", "owned_ptr", 0, 0.10, key="G:ptr"),
        span(1, "solver", "prove", 1, 0.04, outcome="auto", solver="arith"),
        span(2, "solver", "prove", 1, 0.02, outcome="manual"),
        span(3, "frontend", "lookup", 1, 0.01),
        span(4, "rule", "owned_ptr", 0, 0.05, key="G:ptr"),
        TraceEvent(5, TraceEvent.INSTANT, "rule", "noise", 0, ts=0.0),
    ]
    return UnitTrace("unit", [FunctionTrace("unit", "f", events)])


def test_stack_replay_totals_and_self():
    costs = RuleCostMap()
    costs.add_unit_trace(synthetic_trace())
    rule = costs.entries[f"{RULE_PREFIX}G:ptr:owned_ptr"]
    assert rule.count == 2
    assert rule.total_s == pytest.approx(0.15)
    # Self time subtracts *all* child spans, accounted or not.
    assert rule.self_s == pytest.approx(0.15 - 0.04 - 0.02 - 0.01)
    assert rule.max_s == pytest.approx(0.10)
    auto = costs.entries[f"{SOLVER_PREFIX}auto:arith"]
    assert (auto.count, auto.total_s) == (1, pytest.approx(0.04))
    assert f"{SOLVER_PREFIX}manual" in costs.entries
    # The frontend span and the instant event produce no keys.
    assert all(k.startswith((RULE_PREFIX, SOLVER_PREFIX))
               for k in costs.entries)


def test_rules_tactics_partition():
    costs = RuleCostMap()
    costs.add_unit_trace(synthetic_trace())
    assert set(costs.rules()) | set(costs.tactics()) == set(costs.entries)
    assert not (set(costs.rules()) & set(costs.tactics()))


def test_none_trace_is_noop():
    costs = RuleCostMap()
    costs.add_unit_trace(None)
    assert costs.entries == {}


def test_counts_schedule_independent(study_path):
    """The determinism contract: serial and jobs=2 runs hit the same keys
    the same number of times (wall fields may differ)."""
    from repro.frontend import verify_file
    serial = costs_of_outcomes(
        [verify_file(study_path("mpool"), trace=True, jobs=1)])
    parallel = costs_of_outcomes(
        [verify_file(study_path("mpool"), trace=True, jobs=2)])
    assert serial.entries.keys() == parallel.entries.keys()
    assert {k: v.count for k, v in serial.entries.items()} \
        == {k: v.count for k, v in parallel.entries.items()}
    assert any(k.startswith(RULE_PREFIX) for k in serial.entries)


def test_merge_of_per_unit_maps_equals_single_map(study_path):
    """Associativity: folding per-unit maps one by one gives the same
    totals as streaming every unit into one map."""
    from repro.frontend import verify_files
    outcomes = list(verify_files([study_path("mpool"),
                                  study_path("binary_search")],
                                 trace=True).values())
    single = costs_of_outcomes(outcomes)
    folded = RuleCostMap()
    for out in outcomes:
        per_unit = RuleCostMap()
        per_unit.add_unit_trace(out.trace)
        folded.merge(per_unit)
    assert folded.entries.keys() == single.entries.keys()
    for key, entry in single.entries.items():
        other = folded.entries[key]
        assert other.count == entry.count
        assert other.total_s == pytest.approx(entry.total_s)
        assert other.self_s == pytest.approx(entry.self_s)
        assert other.max_s == pytest.approx(entry.max_s)


def test_add_counts_iterable_and_mapping():
    a, b = RuleCostMap(), RuleCostMap()
    keys = [f"{RULE_PREFIX}G:int:int_lit", f"{RULE_PREFIX}G:int:int_lit",
            f"{SOLVER_PREFIX}auto", "coverage:unrelated"]
    a.add_counts(keys)
    b.add_counts({f"{RULE_PREFIX}G:int:int_lit": 2,
                  f"{SOLVER_PREFIX}auto": 1,
                  "coverage:unrelated": 9})
    assert {k: v.count for k, v in a.entries.items()} \
        == {k: v.count for k, v in b.entries.items()} \
        == {f"{RULE_PREFIX}G:int:int_lit": 2, f"{SOLVER_PREFIX}auto": 1}
    # Count-only entries carry no wall columns.
    assert all(v.total_s == 0.0 for v in a.entries.values())


def test_round_trip_and_version_check():
    costs = RuleCostMap()
    costs.add_unit_trace(synthetic_trace())
    data = costs.to_dict()
    assert data["schema_version"] == AGGREGATE_SCHEMA_VERSION
    again = RuleCostMap.from_dict(data)
    assert again.to_dict() == data
    data["schema_version"] = AGGREGATE_SCHEMA_VERSION + 1
    with pytest.raises(ValueError):
        RuleCostMap.from_dict(data)


def test_top_orders_by_total_then_key():
    costs = RuleCostMap()
    costs.entries[f"{RULE_PREFIX}b:slow"] = CostEntry(1, 2.0, 2.0, 2.0)
    costs.entries[f"{RULE_PREFIX}a:fast"] = CostEntry(9, 0.5, 0.5, 0.5)
    costs.entries[f"{RULE_PREFIX}c:tie"] = CostEntry(1, 0.5, 0.5, 0.5)
    costs.entries[f"{SOLVER_PREFIX}auto"] = CostEntry(1, 9.0, 9.0, 9.0)
    top = costs.top(10)
    assert [k for k, _ in top] == [f"{RULE_PREFIX}b:slow",
                                   f"{RULE_PREFIX}a:fast",
                                   f"{RULE_PREFIX}c:tie"]
    assert costs.top(1)[0][0] == f"{RULE_PREFIX}b:slow"


def test_top_falls_back_to_count_for_count_only_maps():
    costs = RuleCostMap()
    costs.add_counts({f"{RULE_PREFIX}a:rare": 1, f"{RULE_PREFIX}b:hot": 7})
    assert costs.top(1)[0][0] == f"{RULE_PREFIX}b:hot"


def test_render_top_rules_timed_and_count_only():
    timed = RuleCostMap()
    timed.add_unit_trace(synthetic_trace())
    table = render_top_rules(timed)
    assert "owned_ptr" in table and "ms" in table
    count_only = RuleCostMap()
    count_only.add_counts({f"{RULE_PREFIX}a:rule": 3})
    table = render_top_rules(count_only)
    assert "3" in table and "-" in table and "ms" not in table
    assert render_top_rules(RuleCostMap()) == "(no entries)"


def test_cost_keys_are_the_signature_cost_families(study_path):
    """One key vocabulary: the cost map names exactly the ``rule:`` and
    ``solver:`` keys of the coverage signature."""
    from repro.frontend import verify_file
    from repro.trace.signature import signature_of
    outcome = verify_file(study_path("mpool"), trace=True)
    costs = costs_of_outcomes([outcome])
    assert costs.rules() and costs.tactics()
    assert set(costs.entries) == {
        k for k in signature_of(outcome.trace)
        if k.startswith((RULE_PREFIX, SOLVER_PREFIX))}


def test_rule_costs_sum_to_the_trace_block(study_path):
    """The two views of the one walk agree: the ``rule:`` entry counts
    summed by rule name are the metrics ``trace`` block's rule counts."""
    from repro.frontend import verify_file
    outcome = verify_file(study_path("mpool"), trace=True)
    by_name: dict[str, int] = {}
    for key, entry in costs_of_outcomes([outcome]).rules().items():
        name = key.rsplit(":", 1)[1]
        by_name[name] = by_name.get(name, 0) + entry.count
    assert by_name == {name: agg["count"] for name, agg
                       in outcome.metrics.trace["rules"].items()}


def test_each_unit_trace_is_replayed_once(study_path, monkeypatch):
    """The trace summary (during the run) and the cost map (after it)
    read one profile per unit: every buffer's events are walked once,
    however often the trace is profiled."""
    from repro.driver import pool
    from repro.frontend import verify_files
    from repro.trace.profile import trace_summary

    walks = []

    class CountingEvents(list):
        def __iter__(self):
            walks.append(id(self))
            return super().__iter__()

    merge = pool.merge_function_traces

    def counting_merge(*args, **kwargs):
        unit_trace = merge(*args, **kwargs)
        for buf in unit_trace.buffers:
            buf.events = CountingEvents(buf.events)
        return unit_trace

    monkeypatch.setattr(pool, "merge_function_traces", counting_merge)
    outcomes = list(verify_files([study_path("mpool"),
                                  study_path("binary_search")],
                                 trace=True).values())
    assert costs_of_outcomes(outcomes).rules()
    for out in outcomes:
        trace_summary(out.trace)
    buffers = [id(buf.events) for out in outcomes
               for buf in out.trace.buffers]
    assert buffers and sorted(walks) == sorted(buffers)
