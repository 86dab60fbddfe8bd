"""Self-profile construction: self-time attribution, rule aggregation,
slowest-goal ranking and the metrics trace-summary block."""

from repro.trace import profile
from repro.trace.profile import build_profile, render_profile, trace_summary
from repro.trace.tracer import FunctionTrace, TraceEvent, UnitTrace


def span(seq, cat, name, depth, ts, dur, **args):
    return TraceEvent(seq, "X", cat, name, depth, ts=ts, dur=dur, args=args)


def instant(seq, cat, name, depth, ts, **args):
    return TraceEvent(seq, "i", cat, name, depth, ts=ts, args=args)


def synthetic_trace():
    """check(10s) > rule A(6s) > solver.prove(4s); plus a sibling rule B
    and two memo instants.  Durations are picked so the expected self
    times are exact."""
    events = [
        span(0, "check", "f", 0, ts=0.0, dur=10.0),
        span(1, "rule", "A", 1, ts=0.5, dur=6.0, goal="J"),
        span(2, "solver", "prove", 2, ts=1.0, dur=4.0,
             goal="le(0, n)", outcome="proved", solver="default"),
        instant(3, "memo", "miss", 3, ts=1.5, cache="prove"),
        span(4, "rule", "B", 1, ts=7.0, dur=2.0, goal="J"),
        span(5, "solver", "prove", 2, ts=7.5, dur=1.0,
             goal="False", outcome="failed", solver="default"),
        instant(6, "memo", "hit", 3, ts=7.6, cache="prove"),
    ]
    return UnitTrace("u", [FunctionTrace("u", "f", events)])


class TestBuildProfile:
    def test_self_time_excludes_direct_children(self):
        prof = build_profile(synthetic_trace())
        check = prof.spans[("check", "f")]
        assert check.total_s == 10.0
        assert check.self_s == 10.0 - 6.0 - 2.0
        rule_a = prof.spans[("rule", "A")]
        assert rule_a.total_s == 6.0
        assert rule_a.self_s == 6.0 - 4.0

    def test_rules_aggregate_by_name(self):
        rules = build_profile(synthetic_trace()).rules()
        assert set(rules) == {"A", "B"}
        assert rules["A"].count == 1

    def test_instants_counted(self):
        prof = build_profile(synthetic_trace())
        assert prof.instants[("memo", "miss")] == 1
        assert prof.instants[("memo", "hit")] == 1

    def test_slowest_prove_ranked_and_labelled(self):
        prof = build_profile(synthetic_trace())
        # Every prove call is kept; readers slice to their own length.
        assert [c.dur_s for c in prof.slowest_prove] == [4.0, 1.0]
        top = prof.slowest_prove[0]
        assert top.function == "f"
        assert top.goal == "le(0, n)"
        assert top.outcome == "proved"

    def test_unclosed_span_counts_as_zero_duration(self):
        events = [span(0, "check", "f", 0, ts=0.0, dur=None)]
        prof = build_profile(UnitTrace("u", [FunctionTrace("u", "f",
                                                           events)]))
        assert prof.spans[("check", "f")].total_s == 0.0


class TestRenderProfile:
    def test_contains_tables_and_slow_goals(self):
        text = render_profile(build_profile(synthetic_trace()))
        assert "trace profile: 7 event(s)" in text
        assert "rule" in text and "A" in text and "B" in text
        assert "memo.miss" in text
        assert "slowest solver goals" in text
        assert "le(0, n)" in text

    def test_top_n_caps_slow_list(self):
        text = render_profile(build_profile(synthetic_trace()), top_n=1)
        assert "top 1 slowest solver goals" in text
        assert "le(0, n)" in text and "False" not in text

    def test_mentions_drops(self):
        trace = synthetic_trace()
        trace.buffers[0].dropped = 9
        assert "9 dropped" in render_profile(build_profile(trace))


class TestTraceSummary:
    def test_block_shape(self):
        block = trace_summary(synthetic_trace())
        assert block["events"] == 7
        assert block["dropped"] == 0
        assert block["rules"]["A"] == {"count": 1, "total_s": 6.0,
                                       "self_s": 2.0}
        assert block["solver"]["prove_calls"] == 2
        assert block["solver"]["prove_total_s"] == 5.0
        assert block["solver"]["memo_hits"] == 1
        assert block["solver"]["memo_misses"] == 1
        assert [c["dur_s"] for c in block["slowest_prove"]] == [4.0, 1.0]

    def test_slowest_prove_capped_at_module_length(self, monkeypatch):
        monkeypatch.setattr(profile, "SLOWEST_PROVE_N", 1)
        block = trace_summary(synthetic_trace())
        assert [c["dur_s"] for c in block["slowest_prove"]] == [4.0]

    def test_json_compatible(self):
        import json
        json.dumps(trace_summary(synthetic_trace()))
