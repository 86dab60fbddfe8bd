"""The driver metrics layer: per-phase timings, counters, JSON export."""

import json

from repro.driver import merge_metrics
from repro.driver.metrics import METRICS_SCHEMA_VERSION, DriverMetrics
from repro.frontend import verify_file
from repro.lithium.search import TELEMETRY_KEYS, Stats
from repro.refinedc.checker import FunctionResult

from .conftest import study_path


def test_phase_timings_recorded():
    out = verify_file(study_path("mpool"))
    m = out.metrics
    assert m is not None
    assert m.phases.parse_s > 0
    assert m.phases.elaborate_s > 0
    assert m.phases.search_s > 0
    assert m.phases.solver_s >= 0
    assert m.wall_s > 0


def test_solver_time_is_part_of_check_time():
    out = verify_file(study_path("free_list"))
    for f in out.metrics.functions:
        assert 0 <= f.solver_s <= f.wall_s + 1e-6
    for fr in out.result.functions.values():
        assert fr.stats.solver_calls > 0


def test_function_metrics_match_results():
    out = verify_file(study_path("mpool"))
    assert [f.name for f in out.metrics.functions] \
        == list(out.result.functions)
    for f in out.metrics.functions:
        fr = out.result.functions[f.name]
        assert f.ok == fr.ok
        assert f.counters == fr.stats.counters()


def test_json_export_schema():
    out = verify_file(study_path("mpool"))
    data = json.loads(out.metrics.to_json())
    assert data["schema_version"] == METRICS_SCHEMA_VERSION == 8
    assert data["jobs"] == 1
    assert set(data["phases"]) == {"parse_s", "elaborate_s", "search_s",
                                   "solver_s"}
    assert isinstance(data["functions"], list)
    fn = data["functions"][0]
    assert {"name", "ok", "cache", "wall_s", "solver_s",
            "counters", "solver_cache_hits",
            "dispatch_table_hits"} <= set(fn)
    assert fn["counters"]["backtracks"] == 0
    # The engine telemetry must never leak into the deterministic counters
    # — the exclusion list is the single shared TELEMETRY_KEYS constant.
    for key in TELEMETRY_KEYS:
        assert key not in fn["counters"]
    assert data["dispatch_table_hits"] > 0
    # v8 dropped the interned/compiled term counters.
    for gone in ("terms_interned", "terms_compiled"):
        assert gone not in data and gone not in fn


def test_json_v4_incremental_counters(tmp_path):
    """Clean/dirty counts are 0 for uncached runs, where every function
    is re-checked, and populated by the incremental driver, whose no-op
    rerun re-checks nothing."""
    out = verify_file(study_path("mpool"))
    data = json.loads(out.metrics.to_json())
    assert data["functions_clean"] == 0
    assert data["functions_dirty"] == 0
    assert data["functions_rechecked"] == len(data["functions"])

    cold = verify_file(study_path("mpool"), cache_dir=tmp_path)
    assert cold.metrics.counts()["dirty"] \
        == cold.metrics.counts()["rechecked"] == len(data["functions"])
    warm = verify_file(study_path("mpool"), cache_dir=tmp_path)
    data = json.loads(warm.metrics.to_json())
    assert data["functions_clean"] == len(data["functions"])
    assert data["functions_dirty"] == 0
    assert data["functions_rechecked"] == 0
    assert {f["cache"] for f in data["functions"]} == {"clean"}


def test_json_v5_compiled_telemetry():
    """Schema v5: dispatch-table telemetry is populated on a cold pass,
    and cache warmth never changes the deterministic counters
    (round-trips through JSON either way)."""
    from repro.pure.memo import clear_pure_caches

    clear_pure_caches()
    cold = json.loads(verify_file(study_path("mpool")).metrics.to_json())
    warm = json.loads(verify_file(study_path("mpool")).metrics.to_json())

    assert cold["dispatch_table_hits"] > 0
    assert warm["dispatch_table_hits"] > 0
    for w, c in zip(warm["functions"], cold["functions"]):
        assert w["counters"] == c["counters"]
        assert w["ok"] == c["ok"]
    assert cold == json.loads(json.dumps(cold))   # JSON round-trip
    assert warm == json.loads(json.dumps(warm))


def test_merge_metrics_sums_compiled_telemetry():
    a = verify_file(study_path("mpool")).metrics
    b = verify_file(study_path("spinlock")).metrics
    total = merge_metrics([a, b])
    assert total.dispatch_table_hits \
        == a.dispatch_table_hits + b.dispatch_table_hits
    assert total.solver_cache_hits \
        == a.solver_cache_hits + b.solver_cache_hits


def test_json_v3_trace_key_absent_when_off():
    """An untraced v3 record must stay byte-compatible with v2 consumers:
    no ``trace`` key at all (not a null), and a round-trip through JSON
    preserves every field."""
    out = verify_file(study_path("mpool"), trace=False)
    data = json.loads(out.metrics.to_json())
    assert "trace" not in data
    assert data["units"] == []
    again = json.loads(out.metrics.to_json())
    assert again == data


def test_json_v3_trace_block_present_when_on():
    out = verify_file(study_path("mpool"), trace=True)
    data = json.loads(out.metrics.to_json())
    assert data["schema_version"] == METRICS_SCHEMA_VERSION
    block = data["trace"]
    assert {"events", "dropped", "rules", "solver",
            "slowest_prove"} <= set(block)
    assert block["events"] > 0
    assert data == json.loads(json.dumps(data))   # JSON-clean


def test_summary_lines():
    out = verify_file(study_path("mpool"), trace=False)
    summary = out.metrics.summary()
    assert "driver: jobs=1" in summary
    assert "phases: parse" in summary
    assert "trace:" not in summary
    traced = verify_file(study_path("mpool"), trace=True)
    assert "trace:" in traced.metrics.summary()


def test_report_renders_metrics():
    out = verify_file(study_path("mpool"))
    report = out.report()
    assert "driver: jobs=1" in report
    assert "phases: parse" in report


def test_merge_metrics_aggregates():
    a = verify_file(study_path("mpool")).metrics
    b = verify_file(study_path("spinlock")).metrics
    total = merge_metrics([a, b])
    assert len(total.functions) == len(a.functions) + len(b.functions)
    assert abs(total.phases.search_s
               - (a.phases.search_s + b.phases.search_s)) < 1e-9
    assert total.functions_clean == 0 and total.functions_dirty == 0
    assert total.functions_rechecked \
        == a.functions_rechecked + b.functions_rechecked
    assert total.counts()["functions"] == len(total.functions)


def test_merge_metrics_preserves_unit_names():
    """Regression: merging used to drop the per-unit study names; they
    must be preserved, in input order, in the ``units`` list."""
    a = verify_file(study_path("mpool")).metrics
    b = verify_file(study_path("spinlock")).metrics
    total = merge_metrics([a, b])
    assert total.units == ["mpool", "spinlock"]
    assert total.study == "<all>"
    data = json.loads(total.to_json())
    assert data["units"] == ["mpool", "spinlock"]


def test_merge_metrics_merges_trace_blocks():
    a = verify_file(study_path("mpool"), trace=True).metrics
    b = verify_file(study_path("spinlock"), trace=True).metrics
    total = merge_metrics([a, b])
    assert total.trace is not None
    assert total.trace["events"] == a.trace["events"] + b.trace["events"]
    for name, agg in a.trace["rules"].items():
        merged = total.trace["rules"][name]
        expect = agg["count"] + b.trace["rules"].get(name,
                                                     {}).get("count", 0)
        assert merged["count"] == expect
    assert len(total.trace["slowest_prove"]) <= 5
    durs = [c["dur_s"] for c in total.trace["slowest_prove"]]
    assert durs == sorted(durs, reverse=True)


def test_cache_hit_rate():
    """The result-cache ratio is clean / (clean + dirty), derived from
    the per-function cache states; uncached functions do not count."""
    m = DriverMetrics()
    assert m.cache_effectiveness()["result_cache"]["ratio"] is None
    for i, state in enumerate(["clean"] * 3 + ["dirty", "off"]):
        m.add_function(FunctionResult(f"f{i}", True, Stats()), state, 0.0)
    assert m.cache_effectiveness()["result_cache"] == {
        "hits": 3, "total": 4, "ratio": 0.75}
    assert m.counts() == {"functions": 5, "clean": 3, "dirty": 1,
                          "rechecked": 0, "failed": 0}


def test_json_v6_cache_effectiveness_block():
    """Schema v6: every record carries the derived cache-effectiveness
    block; never-exercised layers report ``ratio: null`` ("unused"),
    never 0.0 ("0% effective")."""
    out = verify_file(study_path("mpool"))
    data = json.loads(out.metrics.to_json())
    eff = data["cache_effectiveness"]
    assert set(eff) == {"result_cache", "solver_memo", "dispatch_table"}
    # Cache off, serial run: the result cache never ran, while the
    # solver memo has a live denominator.
    assert eff["result_cache"]["total"] == 0
    assert eff["result_cache"]["ratio"] is None
    assert eff["solver_memo"]["total"] > 0
    assert eff["dispatch_table"]["rule_applications"] > 0


def test_merge_metrics_sums_elab_memo_counters():
    a = verify_file(study_path("mpool")).metrics
    b = verify_file(study_path("spinlock")).metrics
    a.elab_memo_hits, a.elab_memo_misses = 3, 1
    b.elab_memo_hits, b.elab_memo_misses = 2, 2
    total = merge_metrics([a, b])
    assert total.elab_memo_hits == 5
    assert total.elab_memo_misses == 3
