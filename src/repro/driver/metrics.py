"""Per-phase metrics for the verification driver.

The driver times each phase of Figure 2's pipeline — **parse** (text →
CST), **elaborate** (CST → Caesium + specs), **search** (Lithium rule
application) and **solver** (pure side-condition discharge, measured
inside :class:`~repro.lithium.search.SearchState`) — and records the
deterministic :meth:`~repro.lithium.search.Stats.counters` per function,
plus the clean/dirty/re-checked run counts.

Everything is exportable as JSON (``DriverMetrics.to_json``) with the
schema documented in README.md, and rendered in
``VerificationOutcome.report()`` and the Figure 7 tables of
:mod:`repro.report`.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from typing import Optional

from ..lithium.search import TELEMETRY_KEYS

# Bumped whenever a field is added, removed or changes meaning; README.md
# ("Metrics JSON schema") keeps the history.  Records are written, never
# read back, so there is no loader.  v7: the result-cache hit, miss and
# reuse counters, their hit rate and the ``depgraph`` effectiveness layer
# are gone (they always equalled the clean/dirty counts), and
# ``functions_rechecked`` counts the checks that ran in this call.
METRICS_SCHEMA_VERSION = 7


@dataclass
class PhaseTimings:
    """Wall seconds per pipeline phase.  ``search_s`` is the time spent in
    Lithium proof search *excluding* the pure solver; ``solver_s`` is the
    time inside ``PureSolver.prove``.  For parallel runs the search/solver
    entries are summed per-function wall times (CPU-like), not elapsed
    time — elapsed time is ``DriverMetrics.wall_s``."""

    parse_s: float = 0.0
    elaborate_s: float = 0.0
    search_s: float = 0.0
    solver_s: float = 0.0

    @property
    def total_s(self) -> float:
        return self.parse_s + self.elaborate_s + self.search_s \
            + self.solver_s


@dataclass
class FunctionMetrics:
    """Driver-level accounting for one verified function."""

    name: str
    ok: bool
    cache: str = "off"    # "off" | "clean" | "dirty"
    wall_s: float = 0.0           # check wall time (original, if cached)
    solver_s: float = 0.0
    counters: dict = field(default_factory=dict)  # Stats.counters()
    # Engine telemetry (schema v2).  Not part of ``counters`` — these vary
    # with the cache configuration while counters stay byte-identical.
    solver_cache_hits: int = 0
    terms_interned: int = 0
    # Compiled hot path telemetry (schema v5) — same exclusion rationale.
    dispatch_table_hits: int = 0
    terms_compiled: int = 0


@dataclass
class DriverMetrics:
    """Everything the driver measured for one translation unit.

    The one place that counts: every surface (``verify --json``, the
    daemon stream and ledger record, the Figure 7 table) renders
    :meth:`counts` instead of tallying on its own."""

    study: str = ""
    jobs: int = 1
    cache_enabled: bool = False
    wall_s: float = 0.0           # elapsed checking time (excl. front end)
    solver_cache_hits: int = 0    # summed over live (non-"clean") functions
    terms_interned: int = 0
    dispatch_table_hits: int = 0
    terms_compiled: int = 0
    # Functions whose check ran in this call (counted by ``run_units``):
    # neither a clean reuse nor a spec'd function without a body.
    functions_rechecked: int = 0
    # Always 0 (workers receive pickled programs and never elaborate);
    # kept while the benchmark still reads them.
    elab_memo_hits: int = 0
    elab_memo_misses: int = 0
    phases: PhaseTimings = field(default_factory=PhaseTimings)
    functions: list[FunctionMetrics] = field(default_factory=list)
    # The unit names aggregated by ``merge_metrics`` (empty for a
    # single-unit record) and the optional tracing summary — ``None``
    # whenever the run was not traced (the JSON key is then omitted).
    units: list[str] = field(default_factory=list)
    trace: Optional[dict] = None

    # ------------------------------------------------------------
    def add_function(self, fr, state: str, wall_s: float) -> None:
        """Record one function's outcome ``fr`` (a ``FunctionResult``)
        with its cache ``state`` and check wall time."""
        stats = fr.stats
        fm = FunctionMetrics(fr.name, fr.ok, state, wall_s,
                             stats.solver_time, stats.counters(),
                             **{key: getattr(stats, key)
                                for key in TELEMETRY_KEYS})
        self.functions.append(fm)
        if state != "clean":
            # Cached entries report the *original* run's times; only live
            # checks contribute to this unit's phase totals.
            self.phases.search_s += max(0.0, wall_s - fm.solver_s)
            self.phases.solver_s += fm.solver_s
            for key in TELEMETRY_KEYS:
                setattr(self, key, getattr(self, key) + getattr(fm, key))

    @property
    def functions_clean(self) -> int:
        return sum(1 for f in self.functions if f.cache == "clean")

    @property
    def functions_dirty(self) -> int:
        return sum(1 for f in self.functions if f.cache == "dirty")

    def counts(self) -> dict:
        """The run counts of this record: functions reported, reused
        clean, planned dirty, re-checked in this call, and failed."""
        return {"functions": len(self.functions),
                "clean": self.functions_clean,
                "dirty": self.functions_dirty,
                "rechecked": self.functions_rechecked,
                "failed": sum(1 for f in self.functions if not f.ok)}

    # ------------------------------------------------------------
    def cache_effectiveness(self) -> dict:
        """One ``{hits, total, ratio}`` entry per caching layer of the
        stack.  ``ratio`` is ``None`` when a layer never ran (zero
        denominator) — "unused" and "0% effective" are different facts,
        and the regression sentinel must not confuse them.  The
        dispatch-table entry reports hits *per rule application* (a rate,
        not a hit ratio: the flat table is consulted on every lookup and
        several lookups may serve one application)."""
        def ratio_block(hits: int, total: int) -> dict:
            return {"hits": hits, "total": total,
                    "ratio": round(hits / total, 4) if total else None}

        live = [f for f in self.functions if f.cache != "clean"]
        solver_calls = sum(f.counters.get("solver_calls", 0) for f in live)
        rule_apps = sum(f.counters.get("rule_applications", 0)
                        for f in live)
        clean = self.functions_clean
        return {
            "result_cache": ratio_block(clean,
                                        clean + self.functions_dirty),
            "solver_memo": ratio_block(self.solver_cache_hits,
                                       solver_calls),
            "dispatch_table": {
                "hits": self.dispatch_table_hits,
                "rule_applications": rule_apps,
                "per_application": (round(self.dispatch_table_hits
                                          / rule_apps, 4)
                                    if rule_apps else None),
            },
        }

    # ------------------------------------------------------------
    def to_dict(self) -> dict:
        d = asdict(self)
        d["schema_version"] = METRICS_SCHEMA_VERSION
        d["functions_clean"] = self.functions_clean
        d["functions_dirty"] = self.functions_dirty
        d["cache_effectiveness"] = self.cache_effectiveness()
        if d.get("trace") is None:
            d.pop("trace", None)
        return d

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    # ------------------------------------------------------------
    def summary(self) -> str:
        """The human-readable lines appended to
        ``VerificationOutcome.report()``."""
        p = self.phases
        lines = [
            f"driver: jobs={self.jobs}, "
            f"{len(self.functions)} function(s), "
            f"{self.functions_rechecked} re-checked, "
            f"wall {self.wall_s * 1e3:.1f}ms"
            + (f", cache {self.functions_clean} clean / "
               f"{self.functions_dirty} dirty"
               if self.cache_enabled else ", cache off"),
            f"phases: parse {p.parse_s * 1e3:.1f}ms, "
            f"elaborate {p.elaborate_s * 1e3:.1f}ms, "
            f"search {p.search_s * 1e3:.1f}ms, "
            f"solver {p.solver_s * 1e3:.1f}ms",
        ]
        if self.solver_cache_hits or self.terms_interned:
            lines.append(
                f"engine: {self.solver_cache_hits} solver-cache hit(s), "
                f"{self.terms_interned} term(s) interned")
        if self.dispatch_table_hits or self.terms_compiled:
            lines.append(
                f"compiled: {self.dispatch_table_hits} dispatch-table "
                f"hit(s), {self.terms_compiled} term(s) compiled")
        if self.trace is not None:
            solver = self.trace.get("solver", {})
            lines.append(
                f"trace: {self.trace.get('events', 0)} event(s), "
                f"{len(self.trace.get('rules', {}))} rule kind(s), "
                f"{solver.get('prove_calls', 0)} solver call(s)"
                + (f", {self.trace.get('dropped', 0)} dropped"
                   if self.trace.get("dropped") else ""))
        return "\n".join(lines)


def merge_metrics(per_unit: list[DriverMetrics]) -> DriverMetrics:
    """Aggregate the metrics of several translation units (e.g. the whole
    Figure 7 evaluation) into one summary record.

    The per-unit ``study`` names are preserved in ``units`` (in input
    order), so a merged record still identifies what it aggregates; the
    clean/dirty counts derive from the concatenated function records.
    Trace summary blocks, when present, are merged (counts and times
    summed per rule, slowest solver calls re-ranked)."""
    total = DriverMetrics(study="<all>")
    for m in per_unit:
        total.units.append(m.study)
        total.jobs = max(total.jobs, m.jobs)
        total.cache_enabled = total.cache_enabled or m.cache_enabled
        total.wall_s += m.wall_s
        for key in TELEMETRY_KEYS + ("functions_rechecked",
                                     "elab_memo_hits", "elab_memo_misses"):
            setattr(total, key, getattr(total, key) + getattr(m, key))
        total.phases.parse_s += m.phases.parse_s
        total.phases.elaborate_s += m.phases.elaborate_s
        total.phases.search_s += m.phases.search_s
        total.phases.solver_s += m.phases.solver_s
        total.functions.extend(m.functions)
        if m.trace is not None:
            total.trace = _merge_trace_blocks(total.trace, m.trace)
    return total


def _merge_trace_blocks(into: Optional[dict], block: dict) -> dict:
    """Merge one unit's ``trace`` summary block into the accumulator."""
    if into is None:
        into = {"events": 0, "dropped": 0, "rules": {},
                "solver": {"prove_calls": 0, "prove_total_s": 0.0,
                           "memo_hits": 0, "memo_misses": 0},
                "slowest_prove": []}
    into["events"] += block.get("events", 0)
    into["dropped"] += block.get("dropped", 0)
    for name, agg in block.get("rules", {}).items():
        tot = into["rules"].setdefault(
            name, {"count": 0, "total_s": 0.0, "self_s": 0.0})
        tot["count"] += agg.get("count", 0)
        tot["total_s"] = round(tot["total_s"] + agg.get("total_s", 0.0), 6)
        tot["self_s"] = round(tot["self_s"] + agg.get("self_s", 0.0), 6)
    solver = block.get("solver", {})
    for key in ("prove_calls", "memo_hits", "memo_misses"):
        into["solver"][key] += solver.get(key, 0)
    into["solver"]["prove_total_s"] = round(
        into["solver"]["prove_total_s"] + solver.get("prove_total_s", 0.0),
        6)
    merged = into["slowest_prove"] + list(block.get("slowest_prove", []))
    merged.sort(key=lambda c: -c.get("dur_s", 0.0))
    into["slowest_prove"] = merged[:5]
    return into
