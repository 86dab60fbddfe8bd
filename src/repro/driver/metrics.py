"""Per-phase metrics for the verification driver.

The driver times each phase of Figure 2's pipeline — **parse** (text →
CST), **elaborate** (CST → Caesium + specs), **search** (Lithium rule
application) and **solver** (pure side-condition discharge, measured
inside :class:`~repro.lithium.search.SearchState`) — and records the
deterministic :meth:`~repro.lithium.search.Stats.counters` per function,
plus cache hit/miss accounting.

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

# Schema history:
#   1 — initial per-phase metrics.
#   2 — adds per-function and per-unit ``solver_cache_hits`` (pure-solver
#       memoization hits) and ``terms_interned`` (hash-consed term nodes
#       allocated during the check).
#   3 — adds the per-unit ``units`` list (the unit names a merged record
#       aggregates; empty for a single-unit record) and the *optional*
#       ``trace`` summary block (per-rule counts/time, solver/memo
#       roll-ups — see ``repro.trace.profile.trace_summary``).  The
#       ``trace`` key is **absent** when tracing is off, so v2 consumers
#       that ignore unknown keys keep working byte-for-byte.
#   4 — incremental re-verification (repro.driver.incremental): the
#       per-function ``cache`` state gains "clean" (transitive input key
#       unchanged, cached outcome reused without re-checking) and "dirty"
#       (an input changed — or a callee's spec rippled — so the function
#       was re-checked), and the per-unit record gains the counters
#       ``functions_clean`` / ``functions_dirty`` / ``results_reused``.
#       All three are 0 for uncached runs, so v3 consumers keep working
#       unchanged.  Every cached run is planned, so new records carry
#       only "off" | "clean" | "dirty"; older records may also carry the
#       hit and miss states of a retired per-function key, and still load
#       unchanged.
#   5 — compiled hot path: the per-function and per-unit records gain
#       ``dispatch_table_hits`` (flat-table rule dispatch hits) and
#       ``terms_compiled`` (closure forms stamped onto interned nodes,
#       counted by ``repro.pure.memo.note_compiled``).  Like
#       ``solver_cache_hits``, both are telemetry — excluded from
#       ``counters`` so outcomes stay byte-identical whether the pure
#       caches start cold or warm.
#   6 — observability (repro.obs): the per-unit record gains
#       ``elab_memo_hits`` / ``elab_memo_misses`` and the derived
#       ``cache_effectiveness`` block — one hits/total/ratio entry per
#       caching layer (result cache, solver memo, dispatch table,
#       depgraph reuse) — consumed by the run ledger
#       (``repro.obs.ledger``) and the regression sentinel.  The two
#       ``elab_memo_*`` counters once measured the workers' elaboration
#       memo; workers now receive pickled programs and never elaborate,
#       so both are always 0 and no longer feed ``cache_effectiveness``.
#       They stay in the record (and in ``from_dict``) for readers of
#       older v6 records.  v5 records still load through
#       ``DriverMetrics.from_dict`` (the new fields default to 0;
#       derived blocks are always recomputed).
METRICS_SCHEMA_VERSION = 6


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
    """Everything the driver measured for one translation unit."""

    study: str = ""
    jobs: int = 1
    cache_enabled: bool = False
    cache_hits: int = 0
    cache_misses: int = 0
    wall_s: float = 0.0           # elapsed checking time (excl. front end)
    solver_cache_hits: int = 0    # summed over live (non-"clean") functions
    terms_interned: int = 0
    dispatch_table_hits: int = 0  # schema v5, summed like the two above
    terms_compiled: int = 0
    # Schema v4: incremental re-verification accounting.  ``clean`` =
    # transitive input key unchanged; ``dirty`` = re-checked; ``reused``
    # = cached outcomes restored for clean functions.
    functions_clean: int = 0
    functions_dirty: int = 0
    results_reused: int = 0
    # Schema v6: per-worker elaborated-program cache accounting.  Workers
    # no longer elaborate (they receive pickled programs), so both are
    # always 0; kept so v6 records keep their shape and old readers work.
    elab_memo_hits: int = 0
    elab_memo_misses: int = 0
    phases: PhaseTimings = field(default_factory=PhaseTimings)
    functions: list[FunctionMetrics] = field(default_factory=list)
    # Schema v3: the unit names aggregated by ``merge_metrics`` (empty for
    # a single-unit record) and the optional tracing summary — ``None``
    # whenever the run was not traced (the JSON key is then omitted).
    units: list[str] = field(default_factory=list)
    trace: Optional[dict] = None

    # ------------------------------------------------------------
    def add_function(self, name: str, ok: bool, cache: str, wall_s: float,
                     solver_s: float, counters: dict,
                     solver_cache_hits: int = 0,
                     terms_interned: int = 0,
                     dispatch_table_hits: int = 0,
                     terms_compiled: int = 0) -> None:
        self.functions.append(
            FunctionMetrics(name, ok, cache, wall_s, solver_s, counters,
                            solver_cache_hits, terms_interned,
                            dispatch_table_hits, terms_compiled))
        if cache == "clean":
            self.functions_clean += 1
            self.results_reused += 1
        elif cache == "dirty":
            self.functions_dirty += 1
        if cache != "clean":
            # Cached entries report the *original* run's times; only live
            # checks contribute to this unit's phase totals.
            self.phases.search_s += max(0.0, wall_s - solver_s)
            self.phases.solver_s += solver_s
            self.solver_cache_hits += solver_cache_hits
            self.terms_interned += terms_interned
            self.dispatch_table_hits += dispatch_table_hits
            self.terms_compiled += terms_compiled

    @property
    def cache_hit_rate(self) -> float:
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0

    # ------------------------------------------------------------
    def cache_effectiveness(self) -> dict:
        """Schema v6: one ``{hits, total, ratio}`` entry per caching
        layer of the stack.  ``ratio`` is ``None`` when a layer never ran
        (zero denominator) — "unused" and "0% effective" are different
        facts, and the regression sentinel must not confuse them.  The
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
        return {
            "result_cache": ratio_block(
                self.cache_hits, self.cache_hits + self.cache_misses),
            "solver_memo": ratio_block(self.solver_cache_hits,
                                       solver_calls),
            "dispatch_table": {
                "hits": self.dispatch_table_hits,
                "rule_applications": rule_apps,
                "per_application": (round(self.dispatch_table_hits
                                          / rule_apps, 4)
                                    if rule_apps else None),
            },
            "depgraph": ratio_block(self.results_reused,
                                    len(self.functions)),
        }

    # ------------------------------------------------------------
    def to_dict(self) -> dict:
        d = asdict(self)
        d["schema_version"] = METRICS_SCHEMA_VERSION
        d["cache_hit_rate"] = round(self.cache_hit_rate, 4)
        d["cache_effectiveness"] = self.cache_effectiveness()
        if d.get("trace") is None:
            # Absent, not null: an untraced v3 record differs from v2 only
            # by the version number and the ``units`` list.
            d.pop("trace", None)
        return d

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_dict(cls, data: dict) -> "DriverMetrics":
        """Rehydrate a serialized record of any schema version up to the
        current one.  Fields a v<6 record lacks default (the v6 additions
        are all zero for older runs by construction); derived keys
        (``schema_version``, ``cache_hit_rate``, ``cache_effectiveness``)
        are recomputed by :meth:`to_dict`, so ``from_dict(to_dict(m))``
        round-trips byte-identically.  Raises ``ValueError`` for records
        written by a *newer* schema."""
        version = int(data.get("schema_version", 1))
        if version > METRICS_SCHEMA_VERSION:
            raise ValueError(
                f"metrics schema {version} is newer than this build's "
                f"v{METRICS_SCHEMA_VERSION}")
        m = cls(study=str(data.get("study", "")),
                jobs=int(data.get("jobs", 1)),
                cache_enabled=bool(data.get("cache_enabled", False)),
                cache_hits=int(data.get("cache_hits", 0)),
                cache_misses=int(data.get("cache_misses", 0)),
                wall_s=float(data.get("wall_s", 0.0)),
                functions_clean=int(data.get("functions_clean", 0)),
                functions_dirty=int(data.get("functions_dirty", 0)),
                results_reused=int(data.get("results_reused", 0)),
                elab_memo_hits=int(data.get("elab_memo_hits", 0)),
                elab_memo_misses=int(data.get("elab_memo_misses", 0)),
                units=[str(u) for u in data.get("units", [])],
                trace=data.get("trace"))
        for key in TELEMETRY_KEYS:
            setattr(m, key, int(data.get(key, 0)))
        phases = data.get("phases", {})
        m.phases = PhaseTimings(
            parse_s=float(phases.get("parse_s", 0.0)),
            elaborate_s=float(phases.get("elaborate_s", 0.0)),
            search_s=float(phases.get("search_s", 0.0)),
            solver_s=float(phases.get("solver_s", 0.0)))
        for fn in data.get("functions", []):
            fm = FunctionMetrics(
                name=str(fn.get("name", "")),
                ok=bool(fn.get("ok", False)),
                cache=str(fn.get("cache", "off")),
                wall_s=float(fn.get("wall_s", 0.0)),
                solver_s=float(fn.get("solver_s", 0.0)),
                counters=dict(fn.get("counters", {})))
            for key in TELEMETRY_KEYS:
                setattr(fm, key, int(fn.get(key, 0)))
            m.functions.append(fm)
        return m

    # ------------------------------------------------------------
    def summary(self) -> str:
        """The two human-readable lines appended to
        ``VerificationOutcome.report()``."""
        p = self.phases
        lines = [
            f"driver: jobs={self.jobs}, "
            f"{len(self.functions)} function(s), "
            f"wall {self.wall_s * 1e3:.1f}ms"
            + (f", cache {self.cache_hits} hit / {self.cache_misses} miss"
               if self.cache_enabled else ", cache off"),
            f"phases: parse {p.parse_s * 1e3:.1f}ms, "
            f"elaborate {p.elaborate_s * 1e3:.1f}ms, "
            f"search {p.search_s * 1e3:.1f}ms, "
            f"solver {p.solver_s * 1e3:.1f}ms",
        ]
        if self.functions_clean or self.functions_dirty:
            lines.append(
                f"incremental: {self.functions_clean} clean / "
                f"{self.functions_dirty} dirty, "
                f"{self.results_reused} result(s) reused")
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
    order), so a merged record still identifies what it aggregates;
    ``cache_hit_rate`` needs no recomputation — it derives from the summed
    hit/miss counters.  Trace summary blocks, when present, are merged
    (counts and times summed per rule, slowest solver calls re-ranked)."""
    total = DriverMetrics(study="<all>")
    for m in per_unit:
        total.units.append(m.study)
        total.jobs = max(total.jobs, m.jobs)
        total.cache_enabled = total.cache_enabled or m.cache_enabled
        total.cache_hits += m.cache_hits
        total.cache_misses += m.cache_misses
        total.wall_s += m.wall_s
        total.solver_cache_hits += m.solver_cache_hits
        total.terms_interned += m.terms_interned
        total.dispatch_table_hits += m.dispatch_table_hits
        total.terms_compiled += m.terms_compiled
        total.functions_clean += m.functions_clean
        total.functions_dirty += m.functions_dirty
        total.results_reused += m.results_reused
        total.elab_memo_hits += m.elab_memo_hits
        total.elab_memo_misses += m.elab_memo_misses
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
