"""The noise-aware perf-regression sentinel.

Benchmark noise is the reason perf regressions rot: a single slow sample
is indistinguishable from a loaded CI runner, so one-shot comparisons
either cry wolf or get their thresholds widened until they catch
nothing.  The sentinel compares a candidate ledger record against the
**median of its comparable history** with per-metric threshold bands:

* **wall time** regresses when the candidate exceeds the median by both
  a *relative* tolerance (default +25%) and an *absolute* floor
  (default 50ms) — the floor keeps microsecond-scale suites from
  flagging scheduler jitter, the relative band scales with the suite;
* **cache-effectiveness ratios** regress on an *absolute* drop (default
  −0.10) below the median — a ratio is already normalized, so a relative
  band would over-trigger near zero and under-trigger near one.  Layers
  whose ratio is ``None`` ("never ran") are skipped on either side:
  "unused" is not "0% effective".

History is *comparable* records only — same kind, platform, python
minor, jobs, tracked ``RC_*`` flags, run config, and unit suite
(:func:`pool_key`) — so a traced run is never judged against untraced
history.  Fewer than ``min_history`` comparable records means
**skip, not pass-or-fail**: the sentinel refuses to guess from thin
evidence.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Optional, Sequence

#: candidate wall must exceed the history median by this fraction...
WALL_REL_TOL = 0.25
#: ...and by at least this many seconds, to count as a regression
WALL_ABS_FLOOR_S = 0.05
#: absolute drop below the median ratio that counts as a regression
RATIO_ABS_TOL = 0.10
#: fewer comparable history records than this → skip (refuse to judge)
MIN_HISTORY = 3

#: the cache-effectiveness layers the sentinel watches, with the field
#: holding each layer's ratio (the dispatch table reports a rate, not a
#: hit ratio — see DriverMetrics.cache_effectiveness)
RATIO_FIELDS = (
    ("result_cache", "ratio"),
    ("solver_memo", "ratio"),
    ("dispatch_table", "per_application"),
    ("depgraph", "ratio"),
)


def pool_key(record: dict) -> str:
    """The comparability pool of one ledger record.  Records in the same
    pool ran the same workload the same way; only they may be compared.
    Python is pinned to ``major.minor`` (patch releases do not move
    performance the way 3.11→3.12 did)."""
    platform_block = record.get("platform", {})
    python = ".".join(str(platform_block.get("python", "")).split(".")[:2])
    return json.dumps({
        "kind": record.get("kind", ""),
        "machine": platform_block.get("machine", ""),
        "system": platform_block.get("system", ""),
        "python": python,
        "jobs": record.get("jobs", 1),
        "env": record.get("env", {}),
        "config": record.get("config", {}),
        "suite": record.get("suite", []),
    }, sort_keys=True)


def _median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    n = len(ordered)
    mid = n // 2
    return ordered[mid] if n % 2 else (ordered[mid - 1] + ordered[mid]) / 2


@dataclass
class Regression:
    """One flagged metric: the candidate fell outside its band."""

    metric: str
    baseline: float      # the history median
    current: float
    limit: float         # the band edge that was crossed

    def describe(self) -> str:
        if self.metric == "wall_s":
            return (f"wall_s: {self.current:.4f}s vs median "
                    f"{self.baseline:.4f}s (limit {self.limit:.4f}s)")
        return (f"{self.metric}: {self.current:.4f} vs median "
                f"{self.baseline:.4f} (floor {self.limit:.4f})")


@dataclass
class SentinelReport:
    """The verdict on one candidate record.  ``status`` is ``"ok"``,
    ``"regression"`` (see ``regressions``) or ``"skipped"`` (not enough
    comparable history — ``reason`` says so)."""

    status: str
    history_size: int = 0
    regressions: list[Regression] = field(default_factory=list)
    reason: str = ""

    @property
    def ok(self) -> bool:
        return self.status != "regression"

    def describe(self) -> str:
        if self.status == "skipped":
            return f"sentinel: skipped ({self.reason})"
        head = (f"sentinel: {self.status} against median of "
                f"{self.history_size} comparable run(s)")
        return "\n".join([head] + [f"  REGRESSION {r.describe()}"
                                   for r in self.regressions])


def comparable_history(candidate: dict, records: Sequence[dict]
                       ) -> list[dict]:
    """The records sharing the candidate's comparability pool, candidate
    itself excluded (by identity, so re-checking an already-appended
    record works)."""
    key = pool_key(candidate)
    return [r for r in records
            if r is not candidate and pool_key(r) == key]


def check_record(candidate: dict, history: Sequence[dict], *,
                 min_history: int = MIN_HISTORY,
                 wall_tol: float = WALL_REL_TOL,
                 wall_floor_s: float = WALL_ABS_FLOOR_S,
                 ratio_tol: float = RATIO_ABS_TOL) -> SentinelReport:
    """Judge one candidate against its (already-filtered) history."""
    if len(history) < min_history:
        return SentinelReport(
            "skipped", len(history),
            reason=f"{len(history)} comparable record(s), "
                   f"need {min_history}")
    report = SentinelReport("ok", len(history))

    walls = [float(r.get("wall_s", 0.0)) for r in history]
    wall_median = _median(walls)
    wall = float(candidate.get("wall_s", 0.0))
    wall_limit = max(wall_median * (1.0 + wall_tol),
                     wall_median + wall_floor_s)
    if wall > wall_limit:
        report.regressions.append(
            Regression("wall_s", wall_median, wall, wall_limit))

    eff = candidate.get("cache_effectiveness")
    if eff is not None:
        for layer, ratio_field in RATIO_FIELDS:
            current = (eff.get(layer) or {}).get(ratio_field)
            if current is None:
                continue
            past = [
                (r.get("cache_effectiveness", {}).get(layer) or {})
                .get(ratio_field)
                for r in history]
            past = [p for p in past if p is not None]
            if len(past) < min_history:
                continue
            floor = _median(past) - ratio_tol
            if float(current) < floor:
                report.regressions.append(
                    Regression(f"cache_effectiveness.{layer}"
                               f".{ratio_field}",
                               _median(past), float(current), floor))

    if report.regressions:
        report.status = "regression"
    return report


def check_latest(records: Sequence[dict], *,
                 kind: Optional[str] = None,
                 min_history: int = MIN_HISTORY,
                 wall_tol: float = WALL_REL_TOL,
                 wall_floor_s: float = WALL_ABS_FLOOR_S,
                 ratio_tol: float = RATIO_ABS_TOL) -> SentinelReport:
    """The CI shape: judge the newest record (optionally of one kind)
    against every earlier comparable record."""
    pool = [r for r in records if kind is None or r.get("kind") == kind]
    if not pool:
        return SentinelReport("skipped", 0, reason="empty ledger")
    candidate = pool[-1]
    history = comparable_history(candidate, pool[:-1])
    return check_record(candidate, history, min_history=min_history,
                        wall_tol=wall_tol, wall_floor_s=wall_floor_s,
                        ratio_tol=ratio_tol)


def check_all_pools(records: Sequence[dict], *,
                    min_history: int = MIN_HISTORY,
                    wall_tol: float = WALL_REL_TOL,
                    wall_floor_s: float = WALL_ABS_FLOOR_S,
                    ratio_tol: float = RATIO_ABS_TOL
                    ) -> dict[str, SentinelReport]:
    """Judge the newest record of *every* comparability pool against that
    pool's history — what ``rcstat --check-all`` runs after a CI job that
    appended several differently-configured passes.  Keys are the pools'
    human-oriented JSON keys."""
    pools: dict[str, list[dict]] = {}
    for rec in records:
        pools.setdefault(pool_key(rec), []).append(rec)
    return {
        key: check_record(group[-1], group[:-1], min_history=min_history,
                          wall_tol=wall_tol, wall_floor_s=wall_floor_s,
                          ratio_tol=ratio_tol)
        for key, group in sorted(pools.items())
    }
