"""The layer model: where the wall time of one operation goes.

An operation is one batch pass or one daemon request.  It is split into
rows named after the checker's modules, each a *self* time — a span's
duration minus the part its child spans cover — so the rows of one
operation add up to its wall:

* the spans around ``lang.parse`` … ``driver.cache.put`` give their self
  time directly;
* the self time of ``driver.run_units`` is the time the parent spent
  dispatching to and waiting on the function checks.  It is split into
  the worker-side layers by the check walls the driver returns — Lithium
  search, pure solver and worker re-elaboration — each converted to wall
  time by the parallelism that ran it (``jobs`` on the pool, 1 on the
  in-process path); ``driver.pool`` keeps the rest: pool start-up,
  dispatch, pickling and idle workers;
* for a daemon request, ``serve.queue_wait``, ``serve.server`` (server
  wall outside any driver call: target resolution, building and
  streaming the NDJSON events) and ``serve.transport`` (client round
  trip minus server wall and queue wait) come from the events the
  daemon streams;
* ``unassigned`` is what no layer covers: a batch pass outside its child
  spans, and the daemon's per-file ``verify_files`` glue.
"""

from __future__ import annotations

import statistics
from bisect import bisect_left, bisect_right
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Optional

from spans import Span

#: table rows, in pipeline order
ROWS = ("serve.transport", "serve.queue_wait", "serve.server", "lang.parse",
        "lang.elaborate", "driver.incremental", "driver.depgraph.build",
        "driver.incremental.plan",
        "driver.incremental.state_load", "driver.incremental.state_save",
        "driver.cache.get", "driver.cache.put", "driver.pool",
        "driver.pool.worker_elaborate", "lithium.search", "pure.solver")

#: span names whose self time no layer claims
_GLUE = ("op", "frontend.verify_files")

_RU_KEYS = ("functions", "live", "clean", "busy_s", "solver_s",
            "rule_applications", "solver_calls", "solver_cache_hits",
            "dispatch_table_hits", "elab_hits", "elab_misses")


@dataclass
class Op:
    """One measured operation and the spans recorded while it ran."""

    index: int
    kind: str                  # "pass" | "prime" | "edit" | "noop"
    wall: float
    traced: bool = False
    t0: float = 0.0
    t1: float = 0.0
    spans: list[Span] = field(default_factory=list)
    server_wall: Optional[float] = None    # daemon requests only
    queue_wait: Optional[float] = None
    events: int = 0
    recovered: int = 0
    resets: int = 0
    functions: int = 0
    rechecked: int = 0
    problems: list[str] = field(default_factory=list)


def self_times(spans: list[Span]) -> dict[int, float]:
    covered: dict[int, float] = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            covered[s.parent] += s.dur
    return {s.sid: s.dur - covered[s.sid] for s in spans}


def _parallelism(attrs: dict) -> int:
    pooled = attrs["elab_hits"] + attrs["elab_misses"] > 0
    return max(1, attrs["jobs"]) if pooled else 1


def split_run_units(self_s: float, attrs: Optional[dict]
                    ) -> dict[str, float]:
    """Split the parent's self time in ``run_units`` into worker-side
    layers (see the module docstring); the parts sum to ``self_s``."""
    if not attrs:
        return {"driver.pool": self_s}
    par = _parallelism(attrs)
    elab = attrs["worker_elab_s"] if par > 1 else 0.0
    cpu = attrs["busy_s"] + elab
    if cpu <= 0.0:
        return {"driver.pool": self_s}
    scale = max(0.0, min(self_s, cpu / par)) / cpu
    solver = min(attrs["solver_s"], attrs["busy_s"])
    rows = {"lithium.search": (attrs["busy_s"] - solver) * scale,
            "pure.solver": solver * scale,
            "driver.pool.worker_elaborate": elab * scale}
    rows["driver.pool"] = self_s - sum(rows.values())
    return rows


def op_rows(op: Op) -> dict[str, list]:
    """``{row: [self seconds, calls]}`` for one operation, including the
    ``unassigned`` row; the seconds add up to ``op.wall``."""
    rows: dict[str, list] = defaultdict(lambda: [0.0, 0])
    unassigned = 0.0
    selfs = self_times(op.spans)
    for s in op.spans:
        st = selfs[s.sid]
        if s.name in _GLUE:
            unassigned += st
        elif s.name == "driver.run_units":
            for name, sec in split_run_units(st, s.attrs).items():
                rows[name][0] += sec
            a = s.attrs or {}
            rows["driver.pool"][1] += 1
            rows["lithium.search"][1] += a.get("live", 0)
            rows["pure.solver"][1] += a.get("solver_calls", 0)
            rows["driver.pool.worker_elaborate"][1] += a.get("elab_misses", 0)
        else:
            rows[s.name][0] += st
            rows[s.name][1] += 1
    if op.server_wall is not None:
        top = sum(s.dur for s in op.spans if s.parent is None)
        rows["serve.server"] = [op.server_wall - top, 1]
        wait = op.queue_wait or 0.0
        rows["serve.queue_wait"] = [wait, 1]
        rows["serve.transport"] = [op.wall - op.server_wall - wait, 1]
    rows["unassigned"] = [unassigned, 0]
    return rows


def assign_by_time(spans: list[Span], ops: list[Op]) -> None:
    """Give each operation the spans (of another process) that ran inside
    its client-side interval; ``perf_counter`` is one system-wide
    monotonic clock, so the daemon's timestamps compare with ours."""
    spans = sorted(spans, key=lambda s: s.t0)
    starts = [s.t0 for s in spans]
    for op in ops:
        lo, hi = bisect_left(starts, op.t0), bisect_right(starts, op.t1)
        op.spans = [s for s in spans[lo:hi] if s.t1 <= op.t1]


# ---------------------------------------------------------------------
# The per-workload layer table.
# ---------------------------------------------------------------------

def layer_table(ops: list[Op]) -> dict:
    n = max(1, len(ops))
    wall = sum(op.wall for op in ops) or 1.0
    tot: dict[str, list] = defaultdict(lambda: [0.0, 0])
    for op in ops:
        for name, (sec, calls) in op_rows(op).items():
            tot[name][0] += sec
            tot[name][1] += calls
    rows = [{"layer": name, "self_s": tot[name][0] / n,
             "share": tot[name][0] / wall, "calls": tot[name][1] / n}
            for name in ROWS if name in tot]
    top = sorted(rows, key=lambda r: -r["self_s"])[:3]
    state_io = tot["driver.incremental.state_load"][0] \
        + tot["driver.incremental.state_save"][0]
    return {"ops": len(ops), "wall_s": wall / n, "rows": rows,
            "unassigned_s": tot["unassigned"][0] / n,
            "unassigned_frac": tot["unassigned"][0] / wall,
            "top3": [r["layer"] for r in top],
            "state_io_s": state_io / n, "state_io_share": state_io / wall,
            "state_saves": tot["driver.incremental.state_save"][1] / n}


def render_table(title: str, table: dict) -> list[str]:
    lines = [f"layer table: {title} - {table['ops']} traced op(s), "
             f"wall {table['wall_s'] * 1e3:.2f} ms/op",
             f"  {'layer':<30} {'self ms/op':>11} {'share':>7} "
             f"{'calls/op':>9}"]
    for r in table["rows"]:
        lines.append(f"  {r['layer']:<30} {r['self_s'] * 1e3:11.3f} "
                     f"{r['share'] * 100:6.1f}% {r['calls']:9.1f}")
    lines.append(f"  {'unassigned':<30} {table['unassigned_s'] * 1e3:11.3f} "
                 f"{table['unassigned_frac'] * 100:6.1f}%")
    lines.append(f"  top 3: {', '.join(table['top3'])}")
    return lines


# ---------------------------------------------------------------------
# Per-layer metrics (the ``--trace 1`` result).
# ---------------------------------------------------------------------

def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def _mean(values: list[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def layer_metrics(ops: list[Op], certs: list[dict]) -> dict[str, float]:
    """Per-layer metrics over the traced operations (per operation unless
    named a ratio), the tracing overhead against the untraced operations
    of the same session, and the certificate checks of ``certs``."""
    traced = [op for op in ops if op.traced]
    plain = [op for op in ops if not op.traced]
    n = max(1, len(traced))
    self_by: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    ru: dict[str, float] = defaultdict(float)
    parse_bytes = save_bytes = cache_hits = 0
    ru_wall = util_busy = util_cap = pool_self = unassigned = 0.0
    for op in traced:
        selfs = self_times(op.spans)
        for s in op.spans:
            st = selfs[s.sid]
            self_by[s.name] += st
            calls[s.name] += 1
            a = s.attrs or {}
            if s.name == "lang.parse":
                parse_bytes += a.get("bytes", 0)
            elif s.name == "driver.incremental.state_save":
                save_bytes += a.get("bytes", 0)
            elif s.name == "driver.cache.get":
                cache_hits += bool(a.get("hit"))
            elif s.name == "driver.run_units" and a:
                ru_wall += s.dur
                for key in _RU_KEYS:
                    ru[key] += a[key]
                if a["live"]:
                    util_busy += a["busy_s"]
                    util_cap += _parallelism(a) * s.dur
                pool_self += split_run_units(st, a)["driver.pool"]
        unassigned += op_rows(op)["unassigned"][0]
    wall = sum(op.wall for op in traced)
    served = [op for op in traced if op.server_wall is not None]
    rechecked = sum(c["rechecked"] for c in certs)
    skipped = sum(c["skipped"] for c in certs)

    def kind_p50(kind: str) -> float:
        return _median([op.wall for op in plain if op.kind == kind])

    return {
        "lang.parse.self_s": self_by["lang.parse"] / n,
        "lang.parse.bytes_per_s": _ratio(parse_bytes,
                                         self_by["lang.parse"]),
        "lang.elaborate.self_s": self_by["lang.elaborate"] / n,
        "driver.run_units.wall_s": ru_wall / n,
        "driver.pool.busy_s": ru["busy_s"] / n,
        "driver.pool.utilization": _ratio(util_busy, util_cap),
        "driver.pool.worker_elaborations": ru["elab_misses"] / n,
        "driver.pool.elab_memo_hit_ratio": _ratio(
            ru["elab_hits"], ru["elab_hits"] + ru["elab_misses"]),
        "driver.pool.overhead_s": pool_self / n,
        "driver.incremental.self_s": self_by["driver.incremental"] / n,
        "driver.depgraph.build_s": self_by["driver.depgraph.build"] / n,
        "driver.incremental.plan_s": self_by["driver.incremental.plan"] / n,
        "driver.incremental.state_load_s":
            self_by["driver.incremental.state_load"] / n,
        "driver.incremental.state_save_s":
            self_by["driver.incremental.state_save"] / n,
        "driver.incremental.state_saves_per_request":
            calls["driver.incremental.state_save"] / n,
        "driver.incremental.state_bytes_written": save_bytes / n,
        "driver.incremental.clean_ratio": _ratio(ru["clean"],
                                                 ru["functions"]),
        "driver.cache.get_s": self_by["driver.cache.get"] / n,
        "driver.cache.put_s": self_by["driver.cache.put"] / n,
        "driver.cache.hit_ratio": _ratio(cache_hits,
                                         calls["driver.cache.get"]),
        "lithium.search_s": max(0.0, ru["busy_s"] - ru["solver_s"]) / n,
        "lithium.rule_applications": ru["rule_applications"] / n,
        "lithium.dispatch_table_hit_ratio": _ratio(
            ru["dispatch_table_hits"], ru["rule_applications"]),
        "pure.solver_s": ru["solver_s"] / n,
        "pure.solver_cache_hit_ratio": _ratio(ru["solver_cache_hits"],
                                              ru["solver_calls"]),
        "proofs.certcheck_s": _mean([c["seconds"] for c in certs]),
        "proofs.side_conditions_skipped_frac": _ratio(skipped,
                                                      skipped + rechecked),
        "serve.server_wall_s": _mean([op.server_wall for op in served]),
        "serve.server_self_s": _mean([op_rows(op)["serve.server"][0]
                                      for op in served]),
        "serve.transport_s": _mean([op.wall - op.server_wall
                                    - (op.queue_wait or 0.0)
                                    for op in served]),
        "serve.queue_wait_s": _mean([op.queue_wait or 0.0
                                     for op in served]),
        "serve.events_per_request": _mean([op.events for op in served]),
        "serve.recovered": float(sum(op.recovered for op in ops)),
        "serve.session_resets": float(sum(op.resets for op in ops)),
        "serve.edit_request_p50_s": kind_p50("edit"),
        "serve.noop_request_p50_s": kind_p50("noop"),
        "unassigned_s": unassigned / n,
        "unassigned_frac": _ratio(unassigned, wall),
        "tracing_overhead_frac": (
            _median([op.wall for op in traced])
            / _median([op.wall for op in plain]) - 1.0
            if traced and plain else 0.0),
    }
