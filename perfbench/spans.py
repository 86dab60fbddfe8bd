"""Benchmark-side spans around the checker's public entry points.

The benchmark measures layers without instrumenting the checker: it
wraps the public functions each layer is entered through, records one
span per call (name, start, end, parent span, request id, attributes)
in memory, and writes the spans out when the run ends.  Worker-side
time is never wrapped; it comes from the per-function walls and phase
timings that ``run_units`` already returns (see :func:`_run_units_attrs`).

A wrapped name that a later version of the checker no longer has is
skipped and listed in ``SpanRecorder.missing``: its layer then reads 0
and its time shows up in the parent's self time, never as an error.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time
from dataclasses import asdict, dataclass
from typing import Callable, Optional


@dataclass(slots=True)
class Span:
    sid: int
    parent: Optional[int]
    name: str
    t0: float
    t1: float
    request: Optional[int]
    attrs: Optional[dict]

    @property
    def dur(self) -> float:
        return self.t1 - self.t0


class SpanRecorder:
    """Spans of one process.  Calls into the wrapped functions come from
    one thread at a time (the batch loop, or the daemon's single worker
    loop), so one span stack suffices."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.enabled = True
        self.request_id: Optional[int] = None
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._next = 0
        self._installed = False

    # ------------------------------------------------------------
    def _open(self) -> tuple[int, Optional[int]]:
        sid = self._next
        self._next += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        return sid, parent

    def _close(self, sid: int, parent: Optional[int], name: str, t0: float,
               t1: float, attrs: Optional[dict]) -> None:
        self._stack.pop()
        self.spans.append(Span(sid, parent, name, t0, t1, self.request_id,
                               attrs))

    def record(self, name: str, fn: Callable, *args, **kwargs):
        """Call ``fn`` under a span named ``name`` (a benchmark-side
        operation such as one batch pass or one certificate check)."""
        sid, parent = self._open()
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(sid, parent, name, t0, time.perf_counter(), None)

    def wrap(self, name: str, fn: Callable,
             attrs: Optional[Callable] = None) -> Callable:
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not rec.enabled:
                return fn(*args, **kwargs)
            sid, parent = rec._open()
            result = None
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = time.perf_counter()
                extra = attrs(args, kwargs, result) if attrs else None
                rec._close(sid, parent, name, t0, t1, extra)
        return wrapper

    # ------------------------------------------------------------
    def install(self, daemon: bool = False) -> None:
        """Wrap every layer entry point (once per recorder)."""
        if self._installed:
            return
        self._installed = True
        for target, attr, name, attrs in _TARGETS:
            self._patch(target, attr, name, attrs)
        if daemon:
            # The daemon reaches the driver through this binding; its
            # self time is front-end glue, reported as unassigned.
            self._patch("repro.serve.server", "verify_files",
                        "frontend.verify_files", None)

    def _patch(self, target: str, attr: str, name: str,
               attrs: Optional[Callable]) -> None:
        owner = _resolve(target)
        raw = None if owner is None else \
            (owner.__dict__.get(attr) if isinstance(owner, type)
             else getattr(owner, attr, None))
        if raw is None:
            self.missing.append(f"{target}.{attr}")
            return
        if isinstance(raw, classmethod):
            wrapped = classmethod(self.wrap(name, raw.__func__, attrs))
        else:
            wrapped = self.wrap(name, raw, attrs)
        setattr(owner, attr, wrapped)


def dump_spans(path, spans: list[Span], missing: list[str]) -> None:
    with open(path, "w") as fh:
        json.dump({"missing": missing, "spans": [asdict(s) for s in spans]},
                  fh)


def load_spans(path) -> tuple[list[Span], list[str]]:
    with open(path) as fh:
        data = json.load(fh)
    return [Span(**s) for s in data["spans"]], list(data["missing"])


def _resolve(target: str):
    """``pkg.module`` or ``pkg.module.Class`` → the object, or None."""
    parts = target.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for part in parts[cut:]:
            obj = getattr(obj, part, None)
            if obj is None:
                return None
        return obj
    return None


# ---------------------------------------------------------------------
# Attributes recorded at the span boundaries.
# ---------------------------------------------------------------------

def _parse_attrs(args, kwargs, result) -> dict:
    source = args[0] if args else kwargs.get("source", "")
    return {"bytes": len(source)}


def _cache_get_attrs(args, kwargs, result) -> dict:
    return {"hit": result is not None}


def _state_save_attrs(args, kwargs, result) -> dict:
    cache_dir = args[1] if len(args) > 1 else kwargs.get("cache_dir")
    from repro.driver import incremental
    name = getattr(incremental, "STATE_FILE", "depgraph.json")
    try:
        size = os.stat(os.path.join(str(cache_dir), name)).st_size
    except (OSError, TypeError):
        size = 0
    return {"bytes": size}


def _run_units_attrs(args, kwargs, result) -> dict:
    """Worker-side accounting from what ``run_units`` returns: check walls
    and solver time of the live (re-checked) functions, and the pool's
    elaboration-memo counters.  The time a worker spends re-elaborating
    a unit is estimated as the parent's own parse + elaborate time of
    that unit, once per recorded memo miss."""
    units = args[0] if args else kwargs.get("units", ())
    config = args[1] if len(args) > 1 else kwargs.get("config")
    out = dict(functions=0, live=0, clean=0, ok=0, busy_s=0.0,
               solver_s=0.0, rule_applications=0, solver_calls=0,
               solver_cache_hits=0, dispatch_table_hits=0, elab_hits=0,
               elab_misses=0, worker_elab_s=0.0, jobs=1)
    try:
        out["jobs"] = int(config.resolved_jobs())
    except AttributeError:
        pass
    if not isinstance(result, dict):
        return out
    front = {}
    for unit in units:
        t = getattr(unit, "timings", None)
        if t is not None:
            front[unit.key] = t.parse_s + t.elaborate_s
    for key, (_res, m) in result.items():
        out["elab_hits"] += m.elab_memo_hits
        out["elab_misses"] += m.elab_memo_misses
        out["worker_elab_s"] += m.elab_memo_misses * front.get(key, 0.0)
        out["clean"] += m.functions_clean
        for f in m.functions:
            out["functions"] += 1
            out["ok"] += bool(f.ok)
            if f.cache in ("hit", "clean"):
                continue
            out["live"] += 1
            out["busy_s"] += f.wall_s
            out["solver_s"] += f.solver_s
            out["rule_applications"] += f.counters.get(
                "rule_applications", 0)
            out["solver_calls"] += f.counters.get("solver_calls", 0)
            out["solver_cache_hits"] += f.solver_cache_hits
            out["dispatch_table_hits"] += f.dispatch_table_hits
    return out


#: (owner, attribute, layer name, attribute recorder) — the public
#: entry point of every layer the benchmark reports.
_TARGETS = (
    ("repro.frontend", "parse", "lang.parse", _parse_attrs),
    ("repro.frontend", "elaborate_unit", "lang.elaborate", None),
    ("repro.frontend", "run_units", "driver.run_units", _run_units_attrs),
    ("repro.frontend", "run_units_incremental", "driver.incremental",
     None),
    ("repro.driver.incremental", "run_units", "driver.run_units",
     _run_units_attrs),
    ("repro.driver.incremental", "plan_unit", "driver.incremental.plan",
     None),
    ("repro.driver.incremental", "build_depgraph", "driver.depgraph.build",
     None),
    ("repro.driver.incremental.IncrementalState", "load",
     "driver.incremental.state_load", None),
    ("repro.driver.incremental.IncrementalState", "save",
     "driver.incremental.state_save", _state_save_attrs),
    ("repro.driver.cache.ResultCache", "get", "driver.cache.get",
     _cache_get_attrs),
    ("repro.driver.cache.ResultCache", "put", "driver.cache.put", None),
)
