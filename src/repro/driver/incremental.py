"""Incremental dependency-aware re-verification.

The planner persists, per translation unit, the dependency graph built
by :mod:`.depgraph` plus one **transitive key** per function in
``<cache-dir>/depgraph.json``.  On the next run it rebuilds the graph
from the fresh sources and compares:

* a function whose stored transitive key equals the fresh one is
  **clean** — its cached outcome is reused verbatim (never re-checked);
* a function whose key differs (an input node's fingerprint changed, a
  dependency edge moved, the engine changed, or the function is new) is
  **dirty** — it is re-checked, in dependency (callee-before-caller)
  order, through the ordinary pool;
* additionally, when a function's *own spec* changed, every transitive
  caller is conservatively marked dirty too (**spec-ripple**), even
  though spec-modularity says an unchanged caller's proof cannot change.
  Re-checking those callers revalidates that modularity argument inside
  the run — their fresh outcomes must (and are asserted by the tests
  to) equal the cached ones.

The state file is a derived accelerator, written only when it changes:
a run whose fresh per-unit state (source sha, graph, function keys and
outcomes) equals what it loaded leaves ``depgraph.json`` untouched, so
a no-op re-run costs no write at all.

A long-lived caller (the serve daemon) also passes a ``state_cache``
memo that holds, next to the parsed planner state, one entry per unit
stem: ``(sha256(source), TypedProgram, DepGraph)``.  The front end
(:func:`repro.frontend.verify_files`) skips parse and elaborate for a
unit whose source sha still matches, and :func:`plan_unit` skips
rebuilding its graph; any other sha replaces the entry.

Degradation is always towards a *full* re-verification, never towards a
wrong or missing outcome: a corrupted / truncated / version-mismatched
/ foreign-engine ``depgraph.json`` loads as empty state, which marks
everything dirty; an evicted result-cache entry for a clean function
forces that function dirty.  Concurrent writers race benignly (atomic
tempfile + rename, last writer wins).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence

from ..refinedc.checker import TypedProgram, verification_targets
from ..trace.tracer import Tracer
from .cache import atomic_write_json
from .depgraph import (DepGraph, build_depgraph, changed_nodes,
                       engine_fingerprint, transitive_key)
from .metrics import DriverMetrics
from .pool import (DriverConfig, FunctionPlan, PoolSession, Unit, UnitPlan,
                   run_units)

STATE_FORMAT_VERSION = 1
STATE_FILE = "depgraph.json"


def source_sha(source: str) -> str:
    return hashlib.sha256(source.encode()).hexdigest()


@dataclass
class UnitState:
    """What the previous run knew about one translation unit."""

    source_sha: str
    graph: DepGraph
    # function name -> {"key": transitive key, "ok": outcome}
    functions: dict[str, dict] = field(default_factory=dict)


@dataclass
class IncrementalState:
    """The persisted planner state (``<cache-dir>/depgraph.json``)."""

    engine: str
    units: dict[str, UnitState] = field(default_factory=dict)

    # ------------------------------------------------------------
    @classmethod
    def load(cls, cache_dir: Path, engine: str) -> "IncrementalState":
        """Load tolerantly: *any* defect — unreadable file, malformed
        JSON, stale format version, state written by a different engine
        — yields empty state, i.e. a full re-verification."""
        path = Path(cache_dir) / STATE_FILE
        try:
            data = json.loads(path.read_text())
            if data["format_version"] != STATE_FORMAT_VERSION:
                raise ValueError("stale depgraph format")
            if data["engine"] != engine:
                raise ValueError("state from a different engine build")
            units: dict[str, UnitState] = {}
            for key, u in data["units"].items():
                units[str(key)] = UnitState(
                    source_sha=str(u["source_sha"]),
                    graph=DepGraph.from_dict(u["graph"]),
                    functions={
                        str(n): {"key": str(f["key"]), "ok": bool(f["ok"])}
                        for n, f in u["functions"].items()})
            return cls(engine=engine, units=units)
        except (OSError, ValueError, KeyError, TypeError,
                UnicodeDecodeError, AttributeError):
            return cls(engine=engine, units={})

    def save(self, cache_dir: Path) -> None:
        data = {
            "format_version": STATE_FORMAT_VERSION,
            "engine": self.engine,
            "units": {
                key: {
                    "source_sha": u.source_sha,
                    "graph": u.graph.to_dict(),
                    "functions": u.functions,
                } for key, u in self.units.items()
            },
        }
        atomic_write_json(Path(cache_dir) / STATE_FILE, data)


# ---------------------------------------------------------------------
# Planning.
# ---------------------------------------------------------------------

def _topo_order(dirty: Sequence[str], graph: DepGraph,
                spec_order: Sequence[str]) -> tuple[str, ...]:
    """Callee-before-caller order over the dirty set, spec order as the
    tiebreak; (mutual) recursion cycles are broken in spec order."""
    remaining = [n for n in spec_order if n in set(dirty)]
    deps = {n: {c for c in graph.callees(n) if c in set(dirty) and c != n}
            for n in remaining}
    order: list[str] = []
    placed: set[str] = set()
    while remaining:
        ready = [n for n in remaining if deps[n] <= placed]
        pick = ready[0] if ready else remaining[0]
        order.append(pick)
        placed.add(pick)
        remaining.remove(pick)
    return tuple(order)


def plan_unit(unit: Unit, state: IncrementalState, store, engine: str,
              graph: Optional[DepGraph] = None
              ) -> tuple[UnitPlan, DepGraph, dict[str, str]]:
    """Classify one unit's functions as clean/dirty and build the pool
    schedule.  ``graph`` is the unit's already-built dependency graph,
    when the caller memoized one for this very program.  Returns
    ``(plan, fresh graph, fresh transitive keys)``."""
    if graph is None:
        graph = build_depgraph(unit.tp, unit.lemmas)
    old = state.units.get(unit.key)
    old_nodes = old.graph.nodes if old is not None else {}
    changed = changed_nodes(old_nodes, graph)
    to_check, _missing = verification_targets(unit.tp)
    keys = {fn: transitive_key(graph, fn, engine) for fn in to_check}

    dirty: dict[str, set[str]] = {}
    for fn in to_check:
        stored = old.functions.get(fn) if old is not None else None
        if stored is None:
            dirty[fn] = {f"fn:{fn}"} | (graph.reachable(f"fn:{fn}")
                                        & changed)
        elif stored["key"] != keys[fn]:
            roots = graph.reachable(f"fn:{fn}") & changed
            dirty[fn] = roots or {"deps-changed"}

    # Spec-ripple: when F's own spec text changed, conservatively
    # re-check every transitive caller of F — spec-modularity (PAPER §2,
    # §6) says their proofs cannot change, and re-running them under
    # their unchanged keys revalidates exactly that.
    callers: dict[str, set[str]] = {}
    for fn in to_check:
        for callee in graph.callees(fn):
            callers.setdefault(callee, set()).add(fn)
    for src in [fn for fn in to_check if f"spec:{fn}" in changed
                and old is not None and fn in old.functions]:
        seen: set[str] = set()
        stack = [src]
        while stack:
            for caller in callers.get(stack.pop(), ()):
                if caller in seen:
                    continue
                seen.add(caller)
                stack.append(caller)
                dirty.setdefault(caller, set()).add(f"ripple:{src}")

    plan = UnitPlan()
    for fn in to_check:
        if fn in dirty:
            plan.functions[fn] = FunctionPlan(
                action="check", store_key=keys[fn],
                roots=tuple(sorted(dirty[fn])))
            continue
        hit = store.get(keys[fn])
        if hit is None:
            # Clean but evicted from the result cache: degrade to a
            # re-check, never to a missing outcome.
            plan.functions[fn] = FunctionPlan(
                action="check", store_key=keys[fn], roots=("cache-evicted",))
        else:
            plan.functions[fn] = FunctionPlan(
                action="reuse", store_key=keys[fn], result=hit)
    plan.order = _topo_order(
        [fn for fn, fp in plan.functions.items() if fp.action == "check"],
        graph, list(unit.tp.specs))
    return plan, graph, keys


def _trace_plan(unit: Unit, plan: UnitPlan) -> None:
    """Append invalidation / reuse instants to the unit's front-end
    trace buffer (continuing its seq numbering)."""
    front = unit.front_trace
    if front is None:
        return
    start = front.events[-1].seq + 1 if front.events else 0
    tracer = Tracer(scope=unit.key, start_seq=start)
    for fn, fp in plan.functions.items():
        if fp.action == "check":
            tracer.instant("driver", "invalidate", function=fn,
                           roots=list(fp.roots))
        else:
            tracer.instant("driver", "reuse", function=fn)
    front.events.extend(tracer.events)
    front.dropped += tracer.dropped


# ---------------------------------------------------------------------
# Session-scoped state reuse.
# ---------------------------------------------------------------------

def _state_stat(cache_dir: Path):
    """A cheap change signature for the persisted planner state: the
    ``(mtime_ns, size)`` of ``depgraph.json``, ``None`` when absent."""
    try:
        st = (Path(cache_dir) / STATE_FILE).stat()
    except OSError:
        return None
    return (st.st_mtime_ns, st.st_size)


def load_state_cached(cache_dir: Path, engine: str,
                      state_cache: Optional[dict]) -> "IncrementalState":
    """Load planner state, reusing a long-lived caller's parsed copy.

    ``state_cache`` (cache-dir string → ``(stat signature, state)``) is
    the serve daemon's per-namespace memo: a warm request skips the JSON
    parse entirely when the on-disk file still matches what this process
    last read or wrote.  A foreign writer (batch CLI run, concurrent
    daemon) moves the stat signature and forces a clean reload, so the
    memo can serve stale state only while the file itself is unchanged.
    """
    if state_cache is None:
        return IncrementalState.load(cache_dir, engine)
    key = str(Path(cache_dir).resolve())
    cached = state_cache.get(key)
    stat = _state_stat(cache_dir)
    if cached is not None and stat is not None and cached[0] == stat \
            and cached[1].engine == engine:
        return cached[1]
    state = IncrementalState.load(cache_dir, engine)
    state_cache[key] = (stat, state)
    return state


def _unit_slot(stem: str) -> tuple[str, str]:
    """The ``state_cache`` key of one unit's program memo entry (planner
    state entries are keyed by cache-dir path strings)."""
    return ("unit", stem)


def memoized_program(state_cache: dict, stem: str,
                     sha: Optional[str] = None) -> Optional[TypedProgram]:
    """The elaborated program memoized for unit ``stem`` — when ``sha``
    is given, only if the unit's source still hashes to it."""
    entry = state_cache.get(_unit_slot(stem))
    if entry is None or (sha is not None and entry[0] != sha):
        return None
    return entry[1]


# ---------------------------------------------------------------------
# The incremental entry point.
# ---------------------------------------------------------------------

def run_units_incremental(units: Sequence[Unit], config: DriverConfig,
                          session: Optional[PoolSession] = None,
                          state_cache: Optional[dict] = None
                          ) -> dict[str, tuple[object, DriverMetrics]]:
    """Drive ``run_units`` through the incremental planner.

    Same result shape as :func:`repro.driver.run_units`;
    ``config.cache_dir`` must name the directory holding the result cache
    and the planner state.  After the run the fresh graph, per-function
    transitive keys and outcomes are persisted for the next invocation
    — only when some unit's state differs from what was loaded, or the
    state file is absent; an unchanged state is never rewritten.

    ``session`` reuses a caller-owned warm :class:`PoolSession` for the
    dirty subset.  ``state_cache`` lets a long-lived caller (the serve
    daemon) skip re-reading an unchanged ``depgraph.json`` per request,
    and memoizes each unit's ``(source sha, program, graph)`` so an
    unchanged unit's graph is not rebuilt.
    """
    store = config.open_cache()
    if store is None:
        raise ValueError("a planned run needs config.cache_dir")
    cache_dir = store.root
    engine = engine_fingerprint()
    state = load_state_cached(cache_dir, engine, state_cache)

    plans: dict[str, UnitPlan] = {}
    graphs: dict[str, DepGraph] = {}
    keys: dict[str, dict[str, str]] = {}
    for unit in units:
        slot = _unit_slot(unit.key)
        memo = state_cache.get(slot) if state_cache is not None else None
        known = memo[2] if memo is not None and memo[1] is unit.tp else None
        plan, graph, unit_keys = plan_unit(unit, state, store, engine,
                                           known)
        if state_cache is not None:
            state_cache[slot] = (source_sha(unit.source), unit.tp, graph)
        plans[unit.key] = plan
        graphs[unit.key] = graph
        keys[unit.key] = unit_keys
        if config.resolved_trace():
            _trace_plan(unit, plan)

    out = run_units(units, config, plans, session=session)

    changed = _state_stat(cache_dir) is None
    for unit in units:
        result, _metrics = out[unit.key]
        functions = {
            fn: {"key": unit_keys_fn, "ok": result.functions[fn].ok}
            for fn, unit_keys_fn in keys[unit.key].items()
            if fn in result.functions}
        fresh = UnitState(source_sha=source_sha(unit.source),
                          graph=graphs[unit.key], functions=functions)
        if state.units.get(unit.key) != fresh:
            state.units[unit.key] = fresh
            changed = True
    if changed:
        state.save(cache_dir)
        if state_cache is not None:
            state_cache[str(Path(cache_dir).resolve())] = \
                (_state_stat(cache_dir), state)
    return out
