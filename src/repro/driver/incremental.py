"""Incremental dependency-aware re-verification.

The planner persists, per translation unit, the dependency graph built
by :mod:`.depgraph` plus one **transitive key** per function in
``<cache-dir>/depgraph.json``.  A ``run_units`` call with a
``cache_dir`` makes one :class:`Planner`, which plans each unit as the
driver's dispatch loop reaches it — so a planned run streams like an
unplanned one — and saves the state once the last unit is done.  To
plan a unit it rebuilds the unit's graph from the fresh source and
compares:

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
memo that holds, next to the parsed planner state, one
:class:`UnitMemo` per unit stem.  The front end
(:func:`repro.frontend.verify_files`, through :func:`load_source`)
does not even open a source whose stat signature is the one recorded
when its text was read, skips parse and elaborate for a unit whose
source sha still matches, and :func:`plan_unit` skips rebuilding its
graph; any other sha replaces the entry.  A unit whose
last run reused every function keeps that reuse plan, and is served
from it — no planning, no result-cache read — while the planner state
still holds the very ``UnitState`` object recorded beside it.  Once
such a unit has been served from its plan, the memo also keeps the
``(ProgramResult, DriverMetrics)`` pair that run produced; later
untraced requests at the same width get that very pair back when the
unit arrives: no metrics are built and nothing is checked.

Degradation is always towards a *full* re-verification, never towards a
wrong or missing outcome: a corrupted / truncated / version-mismatched
/ foreign-engine ``depgraph.json`` loads as empty state, which marks
everything dirty; an evicted result-cache entry for a clean function
forces that function dirty.  A unit planned later in a run can find
result-cache entries that earlier units of the same run wrote; that only
turns an evicted-but-clean function into a reuse of an outcome stored
under the same key.  Concurrent writers race benignly (atomic tempfile +
rename, last writer wins).
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence, Union

from ..refinedc.checker import (ProgramResult, TypedProgram,
                                verification_targets)
from ..trace.tracer import Tracer
from .cache import ResultCache, atomic_write_json
from .depgraph import (DepGraph, build_depgraph, changed_nodes,
                       engine_fingerprint, transitive_key)
from .metrics import DriverMetrics
from .pool import FunctionPlan, Unit, UnitPlan

STATE_FORMAT_VERSION = 1
STATE_FILE = "depgraph.json"

#: A source whose mtime or ctime lies within this window of the moment
#: it was read is read again on every request: a rewrite inside one
#: timestamp tick (a whole second on coarse filesystems) can leave its
#: stat signature unchanged.  This is git's "racily clean" rule.
SETTLE_NS = 1_000_000_000


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
    dirty_set = set(dirty)
    remaining = [n for n in spec_order if n in dirty_set]
    deps = {n: {c for c in graph.callees(n) if c in dirty_set and c != n}
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
              ) -> tuple[UnitPlan, DepGraph]:
    """Classify one unit's functions as clean/dirty and build the pool
    schedule.  ``graph`` is the unit's already-built dependency graph,
    when the caller memoized one for this very program.  Returns
    ``(plan, fresh graph)``; each function's fresh transitive key is its
    plan's ``store_key``."""
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
    return plan, graph


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
    """The ``state_cache`` key of one unit's memo entry (planner state
    entries are keyed by cache-dir path strings)."""
    return ("unit", stem)


@dataclass
class UnitMemo:
    """One unit's entry in a long-lived caller's ``state_cache``.

    ``program`` and ``graph`` are what the front end and the planner
    built for source text hashing to ``sha``.  ``state`` is the
    :class:`UnitState` object the planner state held for the unit after
    the run that recorded this entry, and ``plan`` that run's reuse
    plan — kept only when every function of the unit was reused clean.
    ``plan`` is valid exactly while ``state.units.get(stem) is state``:
    any reload of ``depgraph.json`` (a foreign writer, a deleted cache
    directory) and any change of the unit's own state builds new
    objects, so the unit goes back through :func:`plan_unit` and the
    result cache.

    ``outcome`` is the ``(result, metrics)`` pair an untraced run
    produced while serving the unit from ``plan``.  It is replayed (the
    very objects, with no check) while ``plan`` is valid, the
    request is untraced and runs at the width that produced it.  Its
    front-end timings are 0, since the program was memoized, so the pair
    holds nothing a later request would compute differently.

    ``source`` is the text hashing to ``sha`` and ``signature`` the stat
    signature of the file it was read from (see :func:`load_source`),
    ``None`` while that file was too fresh to trust its timestamps."""

    sha: str
    program: TypedProgram
    graph: DepGraph
    state: Optional[UnitState]
    plan: Optional[UnitPlan]
    outcome: Optional[tuple[ProgramResult, DriverMetrics]] = None
    source: str = ""
    signature: Optional[tuple] = None


def memoized_program(state_cache: dict, stem: str,
                     sha: Optional[str] = None) -> Optional[TypedProgram]:
    """The elaborated program memoized for unit ``stem`` — when ``sha``
    is given, only if the unit's source still hashes to it."""
    entry = state_cache.get(_unit_slot(stem))
    if entry is None or (sha is not None and entry.sha != sha):
        return None
    return entry.program


def _signature(st: os.stat_result) -> tuple[int, int, int, int, int]:
    """The stat signature of a source file."""
    return (st.st_dev, st.st_ino, st.st_size, st.st_mtime_ns,
            st.st_ctime_ns)


def load_source(state_cache: dict, stem: str, path: Path
                ) -> tuple[str, Optional[tuple], Optional[TypedProgram],
                           bool]:
    """``(text, signature, program, read)`` of unit ``stem``'s source
    at ``path``, through a long-lived caller's memo.

    A file whose stat signature — ``(st_dev, st_ino, st_size,
    st_mtime_ns, st_ctime_ns)`` — equals the one the memo recorded is
    not opened: its memoized text is returned (``read`` false).  Any
    other file is read, the signature taken from the open file before
    its bytes.  The memo stays keyed by content: ``program`` is the
    memoized program only when the text hashes as the memo's does.  A
    user can set a file's mtime back but not its ctime, so an edit that
    restores the mtime still moves the signature.  ``signature`` is
    ``None`` when the file's mtime or ctime lies within
    :data:`SETTLE_NS` of the moment it was read: such a file is read
    again on the next call, so a rewrite within one timestamp tick is
    never missed."""
    memo = state_cache.get(_unit_slot(stem))
    if memo is not None and memo.signature is not None \
            and memo.signature == _signature(os.stat(path)):
        return memo.source, memo.signature, memo.program, False
    read_ns = time.time_ns()
    with open(path) as f:
        signature = _signature(os.fstat(f.fileno()))
        text = f.read()
    if read_ns - max(signature[3], signature[4]) < SETTLE_NS:
        signature = None
    program = memo.program if memo is not None \
        and memo.sha == source_sha(text) else None
    return text, signature, program, True


# ---------------------------------------------------------------------
# The planner of one planned run.
# ---------------------------------------------------------------------

class Planner:
    """The incremental planner of one ``run_units`` call with a
    ``cache_dir``.

    Made when the call starts, it loads the planner state (through the
    caller's ``state_cache`` memo, if any).  The driver's dispatch loop
    hands it each unit as the unit arrives: :meth:`admit` returns the
    unit's :class:`UnitPlan`, or the memoized ``(result, metrics)``
    pair to replay, whose :class:`UnitMemo` entry then stays as it is.
    Once every unit is done, :meth:`commit` saves the state (only if it
    changed) and refreshes the entries of the units it planned.  A call
    that raises before its end never commits, so ``depgraph.json``
    keeps what the last finished run wrote."""

    def __init__(self, store: ResultCache, tracing: bool, jobs: int,
                 state_cache: Optional[dict]) -> None:
        self.store = store
        self.tracing = tracing
        self.jobs = jobs
        self.state_cache = state_cache
        self.engine = engine_fingerprint()
        self.state = load_state_cached(store.root, self.engine, state_cache)
        # planned (not replayed) unit key -> (unit, plan, graph,
        # source sha, served from memo)
        self.admitted: dict[str, tuple[Unit, UnitPlan, DepGraph, str,
                                       bool]] = {}

    def admit(self, unit: Unit
              ) -> Union[UnitPlan, tuple[ProgramResult, DriverMetrics]]:
        """Plan ``unit``.  A unit whose memoized reuse plan is still
        valid — the planner state holds the very ``UnitState`` the memo
        recorded — is served from that plan, with no planning and no
        result-cache read; if the memo also holds an outcome and this
        run is untraced and as wide as the one that produced it, that
        very pair is returned instead of a plan."""
        memo = self.state_cache.get(_unit_slot(unit.key)) \
            if self.state_cache is not None else None
        if memo is not None and memo.program is not unit.tp:
            memo = None
        old = self.state.units.get(unit.key)
        served = memo is not None and memo.plan is not None \
            and old is not None and old is memo.state
        if served:
            if memo.outcome is not None and not self.tracing \
                    and memo.outcome[1].jobs == self.jobs:
                # The entry stays as it is; only the identity of the
                # (same) source text is this call's.
                memo.source, memo.signature = unit.source, unit.signature
                return memo.outcome
            plan, graph = memo.plan, memo.graph
        else:
            plan, graph = plan_unit(
                unit, self.state, self.store, self.engine,
                memo.graph if memo is not None else None)
        sha = memo.sha if memo is not None else source_sha(unit.source)
        self.admitted[unit.key] = (unit, plan, graph, sha, served)
        if self.tracing:
            _trace_plan(unit, plan)
        return plan

    def commit(self, out: dict[str, tuple[ProgramResult, DriverMetrics]]
               ) -> None:
        """Persist the fresh graph, per-function transitive keys and
        outcomes of every planned unit — only when some unit's state
        differs from what was loaded, or the state file is absent — and
        refresh the caller's memo."""
        cache_dir = self.store.root
        state = self.state
        changed = _state_stat(cache_dir) is None
        for key, (_unit, plan, graph, sha, served) in self.admitted.items():
            if served:
                # Served from its memo: the state it recorded is unchanged.
                continue
            result = out[key][0]
            functions = {
                fn: {"key": fp.store_key, "ok": result.functions[fn].ok}
                for fn, fp in plan.functions.items()
                if fn in result.functions}
            fresh = UnitState(source_sha=sha, graph=graph,
                              functions=functions)
            if state.units.get(key) != fresh:
                state.units[key] = fresh
                changed = True
        if changed:
            state.save(cache_dir)
            if self.state_cache is not None:
                self.state_cache[str(Path(cache_dir).resolve())] = \
                    (_state_stat(cache_dir), state)
        if self.state_cache is None:
            return
        for key, (unit, plan, graph, sha, served) in self.admitted.items():
            reused = all(fp.action == "reuse"
                         for fp in plan.functions.values())
            self.state_cache[_unit_slot(key)] = UnitMemo(
                sha, unit.tp, graph, state.units.get(key),
                plan if reused else None,
                out[key] if served and not self.tracing else None,
                unit.source, unit.signature)
