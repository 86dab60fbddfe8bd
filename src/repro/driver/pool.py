"""The verification driver: parallel, cached, metered checking.

The one check loop of the toolchain entry points, serial and pooled
alike.  Spec-modular checking (§4) makes functions *independent* proof
obligations — each function is verified against the *specs* of its
callees, never their bodies — so the work list is embarrassingly
parallel.  The driver:

1. schedules independent functions onto a **process pool** (``jobs > 1``),
   with a deterministic in-process serial path as the ``jobs = 1``
   fallback and reference semantics — one dispatch loop for both, which
   consumes the units lazily and routes each unit's pending functions
   the moment the unit arrives, so a caller's front end (parsing and
   elaborating the next unit) overlaps the workers' checks;
2. with a cache dir, has the incremental planner (:mod:`.incremental`)
   plan each unit as it arrives: a clean function's outcome comes from
   the content-addressed result cache (:mod:`.cache`) without a check,
   and a re-checked one is written back under its transitive key;
3. records **per-phase metrics** (:mod:`.metrics`).

Determinism: before every function check the driver resets the global
fresh-name counters (skolem variables, evars, slot uids), making each
function's proof — its statistics, its derivation, and its error text —
a pure function of (body, spec, context, lemmas).  This is what makes
parallel results byte-identical to serial ones: a worker process and the
parent produce the very same names.

Workers never parse or elaborate: the parent elaborates each unit once,
pickles its :class:`TypedProgram` once per call, and every task carries
that blob.  Each worker memoises unpickled programs by the blob's
sha256, so the memo is content addressed — a unit key reused with
different source (a daemon tenant, a fuzz round) simply misses — and a
unit's functions share one program, warm refinement caches included.

Collector policy.  Proof search allocates many short-lived container
objects (terms, tuples, continuation closures, search states).  At
CPython's default young-generation threshold of 700 the cyclic
collector ran 106 young and 9 middle collections per cold Figure-7
pass, and in a long-lived process the occasional full one, freeing
little: terms keep no reference to themselves, so what a check drops is
mostly freed by reference counting.  :func:`run_units` therefore runs
its whole body (the front end ``verify_files`` streams into it
included) under the threshold :data:`GC_THRESHOLD0` and restores the
caller's thresholds on exit; a lock-guarded depth count lets nested and
concurrent calls (several daemons in one process) share it without
leaving it raised.  Every pool worker applies it in its initializer,
after ``gc.freeze()``: a fork worker inherits the parent's heap by
copy-on-write, and frozen, that heap is out of reach of the worker's
collections, which would otherwise walk it in every full collection
and so copy its pages.  Forkserver workers (the daemon's) inherit no
threshold from the parent, hence the initializer sets it.
"""

from __future__ import annotations

import gc
import hashlib
import itertools
import multiprocessing
import pickle
import threading
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from contextlib import contextmanager
from dataclasses import dataclass
from dataclasses import field as dataclass_field
from pathlib import Path
from typing import Callable, Collection, Iterator, Optional

from ..lithium import search as _search
from ..pure import terms as _terms
from ..pure.memo import clear_pure_caches
from ..refinedc import checker as _checker
from ..refinedc.checker import (FunctionResult, ProgramResult, TypedProgram,
                                check_function, missing_body_result,
                                verification_targets)
from ..trace.profile import trace_summary
from ..trace.tracer import (FunctionTrace, Tracer, merge_function_traces,
                            set_current, trace_env_enabled)
from .cache import ResultCache
from .metrics import DriverMetrics, PhaseTimings

#: The cyclic collector's young-generation threshold while the driver
#: checks functions (CPython's default is 700); see the module notes.
GC_THRESHOLD0 = 20_000

# The collector's thresholds are process-wide, so the state that guards
# them is too: the number of policy holders and what the first one found.
_gc_lock = threading.Lock()
_gc_depth = 0
_gc_saved = gc.get_threshold()


@contextmanager
def _collector_policy() -> Iterator[None]:
    """Run the body under :data:`GC_THRESHOLD0`; the outermost exit
    restores the thresholds found on the outermost entry."""
    global _gc_depth, _gc_saved
    with _gc_lock:
        if not _gc_depth:
            _gc_saved = gc.get_threshold()
            gc.set_threshold(GC_THRESHOLD0, *_gc_saved[1:])
        _gc_depth += 1
    try:
        yield
    finally:
        with _gc_lock:
            _gc_depth -= 1
            if not _gc_depth:
                gc.set_threshold(*_gc_saved)


def reset_fresh_counters() -> None:
    """Reset every global fresh-name counter the proof search draws from.

    Called before each function check (serial and parallel alike) so a
    function's verification is deterministic and independent of what was
    checked before it — in this process or any other.

    Only names are reset.  The interned terms and every pure memo stay:
    they map term structure to derived data, equality is structural, and
    the side conditions of a unit's functions repeat heavily, so what one
    check built serves the next.  Results never depend on them; only
    hit-rate telemetry varies with the schedule."""
    _search._FRESH_VAR_COUNTER = itertools.count(1)
    _terms._EVAR_COUNTER = itertools.count()
    _checker.FnCtx._slot_counter = itertools.count(1)


@dataclass
class DriverConfig:
    """Driver knobs, shared by ``verify_source``/``verify_file`` and the
    multi-unit entry point.  ``cache_dir`` names the result cache and
    planner state of a planned run (see :func:`run_units`); ``None``
    means no cache."""

    jobs: int = 1                 # <=0 means "one per CPU"
    cache_dir: Optional[Path] = None
    trace: Optional[bool] = None  # None: defer to the RC_TRACE env var

    def resolved_jobs(self) -> int:
        if self.jobs > 0:
            return self.jobs
        return max(1, multiprocessing.cpu_count())

    def resolved_trace(self) -> bool:
        if self.trace is not None:
            return bool(self.trace)
        return trace_env_enabled()

    def open_cache(self) -> Optional[ResultCache]:
        if self.cache_dir is None:
            return None
        return ResultCache(self.cache_dir)


@dataclass
class Unit:
    """One translation unit of work for the driver."""

    key: str                      # stable id (study name / path stem)
    source: str
    tp: TypedProgram
    lemmas: Optional[dict] = None
    timings: Optional[PhaseTimings] = None   # parse/elaborate, if measured
    front_trace: Optional[FunctionTrace] = None  # parse/elaborate events
    # stat signature of the file ``source`` was read from, kept in a
    # long-lived caller's memo (see incremental.load_source)
    signature: Optional[tuple] = None


#: ``on_unit(key, result, metrics)`` of :func:`run_units`
UnitCallback = Callable[[str, ProgramResult, DriverMetrics], None]


@dataclass
class FunctionPlan:
    """What the incremental planner decided for one function.

    ``action`` is ``"check"`` (the function is dirty: re-verify it) or
    ``"reuse"`` (it is clean: ``result`` holds the cached
    ``(FunctionResult, wall)`` to restore verbatim).  ``store_key`` is
    the function's transitive key, under which a re-checked outcome is
    stored; ``roots`` lists the changed input nodes that dirtied the
    function (for telemetry)."""

    action: str                        # "check" | "reuse"
    store_key: Optional[str] = None
    result: Optional[tuple] = None     # (FunctionResult, wall_s)
    roots: tuple[str, ...] = ()


@dataclass
class UnitPlan:
    """Per-unit schedule from :mod:`repro.driver.incremental`: one
    :class:`FunctionPlan` per checkable function, plus ``order``, the
    ``check`` functions in dependency (callee-before-caller) order."""

    functions: dict[str, FunctionPlan] = dataclass_field(
        default_factory=dict)
    order: tuple[str, ...] = ()


# ---------------------------------------------------------------------
# Worker side.  Module-level so fork, forkserver and spawn workers can
# all import it.
# ---------------------------------------------------------------------

#: cap on each worker's memo of unpickled programs; fuzz campaigns
#: stream thousands of distinct one-shot units through one pool
_PROGRAM_MEMO_CAP = 64

_PROGRAMS: dict[str, TypedProgram] = {}


def _init_worker() -> None:
    """Pool initializer: freeze the inherited heap, then apply the
    collector policy (see the module notes)."""
    gc.freeze()
    gc.set_threshold(GC_THRESHOLD0, *gc.get_threshold()[1:])


def _worker_check(unit_key: str, fn_name: str, digest: str, blob: bytes,
                  tracing: bool):
    """The one pool task: check ``fn_name`` of the pickled program
    ``blob`` (whose sha256 is ``digest``)."""
    tp = _PROGRAMS.get(digest)
    if tp is None:
        tp = pickle.loads(blob)
        if len(_PROGRAMS) >= _PROGRAM_MEMO_CAP:
            _PROGRAMS.clear()
        _PROGRAMS[digest] = tp
    fr, wall, trace = _traced_check(tp, fn_name, tracing)
    return unit_key, fn_name, fr, wall, trace


class PoolSession:
    """A worker pool that outlives a single :func:`run_units` call.

    ``run_units`` normally builds a fresh process pool per call, which is
    right for one big batch but pays pool cold-start (fork + imports) on
    *every* call when a caller streams many small batches — exactly the
    fuzz campaign's shape: thousands of tiny units over hundreds of
    rounds.  A session keeps one pool warm across calls:

        with PoolSession(jobs=4) as session:
            for batch in rounds:
                run_units(batch, DriverConfig(jobs=4), session=session)

    A call without a session runs on a temporary one, so results are
    byte-identical either way: workers reset the fresh-name counters
    before every check, and their program memo is keyed by content.  If
    the pool breaks (a worker died mid-task), :meth:`reset` discards it;
    the next call lazily builds a new one."""

    def __init__(self, jobs: int = 0, mp_context=None) -> None:
        self.jobs = jobs if jobs > 0 else max(1, multiprocessing.cpu_count())
        self._pool: Optional[ProcessPoolExecutor] = None
        self._mp_context = mp_context
        self.batches = 0      # telemetry: run_units calls served
        self.tasks = 0        # telemetry: function checks dispatched
        self.resets = 0
        self.created_at = time.time()

    def executor(self) -> ProcessPoolExecutor:
        if self._pool is None:
            self._pool = ProcessPoolExecutor(
                max_workers=self.jobs,
                mp_context=self._mp_context or _pool_context(),
                initializer=_init_worker)
        return self._pool

    def reset(self) -> None:
        """Tear the pool down (it is rebuilt lazily on next use).  Call
        after a pool-level failure — e.g. the fuzz oracle's crash
        fallback — so one poisoned worker does not fail every later
        batch."""
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None
            self.resets += 1

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def __enter__(self) -> "PoolSession":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def _traced_check(tp: TypedProgram, name: str, tracing: bool
                  ) -> tuple[FunctionResult, float, Optional[tuple]]:
    """Check one function, optionally under a fresh per-function tracer.

    With tracing on, the *semantic* memo caches are also dropped before
    the check: cross-function cache warmth depends on the schedule (which
    worker checked what, in which order), and clearing it per function is
    what makes the memo hit/miss event stream — and hence the whole trace
    — byte-identical between serial and parallel runs.  Results never
    depend on the caches either way; tracing trades some cross-function
    speedup for a reproducible event stream.

    Returns ``(result, wall, (events, dropped) | None)``."""
    reset_fresh_counters()
    if not tracing:
        t0 = time.perf_counter()
        fr = check_function(tp, name)
        return fr, time.perf_counter() - t0, None
    clear_pure_caches()
    tracer = Tracer(scope=name)
    previous = set_current(tracer)
    t0 = time.perf_counter()
    try:
        tracer.begin("check", name)
        try:
            fr = check_function(tp, name)
        finally:
            tracer.end()
    finally:
        wall = time.perf_counter() - t0
        tracer.close()
        set_current(previous)
    if tracer.events:
        # The check span's outcome is known only after the fact.
        tracer.events[0].args["ok"] = fr.ok
    return fr, wall, (tracer.events, tracer.dropped)


def _pool_context():
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in methods else "spawn")


# ---------------------------------------------------------------------
# The driver proper.
# ---------------------------------------------------------------------

#: one collected check: ``((unit, function), (result, wall, trace))``
Outcome = tuple[tuple[str, str],
                tuple[FunctionResult, float, Optional[tuple]]]


@_collector_policy()
def run_units(units: Collection[Unit],
              config: Optional[DriverConfig] = None,
              session: Optional[PoolSession] = None,
              on_unit: Optional[UnitCallback] = None,
              state_cache: Optional[dict] = None
              ) -> dict[str, tuple[ProgramResult, DriverMetrics]]:
    """Verify several translation units under one scheduler.

    Sharing the pool across units is what makes whole-evaluation runs
    scale: pool startup is paid once and the per-function tasks of all
    units load-balance together.

    ``units`` is consumed lazily, once: each unit's pending functions
    are dispatched the moment it arrives, so a caller that elaborates
    units on the fly (``frontend.verify_files`` hands over a stream)
    overlaps its front end with the workers' checks.  ``len(units)``
    must still be the number of units.

    With a ``config.cache_dir`` the run is planned, one unit at a time
    as it arrives, by an :class:`repro.driver.incremental.Planner`: a
    clean function reuses its cached outcome, the dirty subset is
    checked in the plan's dependency order, and each re-checked outcome
    is written to the result cache under its transitive key.  A unit
    the planner replays from ``state_cache`` (a long-lived caller's
    memo) gets its memoized ``(result, metrics)`` pair back as is,
    without a check.  The planner state is saved once, after the last
    unit; a call that raises saves none.

    ``session`` reuses a caller-owned warm :class:`PoolSession` instead
    of starting (and paying for) a fresh pool for this call.

    ``on_unit(key, result, metrics)`` is called once per unit, as soon
    as that unit's last function is collected; units with no pending
    work are reported together, before the next unit that has some and
    after the last arrival.  Callers that stream (the serve daemon) pass
    it; the returned map is the same either way.

    The whole call, a streamed front end included, runs under the
    driver's collector policy (see the module notes)."""
    config = config or DriverConfig()
    jobs = config.resolved_jobs()
    store = config.open_cache()
    tracing = config.resolved_trace()
    lone = len(units) == 1
    planner = None
    if store is not None:
        from .incremental import Planner   # incremental imports this module
        planner = Planner(store, tracing, jobs, state_cache)

    t_start = 0.0
    metrics: dict[str, DriverMetrics] = {}
    plans: dict[str, UnitPlan] = {}
    collected: dict[tuple[str, str], tuple[FunctionResult, float, str]] = {}
    traces: dict[tuple[str, str], FunctionTrace] = {}
    remaining: dict[str, int] = {}
    units_by_key: dict[str, Unit] = {}
    out: dict[str, tuple[ProgramResult, DriverMetrics]] = {}
    # Units done on arrival, not yet reported.  They are reported
    # together, before the next unit with pending work and after the
    # last arrival: they cost nothing to hold, and a burst lets a
    # streaming caller batch its writes (the serve daemon makes one
    # socket write per wake-up).
    settled: list[str] = []

    def finish(unit: Unit) -> None:
        result = ProgramResult()
        m = metrics[unit.key]
        # Assemble in spec order, so dict iteration (and therefore
        # reports) is byte-identical to the serial reference path.
        for name in unit.tp.specs:
            item = collected.get((unit.key, name))
            if item is None:
                continue
            fr, wall, state = item
            result.functions[name] = fr
            m.add_function(fr, state, wall)
        # Elapsed time is shared by every unit on the pool; a unit's own
        # checking cost is the sum of its live function walls.  "clean"
        # entries carry the *original* run's wall time.
        m.wall_s = time.perf_counter() - t_start if lone else \
            sum(f.wall_s for f in m.functions if f.cache != "clean")
        if tracing:
            # Deterministic merge: front end first, then the live-checked
            # functions in spec order — independent of the schedule that
            # produced the buffers.  Clean functions have no buffer (they
            # were not re-checked).
            by_fn = {name: buf for (ukey, name), buf in traces.items()
                     if ukey == unit.key}
            unit_trace = merge_function_traces(
                unit.key, unit.front_trace, by_fn, iter(unit.tp.specs))
            result.trace = unit_trace
            m.trace = trace_summary(unit_trace)
        out[unit.key] = (result, m)

    def report_settled() -> None:
        if on_unit is not None:
            for key in settled:
                on_unit(key, *out[key])
        settled.clear()

    def admit(unit: Unit) -> list[str]:
        """Plan ``unit``, set up its metrics and collect what needs no
        check; return its pending functions in check order.  A unit
        with none is done here: its outcome, replayed by the planner or
        assembled by ``finish``, is in ``out``."""
        units_by_key[unit.key] = unit
        plan = planner.admit(unit) if planner is not None else None
        if isinstance(plan, tuple):
            out[unit.key] = plan
            return []
        m = DriverMetrics(study=unit.key, jobs=jobs,
                          cache_enabled=store is not None)
        if unit.timings is not None:
            m.phases.parse_s = unit.timings.parse_s
            m.phases.elaborate_s = unit.timings.elaborate_s
        metrics[unit.key] = m
        to_check, missing = verification_targets(unit.tp)
        for name in missing:
            collected[(unit.key, name)] = \
                (missing_body_result(name), 0.0, "off")
        if plan is None:
            pending = to_check
        else:
            plans[unit.key] = plan
            for name, fplan in plan.functions.items():
                if fplan.action == "reuse":
                    fr, wall = fplan.result
                    collected[(unit.key, name)] = (fr, wall, "clean")
            # The dirty subset in dependency (callee-before-caller)
            # order: at jobs=1 a caller's re-check always sees already
            # re-validated callee specs.
            pending = list(plan.order)
        remaining[unit.key] = len(pending)
        if not pending:
            finish(unit)
        return pending

    def collect(outcomes: Iterator[Outcome]) -> None:
        for (ukey, name), (fr, wall, trace) in outcomes:
            plan = plans.get(ukey)
            collected[(ukey, name)] = (fr, wall,
                                       "off" if plan is None else "dirty")
            metrics[ukey].functions_rechecked += 1
            if trace is not None:
                events, dropped = trace
                traces[(ukey, name)] = FunctionTrace(ukey, name, events,
                                                     dropped)
            if plan is not None:
                store.put(plan.functions[name].store_key, fr, wall)
            remaining[ukey] -= 1
            if not remaining[ukey]:
                finish(units_by_key[ukey])
                if on_unit is not None:
                    on_unit(ukey, *out[ukey])

    dispatch = _Dispatch(jobs, tracing, session)
    try:
        for arrived, unit in enumerate(units, 1):
            if arrived == 1:
                t_start = time.perf_counter()
            pending = admit(unit)
            if not pending:
                settled.append(unit.key)
                continue
            report_settled()
            collect(dispatch.add(unit, pending, len(units) - arrived))
        report_settled()
        collect(dispatch.drain())
    finally:
        dispatch.close()
    if planner is not None:
        planner.commit(out)
    return {key: out[key] for key in units_by_key}


class _Dispatch:
    """The one dispatch loop of :func:`run_units`, serial and pooled.

    Each arriving unit's pending functions are routed at once.  At
    width 1 they are checked in-process, in arrival order — the serial
    reference path.  Wider, the first pending function is held back:
    the pool starts only when a second one exists, sized
    ``min(width, functions pending so far + units still to come)``, so
    a lone function never pays for a pool and is checked in-process at
    the end.  A unit whose program does not pickle (an unpicklable
    user-supplied lemma) is checked in-process rather than failing the
    run; the other units still go to the pool.  Every unit's program is
    pickled at most once per call.

    ``add`` yields the outcomes of the in-process checks it ran, and
    never waits for the pool; ``drain`` runs a held-back function and
    yields every pool outcome as it completes."""

    def __init__(self, jobs: int, tracing: bool,
                 session: Optional[PoolSession]) -> None:
        if session is not None and session.jobs > 1:
            jobs = session.jobs
        else:
            session = None
        self.width = jobs
        self.tracing = tracing
        self.session = session
        self.temporary: Optional[PoolSession] = None
        self.pool: Optional[ProcessPoolExecutor] = None
        self.held: Optional[tuple[Unit, str]] = None
        self.blobs: dict[str, Optional[tuple[str, bytes]]] = {}
        self.futures: list = []

    def add(self, unit: Unit, names: list[str],
            units_left: int) -> Iterator[Outcome]:
        work = [(unit, name) for name in names]
        if self.width <= 1:
            for item in work:
                yield self._local(*item)
            return
        if self.held is not None:
            work.insert(0, self.held)
            self.held = None
        if self.pool is None and len(work) == 1:
            self.held = work[0]
            return
        ship, local = [], []
        for item in work:
            (local if self._blob(item[0]) is None else ship).append(item)
        if self.pool is None and len(ship) == 1:
            self.held = ship.pop()
        if ship:
            self._submit(ship, units_left)
        for item in local:
            yield self._local(*item)

    def drain(self) -> Iterator[Outcome]:
        if self.held is not None:
            held, self.held = self.held, None
            yield self._local(*held)
        for fut in as_completed(self.futures):
            ukey, name, fr, wall, trace = fut.result()
            yield (ukey, name), (fr, wall, trace)

    def close(self) -> None:
        if self.temporary is not None:
            self.temporary.close()

    def _local(self, unit: Unit, name: str) -> Outcome:
        return (unit.key, name), _traced_check(unit.tp, name, self.tracing)

    def _blob(self, unit: Unit) -> Optional[tuple[str, bytes]]:
        """``(sha256, pickled program)`` of ``unit``, made once per call;
        ``None`` if the program does not pickle."""
        if unit.key not in self.blobs:
            try:
                blob = pickle.dumps(unit.tp)
            except (pickle.PicklingError, AttributeError, TypeError):
                self.blobs[unit.key] = None
            else:
                self.blobs[unit.key] = (hashlib.sha256(blob).hexdigest(),
                                        blob)
        return self.blobs[unit.key]

    def _submit(self, ship: list[tuple[Unit, str]], units_left: int) -> None:
        session = self.session or self.temporary
        if session is None:
            session = self.temporary = PoolSession(
                min(self.width, len(ship) + units_left))
        if self.pool is None:
            self.pool = session.executor()
            session.batches += 1
        session.tasks += len(ship)
        for unit, name in ship:
            self.futures.append(self.pool.submit(
                _worker_check, unit.key, name, *self._blob(unit),
                self.tracing))
