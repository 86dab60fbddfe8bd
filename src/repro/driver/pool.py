"""The verification driver: parallel, cached, metered checking.

Replaces the serial loop of ``check_program`` for the toolchain entry
points.  Spec-modular checking (§4) makes functions *independent* proof
obligations — each function is verified against the *specs* of its
callees, never their bodies — so the work list is embarrassingly
parallel.  The driver:

1. schedules independent functions onto a **process pool** (``jobs > 1``),
   with a deterministic in-process serial path as the ``jobs = 1``
   fallback and reference semantics;
2. follows the incremental planner's per-unit plans
   (:mod:`.incremental`): a clean function's outcome comes from the
   content-addressed result cache (:mod:`.cache`) without a check, and a
   re-checked one is written back under its transitive key;
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
"""

from __future__ import annotations

import hashlib
import itertools
import multiprocessing
import pickle
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass
from dataclasses import field as dataclass_field
from pathlib import Path
from typing import Optional, Sequence

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


def reset_fresh_counters() -> None:
    """Reset every global fresh-name counter the proof search draws from.

    Called before each function check (serial and parallel alike) so a
    function's verification is deterministic and independent of what was
    checked before it — in this process or any other."""
    _search._FRESH_VAR_COUNTER = itertools.count(1)
    _terms._EVAR_COUNTER = itertools.count()
    _checker.FnCtx._slot_counter = itertools.count(1)
    # Drop the term intern tables so the per-function terms_interned
    # metric only counts this function's constructions.  The semantic
    # memo caches (simplify/linarith/lists/sets) deliberately survive:
    # they map term structure to term structure, equality is structural,
    # and the checked conditions repeat heavily across the functions of a
    # unit — cross-function hits are where most of the memo speedup
    # comes from.  Verification results are unaffected either way; only
    # hit-rate telemetry varies with schedule.  (The compiled forms in
    # node slots die with the tables; the dict-level caches re-stamp
    # them on first reuse, so this costs one lookup per node.)
    _terms.clear_term_caches()


@dataclass
class DriverConfig:
    """Driver knobs, shared by ``verify_source``/``verify_file`` and the
    multi-unit entry point.  ``cache_dir`` names the result cache and
    planner state of a planned run (``run_units_incremental``); ``None``
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
    :class:`FunctionPlan` per checkable function, plus the dependency
    (callee-before-caller) order for the dirty subset."""

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
                mp_context=self._mp_context or _pool_context())
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

def run_units(units: Sequence[Unit], config: Optional[DriverConfig] = None,
              plans: Optional[dict] = None,
              session: Optional[PoolSession] = None
              ) -> dict[str, tuple[ProgramResult, DriverMetrics]]:
    """Verify several translation units under one scheduler.

    Sharing the pool across units is what makes whole-evaluation runs
    scale: pool startup is paid once and the per-function tasks of all
    units load-balance together.

    ``plans`` (unit key → :class:`UnitPlan`) is the incremental path:
    planned units reuse cached results for clean functions and schedule
    only the dirty subset, in the plan's dependency order; re-checked
    outcomes are written to the result cache under the plan's
    ``store_key``.  Functions no plan mentions are checked uncached.

    ``session`` reuses a caller-owned warm :class:`PoolSession` instead
    of starting (and paying for) a fresh pool for this call."""
    config = config or DriverConfig()
    plans = plans or {}
    jobs = config.resolved_jobs()
    store = config.open_cache()
    tracing = config.resolved_trace()

    t_start = time.perf_counter()
    results: dict[str, ProgramResult] = {}
    metrics: dict[str, DriverMetrics] = {}
    # (unit_key, fn_name) -> bookkeeping for assembly.
    cache_keys: dict[tuple[str, str], str] = {}
    collected: dict[tuple[str, str], tuple[FunctionResult, float, str]] = {}
    traces: dict[tuple[str, str], FunctionTrace] = {}
    pending: list[tuple[str, str]] = []
    units_by_key = {u.key: u for u in units}

    for unit in units:
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
        plan = plans.get(unit.key)
        unit_pending: list[str] = []
        for name in to_check:
            fplan = plan.functions.get(name) if plan is not None else None
            if fplan is not None:
                if fplan.action == "reuse" and fplan.result is not None:
                    fr, wall = fplan.result
                    collected[(unit.key, name)] = (fr, wall, "clean")
                    continue
                if store is not None and fplan.store_key is not None:
                    cache_keys[(unit.key, name)] = fplan.store_key
            unit_pending.append(name)
        if plan is not None and plan.order:
            # Dependency (callee-before-caller) order: at jobs=1 a
            # caller's re-check always sees already re-validated callee
            # specs; unordered stragglers keep their spec order.
            rank = {n: i for i, n in enumerate(plan.order)}
            unit_pending.sort(key=lambda n: (rank.get(n, len(rank)),))
        pending.extend((unit.key, name) for name in unit_pending)

    if pending:
        live = _run_pending(pending, units_by_key, jobs, tracing, session)
        for (ukey, name), (fr, wall, trace) in live.items():
            plan = plans.get(ukey)
            planned = plan is not None and name in plan.functions
            collected[(ukey, name)] = (fr, wall,
                                       "dirty" if planned else "off")
            metrics[ukey].functions_rechecked += 1
            if trace is not None:
                events, dropped = trace
                traces[(ukey, name)] = FunctionTrace(ukey, name, events,
                                                     dropped)
            if store is not None and (ukey, name) in cache_keys:
                store.put(cache_keys[(ukey, name)], fr, wall)

    elapsed = time.perf_counter() - t_start
    out: dict[str, tuple[ProgramResult, DriverMetrics]] = {}
    for unit in units:
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
        m.wall_s = elapsed if len(units) == 1 else \
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
    return out


def _run_pending(pending: list[tuple[str, str]],
                 units_by_key: dict[str, Unit], jobs: int, tracing: bool,
                 session: Optional[PoolSession] = None
                 ) -> dict[tuple[str, str],
                           tuple[FunctionResult, float, Optional[tuple]]]:
    if session is not None and session.jobs > 1:
        jobs = session.jobs
    else:
        session = None
    blobs = _program_blobs(pending, units_by_key) \
        if jobs > 1 and len(pending) > 1 else None
    if blobs is None:
        return _run_serial(pending, units_by_key, tracing)
    if session is not None:
        return _run_parallel(pending, blobs, session, tracing)
    with PoolSession(min(jobs, len(pending))) as temporary:
        return _run_parallel(pending, blobs, temporary, tracing)


def _program_blobs(pending, units_by_key
                   ) -> Optional[dict[str, tuple[str, bytes]]]:
    """Pickle each pending unit's program once: unit key -> ``(sha256,
    blob)``.  ``None`` if a program does not pickle (an unpicklable
    user-supplied lemma): the run then takes the deterministic serial
    path rather than failing."""
    blobs = {}
    try:
        for ukey, _name in pending:
            if ukey not in blobs:
                blob = pickle.dumps(units_by_key[ukey].tp)
                blobs[ukey] = (hashlib.sha256(blob).hexdigest(), blob)
    except (pickle.PicklingError, AttributeError, TypeError):
        return None
    return blobs


def _run_serial(pending, units_by_key, tracing):
    out = {}
    for ukey, name in pending:
        out[(ukey, name)] = _traced_check(units_by_key[ukey].tp, name,
                                          tracing)
    return out


def _run_parallel(pending, blobs, session, tracing):
    pool = session.executor()
    session.batches += 1
    session.tasks += len(pending)
    futures = [pool.submit(_worker_check, ukey, name, *blobs[ukey], tracing)
               for ukey, name in pending]
    out = {}
    for fut in as_completed(futures):
        ukey, name, fr, wall, trace = fut.result()
        out[(ukey, name)] = (fr, wall, trace)
    return out
