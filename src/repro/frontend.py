"""The RefinedC toolchain entry point (Figure 2).

``verify_source``/``verify_file`` run the whole pipeline: (A) the front end
parses the annotated C and elaborates it to Caesium + specifications, (B)
Lithium executes the typing rules, (C) pure side conditions are discharged
by the default solver, the ``rc::tactics`` solvers, and the ``rc::lemmas``
manual facts.

Stage (B)+(C) is scheduled by the verification driver
(:mod:`repro.driver`): ``jobs=N`` verifies independent functions on a
process pool, ``cache_dir=DIR`` plans the run through the dependency
graph and result cache stored under ``DIR`` (only functions whose
inputs changed are re-checked), and every run records per-phase metrics
(``VerificationOutcome.metrics``).  The defaults (``jobs=1``, no cache)
keep the classic serial behaviour.

``trace=True`` (or ``RC_TRACE=1``) additionally records a structured
proof-search trace — front-end spans, per-function rule/solver/evar/
context events — exposed as ``VerificationOutcome.trace`` (a
:class:`repro.trace.tracer.UnitTrace`) and summarised in the metrics'
``trace`` block.  Failing functions then carry a stuck-goal report
(``VerificationError.stuck``) rendered by ``report()``.

``verify_files`` verifies several translation units under one shared
scheduler — the way the Figure 7 evaluation runs — so pool startup is paid
once and the units' functions load-balance together.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator, Optional, Sequence, Union

from .driver import DriverConfig, DriverMetrics, PhaseTimings, Unit, run_units
from .driver.incremental import load_source
from .lang.elaborate import elaborate_unit
from .lang.parser import parse
from .proofs.manual import LEMMAS_BY_STUDY
from .pure.solver import Lemma
from .refinedc.checker import ProgramResult, TypedProgram
from .trace.tracer import (FunctionTrace, Tracer, UnitTrace, set_current,
                           trace_env_enabled)


@dataclass
class VerificationOutcome:
    """Everything the toolchain produces for one translation unit."""

    typed_program: TypedProgram
    result: ProgramResult
    study: str = ""
    metrics: Optional[DriverMetrics] = None
    # what this call's front end did for the unit: read the source
    # bytes, and parse and elaborate them (a long-lived caller's memo
    # can spare both; see ``verify_files``)
    read: bool = True
    parsed: bool = True

    @property
    def ok(self) -> bool:
        return self.result.ok

    @property
    def trace(self) -> Optional[UnitTrace]:
        """The merged proof-search trace, when the run was traced."""
        tr = self.result.trace
        return tr if isinstance(tr, UnitTrace) else None

    def report(self) -> str:
        lines = []
        for name, fr in self.result.functions.items():
            status = "verified" if fr.ok else "FAILED"
            lines.append(f"{name}: {status} "
                         f"({fr.stats.rule_applications} rule applications, "
                         f"{fr.stats.side_conditions_auto} side conditions "
                         f"auto, {fr.stats.side_conditions_manual} manual)")
            if not fr.ok:
                lines.append(fr.format_error())
                stuck = getattr(fr.error, "stuck", None)
                if stuck is not None:
                    lines.append(stuck.render())
        if self.metrics is not None:
            lines.append(self.metrics.summary())
        return "\n".join(lines)


def _front_end(source: str, lemmas: Optional[dict[str, Lemma]],
               tracing: bool = False, unit_key: str = "<unit>"
               ) -> tuple[TypedProgram, PhaseTimings,
                          Optional[FunctionTrace]]:
    """Run stage (A), timing parse and elaborate separately.  When tracing,
    the parse/elaborate spans land in a front-end buffer (the ``""``
    function slot of the merged :class:`UnitTrace`)."""
    timings = PhaseTimings()
    tracer = previous = None
    if tracing:
        tracer = Tracer(scope=unit_key)
        previous = set_current(tracer)
    try:
        t0 = time.perf_counter()
        if tracer is not None:
            tracer.begin("frontend", "parse")
        try:
            unit = parse(source)
        finally:
            if tracer is not None:
                tracer.end()
        t1 = time.perf_counter()
        if tracer is not None:
            tracer.begin("frontend", "elaborate")
        try:
            tp = elaborate_unit(unit, source, lemmas)
        finally:
            if tracer is not None:
                tracer.end()
        t2 = time.perf_counter()
    finally:
        if tracer is not None:
            tracer.close()
            set_current(previous)
    timings.parse_s = t1 - t0
    timings.elaborate_s = t2 - t1
    front = None
    if tracer is not None:
        front = FunctionTrace(unit=unit_key, function="",
                              events=tracer.events, dropped=tracer.dropped)
    return tp, timings, front


def verify_source(source: str,
                  lemmas: Optional[dict[str, Lemma]] = None,
                  study: str = "", *,
                  jobs: int = 1,
                  cache_dir: Optional[Union[str, Path]] = None,
                  trace: Optional[bool] = None
                  ) -> VerificationOutcome:
    """Verify annotated C source text.

    A ``cache_dir`` plans the run through the dependency-aware
    re-verification engine (:mod:`repro.driver.incremental`): only
    functions whose fingerprinted inputs changed since the state stored
    there are re-checked; the others reuse their cached outcomes."""
    key = study or "<unit>"
    tracing = trace_env_enabled() if trace is None else bool(trace)
    tp, timings, front = _front_end(source, lemmas, tracing, key)
    config = DriverConfig(jobs=jobs, cache_dir=cache_dir, trace=tracing)
    unit = Unit(key=key, source=source, tp=tp, lemmas=lemmas,
                timings=timings, front_trace=front)
    result, metrics = run_units([unit], config)[unit.key]
    return VerificationOutcome(tp, result, study, metrics)


def verify_file(path: Union[str, Path],
                lemmas: Optional[dict[str, Lemma]] = None, *,
                jobs: int = 1,
                cache_dir: Optional[Union[str, Path]] = None,
                trace: Optional[bool] = None
                ) -> VerificationOutcome:
    """Verify an annotated C file.  Manual lemma tables registered for the
    file's stem (see :mod:`repro.proofs.manual`) are picked up
    automatically — the analogue of the companion Coq proof files."""
    path = Path(path)
    study = path.stem
    if lemmas is None:
        lemmas = LEMMAS_BY_STUDY.get(study)
    return verify_source(path.read_text(), lemmas, study, jobs=jobs,
                         cache_dir=cache_dir, trace=trace)


def verify_files(paths: Sequence[Union[str, Path]], *,
                 jobs: int = 1,
                 cache_dir: Optional[Union[str, Path]] = None,
                 trace: Optional[bool] = None,
                 session=None,
                 state_cache: Optional[dict] = None,
                 ledger: bool = True,
                 on_unit: Optional[Callable[[str, VerificationOutcome],
                                            None]] = None
                 ) -> dict[str, VerificationOutcome]:
    """Verify several annotated C files under one shared scheduler.

    Returns outcomes keyed by file stem, in input order.  With ``jobs>1``
    every (file, function) pair is one task on a single process pool.
    Files go through the front end one at a time, inside the driver
    call, and each file's functions are dispatched as soon as it is
    elaborated, so parsing and elaborating later files overlaps the
    checks of earlier ones.  A ``cache_dir`` re-checks only the
    functions whose fingerprinted inputs changed since the last run
    against that directory; each file is planned as it arrives, so a
    planned run streams the same way.

    A long-lived caller (the serve daemon) passes ``session`` (a warm
    :class:`repro.driver.PoolSession`) to reuse one worker pool across
    calls and ``state_cache``, its memo of incremental planner state,
    elaborated programs and source identities: an unchanged
    ``depgraph.json`` is not re-read, a source file whose stat signature
    is the one recorded when its text was last read is not opened (see
    :func:`repro.driver.incremental.load_source`), and a unit whose
    source hashes as it did last time is neither re-parsed nor
    re-elaborated (its ``PhaseTimings`` read 0, and a traced run gets an
    empty front-end buffer for the planner's events).  Each outcome's
    ``read`` and ``parsed`` say which of these the call did.  Batch
    callers pass no ``state_cache`` and always read every file and run
    the front end.  ``ledger=False`` suppresses the per-call ``verify``
    ledger record for callers that append their own richer one.
    ``on_unit(stem, outcome)`` streams: it is called once per unit, as
    soon as that unit's last function is checked (see
    :func:`repro.driver.run_units`)."""
    tracing = trace_env_enabled() if trace is None else bool(trace)
    # stem -> (program, source read, front end run)
    fronts: dict[str, tuple[TypedProgram, bool, bool]] = {}

    def front_end(path: Path) -> Unit:
        study = path.stem
        lemmas = LEMMAS_BY_STUDY.get(study)
        if state_cache is None:
            source, signature, tp, read = path.read_text(), None, None, True
        else:
            source, signature, tp, read = load_source(state_cache, study,
                                                      path)
        parsed = tp is None
        if parsed:
            tp, timings, front = _front_end(source, lemmas, tracing, study)
        else:
            timings = PhaseTimings()
            front = FunctionTrace(unit=study, function="") \
                if tracing else None
        fronts[study] = (tp, read, parsed)
        return Unit(key=study, source=source, tp=tp, lemmas=lemmas,
                    timings=timings, front_trace=front, signature=signature)

    def outcome(study: str, result: ProgramResult,
                metrics: DriverMetrics) -> VerificationOutcome:
        tp, read, parsed = fronts[study]
        return VerificationOutcome(tp, result, study, metrics, read, parsed)

    units = _UnitStream(paths, front_end)
    config = DriverConfig(jobs=jobs, cache_dir=cache_dir, trace=tracing)
    report = None
    if on_unit is not None:
        def report(study, result, metrics):
            on_unit(study, outcome(study, result, metrics))
    t0 = time.perf_counter()
    results = run_units(units, config, session=session, on_unit=report,
                        state_cache=state_cache)
    # The front end ran inside the driver call; the check wall is the
    # rest of it, as when every unit was elaborated before the call.
    wall = time.perf_counter() - t0 - units.front_s
    outcomes = {study: outcome(study, result, metrics)
                for study, (result, metrics) in results.items()}
    if ledger:
        _ledger_record(outcomes, jobs=config.resolved_jobs(), wall_s=wall,
                       cached=cache_dir is not None)
    return outcomes


class _UnitStream:
    """The units of ``paths``, each built by ``front_end`` (read, parse,
    elaborate) only when the driver reaches it, so the driver can check
    one unit while the next is elaborated.  Sized, and iterable again
    without rebuilding: the built units are kept.  ``front_s`` is the
    wall spent building."""

    def __init__(self, paths: Sequence[Union[str, Path]],
                 front_end: Callable[[Path], Unit]) -> None:
        self.paths = [p if isinstance(p, Path) else Path(p)
                      for p in paths]
        self.front_end = front_end
        self.built: list[Unit] = []
        self.front_s = 0.0

    def __len__(self) -> int:
        return len(self.paths)

    def __iter__(self) -> Iterator[Unit]:
        for i, path in enumerate(self.paths):
            if i == len(self.built):
                t0 = time.perf_counter()
                self.built.append(self.front_end(path))
                self.front_s += time.perf_counter() - t0
            yield self.built[i]


def _ledger_record(outcomes: dict, *, jobs: int, wall_s: float,
                   cached: bool) -> None:
    """Append one run-ledger record when ``RC_LEDGER`` opts in (see
    :mod:`repro.obs.ledger`).  The off path is one environ lookup; the
    imports stay lazy so untelemetered runs never load the observatory.
    The driver-level run shape (cached and planned, or not) goes into
    the record's config block: it changes the wall time as much as any
    environment flag, so it must split the sentinel's comparability
    pools.  ``result_cache`` and ``incremental`` are both written and
    always equal, so pools built from older records stay comparable."""
    from .obs.ledger import ledger_env_path, record_run
    if ledger_env_path() is None:
        return
    from .obs.aggregate import costs_of_outcomes
    record_run("verify", wall_s=wall_s, jobs=jobs,
               metrics=[o.metrics for o in outcomes.values()
                        if o.metrics is not None],
               costs=costs_of_outcomes(outcomes.values()),
               config_extra={"result_cache": cached,
                             "incremental": cached})
