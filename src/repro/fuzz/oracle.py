"""The soundness oracle: check with the toolchain, execute on Caesium.

The differential-testing contract (adequacy, §5):

* a program the checker **accepts** must never raise
  ``UndefinedBehavior`` when executed on the Caesium machine, for any
  input satisfying its precondition and any thread interleaving — a UB
  (or an observable result contradicting the spec) is a **soundness
  bug**;
* the checker itself must only ever fail by raising
  ``VerificationError`` (reported as a rejection) — any other exception
  escaping verification is a **robustness bug**;
* running out of fuel proves nothing: the run is **inconclusive**, not a
  pass and not a failure (:class:`repro.caesium.FuelExhausted`).
"""

from __future__ import annotations

import enum
import random
import traceback
from dataclasses import dataclass
from typing import Optional, Sequence

from ..caesium.eval import FuelExhausted
from ..caesium.values import UndefinedBehavior
from ..driver import DriverConfig, PoolSession, Unit, run_units
from ..lang.elaborate import elaborate_source
from ..lithium.search import VerificationError
from ..refinedc.checker import TypedProgram
from ..trace.signature import signature_of
from .generator import DEFAULT_FUEL, TEMPLATES, GenProgram, SpecViolation


class CheckVerdict(enum.Enum):
    ACCEPTED = "accepted"
    REJECTED = "rejected"
    CRASH = "crash"          # non-VerificationError escaped: robustness bug


class ExecStatus(enum.Enum):
    PASS = "pass"
    UB = "ub"                          # soundness bug
    SPEC_VIOLATION = "spec-violation"  # soundness bug (wrong result)
    INCONCLUSIVE = "inconclusive"      # fuel ran out: proves nothing
    EXEC_ERROR = "exec-error"          # harness/interpreter failure


@dataclass
class CheckResult:
    verdict: CheckVerdict
    detail: str = ""                   # first error / traceback summary
    tp: Optional[TypedProgram] = None  # present when elaboration succeeded
    #: coverage signature of the check (rule/search/solver keys distilled
    #: from the trace); only populated when checking with ``coverage=True``
    signature: Optional[frozenset] = None


@dataclass
class ExecResult:
    status: ExecStatus
    trials: int = 0
    passes: int = 0
    inconclusive: int = 0
    ub_class: Optional[str] = None
    detail: str = ""


# ---------------------------------------------------------------------
# Checking.
# ---------------------------------------------------------------------

def _first_failure(result) -> str:
    for name, fr in result.functions.items():
        if not fr.ok:
            return f"{name}: {fr.format_error()}"
    return ""


def _signature(result) -> Optional[frozenset]:
    return signature_of(result.trace) if result.trace is not None else None


def check_program(prog: GenProgram, coverage: bool = False) -> CheckResult:
    """Serial reference path: verify one generated program.

    With ``coverage=True`` the check runs under tracing and the result
    carries the distilled coverage signature."""
    try:
        tp = elaborate_source(prog.source)
    except Exception:
        # Generated sources are well-formed by construction, so a
        # front-end failure is a robustness bug, same as a checker crash.
        return CheckResult(CheckVerdict.CRASH,
                           traceback.format_exc(limit=4))
    try:
        result, _ = run_units(
            [Unit(key="fuzz", source=prog.source, tp=tp)],
            DriverConfig(jobs=1, trace=coverage))["fuzz"]
    except VerificationError as e:
        return CheckResult(CheckVerdict.REJECTED, str(e), tp)
    except Exception:
        return CheckResult(CheckVerdict.CRASH,
                           traceback.format_exc(limit=4), tp)
    if result.ok:
        return CheckResult(CheckVerdict.ACCEPTED, tp=tp,
                           signature=_signature(result))
    return CheckResult(CheckVerdict.REJECTED, _first_failure(result), tp,
                       signature=_signature(result))


def check_batch(progs: Sequence[tuple[str, GenProgram]], jobs: int = 1,
                coverage: bool = False,
                session: Optional[PoolSession] = None
                ) -> dict[str, CheckResult]:
    """Verify a batch of generated programs on the driver's process pool.

    ``progs`` is a sequence of ``(key, program)`` pairs with unique keys.
    With ``jobs > 1`` all functions of all programs load-balance on one
    pool — a warm caller-owned ``session`` skips pool cold-start per
    batch.  If the pooled run blows up (a checker crash takes the whole
    pool down), the session is reset and every program is retried
    serially so the crash is *attributed* to the program that caused it.

    With ``coverage=True`` checks run under tracing and every result
    carries its coverage signature; signatures are deterministic across
    ``jobs`` and across the serial fallback (the trace determinism
    contract)."""
    units, out = [], {}
    tps: dict[str, TypedProgram] = {}
    for key, prog in progs:
        try:
            tp = elaborate_source(prog.source)
        except Exception:
            out[key] = CheckResult(CheckVerdict.CRASH,
                                   traceback.format_exc(limit=4))
            continue
        tps[key] = tp
        units.append(Unit(key=key, source=prog.source, tp=tp))
    if units:
        try:
            results = run_units(units, DriverConfig(jobs=jobs,
                                                    trace=coverage),
                                session=session)
            for key, (result, _metrics) in results.items():
                if result.ok:
                    out[key] = CheckResult(CheckVerdict.ACCEPTED,
                                           tp=tps[key],
                                           signature=_signature(result))
                else:
                    out[key] = CheckResult(CheckVerdict.REJECTED,
                                           _first_failure(result), tps[key],
                                           signature=_signature(result))
        except Exception:
            # Pool-level failure: drop the poisoned pool, then attribute
            # per program on the serial reference path.
            if session is not None:
                session.reset()
            by_key = dict(progs)
            for unit in units:
                out[unit.key] = check_program(by_key[unit.key],
                                              coverage=coverage)
    return out


# ---------------------------------------------------------------------
# Execution.
# ---------------------------------------------------------------------

def execute_program(prog: GenProgram, tp: TypedProgram, rng: random.Random,
                    trials: int = 6, fuel: int = DEFAULT_FUEL) -> ExecResult:
    """Execute an *accepted* program over randomised inputs (and, for
    concurrent templates, interleavings), comparing behaviour against
    the spec.  Severity order: UB > spec violation > exec error >
    inconclusive > pass."""
    template = TEMPLATES[prog.template]
    passes = inconclusive = 0
    for i in range(trials):
        try:
            template.run_trial(prog.params, tp, rng, fuel=fuel)
            passes += 1
        except FuelExhausted:
            inconclusive += 1
        except UndefinedBehavior as ub:
            return ExecResult(ExecStatus.UB, trials=i + 1, passes=passes,
                              inconclusive=inconclusive,
                              ub_class=ub.category.value, detail=str(ub))
        except SpecViolation as sv:
            return ExecResult(ExecStatus.SPEC_VIOLATION, trials=i + 1,
                              passes=passes, inconclusive=inconclusive,
                              detail=str(sv))
        except Exception:
            return ExecResult(ExecStatus.EXEC_ERROR, trials=i + 1,
                              passes=passes, inconclusive=inconclusive,
                              detail=traceback.format_exc(limit=4))
    status = ExecStatus.INCONCLUSIVE if inconclusive and not passes \
        else ExecStatus.PASS
    return ExecResult(status, trials=trials, passes=passes,
                      inconclusive=inconclusive)


def run_witness(template_name: str, mutant_name: str, params: dict,
                tp: TypedProgram, fuel: int = DEFAULT_FUEL
                ) -> Optional[str]:
    """Run a surviving mutant's UB witness.  Returns the demonstrated UB
    class, or ``None`` if the demonstration did not trigger UB."""
    template = TEMPLATES[template_name]
    try:
        template.witness(mutant_name, params, tp, fuel=fuel)
    except FuelExhausted:
        return None
    except UndefinedBehavior as ub:
        return ub.category.value
    except Exception:
        return None
    return None
