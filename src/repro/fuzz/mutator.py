"""Mutation testing for the type checker.

Each template ships *designed-unsound* annotation perturbations —
widened or narrowed refinements, dropped ownership/bounds, off-by-one
sizes.  A sound checker must reject them all; the fraction it rejects
(the **kill rate**) measures false acceptance the way mutation testing
measures test-suite strength.

A surviving mutant is graded by what the oracle can do with it:

* ``SURVIVED_DEMONSTRATED`` — the mutant carries a witness input and the
  Caesium machine really hits UB on it: a *proven* soundness bug;
* ``SURVIVED_UNDEMONSTRATED`` — accepted, but the oracle could not
  exhibit UB (the mutant's unsoundness is about functional contracts or
  needs inputs we cannot demonstrate); still reported, lower confidence.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional, Sequence

from ..driver import PoolSession
from .generator import GenProgram, Mutant
from .oracle import CheckResult, CheckVerdict, check_batch, run_witness


class MutantVerdict(enum.Enum):
    KILLED = "killed"
    SURVIVED_DEMONSTRATED = "survived-demonstrated"
    SURVIVED_UNDEMONSTRATED = "survived-undemonstrated"
    CRASH = "crash"


@dataclass
class MutantResult:
    template: str
    params: dict
    mutant: Mutant
    verdict: MutantVerdict
    index: int = 0            # campaign index of the parent program
    ub_class: Optional[str] = None
    detail: str = ""
    #: coverage signature of the mutant's *check* (rejection paths
    #: exercise rules the sound originals never reach)
    signature: Optional[frozenset] = None


def _as_program(prog: GenProgram, mutant: Mutant) -> GenProgram:
    """View a mutant as a program of the same template/params so the
    batch checker and the witness runner can treat it uniformly."""
    return GenProgram(template=prog.template, params=prog.params,
                      index=prog.index, source=mutant.source,
                      entry=prog.entry, concurrent=prog.concurrent)


def grade_mutant(prog: GenProgram, mutant: Mutant, check: CheckResult,
                 witness_killed: bool = False) -> MutantResult:
    """Turn a mutant's check result into a verdict, running the UB
    witness for accepted mutants that carry one.

    With ``witness_killed=True`` the witness also runs for *killed*
    mutants: the demonstrated UB class does not change the verdict, but
    it records which UB classes the differential oracle exercised — the
    ``ub:`` dimension of campaign coverage."""
    if check.verdict is CheckVerdict.CRASH:
        return MutantResult(prog.template, prog.params, mutant,
                            MutantVerdict.CRASH, index=prog.index,
                            detail=check.detail, signature=check.signature)
    if check.verdict is CheckVerdict.REJECTED:
        ub = None
        if witness_killed and mutant.has_witness and check.tp is not None:
            ub = run_witness(prog.template, mutant.name, prog.params,
                             check.tp)
        return MutantResult(prog.template, prog.params, mutant,
                            MutantVerdict.KILLED, index=prog.index,
                            ub_class=ub, detail=check.detail,
                            signature=check.signature)
    # Accepted: a designed-unsound annotation got through.
    if mutant.has_witness and check.tp is not None:
        ub = run_witness(prog.template, mutant.name, prog.params, check.tp)
        if ub is not None:
            return MutantResult(
                prog.template, prog.params, mutant,
                MutantVerdict.SURVIVED_DEMONSTRATED, index=prog.index,
                ub_class=ub,
                detail=f"accepted mutant exhibits {ub} at runtime",
                signature=check.signature)
    return MutantResult(prog.template, prog.params, mutant,
                        MutantVerdict.SURVIVED_UNDEMONSTRATED,
                        index=prog.index,
                        detail="accepted; no UB witness demonstrated",
                        signature=check.signature)


def evaluate_mutants(progs: Sequence[GenProgram], jobs: int = 1,
                     limit: Optional[int] = None, coverage: bool = False,
                     witness_killed: bool = False,
                     session: Optional[PoolSession] = None
                     ) -> list[MutantResult]:
    """Check every mutant of every program (up to ``limit`` per program)
    as one driver batch, then grade survivors with their witnesses."""
    work: list[tuple[str, GenProgram, Mutant]] = []
    for prog in progs:
        chosen = prog.mutants[:limit] if limit is not None else prog.mutants
        for mutant in chosen:
            # Key by the campaign-global program index, never the position
            # within this call, so one key names one program for the whole
            # campaign in results and findings.
            work.append((f"p{prog.index}:{mutant.name}", prog, mutant))
    checks = check_batch([(key, _as_program(prog, mutant))
                          for key, prog, mutant in work], jobs=jobs,
                         coverage=coverage, session=session)
    return [grade_mutant(prog, mutant, checks[key],
                         witness_killed=witness_killed)
            for key, prog, mutant in work]
