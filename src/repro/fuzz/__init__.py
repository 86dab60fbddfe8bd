"""Soundness fuzzing: differential testing of the checker against Caesium.

RefinedC's headline theorem (§5, adequacy) says the type checker is
*sound*: an accepted program never exhibits undefined behaviour under the
Caesium operational semantics.  The original proves this once and for all
in Coq; a reproduction cannot inherit that proof, so this package *tests*
the property at scale instead — the validation stance of Flux and Verus:

* :mod:`.generator` emits well-formed annotated C programs over the
  supported subset (ints, pointers, structs, loops, calls, optional/own
  types, atomics), biased toward boundary values;
* :mod:`.oracle` checks each program with the real toolchain and executes
  the accepted ones on :class:`repro.caesium.Machine` over randomised
  inputs and (for atomics) interleavings — any ``UndefinedBehavior`` from
  an accepted program is a soundness bug, any non-``VerificationError``
  escape is a robustness bug;
* :mod:`.mutator` perturbs annotations into designed-unsound variants and
  measures how many the checker kills — mutation testing for a verifier;
* :mod:`.shrink` + :mod:`.corpus` minimise and persist counterexamples as
  deterministic regression tests under ``tests/fuzz/corpus/``;
* :mod:`.campaign` runs time- or count-budgeted campaigns on the
  verification driver's process pool and reports metrics-style JSON.
"""

from .campaign import (FUZZ_SCHEMA_VERSION, CampaignConfig, CampaignStats,
                       Finding, finalize_findings, run_campaign)
from .corpus import CorpusEntry, load_corpus, replay_entry, write_entry
from .coverage import (COVERAGE_SCHEMA_VERSION, CoverageMap, SteeringState,
                       oracle_keys, template_weights)
from .generator import (DEFAULT_TEMPLATES, TEMPLATES, GenProgram, Mutant,
                        SpecViolation, generate_program)
from .mutator import MutantResult, MutantVerdict, evaluate_mutants
from .oracle import (CheckResult, CheckVerdict, ExecResult, ExecStatus,
                     check_batch, check_program, execute_program, run_witness)
from .shrink import shrink_params

__all__ = [
    "COVERAGE_SCHEMA_VERSION", "CampaignConfig", "CampaignStats",
    "CheckResult", "CheckVerdict", "CorpusEntry", "CoverageMap",
    "DEFAULT_TEMPLATES", "ExecResult", "ExecStatus",
    "FUZZ_SCHEMA_VERSION", "Finding", "GenProgram", "Mutant",
    "MutantResult", "MutantVerdict", "SpecViolation", "SteeringState",
    "TEMPLATES", "check_batch", "check_program", "evaluate_mutants",
    "execute_program", "finalize_findings", "generate_program",
    "load_corpus", "oracle_keys", "replay_entry", "run_campaign",
    "run_witness", "shrink_params",
    "template_weights", "write_entry",
]
