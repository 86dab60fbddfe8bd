"""Independent checking of Lithium derivations.

The paper keeps the Lithium interpreter out of the TCB because it produces
genuine Coq proofs.  Our substitute: proof search records an explicit
derivation tree (:mod:`repro.lithium.derivation`), and this module
re-validates it *without trusting the search engine's control flow*:

* every ``side_condition`` leaf is re-proved from its recorded hypotheses
  by a **fresh** solver instance.  The leaf carries the goal and
  hypothesis :class:`~repro.pure.terms.Term` objects themselves, so they
  go to the solver as recorded, with no printing and re-parsing in
  between; a leaf whose goal or hypotheses are not terms is reported as
  a problem.  The solver's memo caches are process-wide: call
  :func:`repro.pure.memo.clear_pure_caches` first so that a re-check in
  the process that searched is not answered from the search's entries;
* every ``rule`` node names a rule actually registered for its judgment;
* every ``atom_match`` has a subsumption sub-derivation;
* the search was structurally non-backtracking (each node appears once,
  the tree only ever extends — a violated invariant would show up as
  duplicated or orphaned nodes).

This is weaker than a Coq kernel.  It re-checks the *pure* layer but
trusts what the derivation records: that each side condition's
hypotheses really were the Γ facts in scope at that point, and the
statements of the typing rules its rule nodes name.  It is still an
independent artifact: a bug in the search engine that produced a bogus
derivation is caught here, and the adequacy harness covers the semantic
layer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..lithium.derivation import DNode
from ..pure.solver import Outcome, PureSolver
from ..pure.terms import Term


@dataclass
class CertificateReport:
    """The result of re-checking one derivation."""

    rules_checked: int = 0
    side_conditions_rechecked: int = 0
    side_conditions_skipped: int = 0     # no solver given to re-prove with
    atom_matches: int = 0
    problems: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.problems


_KNOWN_KINDS = {
    "proof", "true", "conj_branch", "forall_intro", "exists_intro", "rule",
    "side_condition", "side_condition_deferred", "atom_match", "assume",
    "intro_atom", "vacuous", "evar_unify", "evar_simplify",
    "evar_linear_solve",
}


def check_derivation(root: DNode, registry, solver: Optional[PureSolver]
                     = None) -> CertificateReport:
    """Re-validate a derivation tree against the rule registry.

    ``solver`` is the solver configuration the function was entitled to
    (its rc::tactics and rc::lemmas); every side condition recorded as
    solved is re-run with it.  Without a solver they are counted as
    skipped.
    """
    report = CertificateReport()
    rule_names = {r.name for r in registry.all_rules()}
    seen: set[int] = set()
    for node in root.walk():
        if id(node) in seen:
            report.problems.append("derivation dag-shares a node "
                                   "(backtracking artefact)")
            continue
        seen.add(id(node))
        if node.kind not in _KNOWN_KINDS:
            report.problems.append(f"unknown derivation step {node.kind!r}")
        if node.kind == "rule":
            report.rules_checked += 1
            if node.label not in rule_names:
                report.problems.append(
                    f"derivation uses unregistered rule {node.label!r}")
        if node.kind == "atom_match":
            report.atom_matches += 1
            if not any(c.kind == "rule" for c in node.walk()):
                report.problems.append(
                    f"atom match for {node.label} has no subsumption "
                    f"derivation")
        if node.kind == "side_condition":
            _recheck_side_condition(node, solver, report)
    return report


def check_outcome(outcome, registry) -> dict[str, list[CertificateReport]]:
    """Re-check the derivations of every accepted function of one
    verification outcome, each with the solver its spec entitles it to
    (its rc::tactics and rc::lemmas); one report per derivation."""
    reports = {}
    for name, fr in outcome.result.functions.items():
        if fr.ok:
            spec = outcome.typed_program.specs[name]
            solver = PureSolver(tactics=spec.tactics, lemmas=spec.lemmas)
            reports[name] = [check_derivation(d, registry, solver)
                             for d in fr.derivations]
    return reports


def _recheck_side_condition(node: DNode, solver: Optional[PureSolver],
                            report: CertificateReport) -> None:
    """Re-prove a recorded side condition with a fresh solver, from the
    goal term and hypothesis terms the leaf carries.  A leaf whose goal or
    hypotheses are not terms is a malformed certificate: a problem, never
    a pass."""
    goal = node.label
    hyps = node.detail.get("hypotheses")
    if not isinstance(goal, Term) or not isinstance(hyps, (tuple, list)) \
            or not all(isinstance(h, Term) for h in hyps):
        report.problems.append(
            f"malformed side condition certificate: {goal!r}")
        return
    if solver is None:
        report.side_conditions_skipped += 1
        return
    fresh = PureSolver(tactics=solver.tactics, lemmas=solver.lemmas)
    result = fresh.prove(hyps, goal)
    report.side_conditions_rechecked += 1
    if result.outcome is Outcome.FAILED:
        report.problems.append(
            f"side condition does not re-check: {goal!r}")
