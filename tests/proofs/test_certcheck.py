"""Certificate checking: derivations re-validate independently of the
search engine."""

import pytest

from repro.frontend import verify_file
from repro.proofs.certcheck import check_derivation
from repro.pure.solver import PureSolver
from repro.pure.terms import Term, intlit, le
from repro.refinedc.rules import REGISTRY
from repro.report import casestudies_dir


@pytest.fixture(scope="module")
def alloc_outcome():
    return verify_file(casestudies_dir() / "alloc.c")


def test_alloc_certificate_checks(alloc_outcome):
    fr = alloc_outcome.result.functions["alloc"]
    report = check_derivation(fr.derivations[0], REGISTRY, PureSolver())
    assert report.ok, report.problems
    assert report.rules_checked > 50
    # All of alloc's side conditions re-prove.
    assert report.side_conditions_rechecked >= 10
    assert report.side_conditions_skipped == 0


def test_all_rules_in_derivation_are_registered(alloc_outcome):
    names = {r.name for r in REGISTRY.all_rules()}
    fr = alloc_outcome.result.functions["alloc"]
    for node in fr.derivations[0].walk():
        if node.kind == "rule":
            assert node.label in names


def test_tampered_derivation_detected(alloc_outcome):
    """Forging a rule name in the derivation is caught."""
    import copy
    fr = alloc_outcome.result.functions["alloc"]
    forged = copy.deepcopy(fr.derivations[0])
    for node in forged.walk():
        if node.kind == "rule":
            object.__setattr__ if False else setattr(node, "label",
                                                     "FORGED-RULE")
            break
    report = check_derivation(forged, REGISTRY, PureSolver())
    assert not report.ok
    assert any("FORGED-RULE" in p for p in report.problems)


def _forge_first_side_condition(fr, label):
    import copy
    forged = copy.deepcopy(fr.derivations[0])
    for node in forged.walk():
        if node.kind == "side_condition" and node.detail["hypotheses"]:
            node.label = label
            return forged
    raise AssertionError("no side condition with hypotheses")


def test_tampered_side_condition_detected(alloc_outcome):
    """Claiming a false side condition was proved is caught on re-check."""
    fr = alloc_outcome.result.functions["alloc"]
    forged = _forge_first_side_condition(fr, le(intlit(1), intlit(0)))
    report = check_derivation(forged, REGISTRY, PureSolver())
    assert not report.ok
    assert any("does not re-check" in p for p in report.problems)


def test_forged_string_side_condition_is_a_problem(alloc_outcome):
    """A side condition labelled with a string instead of a term is a
    malformed certificate: reported, neither skipped nor raised."""
    fr = alloc_outcome.result.functions["alloc"]
    forged = _forge_first_side_condition(fr, "le(1, 0)")
    report = check_derivation(forged, REGISTRY, PureSolver())
    assert not report.ok
    assert any("malformed" in p for p in report.problems)
    assert report.side_conditions_skipped == 0


@pytest.mark.parametrize("hypotheses", [None, ["le(0, 1)"], "x"])
def test_malformed_hypotheses_are_a_problem(alloc_outcome, hypotheses):
    fr = alloc_outcome.result.functions["alloc"]
    forged = _forge_first_side_condition(fr, le(intlit(0), intlit(1)))
    for node in forged.walk():
        if node.kind == "side_condition":
            if hypotheses is None:
                del node.detail["hypotheses"]
            else:
                node.detail["hypotheses"] = hypotheses
            break
    report = check_derivation(forged, REGISTRY, PureSolver())
    assert any("malformed" in p for p in report.problems)
    assert report.side_conditions_skipped == 0


def test_side_condition_leaves_carry_terms(alloc_outcome):
    fr = alloc_outcome.result.functions["alloc"]
    leaves = [n for d in fr.derivations for n in d.walk()
              if n.kind == "side_condition"]
    assert leaves
    for node in leaves:
        assert isinstance(node.label, Term)
        assert isinstance(node.detail["hypotheses"], tuple)
        assert all(isinstance(h, Term) for h in node.detail["hypotheses"])


def test_no_solver_counts_skipped(alloc_outcome):
    fr = alloc_outcome.result.functions["alloc"]
    report = check_derivation(fr.derivations[0], REGISTRY)
    assert report.ok, report.problems
    assert report.side_conditions_rechecked == 0
    assert report.side_conditions_skipped == fr.derivations[0].count(
        "side_condition")


def test_free_list_certificate(alloc_outcome):
    out = verify_file(casestudies_dir() / "free_list.c")
    fr = out.result.functions["free_chunk"]
    solver = PureSolver(tactics=["multiset_solver"])
    for d in fr.derivations:
        report = check_derivation(d, REGISTRY, solver)
        assert report.ok, report.problems


def test_counts_match_stats(alloc_outcome):
    """The derivation records as many rule applications as the stats."""
    fr = alloc_outcome.result.functions["alloc"]
    recorded = sum(d.count("rule") for d in fr.derivations)
    assert recorded == fr.stats.rule_applications

