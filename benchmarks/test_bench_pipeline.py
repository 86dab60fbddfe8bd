"""E9 — Figure 2: the RefinedC toolchain pipeline.

Benchmarks each stage separately over a representative case study:
  (A) front end   — lexing/parsing + elaboration to Caesium,
  (B) Lithium     — the typing-rule proof search,
  (C) pure solver — side-condition solving (measured through a replay of
                    the recorded conditions),
plus the certificate re-check of the produced derivation.
"""

import pytest

from repro.driver import DriverConfig, Unit, run_units
from repro.frontend import verify_file
from repro.lang.elaborate import elaborate_source
from repro.lang.parser import parse
from repro.proofs.certcheck import check_derivation
from repro.pure.solver import PureSolver
from repro.refinedc.rules import REGISTRY
from repro.report import casestudies_dir

STUDY = "free_list"
SOURCE = (casestudies_dir() / f"{STUDY}.c").read_text()


def test_stage_a_parse(benchmark):
    unit = benchmark(lambda: parse(SOURCE))
    assert unit.functions


def test_stage_a_elaborate(benchmark):
    tp = benchmark(lambda: elaborate_source(SOURCE))
    assert tp.specs


def check_program(tp):
    """Check every function of ``tp`` on the driver's serial path."""
    unit = Unit(key=STUDY, source=SOURCE, tp=tp)
    return run_units([unit], DriverConfig(jobs=1))[STUDY][0]


def test_stage_b_lithium(benchmark):
    tp = elaborate_source(SOURCE)
    result = benchmark(lambda: check_program(tp))
    assert result.ok


def test_stage_c_side_conditions(benchmark):
    """Replay every recorded side condition through a fresh solver."""
    out = verify_file(casestudies_dir() / f"{STUDY}.c")
    conditions = []
    for fr in out.result.functions.values():
        for d in fr.derivations:
            for node in d.walk():
                if node.kind == "side_condition" and \
                        node.detail.get("hypotheses") is not None:
                    conditions.append(node)
    solver = PureSolver(tactics=["multiset_solver"])

    def replay():
        from repro.proofs.certcheck import _recheck_side_condition, \
            CertificateReport
        report = CertificateReport()
        for node in conditions:
            _recheck_side_condition(node, solver, report)
        return report

    report = benchmark(replay)
    assert not report.problems


def test_certificate_check(benchmark):
    out = verify_file(casestudies_dir() / f"{STUDY}.c")
    derivations = [d for fr in out.result.functions.values()
                   for d in fr.derivations]
    solver = PureSolver(tactics=["multiset_solver"])

    def check_all():
        reports = [check_derivation(d, REGISTRY, solver)
                   for d in derivations]
        return reports

    reports = benchmark(check_all)
    assert all(r.ok for r in reports)


def test_print_pipeline_summary(benchmark, capsys):
    benchmark(lambda: parse(SOURCE))
    import time
    stages = {}
    t0 = time.perf_counter()
    unit = parse(SOURCE)
    stages["(A) parse"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    tp = elaborate_source(SOURCE)
    stages["(A) elaborate"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    result = check_program(tp)
    stages["(B) Lithium + (C) solvers"] = time.perf_counter() - t0
    assert result.ok
    with capsys.disabled():
        print()
        print(f"Pipeline stages over {STUDY}.c (Figure 2):")
        for name, dt in stages.items():
            print(f"  {name:<28} {dt * 1000:8.1f} ms")
