"""Parallel scheduling: process-pool results equal serial results.

Per-function verification is spec-modular (each function is checked
against its callees' *specs*), so the driver may verify functions in any
order, in any process — these tests pin down that doing so changes
nothing observable."""

import multiprocessing
import os

import pytest

from repro.driver import DriverConfig, Unit, run_units
from repro.frontend import verify_file, verify_files
from repro.lang.elaborate import elaborate_source
from repro.proofs.manual import LEMMAS_BY_STUDY
from repro.pure.solver import Lemma

from .conftest import ALL_STUDIES, fingerprint, study_path

JOBS = int(os.environ.get("RC_TEST_JOBS", "2"))


@pytest.mark.slow
@pytest.mark.parametrize("study", ALL_STUDIES)
def test_parallel_equals_serial_every_study(study):
    serial = verify_file(study_path(study), jobs=1)
    parallel = verify_file(study_path(study), jobs=JOBS)
    assert serial.ok and parallel.ok
    assert fingerprint(serial) == fingerprint(parallel)


def test_parallel_equals_serial_quick():
    """The fast inner-loop version over two representative studies."""
    for study in ("mpool", "hashmap"):
        serial = verify_file(study_path(study), jobs=1)
        parallel = verify_file(study_path(study), jobs=JOBS)
        assert fingerprint(serial) == fingerprint(parallel)


def test_parallel_preserves_function_order():
    serial = verify_file(study_path("mpool"), jobs=1)
    parallel = verify_file(study_path("mpool"), jobs=JOBS)
    assert list(serial.result.functions) == list(parallel.result.functions)


def test_parallel_keeps_derivations():
    out = verify_file(study_path("mpool"), jobs=JOBS)
    for fr in out.result.functions.values():
        assert fr.derivations, "worker results must carry derivations"
        assert fr.derivations[0].count("rule") > 0


def test_parallel_failure_reporting():
    src = study_path("alloc").read_text().replace(
        "{n <= a} @ optional", "{n < a} @ optional")
    from repro.frontend import verify_source
    serial = verify_source(src, jobs=1)
    parallel = verify_source(src, jobs=JOBS)
    assert not serial.ok and not parallel.ok
    assert fingerprint(serial) == fingerprint(parallel)
    assert "Cannot prove side condition" in parallel.report()


def test_verify_files_shared_pool():
    paths = [study_path(s) for s in ("mpool", "spinlock", "barrier")]
    serial = verify_files(paths, jobs=1)
    parallel = verify_files(paths, jobs=JOBS)
    assert list(serial) == list(parallel) == ["mpool", "spinlock",
                                              "barrier"]
    for study in serial:
        assert fingerprint(serial[study]) == fingerprint(parallel[study])


def test_jobs_zero_means_cpu_count():
    out = verify_file(study_path("spinlock"), jobs=0)
    assert out.ok
    assert out.metrics.jobs == (os.cpu_count() or 1)


def test_unpicklable_program_falls_back_to_serial():
    """A program that does not pickle (here: user lemmas of a local
    class) cannot be shipped to workers; the run takes the serial path
    and still returns the serial results."""
    class LocalLemma(Lemma):
        pass

    table = {name: LocalLemma(lm.name, lm.params, lm.hyps, lm.conclusion,
                              lm.triggers)
             for name, lm in LEMMAS_BY_STUDY["hashmap"].items()}
    source = study_path("hashmap").read_text()
    unit = Unit(key="hashmap", source=source,
                tp=elaborate_source(source, table), lemmas=table)
    result, _metrics = run_units([unit], DriverConfig(jobs=JOBS))["hashmap"]
    serial = verify_file(study_path("hashmap"), jobs=1)
    assert result.ok
    assert [(n, fr.stats.counters()) for n, fr in result.functions.items()] \
        == [(n, fr.stats.counters())
            for n, fr in serial.result.functions.items()]


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="workers must inherit the patched checker")
def test_worker_error_is_not_retried_serially(monkeypatch):
    """Only pickling the programs may send a run down the serial path: a
    ``TypeError`` raised inside a worker (a checker bug) must surface,
    not be silently re-run in the parent."""
    from repro.driver import pool
    parent = os.getpid()
    real_check = pool.check_function

    def check_in_parent_only(tp, name):
        if os.getpid() != parent:
            raise TypeError("checker bug in a worker")
        return real_check(tp, name)

    monkeypatch.setattr(pool, "check_function", check_in_parent_only)
    source = study_path("mpool").read_text()
    unit = Unit(key="mpool", source=source, tp=elaborate_source(source))
    with pytest.raises(TypeError, match="checker bug in a worker"):
        run_units([unit], DriverConfig(jobs=max(2, JOBS)))
