"""Determinism: repeated runs produce identical statistics and errors.

The driver resets the global fresh-name counters before every function
check, so a verification is a pure function of (body, spec, context,
lemmas) — independent of run order, process, and job count.  These tests
pin that down for both the serial and the parallel scheduler."""

import pickle

import pytest

from repro.driver import DriverConfig, Unit, run_units
from repro.frontend import verify_file, verify_source
from repro.lang.elaborate import elaborate_source
from repro.proofs.manual import LEMMAS_BY_STUDY
from repro.report import EXTRA_STUDIES, FIGURE7_STUDIES

from .conftest import fingerprint, study_path

STUDIES = ["mpool", "threadsafe_alloc"]
JOB_COUNTS = [1, 4]


@pytest.mark.parametrize("study", STUDIES)
@pytest.mark.parametrize("jobs", JOB_COUNTS)
def test_stats_identical_across_runs(study, jobs):
    path = study_path(study)
    first = verify_file(path, jobs=jobs)
    second = verify_file(path, jobs=jobs)
    assert first.ok and second.ok
    for name in first.result.functions:
        c1 = first.result.functions[name].stats.counters()
        c2 = second.result.functions[name].stats.counters()
        assert c1 == c2, f"{study}.{name} counters differ between runs"


@pytest.mark.parametrize("study", STUDIES)
def test_stats_identical_across_job_counts(study):
    path = study_path(study)
    outs = [verify_file(path, jobs=j) for j in JOB_COUNTS]
    assert fingerprint(outs[0]) == fingerprint(outs[1])


def _seeded_failure_source(study):
    """A deliberately broken variant with a deterministic error."""
    src = study_path(study).read_text()
    if study == "mpool":
        broken = src.replace('rc::args("&own<uninit<64>>")',
                             'rc::args("&own<uninit<65>>")', 1)
    else:
        broken = src.replace(
            'returns("b @ optional<&own<uninit<n>>, null>")',
            'returns("b @ optional<&own<uninit<{n+1}>>, null>")', 1)
    assert broken != src
    return broken


@pytest.mark.parametrize("study", STUDIES)
@pytest.mark.parametrize("jobs", JOB_COUNTS)
def test_error_text_identical_across_runs(study, jobs):
    broken = _seeded_failure_source(study)
    first = verify_source(broken, jobs=jobs)
    second = verify_source(broken, jobs=jobs)
    assert not first.ok and not second.ok
    errs1 = {n: fr.format_error()
             for n, fr in first.result.functions.items()}
    errs2 = {n: fr.format_error()
             for n, fr in second.result.functions.items()}
    assert errs1 == errs2
    assert any(errs1.values())


@pytest.mark.parametrize("study", STUDIES)
def test_error_text_identical_across_job_counts(study):
    broken = _seeded_failure_source(study)
    serial = verify_source(broken, jobs=1)
    parallel = verify_source(broken, jobs=4)
    assert fingerprint(serial) == fingerprint(parallel)


@pytest.mark.parametrize("study", [stem for stem, _cls in
                                   FIGURE7_STUDIES + EXTRA_STUDIES])
def test_typed_program_pickles_and_checks_identically(study):
    """Pool workers receive the parent's elaborated program pickled, so
    every study's ``TypedProgram`` must round-trip through ``pickle`` and
    check to the same fingerprint as the original."""
    source = study_path(study).read_text()
    tp = elaborate_source(source, LEMMAS_BY_STUDY.get(study))
    copy = pickle.loads(pickle.dumps(tp))
    outcomes = [run_units([Unit(key=study, source=source, tp=program)],
                          DriverConfig(jobs=1))[study][0]
                for program in (tp, copy)]
    rows = [[(name, fr.ok, fr.stats.counters(), fr.format_error())
             for name, fr in result.functions.items()]
            for result in outcomes]
    assert outcomes[0].ok
    assert rows[0] == rows[1]
