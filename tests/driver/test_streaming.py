"""Streamed dispatch: each unit goes to the pool as soon as it is
elaborated.

``verify_files`` hands ``run_units`` its units one at a time, and the
driver dispatches a unit's pending functions the moment the unit
arrives, so the parent's front end overlaps the workers' checks.  These
tests pin that overlap, that it changes no result, how the pool is
sized, where an unpicklable unit goes, what a front-end failure
mid-stream leaves behind, and that every worker freezes the heap it
starts with and runs under the driver's collector policy."""

import gc
import multiprocessing
import shutil
from concurrent.futures import ProcessPoolExecutor

import pytest

import repro.frontend as frontend
from repro.driver import DriverConfig, PoolSession, Unit, pool, run_units
from repro.driver.incremental import STATE_FILE
from repro.frontend import verify_file, verify_files
from repro.lang.elaborate import elaborate_source
from repro.lang.parser import ParseError
from repro.proofs.manual import LEMMAS_BY_STUDY
from repro.pure.solver import Lemma

from .conftest import fingerprint, study_path

#: a unit with nothing to check: a trusted external and a body-less spec
NOTHING_TO_CHECK = '''
[[rc::trusted]]
[[rc::parameters("n: nat")]]
[[rc::args("n @ int<size_t>")]]
[[rc::returns("{n * 2} @ int<size_t>")]]
size_t magic(size_t x);

[[rc::parameters("n: nat")]]
[[rc::args("n @ int<size_t>")]]
[[rc::returns("{n + 1} @ int<size_t>")]]
size_t unproved(size_t x);
'''


@pytest.fixture
def events(monkeypatch):
    """The order of front-end runs and pool submits, as
    ``("front", unit)`` and ``("submit", unit)`` entries."""
    log = []
    real_front = frontend._front_end
    real_submit = ProcessPoolExecutor.submit

    def front_end(source, lemmas, tracing=False, unit_key="<unit>"):
        log.append(("front", unit_key))
        return real_front(source, lemmas, tracing, unit_key)

    def submit(self, fn, *args, **kwargs):
        log.append(("submit", args[0]))
        return real_submit(self, fn, *args, **kwargs)

    monkeypatch.setattr(frontend, "_front_end", front_end)
    monkeypatch.setattr(ProcessPoolExecutor, "submit", submit)
    return log


@pytest.fixture
def workers(monkeypatch):
    """The worker count of every pool a call starts."""
    sizes = []
    real = PoolSession.executor

    def executor(self):
        sizes.append(self.jobs)
        return real(self)

    monkeypatch.setattr(PoolSession, "executor", executor)
    return sizes


def test_first_submit_precedes_the_last_front_end(events, tmp_path):
    """Unplanned and planned runs alike: a planned run (a fresh
    ``cache_dir``) plans each unit as it arrives, so it streams too."""
    stems = ["mpool", "queue", "barrier", "spinlock"]
    for cache_dir in (None, tmp_path / "cache"):
        del events[:]
        out = verify_files([study_path(s) for s in stems], jobs=2,
                           cache_dir=cache_dir, ledger=False)
        assert all(o.ok for o in out.values())
        fronts = [i for i, (kind, _) in enumerate(events)
                  if kind == "front"]
        submits = [i for i, (kind, _) in enumerate(events)
                   if kind == "submit"]
        assert [events[i][1] for i in fronts] == stems
        assert submits and submits[0] < fronts[-1], cache_dir
        # mpool's functions went out before queue was even parsed.
        assert events[fronts[0] + 1][0] == "submit", cache_dir


def test_front_end_failure_mid_planned_run(events, tmp_path, monkeypatch):
    """An unparsable third file of four in a planned pooled run: the call
    raises the parse error after the pool started, shuts the pool down
    and writes no planner state; once the file is fixed, the next run
    equals a fresh serial one."""
    stems = ["mpool", "queue", "barrier", "spinlock"]
    paths = []
    for stem in stems:
        paths.append(tmp_path / f"{stem}.c")
        shutil.copy(study_path(stem), paths[-1])
    good = paths[2].read_text()
    paths[2].write_text(good + "\nsize_t broken(size_t x) {\n")
    shutdowns = []
    real_shutdown = ProcessPoolExecutor.shutdown

    def shutdown(self, *args, **kwargs):
        shutdowns.append(self)
        return real_shutdown(self, *args, **kwargs)

    monkeypatch.setattr(ProcessPoolExecutor, "shutdown", shutdown)
    cache = tmp_path / "cache"
    with pytest.raises(ParseError):
        verify_files(paths, jobs=2, cache_dir=cache, ledger=False)
    assert ("submit", "mpool") in events
    assert len(shutdowns) == 1
    assert not (cache / STATE_FILE).exists()

    paths[2].write_text(good)
    planned = verify_files(paths, jobs=2, cache_dir=cache, ledger=False)
    fresh = verify_files(paths, jobs=1, ledger=False)
    assert (cache / STATE_FILE).is_file()
    for stem in stems:
        assert planned[stem].ok
        assert fingerprint(planned[stem]) == fingerprint(fresh[stem])


def test_streamed_pool_equals_serial_in_input_order(tmp_path):
    empty = tmp_path / "nothing.c"
    empty.write_text(NOTHING_TO_CHECK)
    broken = tmp_path / "alloc_broken.c"
    broken.write_text(study_path("alloc").read_text().replace(
        "{n <= a} @ optional", "{n < a} @ optional"))
    paths = [study_path("mpool"), empty, broken, study_path("barrier")]
    stems = ["mpool", "nothing", "alloc_broken", "barrier"]
    serial = verify_files(paths, jobs=1, ledger=False)
    pooled = verify_files(paths, jobs=2, ledger=False)
    assert list(serial) == list(pooled) == stems
    for stem in stems:
        assert fingerprint(serial[stem]) == fingerprint(pooled[stem])
    assert not pooled["alloc_broken"].ok
    assert [fr.ok for fr in pooled["nothing"].result.functions.values()] \
        == [False]
    assert pooled["mpool"].ok and pooled["barrier"].ok


def test_one_function_starts_no_pool(workers):
    out = verify_file(study_path("alloc"), jobs=2)
    assert out.ok and len(out.result.functions) == 1
    assert workers == []


def test_two_functions_start_at_most_two_workers(workers):
    out = verify_file(study_path("barrier"), jobs=8)
    assert out.ok and len(out.result.functions) == 2
    assert workers and max(workers) <= 2


def _unit(stem, lemmas=None):
    source = study_path(stem).read_text()
    return Unit(key=stem, source=source,
                tp=elaborate_source(source, lemmas), lemmas=lemmas)


def test_unpicklable_unit_between_picklable_ones(events):
    """A program that does not pickle (user lemmas of a local class) is
    checked in-process; the units around it still go to the pool."""
    class LocalLemma(Lemma):
        pass

    table = {name: LocalLemma(lm.name, lm.params, lm.hyps, lm.conclusion,
                              lm.triggers)
             for name, lm in LEMMAS_BY_STUDY["hashmap"].items()}
    units = [_unit("mpool"), _unit("hashmap", table), _unit("queue")]
    results = run_units(units, DriverConfig(jobs=2))
    assert {key for kind, key in events if kind == "submit"} \
        == {"mpool", "queue"}
    assert list(results) == ["mpool", "hashmap", "queue"]
    for stem in ("mpool", "hashmap", "queue"):
        serial = verify_file(study_path(stem), jobs=1)
        result, _metrics = results[stem]
        assert result.ok
        assert [(n, fr.stats.counters())
                for n, fr in result.functions.items()] \
            == [(n, fr.stats.counters())
                for n, fr in serial.result.functions.items()]


def _worker_gc(executor):
    """A worker's young-generation threshold and freeze count."""
    return (executor.submit(gc.get_threshold).result()[0],
            executor.submit(gc.get_freeze_count).result())


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="the temporary pool forks its workers")
def test_temporary_fork_pool_workers_freeze_their_heap(monkeypatch):
    assert gc.get_freeze_count() == 0, "the parent must not be frozen"
    states = []
    real = PoolSession.executor

    def executor(self):
        pool_ = real(self)
        states.append(_worker_gc(pool_))
        return pool_

    monkeypatch.setattr(PoolSession, "executor", executor)
    monkeypatch.setattr(pool, "_pool_context",
                        lambda: multiprocessing.get_context("fork"))
    result, _metrics = run_units([_unit("mpool")],
                                 DriverConfig(jobs=2))["mpool"]
    assert result.ok
    assert len(states) == 1
    threshold, frozen = states[0]
    assert threshold == pool.GC_THRESHOLD0 and frozen > 0


@pytest.mark.parametrize("method", ["fork", "forkserver"])
def test_session_workers_freeze_their_heap(method):
    """Outside ``run_units`` too: a forkserver worker inherits nothing
    from the parent, so its initializer applies the policy."""
    if method not in multiprocessing.get_all_start_methods():
        pytest.skip(f"no {method} start method")
    context = multiprocessing.get_context(method)
    with PoolSession(2, mp_context=context) as session:
        threshold, frozen = _worker_gc(session.executor())
    assert threshold == pool.GC_THRESHOLD0 and frozen > 0
