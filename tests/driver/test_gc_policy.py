"""The driver's collector policy: ``run_units`` checks functions under
``pool.GC_THRESHOLD0`` and hands the caller back the thresholds it
found, on return, on a raise, and when calls overlap in threads.  (That
pool workers apply the policy is pinned in ``test_streaming``.)"""

import gc
import sys
import threading

import pytest

from repro.driver import DriverConfig, Unit, pool, run_units
from repro.lang.elaborate import elaborate_source

from .conftest import study_path

#: the caller's own thresholds, distinct from both CPython's default
#: and the policy's
CALLER = (1234, 11, 12)


def _unit(stem):
    source = study_path(stem).read_text()
    return Unit(key=stem, source=source, tp=elaborate_source(source))


@pytest.fixture
def caller_thresholds():
    saved = gc.get_threshold()
    gc.set_threshold(*CALLER)
    yield
    gc.set_threshold(*saved)


@pytest.fixture
def on_check(monkeypatch):
    """``on_check(hook)``: run ``hook(name)`` before every in-process
    function check."""
    hooks = []
    real = pool.check_function

    def check_function(tp, name):
        for hook in hooks:
            hook(name)
        return real(tp, name)

    monkeypatch.setattr(pool, "check_function", check_function)
    return hooks.append


def test_checks_run_under_the_policy_and_the_caller_gets_its_own_back(
        caller_thresholds, on_check):
    seen = []
    on_check(lambda name: seen.append(gc.get_threshold()))
    result, _metrics = run_units([_unit("alloc")],
                                 DriverConfig(jobs=1))["alloc"]
    assert result.ok and seen
    assert set(seen) == {(pool.GC_THRESHOLD0, *CALLER[1:])}
    assert gc.get_threshold() == CALLER


def test_a_raising_check_restores_the_caller_thresholds(caller_thresholds,
                                                        on_check):
    def boom(name):
        raise RuntimeError("check crashed")

    on_check(boom)
    with pytest.raises(RuntimeError, match="check crashed"):
        run_units([_unit("alloc")], DriverConfig(jobs=1))
    assert gc.get_threshold() == CALLER


def test_overlapping_calls_in_two_threads(caller_thresholds, on_check):
    """The first call to return leaves the policy in force for the one
    still running; the last one out restores the caller's thresholds."""
    first_in, second_in, first_out = (threading.Event() for _ in range(3))
    during_second = []
    errors = []

    def hook(name):
        if threading.current_thread().name == "first":
            if not first_in.is_set():
                first_in.set()
                assert second_in.wait(10)
        elif not second_in.is_set():
            second_in.set()
            assert first_out.wait(10)
            during_second.append(gc.get_threshold())

    on_check(hook)

    def run(stem, done=None):
        try:
            result, _ = run_units([_unit(stem)],
                                  DriverConfig(jobs=1))[stem]
            assert result.ok
        except BaseException as exc:   # noqa: BLE001 — asserted below
            errors.append(exc)
        finally:
            if done is not None:
                done.set()

    first = threading.Thread(target=run, args=("alloc", first_out),
                             name="first")
    second = threading.Thread(target=run, args=("free_list",),
                              name="second")
    first.start()
    assert first_in.wait(10)
    second.start()
    first.join(30)
    second.join(30)
    assert not first.is_alive() and not second.is_alive()
    assert not errors, errors
    assert during_second == [(pool.GC_THRESHOLD0, *CALLER[1:])]
    assert gc.get_threshold() == CALLER


def test_many_threads_entering_and_leaving(caller_thresholds):
    """More threads than cores, switching often: a lost update of the
    depth count would leave the policy's threshold in force."""
    errors = []

    def churn():
        try:
            for _ in range(200):
                assert run_units([], DriverConfig(jobs=1)) == {}
        except BaseException as exc:   # noqa: BLE001 — asserted below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=churn) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not errors, errors
    assert gc.get_threshold() == CALLER
