"""One driver call per request, and the namespace memo's reuse plans.

A daemon ``verify`` request makes exactly one ``run_units`` call.  A
unit whose memoized reuse plan is still valid — its planner-state
object is the very one the memo recorded — skips planning and result-
cache reads; anything that reloads or changes the planner state (a
deleted ``.rc-cache``, a foreign write of ``depgraph.json``, an edit)
sends the unit back through ``plan_unit`` and ``ResultCache.get``.
"""

import shutil

import pytest

from repro import frontend
from repro.driver import incremental
from repro.driver.cache import ResultCache
from repro.driver.depgraph import engine_fingerprint
from repro.driver.incremental import STATE_FILE, IncrementalState
from repro.serve.protocol import encode_event
from .conftest import done_of, events_of, make_project
from .test_server import rename_local

#: a unit the checker rejects: the body returns ``n``, the spec
#: promises ``n + 1``
REJECTED = '''
[[rc::parameters("n: nat")]]
[[rc::args("n @ int<size_t>")]]
[[rc::returns("{n + 1} @ int<size_t>")]]
size_t wrong(size_t x) { return x; }
'''


@pytest.fixture
def gets(monkeypatch):
    """Transitive keys read from the result cache, in call order."""
    calls = []
    real = ResultCache.get

    def counting(self, key):
        calls.append(key)
        return real(self, key)

    monkeypatch.setattr(ResultCache, "get", counting)
    return calls


@pytest.fixture
def planned(monkeypatch):
    """``(unit key, plan)`` of every ``plan_unit`` call, in call order."""
    calls = []
    real = incremental.plan_unit

    def recording(unit, *args, **kwargs):
        out = real(unit, *args, **kwargs)
        calls.append((unit.key, out[0]))
        return out

    monkeypatch.setattr(incremental, "plan_unit", recording)
    return calls


@pytest.fixture
def saves(monkeypatch):
    calls = []
    real = IncrementalState.save

    def counting(self, cache_dir):
        calls.append(cache_dir)
        return real(self, cache_dir)

    monkeypatch.setattr(IncrementalState, "save", counting)
    return calls


def unit_keys(project, stem):
    state = IncrementalState.load(project / ".rc-cache",
                                  engine_fingerprint())
    return {f["key"] for f in state.units[stem].functions.values()}


def stream_bytes(events):
    """The ``function`` and ``unit`` events, exactly as sent."""
    return [encode_event(ev) for ev in events
            if ev["event"] in ("function", "unit")]


def test_each_request_makes_one_run_units_call(daemon, project,
                                               monkeypatch):
    calls = []
    real = frontend.run_units

    def counting(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(frontend, "run_units", counting)
    _, client = daemon
    client.verify()
    client.verify()
    rename_local(project / "queue.c")
    client.verify()
    client.verify(full=True)
    assert len(calls) == 4
    assert all(len(units) == 2 for units in calls)


def test_memo_serves_noop_without_planning(daemon, gets, planned):
    _, client = daemon
    client.verify()
    client.verify()                   # plans, records the reuse plans
    del gets[:], planned[:]
    done = done_of(client.verify())
    assert done["warm"] is True
    assert planned == [] and gets == []


class TestMemoSoundness:
    def test_deleted_cache_dir_rechecks_everything(self, daemon, project):
        _, client = daemon
        for _ in range(3):
            client.verify()
        shutil.rmtree(project / ".rc-cache")
        events = client.verify()
        done = done_of(events)
        assert done["rechecked"] == done["functions"] > 0
        assert {ev["cache"] for ev in events_of(events, "function")} \
            == {"dirty"}
        assert (project / ".rc-cache" / STATE_FILE).is_file()
        assert done_of(client.verify())["warm"] is True

    def test_foreign_garbage_state_is_replanned(self, daemon, project,
                                                planned):
        _, client = daemon
        for _ in range(3):
            client.verify()
        (project / ".rc-cache" / STATE_FILE).write_text("garbage\n")
        del planned[:]
        events = client.verify()
        assert sorted(key for key, _plan in planned) == ["mpool", "queue"]
        planned_clean = {(key, fn) for key, plan in planned
                         for fn, fp in plan.functions.items()
                         if fp.action == "reuse"}
        reported_clean = {(ev["unit"], ev["name"])
                          for ev in events_of(events, "function")
                          if ev["cache"] == "clean"}
        assert reported_clean <= planned_clean
        assert done_of(events)["ok"] is True

    def test_edit_replans_only_the_edited_unit(self, daemon, project, gets,
                                               planned):
        _, client = daemon
        client.verify()
        client.verify()
        rename_local(project / "queue.c")
        del gets[:], planned[:]
        done = done_of(client.verify())
        assert done["rechecked"] >= 1
        assert [key for key, _plan in planned] == ["queue"]
        assert gets, "the edited unit's clean functions read the cache"
        assert not set(gets) & unit_keys(project, "mpool")
        assert set(gets) <= unit_keys(project, "queue")


class TestStreams:
    def test_cold_pooled_request_saves_state_once(self, daemon_factory,
                                                  tmp_path, saves):
        project = make_project(tmp_path / "proj")
        _daemon, client = daemon_factory(project, jobs=2)
        done = done_of(client.verify())
        assert done["ok"] is True
        assert len(saves) == 1
        assert done["session"]["batches"] == 1
        # a no-op touches neither the state file nor the pool
        done = done_of(client.verify())
        assert len(saves) == 1
        assert done["session"]["batches"] == 1

    def test_memo_noop_matches_fresh_daemon(self, daemon_factory, tmp_path,
                                            gets):
        project = make_project(tmp_path / "proj")
        (project / "wrong.c").write_text(REJECTED)
        _a, warm = daemon_factory(project)
        assert done_of(warm.verify())["ok"] is False
        warm.verify()
        del gets[:]
        memo_noop = warm.verify()
        assert gets == [], "the second no-op is served from the memo"
        failed = [ev for ev in events_of(memo_noop, "function")
                  if not ev["ok"]]
        assert [ev["name"] for ev in failed] == ["wrong"]
        assert failed[0]["error"]

        _b, fresh = daemon_factory(project,
                                   state_file=tmp_path / "fresh.json")
        from_disk = fresh.verify()
        assert gets, "a cold memo reads the result cache"
        assert done_of(from_disk)["parsed"] == 3
        assert stream_bytes(memo_noop) == stream_bytes(from_disk)
