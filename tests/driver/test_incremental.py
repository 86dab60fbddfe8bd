"""Incremental dependency-aware re-verification: dirty-set precision,
outcome equality with full runs, and cache-state robustness."""

import json
import shutil

import pytest

from repro.driver import engine_fingerprint
from repro.driver.incremental import (STATE_FILE, IncrementalState,
                                      source_sha)
from repro.frontend import verify_file, verify_files, verify_source

from .conftest import ALL_STUDIES, fingerprint, study_path

# A three-deep call chain where the top caller does NOT mention the leaf:
# f3 -> f2 -> f1.  A spec edit on f1 must ripple to f2 (direct caller)
# AND f3 (transitive caller only).
CHAIN = '''
[[rc::parameters("n: nat")]]
[[rc::args("n @ int<size_t>")]]
[[rc::requires("{n <= 1000}")]]
[[rc::returns("{n + 1} @ int<size_t>")]]
size_t f1(size_t x) { return x + 1; }

[[rc::parameters("n: nat")]]
[[rc::args("n @ int<size_t>")]]
[[rc::requires("{n <= 999}")]]
[[rc::returns("{n + 2} @ int<size_t>")]]
size_t f2(size_t x) { return f1(x) + 1; }

[[rc::parameters("n: nat")]]
[[rc::args("n @ int<size_t>")]]
[[rc::requires("{n <= 998}")]]
[[rc::returns("{n + 3} @ int<size_t>")]]
size_t f3(size_t x) { return f2(x) + 1; }

[[rc::parameters("n: nat")]]
[[rc::args("n @ int<size_t>")]]
[[rc::returns("n @ int<size_t>")]]
size_t bystander(size_t x) { return x; }
'''


def states(out):
    return {f.name: f.cache for f in out.metrics.functions}


def rechecked(out):
    return sorted(f.name for f in out.metrics.functions
                  if f.cache == "dirty")


def run(src, tmp_path, **kw):
    return verify_source(src, cache_dir=tmp_path / "cache", **kw)


class TestDirtySet:
    def test_cold_run_checks_everything(self, tmp_path):
        out = run(CHAIN, tmp_path)
        assert out.ok
        assert set(states(out).values()) == {"dirty"}
        assert out.metrics.functions_dirty == 4
        assert out.metrics.functions_clean == 0

    def test_noop_rerun_rechecks_nothing(self, tmp_path):
        first = run(CHAIN, tmp_path)
        again = run(CHAIN, tmp_path)
        assert set(states(again).values()) == {"clean"}
        assert again.metrics.functions_dirty == 0
        assert again.metrics.functions_clean == 4
        assert again.metrics.functions_rechecked == 0
        assert fingerprint(first) == fingerprint(again)

    def test_leaf_body_edit_rechecks_exactly_one(self, tmp_path):
        run(CHAIN, tmp_path)
        edited = CHAIN.replace("{ return x + 1; }", "{ return 1 + x; }")
        out = run(edited, tmp_path)
        assert out.ok
        assert rechecked(out) == ["f1"]
        assert states(out)["f2"] == "clean"
        assert states(out)["f3"] == "clean"
        assert states(out)["bystander"] == "clean"

    def test_spec_edit_rechecks_all_transitive_callers(self, tmp_path):
        run(CHAIN, tmp_path)
        # Whitespace inside the annotation string: parses identically,
        # but the recorded spec text (and only it) changes.
        edited = CHAIN.replace("{n + 1} @ int<size_t>",
                               "{n + 1 } @ int<size_t>")
        out = run(edited, tmp_path)
        assert out.ok
        # f2 calls f1 directly; f3 only through f2 — both must re-check.
        assert rechecked(out) == ["f1", "f2", "f3"]
        assert states(out)["bystander"] == "clean"

    def test_mid_spec_edit_does_not_touch_callees(self, tmp_path):
        run(CHAIN, tmp_path)
        edited = CHAIN.replace("{n + 2} @ int<size_t>",
                               "{n + 2 } @ int<size_t>")
        out = run(edited, tmp_path)
        assert rechecked(out) == ["f2", "f3"]
        assert states(out)["f1"] == "clean"


class TestCaseStudies:
    def test_binary_search_noop_and_leaf_edit(self, tmp_path):
        src_path = study_path("binary_search")
        work = tmp_path / "binary_search.c"
        text = src_path.read_text()
        work.write_text(text)
        cache = tmp_path / "cache"

        cold = verify_file(work, cache_dir=cache)
        assert cold.ok

        noop = verify_file(work, cache_dir=cache)
        assert noop.metrics.functions_dirty == 0
        assert noop.metrics.functions_clean == len(noop.result.functions)
        assert fingerprint(cold) == fingerprint(noop)

        # Leaf body edit: cmp_le only.
        assert "return x <= y;" in text
        work.write_text(text.replace("return x <= y;", "return y >= x;"))
        out = verify_file(work, cache_dir=cache)
        assert out.ok
        assert rechecked(out) == ["cmp_le"]

    def test_binary_search_spec_edit_ripples(self, tmp_path):
        src_path = study_path("binary_search")
        work = tmp_path / "binary_search.c"
        text = src_path.read_text()
        work.write_text(text)
        cache = tmp_path / "cache"
        verify_file(work, cache_dir=cache)

        marker = '[[rc::returns("{x <= y} @ bool<int>")]]'
        assert marker in text
        work.write_text(text.replace(
            marker, '[[rc::returns("{x <= y } @ bool<int>")]]', 1))
        out = verify_file(work, cache_dir=cache)
        assert out.ok
        # cmp_le's spec changed; binary_search and find_slot both
        # (transitively) call it.
        assert rechecked(out) == ["binary_search", "cmp_le", "find_slot"]

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_incremental_equals_full_run(self, tmp_path, jobs):
        """After an edit, incremental outcomes (status, counters, error
        text) are byte-equal to a cache-free full run."""
        stems = ["binary_search", "hashmap", "mpool"]
        work_paths = []
        for stem in stems:
            p = tmp_path / f"{stem}.c"
            shutil.copy(study_path(stem), p)
            work_paths.append(p)
        cache = tmp_path / "cache"
        verify_files(work_paths, jobs=jobs, cache_dir=cache)

        # Edit one leaf in one file; everything else stays clean.
        bs = tmp_path / "binary_search.c"
        bs.write_text(bs.read_text().replace("return x <= y;",
                                             "return y >= x;"))
        incr = verify_files(work_paths, jobs=jobs, cache_dir=cache)
        full = verify_files(work_paths, jobs=jobs)
        assert {s: fingerprint(o) for s, o in incr.items()} \
            == {s: fingerprint(o) for s, o in full.items()}
        assert sum(o.metrics.functions_dirty for o in incr.values()) == 1

    def test_failures_reported_identically_when_reused(self, tmp_path):
        bad = CHAIN.replace("{ return x; }", "{ return x + 1; }")
        first = run(bad, tmp_path)
        again = run(bad, tmp_path)
        assert not first.ok and not again.ok
        assert states(again)["bystander"] == "clean"
        assert fingerprint(first) == fingerprint(again)


class TestRobustness:
    """Any state defect degrades to a full re-verification — never a
    wrong or missing outcome."""

    def _state_path(self, tmp_path):
        return tmp_path / "cache" / STATE_FILE

    def test_corrupted_state_degrades_to_full(self, tmp_path):
        first = run(CHAIN, tmp_path)
        path = self._state_path(tmp_path)
        good = path.read_text()
        path.write_text("{ not json !")
        out = run(CHAIN, tmp_path)
        assert set(states(out).values()) == {"dirty"}
        assert fingerprint(first) == fingerprint(out)
        assert path.read_text() == good      # rewritten, not kept
        # ... and the rewritten state works again on the next run.
        assert set(states(run(CHAIN, tmp_path)).values()) == {"clean"}

    def test_truncated_state_degrades_to_full(self, tmp_path):
        first = run(CHAIN, tmp_path)
        path = self._state_path(tmp_path)
        good = path.read_text()
        path.write_text(good[:40])
        out = run(CHAIN, tmp_path)
        assert set(states(out).values()) == {"dirty"}
        assert fingerprint(first) == fingerprint(out)
        assert path.read_text() == good

    def test_version_mismatch_degrades_to_full(self, tmp_path):
        run(CHAIN, tmp_path)
        path = self._state_path(tmp_path)
        good = path.read_text()
        data = json.loads(good)
        data["format_version"] = 999
        path.write_text(json.dumps(data))
        out = run(CHAIN, tmp_path)
        assert set(states(out).values()) == {"dirty"}
        assert path.read_text() == good

    def test_foreign_engine_state_degrades_to_full(self, tmp_path):
        """A CI restore-keys cache from an older checker build must not
        poison results: the engine fingerprint mismatch voids it."""
        run(CHAIN, tmp_path)
        path = self._state_path(tmp_path)
        good = path.read_text()
        data = json.loads(good)
        assert data["engine"] == engine_fingerprint()
        data["engine"] = "0" * 64
        path.write_text(json.dumps(data))
        out = run(CHAIN, tmp_path)
        assert set(states(out).values()) == {"dirty"}
        assert path.read_text() == good

    def test_evicted_result_entry_forces_recheck(self, tmp_path):
        run(CHAIN, tmp_path)
        # Blow away the result entries but keep depgraph.json: clean
        # functions can no longer be reused and must re-check.
        for p in (tmp_path / "cache").iterdir():
            if p.is_dir():
                shutil.rmtree(p)
        out = run(CHAIN, tmp_path)
        assert out.ok
        assert set(states(out).values()) == {"dirty"}
        for f in out.metrics.functions:
            assert f.ok

    def test_concurrent_writers_leave_usable_state(self, tmp_path):
        """Two jobs>1 runs against the same cache dir (as racing CI jobs
        would): both succeed, and the surviving state is valid."""
        a = verify_source(CHAIN, cache_dir=tmp_path / "cache", jobs=2)
        b = verify_source(CHAIN.replace("{ return x; }",
                                        "{ return x + 0; }"),
                          cache_dir=tmp_path / "cache", jobs=2)
        assert a.ok and b.ok
        state = IncrementalState.load(tmp_path / "cache",
                                      engine_fingerprint())
        assert state.units  # last writer's state parsed fine
        again = verify_source(CHAIN, cache_dir=tmp_path / "cache")
        assert again.ok
        assert fingerprint(a) == fingerprint(again)

    def test_state_records_source_sha(self, tmp_path):
        out = run(CHAIN, tmp_path)
        assert out.ok
        state = IncrementalState.load(tmp_path / "cache",
                                      engine_fingerprint())
        assert state.units["<unit>"].source_sha == source_sha(CHAIN)
        assert set(state.units["<unit>"].functions) \
            == set(out.result.functions)


class TestStateWrites:
    """``depgraph.json`` is rewritten only when the planner state it
    holds changed, and recreated whenever it is missing (defective
    files are rewritten too: see ``TestRobustness``)."""

    STEMS = ("binary_search", "mpool")

    @pytest.fixture
    def saves(self, monkeypatch):
        calls = []
        real = IncrementalState.save

        def counting(self, cache_dir):
            calls.append(cache_dir)
            return real(self, cache_dir)

        monkeypatch.setattr(IncrementalState, "save", counting)
        return calls

    def _tree(self, tmp_path):
        paths = []
        for stem in self.STEMS:
            p = tmp_path / f"{stem}.c"
            shutil.copy(study_path(stem), p)
            paths.append(p)
        return paths

    def _per_file(self, paths, cache, state_cache=None):
        """One driver call per file, the way the serve daemon runs a
        request."""
        for p in paths:
            verify_files([p], cache_dir=cache, state_cache=state_cache,
                         ledger=False)

    def test_noop_rerun_leaves_state_file_untouched(self, tmp_path, saves):
        run(CHAIN, tmp_path)
        path = tmp_path / "cache" / STATE_FILE
        before, stat = path.read_bytes(), path.stat()
        del saves[:]
        again = run(CHAIN, tmp_path)
        assert set(states(again).values()) == {"clean"}
        assert saves == []
        assert path.read_bytes() == before
        assert path.stat().st_mtime_ns == stat.st_mtime_ns

    @pytest.mark.parametrize("memo", [False, True])
    def test_one_file_edit_writes_once(self, tmp_path, saves, memo):
        paths = self._tree(tmp_path)
        cache = tmp_path / "cache"
        state_cache = {} if memo else None
        self._per_file(paths, cache, state_cache)
        assert len(saves) == len(paths)       # one new unit per call
        del saves[:]
        self._per_file(paths, cache, state_cache)
        assert saves == []
        bs = paths[0]
        bs.write_text(bs.read_text().replace("return x <= y;",
                                             "return y >= x;"))
        self._per_file(paths, cache, state_cache)
        assert len(saves) == 1
        state = IncrementalState.load(cache, engine_fingerprint())
        assert state.units["binary_search"].source_sha \
            == source_sha(bs.read_text())

    def test_deleted_state_is_recreated(self, tmp_path, saves):
        run(CHAIN, tmp_path)
        path = tmp_path / "cache" / STATE_FILE
        good = path.read_text()
        path.unlink()
        del saves[:]
        out = run(CHAIN, tmp_path)
        assert out.ok
        assert len(saves) == 1
        assert path.read_text() == good

    def test_deleted_state_is_recreated_through_memo(self, tmp_path,
                                                     saves):
        """The memo's stat check notices the file is gone and reloads
        empty state, so each unit is planned afresh and written back."""
        paths = self._tree(tmp_path)
        cache = tmp_path / "cache"
        state_cache: dict = {}
        self._per_file(paths, cache, state_cache)
        (cache / STATE_FILE).unlink()
        del saves[:]
        self._per_file(paths, cache, state_cache)
        assert len(saves) == len(paths)
        state = IncrementalState.load(cache, engine_fingerprint())
        assert set(state.units) == set(self.STEMS)


def test_memoized_programs_recheck_like_fresh_ones(tmp_path):
    """A program reused from the ``state_cache`` memo is checked again
    (a fresh cache dir makes every function dirty) and must give the
    same outcomes, counters and error text as a fresh elaboration."""
    paths = [study_path(stem) for stem in ALL_STUDIES]
    state_cache: dict = {}
    first = verify_files(paths, cache_dir=tmp_path / "a",
                         state_cache=state_cache, ledger=False)
    again = verify_files(paths, cache_dir=tmp_path / "b",
                         state_cache=state_cache, ledger=False)
    fresh = verify_files(paths, ledger=False)
    for stem in ALL_STUDIES:
        assert again[stem].typed_program is first[stem].typed_program
        assert again[stem].metrics.phases.parse_s == 0.0
        assert set(states(again[stem]).values()) == {"dirty"}
        assert fingerprint(again[stem]) == fingerprint(fresh[stem])
