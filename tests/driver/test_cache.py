"""The content-addressed result cache: reuse, invalidation, robustness.

Every cached run is planned through the dependency graph, so a reused
function reports the ``"clean"`` state and the key under test is
``depgraph.transitive_key``."""

import dataclasses
import json

from repro.driver import (atomic_write_json, build_depgraph,
                          engine_fingerprint, transitive_key)
from repro.frontend import verify_file, verify_source
from repro.lang.elaborate import elaborate_source
from repro.proofs.manual import LEMMAS_BY_STUDY
from repro.pure.terms import intlit, le

from .conftest import fingerprint, study_path

SRC = '''
[[rc::parameters("n: nat")]]
[[rc::args("n @ int<size_t>")]]
[[rc::requires("{n <= 1000}")]]
[[rc::returns("{n + 1} @ int<size_t>")]]
size_t inc(size_t x) { return x + 1; }

[[rc::parameters("n: nat")]]
[[rc::args("n @ int<size_t>")]]
[[rc::returns("n @ int<size_t>")]]
size_t id(size_t x) { return x; }
'''


# Calls inc: verifying it consumes inc's spec, never its body.
CALLER = '''
[[rc::parameters("n: nat")]]
[[rc::args("n @ int<size_t>")]]
[[rc::requires("{n <= 500}")]]
[[rc::returns("{n + 1} @ int<size_t>")]]
size_t caller(size_t x) { return inc(x); }
'''


def _entries(cache_dir):
    return list(cache_dir.rglob("*.json"))


def _key(tp, name, lemmas=None):
    return transitive_key(build_depgraph(tp, lemmas), name,
                          engine_fingerprint())


class TestHits:
    def test_second_run_hits(self, tmp_path):
        first = verify_source(SRC, cache_dir=tmp_path)
        assert first.metrics.functions_dirty == 2
        assert first.metrics.functions_clean == 0
        second = verify_source(SRC, cache_dir=tmp_path)
        assert second.metrics.functions_clean == 2
        assert second.metrics.functions_dirty == 0
        assert fingerprint(first) == fingerprint(second)

    def test_case_study_rerun_is_all_hits(self, tmp_path):
        path = study_path("mpool")
        first = verify_file(path, cache_dir=tmp_path)
        second = verify_file(path, cache_dir=tmp_path)
        assert second.metrics.functions_clean == len(second.result.functions)
        assert second.metrics.functions_dirty == 0
        assert fingerprint(first) == fingerprint(second)

    def test_failures_are_cached_with_error_text(self, tmp_path):
        bad = SRC.replace("{n + 1} @ int", "{n + 2} @ int")
        first = verify_source(bad, cache_dir=tmp_path)
        second = verify_source(bad, cache_dir=tmp_path)
        assert not first.ok and not second.ok
        assert second.metrics.functions_clean == 2
        assert fingerprint(first) == fingerprint(second)

    def test_hit_marks_metrics(self, tmp_path):
        verify_source(SRC, cache_dir=tmp_path)
        again = verify_source(SRC, cache_dir=tmp_path)
        assert {f.cache for f in again.metrics.functions} == {"clean"}


class TestInvalidation:
    def test_spec_text_change_misses(self, tmp_path):
        verify_source(SRC, cache_dir=tmp_path)
        changed = SRC.replace("{n <= 1000}", "{n <= 999}")
        out = verify_source(changed, cache_dir=tmp_path)
        # inc's spec changed -> miss; id is untouched -> hit.
        assert out.metrics.functions_dirty == 1
        assert out.metrics.functions_clean == 1

    def test_body_change_misses(self, tmp_path):
        verify_source(SRC, cache_dir=tmp_path)
        changed = SRC.replace("return x; }", "return x + 0; }")
        out = verify_source(changed, cache_dir=tmp_path)
        assert out.metrics.functions_dirty == 1
        assert out.metrics.functions_clean == 1

    def test_struct_annotation_change_invalidates_all(self, tmp_path):
        src = study_path("alloc").read_text()
        verify_source(src, cache_dir=tmp_path)
        # Rename the struct's refinement variable (a -> m) consistently
        # across its field annotations; the function annotations are
        # untouched but depend on the struct, so every entry must miss.
        changed = (src
                   .replace('refined_by("a: nat")', 'refined_by("m: nat")')
                   .replace('field("a @ int<size_t>")',
                            'field("m @ int<size_t>")')
                   .replace('field("&own<uninit<a>>")',
                            'field("&own<uninit<m>>")'))
        assert changed != src
        out = verify_source(changed, cache_dir=tmp_path)
        assert out.ok
        assert out.metrics.functions_clean == 0

    def test_callee_spec_change_rechecks_caller(self, tmp_path):
        """Tightening a callee's precondition must re-check its caller:
        the cached ``ok`` of ``caller`` was proved against the old spec
        of ``inc`` and no longer holds."""
        src = SRC + CALLER
        first = verify_source(src, cache_dir=tmp_path)
        assert first.ok
        changed = src.replace("{n <= 1000}", "{n <= 10}")
        out = verify_source(changed, cache_dir=tmp_path)
        assert not out.result.functions["caller"].ok
        assert fingerprint(out) == fingerprint(verify_source(changed))

    def test_lemma_table_change_misses(self):
        """Changing a lemma's statement changes the cache key even though
        the source text is identical."""
        src = study_path("binary_search").read_text()
        table = dict(LEMMAS_BY_STUDY["binary_search"])
        tp1 = elaborate_source(src, table)
        name = next(n for n, s in tp1.specs.items() if s.lemmas)
        key1 = _key(tp1, name, table)
        strengthened = {
            k: dataclasses.replace(
                v, hyps=v.hyps + (le(intlit(0), intlit(0)),))
            for k, v in table.items()
        }
        tp2 = elaborate_source(src, strengthened)
        key2 = _key(tp2, name, strengthened)
        assert key1 != key2

    def test_tactics_in_key(self):
        src = study_path("free_list").read_text()
        tp = elaborate_source(src)
        name = next(n for n, s in tp.specs.items() if s.tactics)
        key1 = _key(tp, name)
        tp.specs[name].tactics = []
        assert _key(tp, name) != key1


class TestRobustness:
    def test_corrupted_entry_is_a_miss(self, tmp_path):
        verify_source(SRC, cache_dir=tmp_path)
        for entry in _entries(tmp_path):
            entry.write_text("{ not json !!")
        out = verify_source(SRC, cache_dir=tmp_path)
        assert out.ok
        assert out.metrics.functions_clean == 0
        assert out.metrics.functions_dirty == 2

    def test_truncated_entry_is_a_miss(self, tmp_path):
        verify_source(SRC, cache_dir=tmp_path)
        for entry in _entries(tmp_path):
            entry.write_text(entry.read_text()[:40])
        out = verify_source(SRC, cache_dir=tmp_path)
        assert out.ok and out.metrics.functions_clean == 0

    def test_stale_format_version_is_a_miss(self, tmp_path):
        verify_source(SRC, cache_dir=tmp_path)
        for entry in _entries(tmp_path):
            data = json.loads(entry.read_text())
            data["format_version"] = -1
            entry.write_text(json.dumps(data))
        out = verify_source(SRC, cache_dir=tmp_path)
        assert out.ok and out.metrics.functions_clean == 0

    def test_semantically_broken_entry_is_a_miss(self, tmp_path):
        verify_source(SRC, cache_dir=tmp_path)
        for entry in _entries(tmp_path):
            data = json.loads(entry.read_text())
            data["ok"] = False          # failed entry without error record
            data["error"] = None
            entry.write_text(json.dumps(data))
        out = verify_source(SRC, cache_dir=tmp_path)
        assert out.ok and out.metrics.functions_clean == 0

    def test_corrupt_entries_are_repaired_on_rewrite(self, tmp_path):
        verify_source(SRC, cache_dir=tmp_path)
        for entry in _entries(tmp_path):
            entry.write_text("junk")
        verify_source(SRC, cache_dir=tmp_path)   # rewrites
        out = verify_source(SRC, cache_dir=tmp_path)
        assert out.metrics.functions_clean == 2

    def test_unreadable_cache_dir_never_crashes(self, tmp_path):
        target = tmp_path / "not-a-dir"
        target.write_text("a file where the cache dir should be")
        out = verify_source(SRC, cache_dir=target)
        assert out.ok   # cache writes fail silently; verification runs


class TestFiles:
    def test_atomic_write_is_byte_identical_to_dumps(self, tmp_path):
        verify_file(study_path("queue"), cache_dir=tmp_path)
        state = json.loads((tmp_path / "depgraph.json").read_text())
        obj = {"state": state, "text": "café ∀x", "wall_s": 0.1,
               "nested": [[1, 2.5, None, True], {"b": 1, "a": 2}]}
        for i, sample in enumerate((obj, state, [], "x")):
            path = tmp_path / "w" / f"{i}.json"
            atomic_write_json(path, sample)
            assert path.read_bytes() == json.dumps(sample).encode()
        assert not list((tmp_path / "w").glob("*.tmp"))
