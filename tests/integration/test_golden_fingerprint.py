"""Byte-identity gate: the Figure-7 fingerprint pinned in a golden file.

For every Figure-7 and extra case study, and for one failing mutant of
``alloc``, the golden file records each function's ``(name, ok,
Stats.counters(), format_error())``.  Any change to proof search, the
pure solver, or their caches that alters a single counter or one
character of error text fails this test.

The suite is verified in every execution mode and each mode is compared
against the same golden file:

* ``serial`` — study by study in-process from cold pure caches;
* ``pooled`` — one ``verify_files`` batch on a two-worker pool, which
  ships every pickled program to the workers;
* ``warm_pure`` — a second in-process pass with the pure caches kept
  from the first;
* ``traced`` — the serial pass with tracing on;
* ``result_cache_warm`` — a cold cached batch on a two-worker pool
  (so the cache holds entries written from worker results), then a
  serial rerun over the unchanged state, which must serve every
  function from the cache (0 misses, 0 dirty) and agree with the cold
  pass before it;
* ``incremental_noop`` — a cold cached batch run serially (so the cache
  holds entries written in-process), then a serial rerun over the
  unchanged state, which must re-check 0 functions and agree with the
  cold pass before it.

Regenerate (only when a change to the fingerprint is intended)::

    PYTHONPATH=src python -m tests.integration.test_golden_fingerprint --write
"""

import json
import sys
import tempfile
from pathlib import Path

import pytest

from repro.frontend import verify_file, verify_files
from repro.pure.memo import clear_pure_caches
from repro.report import EXTRA_STUDIES, FIGURE7_STUDIES, casestudies_dir

from ..driver.conftest import fingerprint

GOLDEN = Path(__file__).resolve().parent / "golden" / "fig7_fingerprint.json"

#: A weakened postcondition the checker must reject with a stable error.
ALLOC_MUTANT = ("alloc_mutant", "alloc", "{n <= a} @ optional",
                "{n < a} @ optional")


def _in_process(paths, *, traced=False):
    outcomes = {}
    for p in paths:
        clear_pure_caches()
        outcomes[p.stem] = verify_file(p, trace=traced)
    return outcomes


def _warm_pure(paths, _tmp):
    clear_pure_caches()
    for p in paths:
        verify_file(p)
    return {p.stem: verify_file(p) for p in paths}


def _pooled(paths, _tmp):
    clear_pure_caches()
    return verify_files(paths, jobs=2)


def _result_cache_warm(paths, tmp):
    cold = verify_files(paths, jobs=2, cache_dir=tmp)
    warm = verify_files(paths, jobs=1, cache_dir=tmp)
    assert sum(o.metrics.cache_misses for o in warm.values()) == 0
    assert sum(o.metrics.functions_dirty for o in warm.values()) == 0
    assert ({s: fingerprint(o) for s, o in cold.items()}
            == {s: fingerprint(o) for s, o in warm.items()})
    return warm


def _incremental_noop(paths, tmp):
    cold = verify_files(paths, cache_dir=tmp)
    noop = verify_files(paths, cache_dir=tmp)
    assert sum(o.metrics.functions_dirty for o in noop.values()) == 0
    assert ({s: fingerprint(o) for s, o in cold.items()}
            == {s: fingerprint(o) for s, o in noop.items()})
    return noop


#: mode -> ``run(paths, scratch_dir) -> {stem: outcome}``
MODES = {
    "serial": lambda paths, _tmp: _in_process(paths),
    "pooled": _pooled,
    "warm_pure": _warm_pure,
    "traced": lambda paths, _tmp: _in_process(paths, traced=True),
    "result_cache_warm": _result_cache_warm,
    "incremental_noop": _incremental_noop,
}


def compute_fingerprint(mode: str = "serial") -> dict:
    """Verify every study, mutant included, in ``mode``; return the
    fingerprint in the exact shape the golden file stores."""
    base = casestudies_dir()
    name, stem, old, new = ALLOC_MUTANT
    source = (base / f"{stem}.c").read_text()
    assert old in source
    with tempfile.TemporaryDirectory() as tmp:
        mutant_path = Path(tmp) / f"{name}.c"
        mutant_path.write_text(source.replace(old, new))
        paths = [base / f"{s}.c"
                 for s, _cls in FIGURE7_STUDIES + EXTRA_STUDIES]
        outcomes = MODES[mode](paths + [mutant_path], Path(tmp) / "cache")
    out = {study: fingerprint(outcome) for study, outcome in outcomes.items()}
    # Round-trip through JSON so tuples/lists compare like the file.
    return json.loads(json.dumps(out))


def _assert_matches_golden(actual: dict) -> None:
    expected = json.loads(GOLDEN.read_text())
    assert list(actual) == list(expected)
    for study in expected:
        assert actual[study] == expected[study], study
    assert not all(ok for _n, ok, _c, _e in actual["alloc_mutant"])


def test_fingerprint_matches_golden():
    _assert_matches_golden(compute_fingerprint())


def test_pooled_fingerprint_matches_golden():
    _assert_matches_golden(compute_fingerprint("pooled"))


@pytest.mark.parametrize("mode", ["warm_pure", "traced",
                                  "result_cache_warm", "incremental_noop"])
def test_mode_fingerprint_matches_golden(mode):
    _assert_matches_golden(compute_fingerprint(mode))


if __name__ == "__main__":
    if "--write" not in sys.argv[1:]:
        sys.exit("usage: python -m tests.integration.test_golden_fingerprint"
                 " --write")
    # One function per line: diffs of the file name the changed function.
    studies = [f"{json.dumps(study)}: [\n"
               + ",\n".join(f"  {json.dumps(row)}" for row in rows) + "\n ]"
               for study, rows in compute_fingerprint().items()]
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text("{\n " + ",\n ".join(studies) + "\n}\n")
    print(f"wrote {GOLDEN}")
