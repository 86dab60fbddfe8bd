"""Byte-identity gate: the Figure-7 fingerprint pinned in a golden file.

For every Figure-7 and extra case study, and for one failing mutant of
``alloc``, the golden file records each function's ``(name, ok,
Stats.counters(), format_error())``.  Any change to proof search, the
pure solver, or their caches that alters a single counter or one
character of error text fails this test.  The suite runs twice against
the same golden file: study by study in-process (``jobs=1``), and as one
``verify_files`` batch on a two-worker pool (``jobs=2``), which ships
every pickled program to the workers.

Regenerate (only when a change to the fingerprint is intended)::

    PYTHONPATH=src python -m tests.integration.test_golden_fingerprint --write
"""

import json
import sys
import tempfile
from pathlib import Path

from repro.frontend import verify_file, verify_files, verify_source
from repro.pure.memo import clear_pure_caches
from repro.report import EXTRA_STUDIES, FIGURE7_STUDIES, casestudies_dir

GOLDEN = Path(__file__).resolve().parent / "golden" / "fig7_fingerprint.json"

#: A weakened postcondition the checker must reject with a stable error.
ALLOC_MUTANT = ("alloc_mutant", "alloc", "{n <= a} @ optional",
                "{n < a} @ optional")


def _rows(outcome) -> list:
    return [[name, fr.ok, fr.stats.counters(), fr.format_error()]
            for name, fr in outcome.result.functions.items()]


def compute_fingerprint(jobs: int = 1) -> dict:
    """Verify every study from cold pure caches; return the fingerprint
    in the exact shape the golden file stores.  ``jobs > 1`` verifies the
    whole suite, mutant included, as one pooled ``verify_files`` batch."""
    base = casestudies_dir()
    stems = [stem for stem, _cls in FIGURE7_STUDIES + EXTRA_STUDIES]
    name, stem, old, new = ALLOC_MUTANT
    source = (base / f"{stem}.c").read_text()
    assert old in source
    mutant = source.replace(old, new)
    if jobs > 1:
        with tempfile.TemporaryDirectory() as tmp:
            mutant_path = Path(tmp) / f"{name}.c"
            mutant_path.write_text(mutant)
            clear_pure_caches()
            outcomes = verify_files(
                [base / f"{s}.c" for s in stems] + [mutant_path], jobs=jobs)
        out = {study: _rows(outcome) for study, outcome in outcomes.items()}
    else:
        out = {}
        for s in stems:
            clear_pure_caches()
            out[s] = _rows(verify_file(base / f"{s}.c"))
        clear_pure_caches()
        out[name] = _rows(verify_source(mutant))
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
    _assert_matches_golden(compute_fingerprint(jobs=2))


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
