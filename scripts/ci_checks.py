#!/usr/bin/env python3
"""Checked-in CI assertions — what used to live in workflow heredocs.

Run:  PYTHONPATH=src python scripts/ci_checks.py SUBCOMMAND ...

Inline ``python - <<'PY'`` blocks in workflow YAML are invisible to the
linter, unreachable from a test, and silently drift from the code they
assert about.  Each block is a subcommand here instead — ruff-linted,
unit-tested (``tests/scripts/test_ci_checks.py``) and runnable locally
to reproduce exactly what CI enforces:

* ``bench-artifact BENCH.json`` — the bench-smoke gate: cold, warm and
  traced fingerprints recorded identical, and all functions verified.
* ``traced-verify [--stem STEM]`` — the trace-smoke gate: with
  ``RC_TRACE=1`` in the environment a verification must thread a
  non-empty trace through result *and* metrics without any kwargs.
* ``coverage-diff STATS BASELINE`` — the nightly fuzz summary: campaign
  coverage keys against the pinned baseline, rendered as markdown.
* ``batch-reference --json OUT [STEMS...]`` — write a batch (daemon-
  free, cache-free) run's per-function outcome map in the same
  canonical shape ``rcd verify --json`` emits.
* ``serve-compare BATCH COLD WARM`` — the serve-smoke gate: the
  daemon's cold outcomes byte-identical to the batch reference, and
  the warm request re-checked zero functions.
* ``state-stamp CACHE_DIR --json OUT`` — record the ``st_mtime_ns`` of
  the planner state file ``CACHE_DIR/depgraph.json``.
* ``warm-noop STAMP WARM`` — the warm request did no redundant work:
  the planner state file still carries the stamped ``st_mtime_ns`` (it
  was not rewritten) and the ``done`` summary reports ``parsed == 0``
  (no unit went through the front end again).

Exit code 0 when the assertion holds, 1 when it fails.
"""

import argparse
import json
import os
import sys
from pathlib import Path

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))


def _load(path):
    return json.loads(Path(path).read_text())


# ---------------------------------------------------------------------
# bench-smoke
# ---------------------------------------------------------------------

def check_bench_artifact(args) -> int:
    data = _load(args.artifact)
    checks = data["checks"]
    if checks["fingerprint_identical"] is not True:
        print("bench-artifact: correctness fingerprint differs between "
              "cold, warm and traced passes", file=sys.stderr)
        return 1
    if checks["all_verified"] is not True:
        print("bench-artifact: not every function verified",
              file=sys.stderr)
        return 1
    print(f"fingerprint ok; {checks['functions']} function(s) verified")
    return 0


# ---------------------------------------------------------------------
# trace-smoke
# ---------------------------------------------------------------------

def check_traced_verify(args) -> int:
    from repro.frontend import verify_file
    from repro.report import casestudies_dir

    out = verify_file(casestudies_dir() / f"{args.stem}.c")
    if not out.ok:
        print(out.report(), file=sys.stderr)
        return 1
    if out.trace is None or out.trace.event_count() == 0:
        print("traced-verify: RC_TRACE=1 produced no trace on the "
              "result", file=sys.stderr)
        return 1
    if out.metrics.trace is None:
        print("traced-verify: trace missing from the metrics block",
              file=sys.stderr)
        return 1
    print(out.metrics.summary())
    return 0


# ---------------------------------------------------------------------
# nightly fuzz coverage diff
# ---------------------------------------------------------------------

def coverage_diff(args) -> int:
    got = set(_load(args.stats)["coverage"]["keys"])
    pinned = set(_load(args.baseline)["keys"])
    print(f"- campaign keys: {len(got)} (baseline pins {len(pinned)})")
    for k in sorted(pinned - got):
        print(f"- **missing**: `{k}`")
    for k in sorted(got - pinned):
        print(f"- new (unpinned): `{k}`")
    if args.strict and pinned - got:
        return 1
    return 0


# ---------------------------------------------------------------------
# serve-smoke
# ---------------------------------------------------------------------

def batch_reference(args) -> int:
    """One cache-free batch run, written in the canonical per-function
    outcome shape (``{stem: {fn: {ok, error, counters}}}``) that
    ``rcd verify --json`` emits — the reference serve-compare diffs
    the daemon against."""
    from repro.frontend import verify_files
    from repro.report import casestudies_dir

    base = casestudies_dir()
    paths = ([base / f"{s}.c" for s in args.stems] if args.stems
             else sorted(base.glob("*.c")))
    outcomes = verify_files(paths, jobs=args.jobs, cache_dir=None,
                            incremental=False, ledger=False)
    files = {
        stem: {
            name: {"ok": fr.ok, "error": fr.format_error(),
                   "counters": fr.stats.counters()}
            for name, fr in out.result.functions.items()
        }
        for stem, out in outcomes.items()
    }
    ok = all(out.ok for out in outcomes.values())
    payload = {"files": files, "ok": ok}
    Path(args.json_path).write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"wrote {args.json_path} ({len(files)} unit(s), "
          f"{sum(len(v) for v in files.values())} function(s))")
    return 0 if ok else 1


def serve_compare(args) -> int:
    batch = _load(args.batch)
    cold = _load(args.cold)
    warm = _load(args.warm)

    failures = []
    if cold["files"] != batch["files"]:
        failures.append("cold daemon outcomes differ from the batch "
                        "reference")
        _diff_files(batch["files"], cold["files"], "batch", "cold")
    if not cold["summary"].get("ok"):
        failures.append("cold daemon run reported failures")
    if warm["files"] != cold["files"]:
        failures.append("warm daemon outcomes differ from cold")
        _diff_files(cold["files"], warm["files"], "cold", "warm")
    if warm["summary"].get("warm") is not True:
        failures.append("second request was not served warm")
    if warm["summary"].get("rechecked") != 0:
        failures.append(f"warm request re-checked "
                        f"{warm['summary'].get('rechecked')} "
                        "function(s); expected 0")
    if failures:
        for f in failures:
            print(f"serve-compare: {f}", file=sys.stderr)
        return 1
    n_fns = sum(len(v) for v in cold["files"].values())
    print(f"serve-compare ok: {len(cold['files'])} unit(s), {n_fns} "
          f"function(s) identical to batch; warm request re-checked 0 "
          f"(queue wait {warm['summary'].get('queue_wait_s', 0):.3f}s)")
    return 0


def state_stamp(args) -> int:
    from repro.driver.incremental import STATE_FILE
    path = Path(args.cache_dir) / STATE_FILE
    try:
        mtime_ns = path.stat().st_mtime_ns
    except OSError as exc:
        print(f"state-stamp: {exc}", file=sys.stderr)
        return 1
    Path(args.json_path).write_text(json.dumps(
        {"path": str(path), "mtime_ns": mtime_ns}, indent=2) + "\n")
    print(f"wrote {args.json_path} ({path}: mtime_ns {mtime_ns})")
    return 0


def warm_noop(args) -> int:
    stamp = _load(args.stamp)
    summary = _load(args.warm)["summary"]
    failures = []
    try:
        mtime_ns = Path(stamp["path"]).stat().st_mtime_ns
    except OSError as exc:
        mtime_ns = None
        failures.append(f"planner state unreadable after the warm "
                        f"request: {exc}")
    if mtime_ns is not None and mtime_ns != stamp["mtime_ns"]:
        failures.append(f"warm request rewrote {stamp['path']} "
                        f"(mtime_ns {stamp['mtime_ns']} -> {mtime_ns})")
    if summary.get("parsed") != 0:
        failures.append(f"warm request parsed {summary.get('parsed')} "
                        "unit(s); expected 0")
    if failures:
        for f in failures:
            print(f"warm-noop: {f}", file=sys.stderr)
        return 1
    print(f"warm-noop ok: {stamp['path']} untouched, 0 unit(s) parsed")
    return 0


def _diff_files(a: dict, b: dict, la: str, lb: str) -> None:
    for stem in sorted(set(a) | set(b)):
        if stem not in a or stem not in b:
            where = la if stem in a else lb
            print(f"  unit {stem}: only in {where}", file=sys.stderr)
            continue
        for fn in sorted(set(a[stem]) | set(b[stem])):
            if a[stem].get(fn) != b[stem].get(fn):
                print(f"  {stem}:{fn}: {la}={a[stem].get(fn)!r} "
                      f"{lb}={b[stem].get(fn)!r}", file=sys.stderr)


# ---------------------------------------------------------------------

def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bench-artifact",
                       help="bench-smoke fingerprint check")
    p.add_argument("artifact", help="BENCH_solver.json path")
    p.set_defaults(func=check_bench_artifact)

    p = sub.add_parser("traced-verify",
                       help="assert RC_TRACE=1 threads a trace through")
    p.add_argument("--stem", default="mpool")
    p.set_defaults(func=check_traced_verify)

    p = sub.add_parser("coverage-diff",
                       help="markdown diff of campaign coverage vs the "
                            "pinned baseline")
    p.add_argument("stats", help="campaign stats JSON")
    p.add_argument("baseline", help="pinned baseline JSON")
    p.add_argument("--strict", action="store_true",
                   help="exit 1 when any pinned key is missing")
    p.set_defaults(func=coverage_diff)

    p = sub.add_parser("batch-reference",
                       help="write a batch run's canonical outcome map")
    p.add_argument("stems", nargs="*",
                   help="case-study stems (default: all)")
    p.add_argument("--json", dest="json_path", required=True)
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(func=batch_reference)

    p = sub.add_parser("serve-compare",
                       help="daemon cold/warm runs vs the batch "
                            "reference")
    p.add_argument("batch", help="batch-reference JSON")
    p.add_argument("cold", help="rcd verify --json of the cold request")
    p.add_argument("warm", help="rcd verify --json of the warm request")
    p.set_defaults(func=serve_compare)

    p = sub.add_parser("state-stamp",
                       help="record the planner state file's mtime")
    p.add_argument("cache_dir", help="the daemon namespace's cache dir")
    p.add_argument("--json", dest="json_path", required=True)
    p.set_defaults(func=state_stamp)

    p = sub.add_parser("warm-noop",
                       help="warm request rewrote no state and parsed "
                            "no unit")
    p.add_argument("stamp", help="state-stamp JSON")
    p.add_argument("warm", help="rcd verify --json of the warm request")
    p.set_defaults(func=warm_noop)

    args = ap.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
