#!/usr/bin/env python3
"""Checked-in CI assertions — what used to live in workflow heredocs.

Run:  PYTHONPATH=src python scripts/ci_checks.py SUBCOMMAND ...

Inline ``python - <<'PY'`` blocks in workflow YAML are invisible to the
linter, unreachable from a test, and silently drift from the code they
assert about.  Each block is a subcommand here instead — ruff-linted,
unit-tested (``tests/scripts/test_ci_checks.py``) and runnable locally
to reproduce exactly what CI enforces:

* ``speed-gates [--jobs N]`` — the tests job's timing bounds: a warm
  result cache >=5x and jobs=N >=2x (on >=2 cores) faster than the
  serial pass, the run-ledger record <=2% of the traced checking wall.
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
* ``warm-noop STAMP COLD WARM`` — the warm request did no redundant
  work: the planner state file still carries the stamped
  ``st_mtime_ns`` (it was not rewritten), the ``done`` summary reports
  ``parsed == 0`` (no unit went through the front end again), and the
  warm pool's ``session.batches`` did not grow past the cold request's
  (a no-op never dispatches to the pool).
* ``serve-latency STATUS`` — ``rcd status --json`` reports request
  latency for the daemon root's namespace over at least
  :data:`MIN_LATENCY_REQUESTS` requests, with ``p50_s <= p99_s``.
* ``certcheck`` — verify the 14 case studies and the accept entries of
  the fuzz corpus fresh (no result cache, on a pool of 2 so the
  derivations cross the pickle boundary) and re-prove every side
  condition of every accepted function's derivations with
  ``repro.proofs.certcheck``, the pure memo caches dropped first: no
  certificate problem and no skipped side condition.

Exit code 0 when the assertion holds, 1 when it fails.
"""

import argparse
import json
import os
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))


def _load(path):
    return json.loads(Path(path).read_text())


# ---------------------------------------------------------------------
# speed gates
# ---------------------------------------------------------------------

#: warm result cache vs the serial reference pass (min of repetitions)
MIN_WARM_CACHE_SPEEDUP = 5.0
#: jobs=N vs the serial reference pass, asserted on >= 2 cores only
MIN_PARALLEL_SPEEDUP = 2.0
#: ledger record + rule-cost aggregation, percent of the traced
#: checking wall (``search_s + solver_s``)
MAX_LEDGER_OVERHEAD_PCT = 2.0
#: timed passes per driver configuration
DRIVER_REPEAT = 1
#: interleaved untraced/traced rounds for the ledger budget
LEDGER_ROUNDS = 2
#: extra traced passes a pending ledger failure gets: a load spike
#: during one pass is likelier than a real aggregation slowdown
LEDGER_RETRIES = 3


def _wall(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def measure_driver_walls(jobs: int) -> dict:
    """Walls of the whole suite through ``verify_files``: the serial
    reference, jobs=N, and a warm result cache (after one untimed
    pass fills it), each the minimum of ``DRIVER_REPEAT`` passes."""
    from repro.frontend import verify_files
    from repro.report import EXTRA_STUDIES, FIGURE7_STUDIES, casestudies_dir

    base = casestudies_dir()
    paths = [base / f"{stem}.c"
             for stem, _cls in FIGURE7_STUDIES + EXTRA_STUDIES]

    def wall(**kwargs):
        return min(_wall(lambda: verify_files(paths, **kwargs))
                   for _ in range(DRIVER_REPEAT))

    serial_s = wall(jobs=1)
    parallel_s = wall(jobs=jobs)
    with tempfile.TemporaryDirectory(prefix="rc-cache-speed-") as cache:
        verify_files(paths, jobs=1, cache_dir=cache)
        warm_cache_s = wall(jobs=1, cache_dir=cache)
    return {"serial_s": serial_s, "parallel_s": parallel_s,
            "warm_cache_s": warm_cache_s}


def ledger_overhead_pct(ledger_s: float, traced_check_s: float) -> float:
    return ledger_s / traced_check_s * 100.0


def measure_ledger_walls() -> dict:
    """The cheapest ledger append (record built, rule costs aggregated)
    and the cheapest traced checking wall over the Figure-7 suite, from
    traced passes interleaved with untraced ones in one session."""
    from repro.frontend import verify_file
    from repro.obs import costs_of_outcomes, record_run
    from repro.pure.memo import clear_pure_caches
    from repro.report import FIGURE7_STUDIES, casestudies_dir

    base = casestudies_dir()
    paths = [base / f"{stem}.c" for stem, _cls in FIGURE7_STUDIES]

    def suite_pass(cold=True, traced=False):
        if cold:
            clear_pure_caches()
        outcomes = [verify_file(p, trace=traced) for p in paths]
        check = sum(o.metrics.phases.search_s + o.metrics.phases.solver_s
                    for o in outcomes)
        return check, outcomes

    traced_check, ledger_extra = [], []
    fd, scratch = tempfile.mkstemp(suffix=".rc-ledger.jsonl")
    os.close(fd)

    def untraced_round():
        suite_pass()
        suite_pass(cold=False)

    def traced_round():
        check, outcomes = suite_pass(traced=True)
        traced_check.append(check)
        ledger_extra.append(_wall(lambda: record_run(
            "bench", wall_s=check, metrics=[o.metrics for o in outcomes],
            costs=costs_of_outcomes(outcomes), path=scratch)))

    # Untimed warm-up passes (interpreter and import effects).
    suite_pass()
    suite_pass(cold=False)
    suite_pass(traced=True)
    try:
        for i in range(LEDGER_ROUNDS):
            for run_round in ((untraced_round, traced_round) if i % 2 == 0
                              else (traced_round, untraced_round)):
                run_round()
        for _ in range(LEDGER_RETRIES):
            if (ledger_overhead_pct(min(ledger_extra), min(traced_check))
                    <= MAX_LEDGER_OVERHEAD_PCT):
                break
            traced_round()
    finally:
        os.unlink(scratch)
    return {"ledger_s": min(ledger_extra),
            "traced_check_s": min(traced_check)}


def judge_speed_gates(*, serial_s: float, parallel_s: float,
                      warm_cache_s: float, ledger_s: float,
                      traced_check_s: float, jobs: int, cores: int) -> int:
    """The gate arithmetic over measured walls (seconds): print each
    ratio against its bound; 1 if an asserted bound is missed.  The
    parallel bound is asserted on >= 2 cores only."""
    warm = serial_s / warm_cache_s
    parallel = serial_s / parallel_s
    ledger = ledger_overhead_pct(ledger_s, traced_check_s)
    gates = [
        ("warm-cache speedup", f"{warm:.2f}x",
         f">= {MIN_WARM_CACHE_SPEEDUP}x", warm >= MIN_WARM_CACHE_SPEEDUP),
        (f"parallel speedup, jobs={jobs} on {cores} core(s)",
         f"{parallel:.2f}x", f">= {MIN_PARALLEL_SPEEDUP}x",
         parallel >= MIN_PARALLEL_SPEEDUP if cores >= 2 else None),
        ("ledger overhead of the traced checking wall", f"{ledger:+.2f}%",
         f"<= +{MAX_LEDGER_OVERHEAD_PCT}%",
         ledger <= MAX_LEDGER_OVERHEAD_PCT),
    ]
    for name, value, bound, ok in gates:
        verdict = "skip" if ok is None else "ok" if ok else "FAIL"
        print(f"{verdict:<4} {name}: {value} (bound {bound})")
    return 1 if any(ok is False for *_, ok in gates) else 0


def speed_gates(args) -> int:
    walls = measure_driver_walls(args.jobs)
    walls.update(measure_ledger_walls())
    return judge_speed_gates(**walls, jobs=args.jobs,
                             cores=os.cpu_count() or 1)


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
    outcomes = verify_files(paths, jobs=args.jobs, ledger=False)
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


def _batches(summary: dict) -> int:
    return int((summary.get("session") or {}).get("batches", 0))


def warm_noop(args) -> int:
    stamp = _load(args.stamp)
    cold = _load(args.cold)["summary"]
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
    if _batches(summary) > _batches(cold):
        failures.append(f"warm request grew session.batches "
                        f"({_batches(cold)} -> {_batches(summary)}); a "
                        "no-op must not touch the pool")
    if failures:
        for f in failures:
            print(f"warm-noop: {f}", file=sys.stderr)
        return 1
    print(f"warm-noop ok: {stamp['path']} untouched, 0 unit(s) parsed, "
          f"pool batches unchanged ({_batches(summary)})")
    return 0


#: requests the serve-smoke job has made when it reads the status
MIN_LATENCY_REQUESTS = 2


def serve_latency(args) -> int:
    status = _load(args.status)
    ns = status.get("namespaces", {}).get(status.get("root"), {})
    lat = ns.get("latency") or {}
    n, p50, p99 = lat.get("requests", 0), lat.get("p50_s"), lat.get("p99_s")
    if n < MIN_LATENCY_REQUESTS or p50 is None or p99 is None \
            or not 0 <= p50 <= p99:
        print(f"serve-latency: namespace {status.get('root')} reports "
              f"{lat or 'no latency'}; expected >= "
              f"{MIN_LATENCY_REQUESTS} requests with 0 <= p50_s <= p99_s",
              file=sys.stderr)
        return 1
    print(f"serve-latency ok: p50 {p50 * 1e3:.1f}ms <= p99 "
          f"{p99 * 1e3:.1f}ms over {n} request(s)")
    return 0


# ---------------------------------------------------------------------
# certcheck
# ---------------------------------------------------------------------

def certcheck_inputs(workdir: Path) -> list[Path]:
    """The case studies plus the fuzz corpus's accept entries, each
    regenerated into ``workdir`` as ``<entry stem>.c``."""
    from repro.fuzz.corpus import load_corpus
    from repro.fuzz.generator import TEMPLATES
    from repro.report import casestudies_dir

    paths = sorted(casestudies_dir().glob("*.c"))
    for path, entry in load_corpus():
        if entry.expect.get("check") == "accept":
            out = workdir / f"{path.stem}.c"
            out.write_text(TEMPLATES[entry.template].build(
                entry.params).source)
            paths.append(out)
    return paths


def certify(outcomes: dict) -> dict:
    """Re-check the certificates of every accepted function; a unit that
    did not verify or an accepted function without a derivation is a
    problem, since nothing of it could be re-checked."""
    from repro.proofs.certcheck import check_outcome
    from repro.pure.memo import clear_pure_caches
    from repro.refinedc.rules import REGISTRY

    # The solver's memo caches are process-wide: left as the search
    # filled them, a re-check could be answered from the search's own
    # entries instead of being re-proved.
    clear_pure_caches()
    summary = {"units": len(outcomes), "functions": 0, "derivations": 0,
               "rechecked": 0, "skipped": 0, "problems": []}
    for stem, out in outcomes.items():
        if not out.ok:
            summary["problems"].append(f"{stem}: did not verify")
        for name, reports in check_outcome(out, REGISTRY).items():
            summary["functions"] += 1
            summary["derivations"] += len(reports)
            if not reports:
                summary["problems"].append(f"{stem}:{name}: accepted "
                                           "without a derivation")
            for report in reports:
                summary["rechecked"] += report.side_conditions_rechecked
                summary["skipped"] += report.side_conditions_skipped
                summary["problems"] += [f"{stem}:{name}: {p}"
                                        for p in report.problems]
    return summary


def judge_certcheck(summary: dict) -> int:
    for problem in summary["problems"]:
        print(f"certcheck: {problem}", file=sys.stderr)
    if summary["skipped"]:
        print(f"certcheck: {summary['skipped']} side condition(s) "
              "skipped; expected 0", file=sys.stderr)
    if summary["problems"] or summary["skipped"]:
        return 1
    print(f"certcheck ok: {summary['units']} unit(s), "
          f"{summary['functions']} accepted function(s), "
          f"{summary['derivations']} derivation(s), "
          f"{summary['rechecked']} side condition(s) re-proved, 0 skipped")
    return 0


def certcheck(args) -> int:
    from repro.frontend import verify_files

    with tempfile.TemporaryDirectory() as tmp:
        # Pooled, so the derivations checked are the unpickled ones.
        outcomes = verify_files(certcheck_inputs(Path(tmp)), jobs=2,
                                ledger=False)
    return judge_certcheck(certify(outcomes))


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

    p = sub.add_parser("speed-gates",
                       help="warm-cache, parallel and ledger timing "
                            "bounds")
    p.add_argument("--jobs", type=int, default=4)
    p.set_defaults(func=speed_gates)

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
                       help="warm request rewrote no state, parsed no "
                            "unit and dispatched no pool batch")
    p.add_argument("stamp", help="state-stamp JSON")
    p.add_argument("cold", help="rcd verify --json of the cold request")
    p.add_argument("warm", help="rcd verify --json of the warm request")
    p.set_defaults(func=warm_noop)

    p = sub.add_parser("serve-latency",
                       help="status reports the namespace's request "
                            "latency percentiles")
    p.add_argument("status", help="rcd status --json output")
    p.set_defaults(func=serve_latency)

    p = sub.add_parser("certcheck",
                       help="re-check the certificates of the case "
                            "studies and the corpus accept entries")
    p.set_defaults(func=certcheck)

    args = ap.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
