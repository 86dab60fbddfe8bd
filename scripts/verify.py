#!/usr/bin/env python3
"""Incremental verification CLI — the engine a CI job calls on a PR.

Verifies annotated C files through the dependency-aware incremental
driver (:mod:`repro.driver.incremental`): only functions whose
fingerprinted inputs changed since the state stored under the cache
directory are re-checked.

Run:  PYTHONPATH=src python scripts/verify.py [paths-or-stems ...]
          [--jobs N] [--cache-dir DIR] [--full]
          [--changed-since REV] [--json PATH]

With no paths, every case study under ``examples/casestudies/`` is
verified.  ``--changed-since REV`` asks git which of the requested files
changed relative to ``REV`` (three-dot diff, i.e. since the merge base —
what a PR touches): files git reports unchanged *and* whose stored
source hash still matches are skipped outright, reported from the
persisted per-function outcomes; changed or unknown files run through
the incremental engine, which re-checks only the dirty functions inside
them.  If git fails, every file is conservatively treated as changed.

``--json`` writes the run counts of ``DriverMetrics.counts`` per file
and in total (functions, clean, dirty, re-checked in this run, failed;
a skipped file's stored functions count as clean) — the artifact the
CI job uploads.
Exit code 0 iff every function of every requested file verifies
(including the stored outcomes of skipped files).
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.driver import (DEFAULT_CACHE_DIR, DriverMetrics,    # noqa: E402
                          FunctionMetrics, engine_fingerprint,
                          merge_metrics)
from repro.driver.incremental import (IncrementalState,         # noqa: E402
                                      source_sha)
from repro.frontend import verify_files                         # noqa: E402
from repro.report import casestudies_dir                        # noqa: E402


def resolve_paths(args_paths) -> list[Path]:
    """Accept case-study stems ("mpool") or file paths; default to every
    case study."""
    base = casestudies_dir()
    if not args_paths:
        return sorted(base.glob("*.c"))
    out = []
    for a in args_paths:
        p = Path(a)
        if p.suffix == ".c" and p.exists():
            out.append(p)
        else:
            out.append(base / f"{p.stem or a}.c")
    return out


def changed_files(paths: list[Path], rev: str) -> set[Path]:
    """The subset of ``paths`` git reports as changed relative to
    ``rev`` (three-dot: since the merge base).  Any git failure returns
    *all* paths — degrading to a full incremental run, never to a skip
    of something that did change."""
    try:
        proc = subprocess.run(
            ["git", "diff", "--name-only", f"{rev}...HEAD", "--"],
            capture_output=True, text=True, timeout=60, check=True)
        dirty_untracked = subprocess.run(
            ["git", "status", "--porcelain"],
            capture_output=True, text=True, timeout=60, check=True)
    except (OSError, subprocess.SubprocessError):
        return set(paths)
    names = set(proc.stdout.split())
    for line in dirty_untracked.stdout.splitlines():
        if len(line) > 3:
            names.add(line[3:].strip())
    try:
        top = subprocess.run(
            ["git", "rev-parse", "--show-toplevel"],
            capture_output=True, text=True, timeout=60,
            check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return set(paths)
    changed = set()
    for p in paths:
        try:
            rel = str(p.resolve().relative_to(top))
        except ValueError:
            changed.add(p)       # outside the repo: can't tell, run it
            continue
        if rel in names:
            changed.add(p)
    return changed


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("paths", nargs="*",
                    help="case-study stems or .c paths (default: all)")
    ap.add_argument("--jobs", type=int, default=1)
    ap.add_argument("--cache-dir", default=str(DEFAULT_CACHE_DIR))
    ap.add_argument("--full", action="store_true",
                    help="bypass incremental planning: cache-free full "
                         "re-verification of every requested file")
    ap.add_argument("--changed-since", metavar="REV", default="",
                    help="skip files unchanged since REV whose stored "
                         "state is still valid")
    ap.add_argument("--json", dest="json_path", default="",
                    help="write the run counts as JSON to PATH")
    args = ap.parse_args(argv)

    paths = resolve_paths(args.paths)
    cache_dir = Path(args.cache_dir)
    telemetry = {"cache_dir": str(cache_dir), "jobs": args.jobs,
                 "mode": "full" if args.full else "incremental",
                 "files": {}}
    reported = []        # one DriverMetrics per reported file
    skipped = 0
    all_ok = True

    def report(stem, status, ok, m) -> dict:
        entry = telemetry["files"][stem] = {"status": status, "ok": ok,
                                            **m.counts()}
        reported.append(m)
        return entry

    # A requested file may not exist on disk — most commonly a .c file
    # deleted on the PR branch while a CI matrix still names it (the
    # dirty set came from `git diff`, which lists deletions too).
    # Under --changed-since that is routine: there is nothing left to
    # verify, so report the file as skipped-deleted and move on.
    # Explicitly naming a missing file *without* --changed-since is a
    # caller mistake and fails cleanly instead of crashing mid-run.
    missing = [p for p in paths if not p.is_file()]
    if missing and not args.changed_since:
        for p in missing:
            print(f"verify: no such file: {p}", file=sys.stderr)
        return 2
    for p in missing:
        report(p.stem, "skipped-deleted", True, DriverMetrics(study=p.stem))
        skipped += 1
        print(f"{p.stem}: deleted, nothing to verify (skipped)")
    paths = [p for p in paths if p not in missing]

    to_run = list(paths)
    if args.changed_since and not args.full:
        changed = changed_files(paths, args.changed_since)
        state = IncrementalState.load(cache_dir, engine_fingerprint())
        to_run = []
        for p in paths:
            unit = state.units.get(p.stem)
            if (p not in changed and unit is not None
                    and unit.source_sha == source_sha(p.read_text())
                    and unit.functions):
                # Unchanged since REV and the stored state still matches
                # the file on disk: report the persisted outcomes, as
                # clean functions nothing re-checked.
                m = DriverMetrics(study=p.stem, functions=[
                    FunctionMetrics(fn, rec["ok"], "clean")
                    for fn, rec in unit.functions.items()])
                file_ok = all(f.ok for f in m.functions)
                all_ok = all_ok and file_ok
                report(p.stem, "skipped-unchanged", file_ok, m)
                skipped += 1
                print(f"{p.stem}: unchanged since {args.changed_since}, "
                      f"{len(m.functions)} function(s) "
                      f"{'ok' if file_ok else 'FAILED'} (skipped)")
            else:
                to_run.append(p)

    if to_run:
        outcomes = verify_files(
            to_run, jobs=args.jobs,
            cache_dir=None if args.full else cache_dir)
        for stem, out in outcomes.items():
            m = out.metrics
            all_ok = all_ok and out.ok
            c = report(stem, "verified", out.ok, m)
            print(f"{stem}: {c['functions']} function(s), "
                  f"{c['clean']} clean / {c['dirty']} dirty, "
                  f"{c['rechecked']} re-checked "
                  f"{'ok' if out.ok else 'FAILED'}")
            for f in m.functions:
                if not f.ok:
                    print(f"  FAILED {f.name}")

    tot = telemetry["totals"] = dict(merge_metrics(reported).counts(),
                                     skipped_files=skipped)
    telemetry["ok"] = all_ok
    print(f"total: {tot['functions']} function(s), {tot['clean']} clean, "
          f"{tot['rechecked']} re-checked, {tot['skipped_files']} file(s) "
          f"skipped, {tot['failed']} failure(s)")

    if args.json_path:
        Path(args.json_path).write_text(json.dumps(telemetry, indent=2,
                                                   sort_keys=True) + "\n")
        print(f"wrote {args.json_path}")
    return 0 if all_ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
