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

``--json`` writes the hit/dirty telemetry (per file: clean / dirty /
reused / re-checked functions) — the artifact the CI job uploads.
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

from repro.driver import DEFAULT_CACHE_DIR, engine_fingerprint  # noqa: E402
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
                    help="write hit/dirty telemetry JSON to PATH")
    args = ap.parse_args(argv)

    paths = resolve_paths(args.paths)
    cache_dir = Path(args.cache_dir)
    telemetry = {"cache_dir": str(cache_dir), "jobs": args.jobs,
                 "mode": "full" if args.full else "incremental",
                 "files": {}, "totals": {"functions": 0, "clean": 0,
                                         "dirty": 0, "reused": 0,
                                         "rechecked": 0, "skipped_files": 0,
                                         "failed": 0}}
    tot = telemetry["totals"]
    all_ok = True

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
        telemetry["files"][p.stem] = {
            "status": "skipped-deleted", "ok": True, "functions": 0,
            "clean": 0, "dirty": 0, "reused": 0, "rechecked": 0}
        tot["skipped_files"] += 1
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
                # the file on disk: report the persisted outcomes.
                oks = {fn: rec["ok"] for fn, rec in unit.functions.items()}
                file_ok = all(oks.values())
                all_ok = all_ok and file_ok
                telemetry["files"][p.stem] = {
                    "status": "skipped-unchanged", "ok": file_ok,
                    "functions": len(oks), "clean": len(oks), "dirty": 0,
                    "reused": 0, "rechecked": 0}
                tot["functions"] += len(oks)
                tot["clean"] += len(oks)
                tot["skipped_files"] += 1
                tot["failed"] += sum(1 for ok in oks.values() if not ok)
                print(f"{p.stem}: unchanged since {args.changed_since}, "
                      f"{len(oks)} function(s) "
                      f"{'ok' if file_ok else 'FAILED'} (skipped)")
            else:
                to_run.append(p)

    if to_run:
        outcomes = verify_files(
            to_run, jobs=args.jobs,
            cache_dir=None if args.full else cache_dir)
        for stem, out in outcomes.items():
            m = out.metrics
            rechecked = sum(1 for f in m.functions
                            if f.cache != "clean")
            all_ok = all_ok and out.ok
            telemetry["files"][stem] = {
                "status": "verified", "ok": out.ok,
                "functions": len(m.functions),
                "clean": m.functions_clean, "dirty": m.functions_dirty,
                "reused": m.results_reused, "rechecked": rechecked}
            tot["functions"] += len(m.functions)
            tot["clean"] += m.functions_clean
            tot["dirty"] += m.functions_dirty
            tot["reused"] += m.results_reused
            tot["rechecked"] += rechecked
            tot["failed"] += sum(1 for f in m.functions if not f.ok)
            print(f"{stem}: {len(m.functions)} function(s), "
                  f"{m.functions_clean} clean / {m.functions_dirty} dirty, "
                  f"{rechecked} re-checked "
                  f"{'ok' if out.ok else 'FAILED'}")
            for f in m.functions:
                if not f.ok:
                    print(f"  FAILED {f.name}")

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
