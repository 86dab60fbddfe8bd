#!/usr/bin/env python3
"""Trace a verification run and inspect where the proof search goes.

Verifies one or more annotated C files with tracing enabled and renders
the results:

* ``--profile`` (default) — the self-profile tree: time per typing rule
  (total and self), per-span statistics, instant counts and the top-N
  slowest pure-solver goals;
* ``--chrome PATH`` — a Chrome trace-event JSON file, loadable in
  Perfetto (https://ui.perfetto.dev) or ``chrome://tracing``;
* ``--jsonl PATH`` — the raw event stream, one JSON object per line;
* ``--report`` — the ``VerificationOutcome.report()`` text, including
  the stuck-goal diagnostics of any failing function.

Files can be given as paths or as case-study stems (resolved against
``examples/casestudies/``).  With several files the export paths get the
study stem suffixed before the extension.

Run:  PYTHONPATH=src python scripts/trace.py mpool [--jobs N]
      PYTHONPATH=src python scripts/trace.py examples/casestudies/mpool.c \\
          --chrome mpool.trace.json --profile
"""

import argparse
import json
import os
import sys
from pathlib import Path

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.frontend import verify_file                         # noqa: E402
from repro.report import casestudies_dir                       # noqa: E402
from repro.trace.chrome import (chrome_trace,                  # noqa: E402
                                validate_chrome_trace, write_jsonl)
from repro.trace.profile import render_profile                 # noqa: E402


def resolve_path(spec: str) -> Path:
    """A file path, or a case-study stem resolved in the examples dir."""
    p = Path(spec)
    if p.exists():
        return p
    candidate = casestudies_dir() / f"{spec}.c"
    if candidate.exists():
        return candidate
    raise SystemExit(f"trace.py: no such file or case study: {spec!r}")


def suffixed(path: str, stem: str, many: bool) -> Path:
    """``out.json`` -> ``out.mpool.json`` when tracing several files."""
    p = Path(path)
    return p.with_suffix(f".{stem}{p.suffix}") if many else p


def main() -> int:
    ap = argparse.ArgumentParser(
        description="Verify with tracing and render profile / exports.")
    ap.add_argument("files", nargs="+",
                    help="annotated C files or case-study stems")
    ap.add_argument("--jobs", type=int, default=1,
                    help="driver job count (default 1)")
    ap.add_argument("--profile", action="store_true",
                    help="print the self-profile (default when no other "
                         "output is selected)")
    ap.add_argument("--top", type=int, default=10, metavar="N",
                    help="rows per profile table (default 10)")
    ap.add_argument("--chrome", metavar="PATH",
                    help="write Chrome trace-event JSON (Perfetto)")
    ap.add_argument("--jsonl", metavar="PATH",
                    help="write the raw event stream as JSON lines")
    ap.add_argument("--report", action="store_true",
                    help="print the verification report (includes "
                         "stuck-goal diagnostics on failure)")
    args = ap.parse_args()

    want_profile = args.profile or not (args.chrome or args.jsonl
                                        or args.report)
    paths = [resolve_path(f) for f in args.files]
    many = len(paths) > 1
    failed = False

    for path in paths:
        outcome = verify_file(path, jobs=args.jobs, trace=True)
        failed = failed or not outcome.ok
        trace = outcome.trace
        if trace is None:
            raise SystemExit(f"trace.py: no trace recorded for {path}")
        if many:
            print(f"== {path.stem} "
                  + ("(verified)" if outcome.ok else "(FAILED)"))
        if args.report:
            print(outcome.report())
        if want_profile:
            print(render_profile(trace.profile(), top_n=args.top))
        if args.chrome:
            out = suffixed(args.chrome, path.stem, many)
            data = chrome_trace(trace)
            problems = validate_chrome_trace(data)
            if problems:
                for p in problems:
                    print(f"trace.py: invalid chrome trace: {p}",
                          file=sys.stderr)
                return 2
            out.write_text(json.dumps(data, indent=1, sort_keys=True))
            print(f"wrote {out} ({len(data['traceEvents'])} events)")
        if args.jsonl:
            out = suffixed(args.jsonl, path.stem, many)
            write_jsonl(trace, out)
            print(f"wrote {out} ({trace.event_count()} events)")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
