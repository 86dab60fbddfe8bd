#!/usr/bin/env python3
"""Smoke check of the benchmark itself.

Run from the root of a checkout::

    python3 perfbench/smoke.py

Runs every workload at its tiny size (``run.py --size tiny``) for one
second, untraced and traced, and checks that

* every metric ``BENCHMARK.json`` names for that mode is emitted, with
  its unit and a numeric value;
* the verdict oracle passed: ``correct`` is true and no operation failed;
* on ``serve_edit_loop``, no-op requests ran and each re-checked zero
  functions.

Exits 0 when all of this holds, 1 otherwise.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def check(workload: str, trace: int, bench: dict) -> list[str]:
    report = HERE / "_work" / f"smoke-{workload}-trace{trace}.json"
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", str(trace),
         "--size", "tiny", "--report", str(report)],
        capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        return [f"exit {proc.returncode}: {proc.stderr[-2000:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    want = bench["per_layer" if trace else "end_to_end"]
    metrics = result["metrics"]
    for m in want:
        got = metrics.get(m["name"])
        if got is None:
            problems.append(f"metric {m['name']} missing")
        elif got.get("unit") != m["unit"]:
            problems.append(f"metric {m['name']}: unit {got.get('unit')!r}, "
                            f"expected {m['unit']!r}")
        elif not isinstance(got.get("value"), (int, float)):
            problems.append(f"metric {m['name']}: value {got.get('value')!r}")
    extra = set(metrics) - {m["name"] for m in want}
    if extra:
        problems.append(f"metrics not named in BENCHMARK.json: {extra}")
    if result["correct"] is not True or result["failed"] != 0 \
            or result["attempted"] < 1:
        problems.append(f"oracle: correct={result['correct']} "
                        f"failed={result['failed']}/{result['attempted']}")
    if workload == "serve_edit_loop":
        ops = json.loads(report.read_text())["ops"]
        noops = [op for op in ops if op["kind"] == "noop"]
        if not noops:
            problems.append("no no-op request ran")
        problems += [f"no-op request {op['index']} re-checked "
                     f"{op['rechecked']} function(s)"
                     for op in noops if op["rechecked"] != 0]
    return problems


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = 0
    for workload in (w["name"] for w in bench["workloads"]):
        for trace in (0, 1):
            problems = check(workload, trace, bench)
            print(f"{'ok  ' if not problems else 'FAIL'} {workload} "
                  f"--trace {trace}")
            for problem in problems:
                print(f"     {problem}")
            failures += bool(problems)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
