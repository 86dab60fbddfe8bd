#!/usr/bin/env python3
"""One cold start of the batch checker (started by run.py).

    python3 perfbench/setup_probe.py --inputs LIST.json --jobs 2

A fresh interpreter imports the checker, computes the engine
fingerprint and runs the first verify pass over the files named in
``LIST.json`` (which starts the first worker pool), then prints one
JSON line: the verdict of every unit and the time of each step.  The
caller times the whole start, interpreter included, as ``setup_s``.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def main(argv=None) -> int:
    t0 = time.perf_counter()
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--inputs", required=True)
    ap.add_argument("--jobs", type=int, required=True)
    args = ap.parse_args(argv)
    sys.path.insert(0, str(SRC))

    from repro.driver import engine_fingerprint
    from repro.frontend import verify_files
    t1 = time.perf_counter()
    engine_fingerprint()
    t2 = time.perf_counter()
    paths = json.loads(Path(args.inputs).read_text())
    outcomes = verify_files(paths, jobs=args.jobs)
    t3 = time.perf_counter()
    print(json.dumps({"import_s": t1 - t0, "fingerprint_s": t2 - t1,
                      "first_pass_s": t3 - t2,
                      "verdicts": {k: o.ok for k, o in outcomes.items()}}),
          flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
