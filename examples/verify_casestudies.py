#!/usr/bin/env python3
"""Verify every case study of the paper's evaluation (Figure 7) and print
the regenerated table.

Run:  python examples/verify_casestudies.py [--jobs N] [--cache [DIR]]
                                            [--metrics-json PATH]

``--jobs N`` verifies independent functions on a process pool; ``--cache``
re-checks only functions whose inputs changed since the last cached run
(state under ``.rc-cache/`` or the given DIR); ``--metrics-json`` dumps
the aggregated per-phase metrics.
"""

import argparse
import time
from pathlib import Path


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--jobs", type=int, default=1,
                    help="parallel verification workers (0 = one per CPU)")
    ap.add_argument("--cache", nargs="?", const=True, default=None,
                    metavar="DIR",
                    help="enable the result cache (optionally in DIR)")
    ap.add_argument("--metrics-json", metavar="PATH",
                    help="write aggregated driver metrics as JSON")
    args = ap.parse_args(argv)

    from repro.driver import DEFAULT_CACHE_DIR, DriverConfig, merge_metrics
    from repro.frontend import verify_files
    from repro.report import (EXTRA_STUDIES, FIGURE7_STUDIES,
                              casestudies_dir, format_table, study_report)

    cache_dir = DEFAULT_CACHE_DIR if args.cache is True else args.cache
    base = casestudies_dir()
    paths = [base / f"{stem}.c"
             for stem, _cls in FIGURE7_STUDIES + EXTRA_STUDIES]

    t0 = time.perf_counter()
    outcomes = verify_files(paths, jobs=args.jobs, cache_dir=cache_dir)
    elapsed = time.perf_counter() - t0
    rows = [study_report(p, outcomes[p.stem]) for p in paths]
    print(format_table(rows))

    total = merge_metrics([o.metrics for o in outcomes.values()
                           if o.metrics is not None])
    print()
    jobs = DriverConfig(jobs=args.jobs).resolved_jobs()
    print(f"jobs={jobs}  elapsed {elapsed:.2f}s  "
          f"(search {total.phases.search_s:.2f}s, "
          f"solver {total.phases.solver_s:.2f}s, "
          f"front end {total.phases.parse_s + total.phases.elaborate_s:.2f}s"
          + (f", cache {total.functions_clean} clean / "
             f"{total.functions_dirty} dirty"
             if cache_dir is not None else "") + ")")
    if args.metrics_json:
        out = Path(args.metrics_json)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(total.to_json())
        print(f"metrics written to {out}")

    failed = [r.study for r in rows if not r.verified]
    if failed:
        print(f"FAILED: {failed}")
        raise SystemExit(1)
    print(f"All {len(rows)} case studies verified.")


if __name__ == "__main__":
    main()
