#!/usr/bin/env python3
"""Query the run ledger: dashboard, rule tables, diffs, and the sentinel.

The ledger (``.rc-ledger.jsonl``, or wherever ``RC_LEDGER`` points) holds
one record per verify/bench/fuzz run — see README "Observability" for the
record schema.  ``rcstat`` is its query tool:

* *(no flags)* — the terminal dashboard: the most recent records with
  wall time, configuration, and cache-effectiveness ratios;
* ``--top-rules [N]`` — the N most expensive rule dispatch keys of the
  newest record carrying a rules block (count-only blocks, e.g. from
  fuzz campaigns, order by count);
* ``--tactics`` — the same table over the solver-tactic dimension;
* ``--cache-report`` — per-layer cache-effectiveness history, newest
  last, so drift is visible at a glance;
* ``--diff A B`` — compare two records (by index, newest = -1, or by a
  git sha prefix): wall, cache ratios, and per-rule cost deltas;
* ``--check`` / ``--check-all`` — the noise-aware regression sentinel:
  the newest record (resp. the newest of every comparability pool) vs
  the median of its comparable history; exits 3 on a regression, so CI
  can gate on it.

Run:  PYTHONPATH=src python scripts/rcstat.py --ledger .rc-ledger.jsonl
      PYTHONPATH=src python scripts/rcstat.py --top-rules 15
      PYTHONPATH=src python scripts/rcstat.py --check --min-history 3
"""

import argparse
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.obs import (MIN_HISTORY, RATIO_ABS_TOL,     # noqa: E402
                       WALL_ABS_FLOOR_S, WALL_REL_TOL, RuleCostMap,
                       check_all_pools, check_latest, read_ledger,
                       render_top_rules)
from repro.obs.aggregate import SOLVER_PREFIX          # noqa: E402
from repro.obs.ledger import (DEFAULT_LEDGER_PATH,     # noqa: E402
                              KNOWN_KINDS, ledger_env_path)
from repro.obs.regress import RATIO_FIELDS            # noqa: E402
from repro.trace.signature import RULE_PREFIX          # noqa: E402

EXIT_REGRESSION = 3


def fmt_ratio(value) -> str:
    return "   -" if value is None else f"{value:.2f}"


def fmt_ts(ts: float) -> str:
    return time.strftime("%m-%d %H:%M", time.localtime(ts))


#: one short column heading per watched cache-effectiveness layer
LAYER_HEADS = " ".join(f"{layer.split('_')[0][:6]:>6}"
                       for layer, _field in RATIO_FIELDS)


def effectiveness_cells(record: dict) -> str:
    eff = record.get("cache_effectiveness", {})
    return " ".join(f"{fmt_ratio((eff.get(layer) or {}).get(field)):>6}"
                    for layer, field in RATIO_FIELDS)


def dashboard(records, limit: int) -> str:
    lines = [f"{'when':<12} {'kind':<7} {'sha':<8} {'jobs':>4} "
             f"{'wall':>9}  {LAYER_HEADS:<24} suite"]
    for r in records[-limit:]:
        sha = (r.get("git_sha") or "")[:8] or "-"
        suite = ",".join(r.get("suite", [])) or "-"
        if len(suite) > 28:
            suite = suite[:25] + "..."
        lines.append(
            f"{fmt_ts(r.get('ts', 0)):<12} {r.get('kind', '?'):<7} "
            f"{sha:<8} {r.get('jobs', 1):>4} "
            f"{r.get('wall_s', 0.0) * 1e3:>7.1f}ms  "
            f"{effectiveness_cells(r):<24} {suite}")
    return "\n".join(lines)


def cache_report(records, limit: int) -> str:
    lines = ["per-layer cache effectiveness (newest last; '-' = layer "
             "never ran)",
             f"{'when':<12} {'kind':<7} {LAYER_HEADS}"]
    for r in records[-limit:]:
        if "cache_effectiveness" in r:
            lines.append(f"{fmt_ts(r.get('ts', 0)):<12} "
                         f"{r.get('kind', '?'):<7} {effectiveness_cells(r)}")
    return "\n".join(lines)


def latest_costs(records) -> RuleCostMap:
    """The rules block of the newest record that carries one."""
    for r in reversed(records):
        if "rules" in r:
            return RuleCostMap.from_dict(r["rules"])
    raise SystemExit("rcstat: no record carries a rules block "
                     "(run with RC_TRACE=1 RC_LEDGER=1)")


def pick_record(records, spec: str):
    """A record by integer index (newest = -1) or git-sha prefix."""
    try:
        return records[int(spec)]
    except (ValueError, IndexError):
        pass
    matches = [r for r in records
               if r.get("git_sha", "").startswith(spec)]
    if not matches:
        raise SystemExit(f"rcstat: no record matches {spec!r}")
    return matches[-1]


def diff_records(a: dict, b: dict, top: int) -> str:
    def describe(r):
        return (f"{fmt_ts(r.get('ts', 0))} {r.get('kind', '?')} "
                f"{(r.get('git_sha') or '')[:8] or '-'}")

    wall_a, wall_b = a.get("wall_s", 0.0), b.get("wall_s", 0.0)
    delta = wall_b - wall_a
    rel = f" ({delta / wall_a:+.1%})" if wall_a else ""
    lines = [f"A: {describe(a)}", f"B: {describe(b)}",
             f"wall: {wall_a * 1e3:.1f}ms -> {wall_b * 1e3:.1f}ms "
             f"[{delta * 1e3:+.1f}ms{rel}]"]

    eff_a = a.get("cache_effectiveness", {})
    eff_b = b.get("cache_effectiveness", {})
    for layer, field in RATIO_FIELDS:
        ra = (eff_a.get(layer) or {}).get(field)
        rb = (eff_b.get(layer) or {}).get(field)
        if ra != rb:
            lines.append(f"{layer}: {fmt_ratio(ra)} -> {fmt_ratio(rb)}")

    if "rules" in a and "rules" in b:
        ca = RuleCostMap.from_dict(a["rules"]).entries
        cb = RuleCostMap.from_dict(b["rules"]).entries
        deltas = []
        for key in set(ca) | set(cb):
            ta = ca[key].total_s if key in ca else 0.0
            tb = cb[key].total_s if key in cb else 0.0
            if ta != tb:
                deltas.append((abs(tb - ta), key, ta, tb))
        deltas.sort(key=lambda d: (-d[0], d[1]))
        if deltas:
            lines.append("")
            lines.append(f"{'rule/tactic':<52} {'A':>9} {'B':>9} "
                         f"{'delta':>9}")
            for _mag, key, ta, tb in deltas[:top]:
                lines.append(f"{key:<52} {ta * 1e3:>7.2f}ms "
                             f"{tb * 1e3:>7.2f}ms "
                             f"{(tb - ta) * 1e3:>+7.2f}ms")
    return "\n".join(lines)


def main() -> int:
    ap = argparse.ArgumentParser(
        description="Query the verification run ledger.")
    ap.add_argument("--ledger", metavar="PATH",
                    help="ledger file (default: $RC_LEDGER or "
                         f"{DEFAULT_LEDGER_PATH})")
    ap.add_argument("--kind", choices=list(KNOWN_KINDS),
                    help="restrict to records of one kind")
    ap.add_argument("--limit", type=int, default=15, metavar="N",
                    help="rows in the dashboard/cache report (default 15)")
    ap.add_argument("--top-rules", type=int, nargs="?", const=10,
                    metavar="N", help="top-N rule dispatch keys of the "
                    "newest record with a rules block")
    ap.add_argument("--tactics", action="store_true",
                    help="top solver tactics instead of rules")
    ap.add_argument("--cache-report", action="store_true",
                    help="cache-effectiveness history")
    ap.add_argument("--diff", nargs=2, metavar=("A", "B"),
                    help="compare two records (index or git-sha prefix)")
    ap.add_argument("--check", action="store_true",
                    help="sentinel: newest record vs comparable history")
    ap.add_argument("--check-all", action="store_true",
                    help="sentinel over every comparability pool")
    ap.add_argument("--min-history", type=int, default=MIN_HISTORY,
                    help=f"history records required (default "
                         f"{MIN_HISTORY})")
    ap.add_argument("--wall-tol", type=float, default=WALL_REL_TOL,
                    help="relative wall-time band (default "
                         f"{WALL_REL_TOL})")
    ap.add_argument("--wall-floor", type=float, default=WALL_ABS_FLOOR_S,
                    metavar="S", help="absolute wall-time floor in "
                    f"seconds (default {WALL_ABS_FLOOR_S})")
    ap.add_argument("--ratio-tol", type=float, default=RATIO_ABS_TOL,
                    help="absolute cache-ratio band (default "
                         f"{RATIO_ABS_TOL})")
    args = ap.parse_args()

    ledger = args.ledger or ledger_env_path() or DEFAULT_LEDGER_PATH
    view = read_ledger(ledger)
    if view.corrupt_lines or view.alien_versions:
        print(f"rcstat: skipped {view.corrupt_lines} corrupt line(s), "
              f"{view.alien_versions} alien-version record(s)",
              file=sys.stderr)
    records = view.of_kind(args.kind) if args.kind else view.records
    if not records:
        print(f"rcstat: no records in {ledger}")
        return 0

    if args.check or args.check_all:
        bands = dict(min_history=args.min_history, wall_tol=args.wall_tol,
                     wall_floor_s=args.wall_floor,
                     ratio_tol=args.ratio_tol)
        if args.check_all:
            reports = check_all_pools(records, **bands)
            bad = False
            for key, report in reports.items():
                print(f"pool {key}")
                print(f"  {report.describe()}")
                bad = bad or not report.ok
            return EXIT_REGRESSION if bad else 0
        report = check_latest(records, kind=args.kind, **bands)
        print(report.describe())
        return 0 if report.ok else EXIT_REGRESSION

    if args.diff:
        a = pick_record(records, args.diff[0])
        b = pick_record(records, args.diff[1])
        print(diff_records(a, b, top=args.limit))
        return 0

    if args.top_rules is not None or args.tactics:
        costs = latest_costs(records)
        prefix = SOLVER_PREFIX if args.tactics else RULE_PREFIX
        print(render_top_rules(costs, args.top_rules or 10,
                               prefix=prefix))
        return 0

    if args.cache_report:
        print(cache_report(records, args.limit))
        return 0

    print(dashboard(records, args.limit))
    return 0


if __name__ == "__main__":
    sys.exit(main())
