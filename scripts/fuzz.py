#!/usr/bin/env python3
"""Run soundness-fuzzing campaigns against the RefinedC reproduction.

Examples:

    # a seeded 60-second campaign on two driver workers
    PYTHONPATH=src python scripts/fuzz.py --budget 60 --seed 0 --jobs 2

    # exactly 200 programs, stats to JSON, prove the run replays
    PYTHONPATH=src python scripts/fuzz.py --count 200 --stats fuzz.json \\
        --verify-replay

    # coverage dashboard for a finished campaign
    PYTHONPATH=src python scripts/fuzz.py --dashboard --stats-in fuzz.json

    # enforce the pinned coverage floor
    PYTHONPATH=src python scripts/fuzz.py --count 24 --round-size 8 \\
        --check-floor tests/fuzz/coverage_baseline.json

    # replay the regression corpus
    PYTHONPATH=src python scripts/fuzz.py --replay

Exit status: 0 — clean campaign / replay; 1 — findings (soundness or
robustness bugs), corpus replay failures, or an unmet coverage floor;
2 — a budget campaign did not replay byte-identically from its seed, or
the steered campaign did not beat the blind one under
``--coverage-compare``.
"""

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.fuzz import (DEFAULT_TEMPLATES, CampaignConfig,  # noqa: E402
                        CampaignStats, load_corpus, replay_entry,
                        run_campaign)
from repro.fuzz.corpus import DEFAULT_CORPUS_DIR  # noqa: E402
from repro.obs import RuleCostMap, record_run  # noqa: E402
from repro.trace.signature import RULE_PREFIX  # noqa: E402


def ledger_record(stats: CampaignStats) -> None:
    """One run-ledger record per finished campaign (no-op unless
    RC_LEDGER is set).  The campaign retains coverage signatures, not
    traces, so the rules block is count-only — hit counts per rule
    dispatch key and solver outcome, no wall columns (``rcstat
    --top-rules`` then orders by count)."""
    costs = RuleCostMap()
    costs.add_counts(stats.coverage.counts)
    record_run("fuzz", wall_s=stats.wall_s, jobs=stats.jobs,
               suite=stats.templates, costs=costs,
               extra={"seed": stats.seed, "programs": stats.programs,
                      "coverage_keys": len(stats.coverage),
                      "rule_keys": len(stats.coverage.rule_keys()),
                      "kill_rate": round(stats.kill_rate, 6),
                      "findings": len(stats.findings), "ok": stats.ok})


def parse_args(argv):
    ap = argparse.ArgumentParser(
        description="soundness fuzzing: checker vs. Caesium interpreter")
    budget = ap.add_mutually_exclusive_group()
    budget.add_argument("--budget", type=float, metavar="SECONDS",
                        help="time-budgeted campaign")
    budget.add_argument("--count", type=int, metavar="N",
                        help="fixed-count campaign (default: 32)")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--jobs", type=int, default=1,
                    help="driver process-pool width")
    ap.add_argument("--shards", type=int, default=1, metavar="N",
                    help="partition each round's seed space into N shards")
    ap.add_argument("--round-size", type=int, default=16, metavar="N",
                    help="programs per steering round")
    ap.add_argument("--no-coverage", action="store_true",
                    help="skip tracing/coverage signatures")
    ap.add_argument("--no-steer", action="store_true",
                    help="blind template sampling (no coverage steering)")
    ap.add_argument("--trials", type=int, default=6,
                    help="execution trials per accepted program")
    ap.add_argument("--mutants", type=int, default=None, metavar="N",
                    help="mutants per program (default: all)")
    ap.add_argument("--templates", type=str, default=None,
                    help="comma-separated template subset")
    ap.add_argument("--fuel", type=int, default=1_000_000)
    ap.add_argument("--no-shrink", action="store_true",
                    help="do not minimise findings")
    ap.add_argument("--stats", type=Path, default=None, metavar="PATH",
                    help="write campaign stats JSON here")
    ap.add_argument("--stats-in", type=Path, default=None, metavar="PATH",
                    help="read stats JSON instead of running a campaign "
                         "(for --dashboard / --check-floor)")
    ap.add_argument("--dashboard", action="store_true",
                    help="render the per-rule coverage / kill-rate "
                         "dashboard")
    ap.add_argument("--dashboard-json", type=Path, default=None,
                    metavar="PATH", help="write the dashboard as JSON")
    ap.add_argument("--check-floor", type=Path, default=None,
                    metavar="BASELINE",
                    help="fail if the campaign leaves any baseline "
                         "coverage key unexercised")
    ap.add_argument("--coverage-compare", type=Path, default=None,
                    metavar="PATH", help="run blind and steered campaigns "
                    "at the same budget and write the comparison JSON")
    ap.add_argument("--write-corpus", action="store_true",
                    help="persist findings to the regression corpus")
    ap.add_argument("--corpus", type=Path, default=None, metavar="DIR",
                    help=f"corpus directory (default: {DEFAULT_CORPUS_DIR})")
    ap.add_argument("--verify-replay", action="store_true",
                    help="re-run the campaign from its seed and require "
                         "byte-identical deterministic stats")
    ap.add_argument("--replay", action="store_true",
                    help="replay the corpus instead of fuzzing")
    ap.add_argument("--list-templates", action="store_true")
    return ap.parse_args(argv)


def build_config(args) -> CampaignConfig:
    templates = args.templates.split(",") if args.templates else None
    return CampaignConfig(
        seed=args.seed, budget_s=args.budget,
        count=args.count if args.budget is None else None,
        jobs=args.jobs, shards=args.shards, round_size=args.round_size,
        coverage=not args.no_coverage, steer=not args.no_steer,
        trials=args.trials, mutant_limit=args.mutants,
        shrink=not args.no_shrink, write_corpus=args.write_corpus,
        corpus_dir=args.corpus, templates=templates, fuel=args.fuel)


# ---------------------------------------------------------------------
# Dashboard.
# ---------------------------------------------------------------------

def dashboard_data(stats: CampaignStats) -> dict:
    """The machine-readable dashboard: per-rule coverage, per-template
    kill rates, UB/exec outcome tallies, category summary."""
    cov = stats.coverage
    rules = [{"key": k, "count": cov.counts[k],
              "first_seen": cov.first_seen[k]} for k in cov.rule_keys()]
    per_template = []
    for name in sorted(stats.per_template):
        t = stats.per_template[name]
        mutants = t.get("mutants", 0)
        killed = t.get("killed", 0)
        per_template.append({
            "template": name,
            "programs": t.get("programs", 0),
            "accepted": t.get("accepted", 0),
            "rejected": t.get("rejected", 0),
            "crashes": t.get("crashes", 0),
            "mutants": mutants,
            "killed": killed,
            "kill_rate": round(killed / mutants, 6) if mutants else None,
            "new_keys": t.get("new_keys", 0),
        })
    outcomes = {k: cov.counts[k] for k in sorted(cov.counts)
                if k.startswith(("exec:", "ub:"))}
    return {
        "fuzz_schema_version": stats.to_dict()["fuzz_schema_version"],
        "seed": stats.seed,
        "programs": stats.programs,
        "steered": stats.steered,
        "coverage_keys": len(cov),
        "rule_keys": len(rules),
        "categories": cov.category_counts(),
        "rules": rules,
        "per_template": per_template,
        "outcomes": outcomes,
        "kill_rate": round(stats.kill_rate, 6),
        "findings": len(stats.findings),
        "ok": stats.ok,
    }


def render_dashboard(stats: CampaignStats) -> str:
    d = dashboard_data(stats)
    lines = [
        f"== fuzz dashboard: seed={d['seed']} programs={d['programs']} "
        f"steered={d['steered']} ==",
        "",
        f"coverage: {d['coverage_keys']} keys "
        f"({d['rule_keys']} rules) — " +
        " ".join(f"{k}={v}" for k, v in d["categories"].items()),
        "",
        "per-rule coverage (hits, first-seen program):",
    ]
    for r in d["rules"]:
        lines.append(f"  {r['count']:6d}  @{r['first_seen']:<5d} "
                     f"{r['key'][len(RULE_PREFIX):]}")
    if not d["rules"]:
        lines.append("  (no coverage recorded — ran with --no-coverage?)")
    lines += ["", "per-template mutation kill rates:"]
    for t in d["per_template"]:
        rate = f"{t['kill_rate']:.1%}" if t["kill_rate"] is not None \
            else "  n/a"
        lines.append(
            f"  {t['template']:14} programs={t['programs']:<4d} "
            f"accepted={t['accepted']:<4d} mutants={t['mutants']:<4d} "
            f"killed={t['killed']:<4d} kill={rate:>6} "
            f"new_keys={t['new_keys']}")
    if d["outcomes"]:
        lines += ["", "oracle outcomes: " +
                  " ".join(f"{k}={v}" for k, v in d["outcomes"].items())]
    lines += ["", f"overall kill rate {d['kill_rate']:.1%}, "
              f"{d['findings']} findings, ok={d['ok']}"]
    return "\n".join(lines)


def check_floor(stats: CampaignStats, baseline_path: Path) -> int:
    baseline = json.loads(baseline_path.read_text())
    missing = stats.coverage.missing(baseline["keys"])
    pinned = len(baseline["keys"])
    if not missing:
        print(f"coverage floor: all {pinned} baseline keys exercised "
              f"(campaign total {len(stats.coverage)})")
        return 0
    print(f"coverage floor REGRESSION: {len(missing)}/{pinned} baseline "
          "keys no longer exercised:")
    for key in missing:
        print(f"  - {key}")
    print("(regenerate the baseline only if these rules were "
          "intentionally removed)")
    return 1


# ---------------------------------------------------------------------
# Modes.
# ---------------------------------------------------------------------

def do_replay(args) -> int:
    entries = load_corpus(args.corpus)
    if not entries:
        print("corpus is empty — nothing to replay")
        return 0
    failures = 0
    for path, entry in entries:
        res = replay_entry(entry)
        status = "ok" if res.ok else "FAIL"
        print(f"{status:4} {path.name}: " +
              ("; ".join(res.checks) if res.ok else res.detail))
        failures += not res.ok
    print(f"{len(entries) - failures}/{len(entries)} corpus entries replayed")
    return 1 if failures else 0


def write_stats(args, stats: CampaignStats) -> None:
    if args.stats:
        args.stats.parent.mkdir(parents=True, exist_ok=True)
        args.stats.write_text(stats.to_json() + "\n")
        print(f"stats written to {args.stats}")


def emit_dashboard(args, stats: CampaignStats) -> None:
    if args.dashboard:
        print(render_dashboard(stats))
    if args.dashboard_json:
        args.dashboard_json.parent.mkdir(parents=True, exist_ok=True)
        args.dashboard_json.write_text(
            json.dumps(dashboard_data(stats), indent=2) + "\n")
        print(f"dashboard JSON written to {args.dashboard_json}")


def do_inspect(args) -> int:
    stats = CampaignStats.from_dict(json.loads(args.stats_in.read_text()))
    emit_dashboard(args, stats)
    rc = 0
    if args.check_floor:
        rc = check_floor(stats, args.check_floor)
    return rc


def do_coverage_compare(args) -> int:
    base = build_config(args)
    if base.count is None:
        print("--coverage-compare needs --count (a shared program budget)")
        return 2
    blind_cfg = CampaignConfig(**{**base.__dict__, "steer": False,
                                  "coverage": True})
    steered_cfg = CampaignConfig(**{**base.__dict__, "steer": True,
                                    "coverage": True})
    blind = run_campaign(blind_cfg)
    steered = run_campaign(steered_cfg)
    b_rules = set(blind.coverage.rule_keys())
    s_rules = set(steered.coverage.rule_keys())
    cmp = {
        "seed": base.seed, "count": base.count,
        "round_size": base.round_size, "shards": base.shards,
        "blind": {"rule_keys": len(b_rules),
                  "coverage_keys": len(blind.coverage),
                  "stats": blind.to_dict(deterministic=True)},
        "steered": {"rule_keys": len(s_rules),
                    "coverage_keys": len(steered.coverage),
                    "stats": steered.to_dict(deterministic=True)},
        "steered_only_rules": sorted(s_rules - b_rules),
        "blind_only_rules": sorted(b_rules - s_rules),
        "steered_beats_blind": len(s_rules) > len(b_rules),
    }
    args.coverage_compare.parent.mkdir(parents=True, exist_ok=True)
    args.coverage_compare.write_text(json.dumps(cmp, indent=2) + "\n")
    print(f"blind:   {len(b_rules)} rule keys / "
          f"{len(blind.coverage)} total")
    print(f"steered: {len(s_rules)} rule keys / "
          f"{len(steered.coverage)} total")
    print(f"comparison written to {args.coverage_compare}")
    if not cmp["steered_beats_blind"]:
        print("steering did NOT beat blind sampling at this budget")
        return 2
    return 0


def do_campaign(args) -> int:
    cfg = build_config(args)
    stats = run_campaign(cfg)
    print(stats.summary())
    for tname, counts in sorted(stats.per_template.items()):
        print(f"  {tname:14} " + " ".join(
            f"{k}={v}" for k, v in sorted(counts.items())))
    for f in stats.findings:
        print(f"FINDING [{f.kind}] {f.template} params={f.params} "
              f"mutant={f.mutant} ub={f.ub_class}"
              + (f" shrunk_to={f.shrunk_params}" if f.shrunk_params else "")
              + (f" corpus={f.corpus_path}" if f.corpus_path else ""))
        print(f"  {f.detail[:400]}")

    write_stats(args, stats)
    emit_dashboard(args, stats)
    ledger_record(stats)

    rc = 0 if stats.ok else 1
    if args.check_floor:
        rc = max(rc, check_floor(stats, args.check_floor))
    if args.verify_replay:
        replay_cfg = CampaignConfig(
            **{**cfg.__dict__, "budget_s": None, "count": stats.programs,
               "write_corpus": False})
        replay = run_campaign(replay_cfg)
        if replay.to_json(deterministic=True) == \
                stats.to_json(deterministic=True):
            print(f"verify-replay: byte-identical over {stats.programs} "
                  "programs")
        else:
            print("verify-replay: MISMATCH — campaign is not a pure "
                  "function of its seed")
            rc = max(rc, 2)
    return rc


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.list_templates:
        print("\n".join(DEFAULT_TEMPLATES))
        return 0
    if args.replay:
        return do_replay(args)
    if args.stats_in:
        return do_inspect(args)
    if args.coverage_compare:
        return do_coverage_compare(args)
    return do_campaign(args)


if __name__ == "__main__":
    sys.exit(main())
