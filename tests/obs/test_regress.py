"""The regression sentinel: bands, pools, and the rcstat CLI gate."""

import copy
import json
import os
import subprocess
import sys
from pathlib import Path

from repro.obs import (append_record, build_record, check_all_pools,
                       check_latest, check_record, comparable_history,
                       pool_key)

from .conftest import synthetic_metrics

REPO = Path(__file__).resolve().parents[2]


def baseline_record(wall_s=1.0, now=1000.0):
    """A realistic ledger record with live cache-effectiveness ratios."""
    m = synthetic_metrics(wall_s, clean=8, dirty=2, solver_calls=100,
                          rule_applications=400, solver_cache_hits=60,
                          dispatch_table_hits=380)
    return build_record("verify", wall_s=wall_s, jobs=1,
                        metrics=[m], now=now)


def history_of(k=5, jitter=0.03):
    """k comparable records whose walls wobble ±jitter around 1s."""
    out = []
    for i in range(k):
        wall = 1.0 * (1.0 + jitter * (1 if i % 2 else -1))
        out.append(baseline_record(wall_s=wall, now=1000.0 + i))
    return out


def test_two_x_slowdown_is_flagged():
    """The acceptance case: an injected ~2x wall slowdown regresses."""
    history = history_of()
    slow = baseline_record(wall_s=2.0, now=2000.0)
    report = check_record(slow, history)
    assert report.status == "regression"
    assert [r.metric for r in report.regressions] == ["wall_s"]
    reg = report.regressions[0]
    assert reg.current == 2.0 and 0.9 < reg.baseline < 1.1
    assert "wall_s" in report.describe()


def test_cache_ratio_drop_is_flagged():
    """The acceptance case: a cache-hit-ratio collapse regresses even at
    identical wall time (today's wall, tomorrow's slowdown)."""
    history = history_of()
    cold = baseline_record(wall_s=1.0, now=2000.0)
    cold["cache_effectiveness"]["solver_memo"]["ratio"] = 0.2  # was 0.6
    report = check_record(cold, history)
    assert report.status == "regression"
    assert [r.metric for r in report.regressions] \
        == ["cache_effectiveness.solver_memo.ratio"]


def test_within_noise_rerun_passes():
    """The acceptance case: +5% wall and -0.05 ratio sit inside the
    bands — the sentinel must not cry wolf."""
    history = history_of()
    rerun = baseline_record(wall_s=1.05, now=2000.0)
    rerun["cache_effectiveness"]["solver_memo"]["ratio"] -= 0.05
    report = check_record(rerun, history)
    assert report.status == "ok" and report.ok


def test_absolute_floor_shields_tiny_suites():
    """2x of 10ms is scheduler jitter, not a regression: the relative
    band alone would flag it, the absolute floor must not."""
    history = [baseline_record(wall_s=0.010, now=1000.0 + i)
               for i in range(5)]
    report = check_record(baseline_record(wall_s=0.020, now=2000.0),
                          history)
    assert report.status == "ok"
    # ...but past the floor the relative band bites again.
    report = check_record(baseline_record(wall_s=0.5, now=2000.0), history)
    assert report.status == "regression"


def test_thin_history_skips_not_judges():
    report = check_record(baseline_record(now=2000.0), history_of(k=2))
    assert report.status == "skipped"
    assert report.ok  # a skip must not fail CI
    assert "2 comparable" in report.describe()


def test_never_ran_layers_are_not_regressions():
    """ratio=None ("layer never ran") on either side is skipped —
    unused is not 0% effective."""
    history = history_of()
    candidate = baseline_record(now=2000.0)
    candidate["cache_effectiveness"]["solver_memo"]["ratio"] = None
    assert check_record(candidate, history).status == "ok"
    for r in history:
        r["cache_effectiveness"]["solver_memo"]["ratio"] = None
    candidate["cache_effectiveness"]["solver_memo"]["ratio"] = 0.0
    assert check_record(candidate, history).status == "ok"


def test_pool_key_splits_on_run_shape():
    base = baseline_record()
    assert pool_key(base) == pool_key(copy.deepcopy(base))
    for mutate in (
        lambda r: r.update(jobs=8),
        lambda r: r.update(kind="bench"),
        lambda r: r["env"].update(RC_TRACE="1"),
        lambda r: r["config"].update(result_cache=True),
        lambda r: r.update(suite=["other"]),
        lambda r: r["platform"].update(machine="arm64"),
    ):
        other = copy.deepcopy(base)
        mutate(other)
        assert pool_key(other) != pool_key(base), mutate


def test_pool_key_ignores_python_patch_release():
    a, b = baseline_record(), baseline_record()
    a["platform"]["python"] = "3.11.4"
    b["platform"]["python"] = "3.11.9"
    assert pool_key(a) == pool_key(b)
    b["platform"]["python"] = "3.12.1"
    assert pool_key(a) != pool_key(b)


def test_comparable_history_filters_and_excludes_candidate():
    history = history_of()
    alien = baseline_record(now=1500.0)
    alien["jobs"] = 8
    candidate = baseline_record(now=2000.0)
    pool = comparable_history(candidate, history + [alien, candidate])
    assert len(pool) == len(history)
    assert alien not in pool and candidate not in pool


def test_check_latest_and_check_all_pools():
    records = history_of() + [baseline_record(wall_s=2.0, now=2000.0)]
    assert check_latest(records).status == "regression"
    assert check_latest(records, kind="bench").status == "skipped"
    assert check_latest([], kind=None).status == "skipped"

    fast_pool = [baseline_record(wall_s=0.5, now=3000.0 + i)
                 for i in range(4)]
    for r in fast_pool:
        r["jobs"] = 4
    reports = check_all_pools(records + fast_pool)
    assert len(reports) == 2
    statuses = sorted(rep.status for rep in reports.values())
    assert statuses == ["ok", "regression"]


def rcstat(ledger, *flags):
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    env.pop("RC_LEDGER", None)
    return subprocess.run(
        [sys.executable, str(REPO / "scripts" / "rcstat.py"),
         "--ledger", str(ledger), *flags],
        capture_output=True, text=True, env=env, timeout=60)


def seed_ledger(path, records):
    for rec in records:
        assert append_record(path, rec)


def test_rcstat_check_gates_on_exit_code(tmp_path):
    """The CI wiring: rcstat --check exits 3 on a regression, 0 on an
    in-band rerun, 0 (skipped) on thin history."""
    ledger = tmp_path / "ledger.jsonl"
    seed_ledger(ledger, history_of()
                + [baseline_record(wall_s=2.0, now=2000.0)])
    proc = rcstat(ledger, "--check")
    assert proc.returncode == 3, proc.stdout + proc.stderr
    assert "REGRESSION wall_s" in proc.stdout

    ok_ledger = tmp_path / "ok.jsonl"
    seed_ledger(ok_ledger, history_of()
                + [baseline_record(wall_s=1.04, now=2000.0)])
    proc = rcstat(ok_ledger, "--check")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "sentinel: ok" in proc.stdout

    thin = tmp_path / "thin.jsonl"
    seed_ledger(thin, history_of(k=1) + [baseline_record(now=2000.0)])
    proc = rcstat(thin, "--check")
    assert proc.returncode == 0
    assert "skipped" in proc.stdout


def test_rcstat_check_all_and_dashboard(tmp_path):
    ledger = tmp_path / "ledger.jsonl"
    bad_pool = history_of() + [baseline_record(wall_s=2.0, now=2000.0)]
    good_pool = [baseline_record(wall_s=0.5, now=3000.0 + i)
                 for i in range(4)]
    for r in good_pool:
        r["jobs"] = 4
    seed_ledger(ledger, bad_pool + good_pool)
    proc = rcstat(ledger, "--check-all")
    assert proc.returncode == 3
    assert "sentinel: ok" in proc.stdout
    assert "sentinel: regression" in proc.stdout

    proc = rcstat(ledger)
    assert proc.returncode == 0
    assert "verify" in proc.stdout and "unit" in proc.stdout

    proc = rcstat(ledger, "--cache-report")
    assert proc.returncode == 0
    assert "0.80" in proc.stdout  # result_cache 8/(8+2)


def test_rcstat_tolerates_corrupt_tail(tmp_path):
    ledger = tmp_path / "ledger.jsonl"
    seed_ledger(ledger, history_of())
    with open(ledger, "ab") as fh:
        fh.write(b'{"torn": ')
    proc = rcstat(ledger)
    assert proc.returncode == 0
    assert "skipped 1 corrupt line(s)" in proc.stderr


def test_rcstat_diff_reports_wall_delta(tmp_path):
    ledger = tmp_path / "ledger.jsonl"
    seed_ledger(ledger, [baseline_record(wall_s=1.0, now=1000.0),
                         baseline_record(wall_s=1.5, now=2000.0)])
    proc = rcstat(ledger, "--diff", "0", "-1")
    assert proc.returncode == 0
    assert "+500.0ms" in proc.stdout and "+50.0%" in proc.stdout


def test_custom_bands_reach_the_sentinel(tmp_path):
    """--wall-tol / --wall-floor are live: a +10% candidate passes the
    default bands but fails tightened ones."""
    ledger = tmp_path / "ledger.jsonl"
    seed_ledger(ledger, history_of(jitter=0.0)
                + [baseline_record(wall_s=1.1, now=2000.0)])
    assert rcstat(ledger, "--check").returncode == 0
    proc = rcstat(ledger, "--check", "--wall-tol", "0.05",
                  "--wall-floor", "0.01")
    assert proc.returncode == 3


def test_ledger_records_survive_json_round_trip():
    rec = baseline_record()
    assert json.loads(json.dumps(rec)) == rec
