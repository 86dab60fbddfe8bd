"""ci_checks subcommands: the assertions CI enforces, now testable."""

import json
import os

import pytest


def write(path, payload):
    path.write_text(json.dumps(payload, indent=2) + "\n")
    return str(path)


# ---------------------------------------------------------------------
# speed-gates
# ---------------------------------------------------------------------

#: walls (seconds) that meet every bound exactly: warm cache 5x and
#: jobs=2 2x faster than the 1 s serial pass, ledger 2% of 0.5 s
AT_BOUNDS = {"serial_s": 1.0, "warm_cache_s": 0.2, "parallel_s": 0.5,
             "ledger_s": 0.01, "traced_check_s": 0.5}


def judge(ci_checks, cores=2, **walls):
    return ci_checks.judge_speed_gates(**{**AT_BOUNDS, **walls}, jobs=2,
                                       cores=cores)


class TestSpeedGates:
    def test_walls_at_every_bound_pass(self, ci_checks):
        assert judge(ci_checks) == 0

    @pytest.mark.parametrize("walls", [
        {"warm_cache_s": 1.0 / 4.99},     # warm cache 4.99x
        {"parallel_s": 1.0 / 1.99},       # jobs=2 1.99x
        {"ledger_s": 0.5 * 0.0201},       # ledger +2.01%
    ])
    def test_just_below_a_bound_fails(self, ci_checks, capsys, walls):
        assert judge(ci_checks, **walls) == 1
        assert capsys.readouterr().out.count("FAIL") == 1

    def test_one_core_skips_only_the_parallel_bound(self, ci_checks,
                                                    capsys):
        assert judge(ci_checks, cores=1, parallel_s=2.0) == 0
        assert "skip parallel speedup" in capsys.readouterr().out
        assert judge(ci_checks, cores=1, warm_cache_s=1.0 / 4.99) == 1
        assert judge(ci_checks, cores=1, ledger_s=0.5 * 0.0201) == 1

    def test_subcommand_judges_the_measured_walls(self, ci_checks,
                                                  monkeypatch):
        calls = []
        monkeypatch.setattr(ci_checks, "measure_driver_walls",
                            lambda jobs: calls.append(jobs) or {
                                "serial_s": 1.0, "warm_cache_s": 0.5,
                                "parallel_s": 0.5})
        monkeypatch.setattr(ci_checks, "measure_ledger_walls",
                            lambda: {"ledger_s": 0.001,
                                     "traced_check_s": 0.5})
        assert ci_checks.main(["speed-gates", "--jobs", "2"]) == 1
        assert calls == [2]


# ---------------------------------------------------------------------
# traced-verify
# ---------------------------------------------------------------------

class TestTracedVerify:
    def test_traced_run_passes_under_rc_trace(self, ci_checks,
                                              monkeypatch):
        monkeypatch.setenv("RC_TRACE", "1")
        assert ci_checks.main(["traced-verify", "--stem", "queue"]) == 0

    def test_untraced_run_fails(self, ci_checks, monkeypatch, capsys):
        monkeypatch.delenv("RC_TRACE", raising=False)
        assert ci_checks.main(["traced-verify", "--stem", "queue"]) == 1
        assert "no trace" in capsys.readouterr().err


# ---------------------------------------------------------------------
# coverage-diff
# ---------------------------------------------------------------------

class TestCoverageDiff:
    def make(self, tmp_path, got, pinned):
        stats = write(tmp_path / "stats.json",
                      {"coverage": {"keys": sorted(got)}})
        base = write(tmp_path / "base.json", {"keys": sorted(pinned)})
        return stats, base

    def test_diff_renders_missing_and_new(self, ci_checks, tmp_path,
                                          capsys):
        stats, base = self.make(tmp_path, {"a", "c"}, {"a", "b"})
        assert ci_checks.main(["coverage-diff", stats, base]) == 0
        out = capsys.readouterr().out
        assert "campaign keys: 2 (baseline pins 2)" in out
        assert "**missing**: `b`" in out
        assert "new (unpinned): `c`" in out

    def test_strict_fails_on_missing_pinned_key(self, ci_checks,
                                                tmp_path):
        stats, base = self.make(tmp_path, {"a"}, {"a", "b"})
        assert ci_checks.main(
            ["coverage-diff", stats, base, "--strict"]) == 1

    def test_strict_passes_when_all_pinned_covered(self, ci_checks,
                                                   tmp_path):
        stats, base = self.make(tmp_path, {"a", "b", "c"}, {"a", "b"})
        assert ci_checks.main(
            ["coverage-diff", stats, base, "--strict"]) == 0


# ---------------------------------------------------------------------
# batch-reference + serve-compare
# ---------------------------------------------------------------------

@pytest.fixture(scope="module")
def batch_json(ci_checks, tmp_path_factory):
    p = tmp_path_factory.mktemp("serve-compare") / "batch.json"
    assert ci_checks.main(
        ["batch-reference", "queue", "--json", str(p)]) == 0
    return p


def serve_payload(batch, *, warm, rechecked, ok=True):
    return {"files": json.loads(batch.read_text())["files"],
            "summary": {"ok": ok, "warm": warm, "rechecked": rechecked,
                        "queue_wait_s": 0.0}}


class TestServeCompare:
    def test_batch_reference_shape(self, batch_json):
        data = json.loads(batch_json.read_text())
        assert data["ok"] is True
        assert set(data["files"]) == {"queue"}
        fn = next(iter(data["files"]["queue"].values()))
        assert set(fn) == {"ok", "error", "counters"}

    def test_identical_outcomes_pass(self, ci_checks, batch_json,
                                     tmp_path, capsys):
        cold = write(tmp_path / "cold.json",
                     serve_payload(batch_json, warm=False, rechecked=3))
        warm = write(tmp_path / "warm.json",
                     serve_payload(batch_json, warm=True, rechecked=0))
        assert ci_checks.main(
            ["serve-compare", str(batch_json), cold, warm]) == 0
        assert "identical to batch" in capsys.readouterr().out

    def test_divergent_cold_outcome_fails(self, ci_checks, batch_json,
                                          tmp_path, capsys):
        payload = serve_payload(batch_json, warm=False, rechecked=3)
        fn = next(iter(payload["files"]["queue"]))
        payload["files"]["queue"][fn]["ok"] = False
        cold = write(tmp_path / "cold.json", payload)
        warm = write(tmp_path / "warm.json",
                     serve_payload(batch_json, warm=True, rechecked=0))
        assert ci_checks.main(
            ["serve-compare", str(batch_json), cold, warm]) == 1
        assert "differ from the batch" in capsys.readouterr().err

    def test_lukewarm_second_request_fails(self, ci_checks, batch_json,
                                           tmp_path, capsys):
        cold = write(tmp_path / "cold.json",
                     serve_payload(batch_json, warm=False, rechecked=3))
        warm = write(tmp_path / "warm.json",
                     serve_payload(batch_json, warm=False, rechecked=2))
        assert ci_checks.main(
            ["serve-compare", str(batch_json), cold, warm]) == 1
        err = capsys.readouterr().err
        assert "not served warm" in err
        assert "re-checked 2" in err


# ---------------------------------------------------------------------
# state-stamp + warm-noop
# ---------------------------------------------------------------------

class TestWarmNoop:
    @pytest.fixture
    def stamped(self, ci_checks, tmp_path):
        cache = tmp_path / "cache"
        cache.mkdir()
        (cache / "depgraph.json").write_text("{}")
        stamp = tmp_path / "stamp.json"
        assert ci_checks.main(["state-stamp", str(cache),
                               "--json", str(stamp)]) == 0
        return cache / "depgraph.json", str(stamp)

    @staticmethod
    def summary(path, batches=None, **fields):
        if batches is not None:
            fields["session"] = {"jobs": 2, "batches": batches}
        return write(path, {"files": {}, "summary": fields})

    def cold(self, tmp_path, batches=None):
        return self.summary(tmp_path / "cold.json", batches, parsed=54)

    def warm(self, tmp_path, parsed, batches=None):
        return self.summary(tmp_path / "warm.json", batches, parsed=parsed)

    def test_untouched_state_and_no_parse_pass(self, ci_checks, stamped,
                                               tmp_path, capsys):
        _, stamp = stamped
        assert ci_checks.main(["warm-noop", stamp, self.cold(tmp_path),
                               self.warm(tmp_path, 0)]) == 0
        assert "untouched" in capsys.readouterr().out

    def test_rewritten_state_fails(self, ci_checks, stamped, tmp_path,
                                   capsys):
        state, stamp = stamped
        st = state.stat()
        os.utime(state, ns=(st.st_atime_ns, st.st_mtime_ns + 1000))
        assert ci_checks.main(["warm-noop", stamp, self.cold(tmp_path),
                               self.warm(tmp_path, 0)]) == 1
        assert "rewrote" in capsys.readouterr().err

    def test_reparse_fails(self, ci_checks, stamped, tmp_path, capsys):
        _, stamp = stamped
        assert ci_checks.main(["warm-noop", stamp, self.cold(tmp_path),
                               self.warm(tmp_path, 2)]) == 1
        assert "parsed 2 unit(s)" in capsys.readouterr().err

    def test_missing_parsed_field_fails(self, ci_checks, stamped,
                                        tmp_path):
        _, stamp = stamped
        path = write(tmp_path / "warm.json", {"files": {}, "summary": {}})
        assert ci_checks.main(["warm-noop", stamp, self.cold(tmp_path),
                               path]) == 1

    def test_unchanged_pool_batches_pass(self, ci_checks, stamped,
                                         tmp_path, capsys):
        _, stamp = stamped
        assert ci_checks.main(["warm-noop", stamp,
                               self.cold(tmp_path, batches=1),
                               self.warm(tmp_path, 0, batches=1)]) == 0
        assert "pool batches unchanged (1)" in capsys.readouterr().out

    def test_grown_pool_batches_fail(self, ci_checks, stamped, tmp_path,
                                     capsys):
        _, stamp = stamped
        assert ci_checks.main(["warm-noop", stamp,
                               self.cold(tmp_path, batches=1),
                               self.warm(tmp_path, 0, batches=2)]) == 1
        assert "grew session.batches (1 -> 2)" in capsys.readouterr().err


class TestServeLatency:
    @staticmethod
    def status(tmp_path, latency):
        ns = {"served": 2, "functions_checked": 1, "memo_entries": 1,
              "cache_dir": "/p/.rc-cache"}
        if latency is not None:
            ns["latency"] = latency
        return write(tmp_path / "status.json",
                     {"event": "status", "root": "/p",
                      "namespaces": {"/p": ns}})

    def test_two_ordered_requests_pass(self, ci_checks, tmp_path, capsys):
        path = self.status(tmp_path, {"requests": 2, "p50_s": 0.01,
                                      "p99_s": 0.5})
        assert ci_checks.main(["serve-latency", path]) == 0
        assert "over 2 request(s)" in capsys.readouterr().out

    @pytest.mark.parametrize("latency", [
        None,
        {"requests": 1, "p50_s": 0.01, "p99_s": 0.01},
        {"requests": 2, "p50_s": 0.5, "p99_s": 0.01},
        {"requests": 0, "p50_s": None, "p99_s": None},
    ])
    def test_missing_short_or_inverted_latency_fails(self, ci_checks,
                                                     tmp_path, capsys,
                                                     latency):
        path = self.status(tmp_path, latency)
        assert ci_checks.main(["serve-latency", path]) == 1
        assert "serve-latency" in capsys.readouterr().err
