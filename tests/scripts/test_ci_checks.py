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
        return self.summary(tmp_path / "cold.json", batches, read=54,
                            parsed=54)

    def warm(self, tmp_path, parsed, batches=None, read=0):
        return self.summary(tmp_path / "warm.json", batches, read=read,
                            parsed=parsed)

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


    def test_read_source_fails(self, ci_checks, stamped, tmp_path,
                               capsys):
        _, stamp = stamped
        assert ci_checks.main(["warm-noop", stamp, self.cold(tmp_path),
                               self.warm(tmp_path, 0, read=1)]) == 1
        assert "read 1 source(s)" in capsys.readouterr().err

    def test_missing_read_field_fails(self, ci_checks, stamped, tmp_path):
        _, stamp = stamped
        path = write(tmp_path / "warm.json",
                     {"files": {}, "summary": {"parsed": 0}})
        assert ci_checks.main(["warm-noop", stamp, self.cold(tmp_path),
                               path]) == 1


# ---------------------------------------------------------------------
# serve-touch
# ---------------------------------------------------------------------

class TestServeTouch:
    @staticmethod
    def run(ci_checks, tmp_path, touched, edited):
        return ci_checks.main([
            "serve-touch",
            write(tmp_path / "touch.json", {"files": {}, "summary": touched}),
            write(tmp_path / "edit.json", {"files": {}, "summary": edited})])

    TOUCHED = {"read": 1, "parsed": 0, "rechecked": 0}

    def test_read_touched_and_parsed_edit_pass(self, ci_checks, tmp_path,
                                               capsys):
        assert self.run(ci_checks, tmp_path, self.TOUCHED,
                        {"read": 1, "parsed": 1, "rechecked": 3}) == 0
        assert "serve-touch ok" in capsys.readouterr().out

    @pytest.mark.parametrize("touched", [
        {"read": 0, "parsed": 0, "rechecked": 0},   # signature trusted
        {"read": 54, "parsed": 0, "rechecked": 0},  # every source read
        {"read": 1, "parsed": 1, "rechecked": 0},   # re-parsed the same text
        {"read": 1, "parsed": 0, "rechecked": 2},   # re-checked
        {"parsed": 0, "rechecked": 0},              # no read count
    ])
    def test_touch_not_seen_as_one_read_fails(self, ci_checks, tmp_path,
                                              capsys, touched):
        assert self.run(ci_checks, tmp_path, touched,
                        {"read": 1, "parsed": 1}) == 1
        assert "touched request" in capsys.readouterr().err

    def test_unparsed_edit_fails(self, ci_checks, tmp_path, capsys):
        assert self.run(ci_checks, tmp_path, self.TOUCHED,
                        {"read": 0, "parsed": 0}) == 1
        assert "edited request parsed 0" in capsys.readouterr().err


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


# ---------------------------------------------------------------------
# certcheck
# ---------------------------------------------------------------------

def _forge_side_condition(outcomes):
    """Claim ``1 <= 0`` was proved in the first side condition found."""
    from repro.pure.terms import intlit, le
    for out in outcomes.values():
        for fr in out.result.functions.values():
            for d in fr.derivations:
                for node in d.walk():
                    if node.kind == "side_condition" \
                            and node.detail["hypotheses"]:
                        node.label = le(intlit(1), intlit(0))
                        return
    raise AssertionError("no side condition to forge")


def _drop_derivations(outcomes):
    """Accept a function without recording its derivation."""
    fr = next(iter(next(iter(outcomes.values())).result.functions.values()))
    fr.derivations = []


class TestCertcheck:
    @pytest.fixture
    def one_study(self, ci_checks, monkeypatch):
        """Run the subcommand over alloc.c alone."""
        from repro.report import casestudies_dir
        monkeypatch.setattr(ci_checks, "certcheck_inputs",
                            lambda _: [casestudies_dir() / "alloc.c"])

    def test_inputs_are_studies_and_corpus_accepts(self, ci_checks,
                                                   tmp_path):
        from repro.fuzz.corpus import load_corpus
        accepts = [e for _, e in load_corpus()
                   if e.expect.get("check") == "accept"]
        assert accepts
        inputs = ci_checks.certcheck_inputs(tmp_path)
        assert len(inputs) == 14 + len(accepts)
        assert all(p.is_file() for p in inputs)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_every_accepted_function_rechecks(self, ci_checks, tmp_path,
                                              jobs):
        """The studies and the corpus accept entries, serial and pooled
        (derivations cross the pickle boundary): every side condition of
        every accepted function re-proves, none is skipped."""
        from repro.frontend import verify_files
        inputs = ci_checks.certcheck_inputs(tmp_path)
        summary = ci_checks.certify(verify_files(inputs, jobs=jobs,
                                                 ledger=False))
        assert summary["problems"] == []
        assert summary["skipped"] == 0
        assert summary["units"] == len(inputs)
        assert summary["functions"] >= 32 + len(inputs) - 14
        assert summary["rechecked"] > 0

    def test_subcommand_passes(self, ci_checks, capsys, one_study):
        assert ci_checks.main(["certcheck"]) == 0
        assert "certcheck ok" in capsys.readouterr().out

    @pytest.mark.parametrize("tamper, message", [
        (_forge_side_condition, "does not re-check"),
        (_drop_derivations, "accepted without a derivation"),
    ])
    def test_tampered_report_fails(self, ci_checks, capsys, monkeypatch,
                                   one_study, tamper, message):
        from repro import frontend
        real = frontend.verify_files

        def tampered(paths, **kwargs):
            outcomes = real(paths, **kwargs)
            tamper(outcomes)
            return outcomes

        monkeypatch.setattr(frontend, "verify_files", tampered)
        assert ci_checks.main(["certcheck"]) == 1
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("bad", [{"skipped": 1},
                                     {"problems": ["u:f: forged"]}])
    def test_skipped_or_problem_fails(self, ci_checks, capsys, bad):
        summary = {"units": 1, "functions": 1, "derivations": 1,
                   "rechecked": 1, "skipped": 0, "problems": [], **bad}
        assert ci_checks.judge_certcheck(summary) == 1
        assert "certcheck:" in capsys.readouterr().err


# ---------------------------------------------------------------------
# pooled-corpus
# ---------------------------------------------------------------------

def corpus_run(**overrides):
    """Verdict summaries of one accepted program and one rejected
    mutant, as ``corpus_verdicts`` renders them."""
    counters = {"rule_applications": 7, "rules_used": ["a", "b"]}
    run = {"gen000": {"ok": True, "functions": {"f": [True, counters]}},
           "gen000_m0": {"ok": False,
                         "functions": {"f": [False, dict(counters)]}}}
    for stem, unit in overrides.items():
        run[stem] = unit
    return run


EXPECTED = {"gen000": True, "gen000_m0": False}


class TestPooledCorpus:
    def test_equal_runs_pass(self, ci_checks, capsys):
        assert ci_checks.judge_pooled_corpus(corpus_run(), corpus_run(),
                                             EXPECTED) == 0
        assert "1 witnessed mutant(s) rejected" in capsys.readouterr().out

    @pytest.mark.parametrize("pooled", [
        # a counter differs
        {"gen000": {"ok": True, "functions": {"f": [True, {
            "rule_applications": 8, "rules_used": ["a", "b"]}]}}},
        # a verdict differs
        {"gen000": {"ok": False, "functions": {"f": [False, {
            "rule_applications": 7, "rules_used": ["a", "b"]}]}}},
        # a function is missing
        {"gen000": {"ok": True, "functions": {}}},
    ])
    def test_a_difference_fails(self, ci_checks, capsys, pooled):
        assert ci_checks.judge_pooled_corpus(
            corpus_run(), corpus_run(**pooled), EXPECTED) == 1
        assert "gen000: jobs=1 and jobs=2 differ" in capsys.readouterr().err

    def test_an_accepted_mutant_fails(self, ci_checks, capsys):
        accepted = {"gen000_m0": {"ok": True, "functions": {
            "f": [True, {"rule_applications": 7, "rules_used": []}]}}}
        assert ci_checks.judge_pooled_corpus(
            corpus_run(**accepted), corpus_run(**accepted), EXPECTED) == 1
        assert "gen000_m0: witnessed mutant accepted" \
            in capsys.readouterr().err

    def test_inputs_are_stratified_programs_and_witnessed_mutants(
            self, ci_checks, tmp_path):
        expected = ci_checks.pooled_corpus_inputs(tmp_path, programs=10)
        accepts = sorted(p.name for p, ok in expected.items() if ok)
        assert accepts == [f"gen{i:03d}.c" for i in range(10)]
        mutants = [p for p, ok in expected.items() if not ok]
        assert mutants and all("_m" in p.stem for p in mutants)
        assert all(p.is_file() for p in expected)

    def test_subcommand_passes(self, ci_checks, capsys):
        assert ci_checks.main(["pooled-corpus"]) == 0
        assert "pooled-corpus ok: 99 unit(s)" in capsys.readouterr().out


# ---------------------------------------------------------------------
# gc-budget
# ---------------------------------------------------------------------

def generations(young, collected=100, ms=1.5):
    return [{"collections": young, "collected": collected, "ms": ms},
            {"collections": 0, "collected": 0, "ms": 0.0},
            {"collections": 0, "collected": 0, "ms": 0.0}]


class TestGcBudget:
    def test_within_budget_passes_and_prints_each_generation(
            self, ci_checks, capsys):
        assert ci_checks.judge_gc_budget(
            generations(ci_checks.MAX_GEN0_COLLECTIONS)) == 0
        out = capsys.readouterr().out
        assert "gen0: 8 collection(s), 100 object(s) collected, 1.5 ms" \
            in out
        assert "gen1: 0 collection(s)" in out and "gen2:" in out
        assert "gc-budget ok" in out

    def test_over_budget_fails(self, ci_checks, capsys):
        # The count CPython's default threshold of 700 reads.
        assert ci_checks.judge_gc_budget(generations(106)) == 1
        assert "106 gen0 collection(s)" in capsys.readouterr().err

    def test_subcommand_passes_and_restores_the_callbacks(self, ci_checks,
                                                          capsys):
        import gc
        callbacks = list(gc.callbacks)
        assert ci_checks.main(["gc-budget"]) == 0
        assert gc.callbacks == callbacks
        assert "gc-budget ok" in capsys.readouterr().out


# ---------------------------------------------------------------------
# memo-census
# ---------------------------------------------------------------------

def counting(ci_checks, hits, misses=1):
    c = ci_checks.CountingDict()
    c.hits, c.misses = hits, misses
    return c


class TestMemoCensus:
    def test_counting_dict_counts_gets(self, ci_checks):
        c = ci_checks.CountingDict()
        c["k"] = False
        assert c.get("k", "miss") is False and c.get("x", "miss") == "miss"
        assert c.get("x") is None
        assert (c.hits, c.misses) == (1, 2)

    def test_hit_memos_within_the_cap_pass(self, ci_checks, capsys):
        counters = {f"m.M{i}": counting(ci_checks, hits=i + 1)
                    for i in range(ci_checks.MAX_MEMOS)}
        assert ci_checks.judge_memo_census(
            counters, ci_checks.MAX_FM_RUNS) == 0
        out = capsys.readouterr().out
        assert "m.M0: 1 hit(s), 1 miss(es)" in out
        assert "memo-census ok: 4 memo(s)" in out

    def test_a_memo_that_never_hits_fails(self, ci_checks, capsys):
        counters = {"m.A": counting(ci_checks, hits=3),
                    "m.B": counting(ci_checks, hits=0, misses=9)}
        assert ci_checks.judge_memo_census(counters, 0) == 1
        assert "m.B: 0 hits" in capsys.readouterr().err

    def test_too_many_memos_fail(self, ci_checks, capsys):
        counters = {f"m.M{i}": counting(ci_checks, hits=1)
                    for i in range(ci_checks.MAX_MEMOS + 1)}
        assert ci_checks.judge_memo_census(counters, 0) == 1
        assert "5 dict memos registered" in capsys.readouterr().err

    def test_fourier_motzkin_runs_past_the_bound_fail(self, ci_checks,
                                                      capsys):
        counters = {"m.A": counting(ci_checks, hits=3)}
        assert ci_checks.MAX_FM_RUNS == 550
        assert ci_checks.judge_memo_census(
            counters, ci_checks.MAX_FM_RUNS + 1) == 1
        captured = capsys.readouterr()
        assert "linarith._fm_int: 551 run(s)" in captured.out
        assert "551 Fourier-Motzkin runs" in captured.err

    def test_subcommand_passes_and_restores_the_memos(self, ci_checks,
                                                      capsys):
        from repro.pure import linarith, memo, solver
        registry = list(memo._CACHES)
        memos = (linarith._IMPLIES_CACHE, solver._DEFAULT_CACHE,
                 solver._PROVE_CACHE)
        assert ci_checks.main(["memo-census"]) == 0
        assert len(memo._CACHES) == len(registry)
        assert all(a is b for (a, _), (b, _) in zip(memo._CACHES, registry))
        assert all(now is then for now, then in zip(
            (linarith._IMPLIES_CACHE, solver._DEFAULT_CACHE,
             solver._PROVE_CACHE), memos))
        assert all(type(m) is dict for m in memos)
        out = capsys.readouterr().out
        for name in ("linarith._IMPLIES_CACHE", "solver._DEFAULT_CACHE",
                     "solver._PROVE_CACHE"):
            assert f"{name}: " in out
        assert "memo-census ok: 3 memo(s)" in out
        # The pass stays within the Fourier-Motzkin bound, and the
        # counting wrapper is gone afterwards.
        assert "linarith._fm_int: " in out
        assert f"run(s) <= {ci_checks.MAX_FM_RUNS}" in out
        assert linarith._fm_int.__name__ == "_fm_int"
