"""End-to-end campaign tests (marked ``fuzz``: excluded from the
fast inner loop via ``-m "not slow and not fuzz"``)."""

import json

import pytest

from repro.fuzz import CampaignConfig, run_campaign
from repro.fuzz.generator import generate_program
from repro.fuzz.mutator import MutantVerdict, evaluate_mutants

pytestmark = pytest.mark.fuzz


def test_small_campaign_is_clean():
    stats = run_campaign(CampaignConfig(seed=0, count=16, trials=3))
    assert stats.programs == 16
    assert stats.soundness_violations == 0
    assert stats.checker_crashes == 0
    assert stats.accept_rate == 1.0
    assert stats.kill_rate >= 0.8
    assert stats.ok


def test_campaign_is_pure_function_of_seed():
    cfg = CampaignConfig(seed=7, count=10, trials=2)
    a = run_campaign(cfg).to_dict(deterministic=True)
    b = run_campaign(cfg).to_dict(deterministic=True)
    assert a == b
    # a different seed explores a different part of the space
    c = run_campaign(CampaignConfig(seed=8, count=10, trials=2))
    assert c.to_dict(deterministic=True) != a


def test_stats_json_is_serializable_and_versioned():
    stats = run_campaign(CampaignConfig(seed=1, count=6, trials=2,
                                        fuel=12345))
    blob = json.loads(stats.to_json())
    assert blob["fuzz_schema_version"] == 3
    assert "schema_version" not in blob          # the v1 spelling is gone
    assert blob["programs"] == 6
    assert blob["fuel"] == 12345                 # shrink knobs ride along
    assert "per_template" in blob
    assert blob["coverage"]["coverage_schema_version"] >= 1
    assert blob["rounds"] >= 1


def test_stats_roundtrip_through_json():
    from repro.fuzz import CampaignStats
    stats = run_campaign(CampaignConfig(seed=1, count=6, trials=2))
    back = CampaignStats.from_dict(json.loads(stats.to_json()))
    assert back.to_dict(deterministic=True) == \
        stats.to_dict(deterministic=True)


def test_budget_campaign_replays_from_count():
    budget = run_campaign(CampaignConfig(seed=3, budget_s=2.0, trials=2,
                                         round_size=8))
    assert budget.programs >= 8
    replay = run_campaign(CampaignConfig(seed=3, count=budget.programs,
                                         trials=2, round_size=8))
    assert replay.to_dict(deterministic=True) == \
        budget.to_dict(deterministic=True)


def test_mutant_unit_keys_are_campaign_global(monkeypatch):
    # A unit key names one program for the whole campaign in results
    # and findings, so keys must never repeat between rounds.
    from repro.fuzz import mutator as mutator_mod
    from repro.fuzz.oracle import CheckResult, CheckVerdict
    batches = []

    def record_check_batch(progs, jobs=1, coverage=False, session=None):
        batches.append([key for key, _ in progs])
        return {key: CheckResult(CheckVerdict.REJECTED)
                for key, _ in progs}

    monkeypatch.setattr(mutator_mod, "check_batch", record_check_batch)
    evaluate_mutants([generate_program(0, i) for i in range(4)])
    evaluate_mutants([generate_program(0, i) for i in range(4, 8)])
    keys = [k for batch in batches for k in batch]
    assert keys and len(keys) == len(set(keys))


def test_deterministic_view_excludes_corpus_filing():
    # --write-corpus --verify-replay: the replay runs corpus-less, so
    # the filing counters and per-finding paths must not participate in
    # the deterministic comparison.
    from repro.fuzz import CampaignStats, Finding

    def stats(corpus_path):
        s = CampaignStats(seed=0)
        s.findings = [Finding("mutant-survivor", "div", {"a": 2, "b": 1},
                              index=3, mutant="drop-req-bpos",
                              corpus_path=corpus_path)]
        if corpus_path:
            s.corpus_written, s.corpus_deduped = 1, 2
        return s

    filed, bare = stats("tests/fuzz/corpus/x.json"), stats(None)
    assert filed.to_json(deterministic=True) == \
        bare.to_json(deterministic=True)
    assert filed.to_json() != bare.to_json()    # the full view keeps them


def test_mutation_kill_rate_on_fixed_sample():
    progs = [generate_program(0, i) for i in range(8)]
    results = evaluate_mutants(progs, jobs=1)
    assert results
    killed = sum(r.verdict is MutantVerdict.KILLED for r in results)
    assert killed / len(results) >= 0.8
    assert not any(r.verdict is MutantVerdict.CRASH for r in results)
    # the checker is currently sound on the template space: nothing
    # accepted should be demonstrably UB
    assert not any(r.verdict is MutantVerdict.SURVIVED_DEMONSTRATED
                   for r in results)
