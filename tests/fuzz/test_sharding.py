"""In-process sharding: campaigns are byte-identical across shard
counts, and findings are filed once, deduplicated, whatever shard
surfaced them."""

import pytest

from repro.fuzz import (CampaignConfig, CampaignStats, Finding,
                        finalize_findings, run_campaign)

pytestmark = pytest.mark.fuzz


def _cfg(**kw):
    base = dict(seed=0, count=12, trials=2, round_size=6, coverage=True)
    base.update(kw)
    return CampaignConfig(**base)


def test_in_process_sharding_is_byte_identical():
    one = run_campaign(_cfg(shards=1))
    four = run_campaign(_cfg(shards=4))
    assert one.to_json(deterministic=True) == \
        four.to_json(deterministic=True)


def test_in_process_sharding_is_byte_identical_when_steered():
    # steering weights are computed at round barriers from the merged
    # coverage of completed rounds, so they cannot depend on sharding
    one = run_campaign(_cfg(shards=1, steer=True))
    three = run_campaign(_cfg(shards=3, steer=True))
    assert one.to_json(deterministic=True) == \
        three.to_json(deterministic=True)


def test_sharding_files_identical_corpus_entries(tmp_path):
    # force findings by disabling shrink-resistant clean behaviour: use
    # a campaign over a template mix known to stay clean, then compare
    # the corpus dirs — both empty is still "identical", and if a future
    # checker regression produces findings, dedup + central filing must
    # keep the two dirs in lockstep.
    d1, d4 = tmp_path / "s1", tmp_path / "s4"
    one = run_campaign(_cfg(shards=1, write_corpus=True, corpus_dir=d1))
    four = run_campaign(_cfg(shards=4, write_corpus=True, corpus_dir=d4))

    files1 = sorted(p.name for p in d1.glob("*.json")) if d1.exists() else []
    files4 = sorted(p.name for p in d4.glob("*.json")) if d4.exists() else []
    assert files1 == files4
    for name in files1:
        assert (d1 / name).read_text() == (d4 / name).read_text()
    assert one.corpus_written == four.corpus_written
    assert one.corpus_deduped == four.corpus_deduped


def test_finalize_dedups_corpus_by_signature_key(tmp_path):
    # two findings that reduce to the same (kind, template, mutant,
    # UB class, params) are one bug: one corpus entry, one dedup tick —
    # whichever shard surfaced each copy
    params = {"a": 3, "b": 1}
    stats = CampaignStats(seed=0)
    stats.findings = [
        Finding("mutant-survivor", "div", dict(params), index=9,
                mutant="drop-req-bpos", detail="copy from shard 1"),
        Finding("mutant-survivor", "div", dict(params), index=2,
                mutant="drop-req-bpos", detail="copy from shard 0"),
        Finding("mutant-survivor", "div", {"a": 7, "b": 2}, index=5,
                mutant="drop-req-bpos", detail="a different bug"),
    ]
    cfg = CampaignConfig(seed=0, count=12, shrink=False, write_corpus=True,
                         corpus_dir=tmp_path)
    finalize_findings(stats, cfg)
    assert [f.index for f in stats.findings] == [2, 5, 9]  # sorted
    assert stats.corpus_written == 2
    assert stats.corpus_deduped == 1
    assert len(list(tmp_path.glob("*.json"))) == 2
    # the surviving entry for the duplicated bug is the lowest-index one
    filed = [f for f in stats.findings if f.corpus_path]
    assert sorted(f.index for f in filed) == [2, 5]
