"""Budgeted, sharded, coverage-guided fuzzing campaigns.

A campaign is a deterministic stream of generated programs processed in
fixed-size **rounds**.  Blind campaigns draw templates uniformly, so
program ``i`` of seed ``s`` depends only on ``(s, i)``.  Steered
campaigns additionally weight the template choice by the coverage
history of *completed* rounds (see :mod:`.coverage`): program ``i`` then
depends on ``(s, i, coverage of rounds before i's round)`` — still a
pure function of the seed, because rounds are a fixed partition of the
index space.

Sharding partitions each round's indices across ``shards`` shards by
``index % shards``; :func:`run_campaign` checks each shard's slice as
one batch on a shared warm :class:`~repro.driver.PoolSession`.  Results
are always assembled in global index order, and shrinking plus corpus
filing run once after the last round, so a campaign is
**byte-identical across shard and job counts** (the deterministic stats
view excludes the run-shape fields).

Two budgets:

* ``count=N`` — exactly N programs; byte-identical stats on every run;
* ``budget_s=T`` — rounds run until the clock passes T.  The stats
  record how many programs were processed, so ``count=<that>`` replays
  the very same campaign byte-identically (wall-clock fields are
  excluded from the deterministic view).
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Mapping, Optional

from ..driver import PoolSession
from .corpus import CorpusEntry, write_entry
from .coverage import (CoverageMap, SteeringState, oracle_keys,
                       template_weights)
from .generator import (DEFAULT_FUEL, DEFAULT_TEMPLATES, TEMPLATES, GenProgram,
                        generate_program)
from .mutator import MutantVerdict, evaluate_mutants
from .oracle import (CheckVerdict, ExecStatus, check_batch, check_program,
                     execute_program, run_witness)
from .shrink import shrink_params

#: v2: ``fuzz_schema_version`` replaces v1's ``schema_version``; adds the
#: ``coverage`` block, round/steering fields and corpus dedup counters.
#: v3: records ``fuel`` (stats carry every shrink-relevant knob); the
#: corpus-filing fields (``corpus_written``,
#: ``corpus_deduped``, per-finding ``corpus_path``) move out of the
#: deterministic view — whether findings were persisted is a fact about
#: the run, not the computed campaign.
FUZZ_SCHEMA_VERSION = 3

DEFAULT_ROUND_SIZE = 16


@dataclass
class CampaignConfig:
    seed: int = 0
    budget_s: Optional[float] = None   # time budget …
    count: Optional[int] = None        # … or exact program count
    jobs: int = 1
    shards: int = 1                    # seed-space partitions per round
    round_size: int = DEFAULT_ROUND_SIZE
    coverage: bool = True              # trace checks, record signatures
    steer: bool = True                 # coverage-guided template weights
    trials: int = 6                    # execution trials per accepted program
    mutant_limit: Optional[int] = None  # per program; None = all
    shrink: bool = True
    write_corpus: bool = False
    corpus_dir: Optional[Path] = None
    templates: Optional[list[str]] = None
    fuel: int = DEFAULT_FUEL

    def template_names(self) -> list[str]:
        return list(self.templates) if self.templates \
            else list(DEFAULT_TEMPLATES)

    def steering(self) -> bool:
        # Steering feeds on coverage signatures; without them it would
        # silently degenerate to blind sampling, so tie the two.
        return self.steer and self.coverage


@dataclass
class Finding:
    kind: str                    # soundness-ub | soundness-spec |
    #                              checker-crash | mutant-survivor |
    #                              exec-error
    template: str
    params: dict
    index: int
    mutant: Optional[str] = None
    ub_class: Optional[str] = None
    detail: str = ""
    shrunk_params: Optional[dict] = None
    shrink_checks: int = 0
    corpus_path: Optional[str] = None

    def to_dict(self, deterministic: bool = False) -> dict:
        d = {"kind": self.kind, "template": self.template,
             "params": self.params, "index": self.index,
             "mutant": self.mutant, "ub_class": self.ub_class,
             "detail": self.detail, "shrunk_params": self.shrunk_params,
             "shrink_checks": self.shrink_checks}
        if not deterministic:
            # Where (and whether) the finding was filed depends on the
            # run's --write-corpus/--corpus flags, not on the seed.
            d["corpus_path"] = self.corpus_path
        return d

    @classmethod
    def from_dict(cls, d: Mapping) -> "Finding":
        return cls(kind=d["kind"], template=d["template"],
                   params=dict(d["params"]), index=int(d["index"]),
                   mutant=d.get("mutant"), ub_class=d.get("ub_class"),
                   detail=d.get("detail", ""),
                   shrunk_params=d.get("shrunk_params"),
                   shrink_checks=int(d.get("shrink_checks", 0)),
                   corpus_path=d.get("corpus_path"))

    def sort_key(self) -> tuple:
        return (self.index, self.kind, self.mutant or "")

    def dedup_key(self, params: Optional[dict] = None) -> str:
        """Signature key for corpus dedup: two findings that reduce to
        the same (kind, template, mutant, UB class, shrunk params) are
        the same bug and file one corpus entry."""
        params = params if params is not None else (
            self.shrunk_params or self.params)
        return json.dumps(
            [self.kind, self.template, self.mutant, self.ub_class,
             dict(sorted(params.items()))], sort_keys=True)


@dataclass
class CampaignStats:
    """Per-campaign statistics, metrics-JSON house style."""

    seed: int = 0
    mode: str = "count"
    jobs: int = 1
    shards: int = 1
    round_size: int = DEFAULT_ROUND_SIZE
    steered: bool = False
    coverage_on: bool = True
    trials: int = 0
    templates: list[str] = field(default_factory=list)
    mutant_limit: Optional[int] = None
    fuel: int = DEFAULT_FUEL

    programs: int = 0
    rounds: int = 0
    accepted: int = 0
    rejected: int = 0
    checker_crashes: int = 0

    exec_trials: int = 0
    exec_passes: int = 0
    exec_inconclusive: int = 0
    exec_errors: int = 0
    ub_violations: int = 0
    spec_violations: int = 0

    mutants: int = 0
    mutants_killed: int = 0
    survivors_demonstrated: int = 0
    survivors_undemonstrated: int = 0
    mutant_crashes: int = 0

    shrink_checks: int = 0
    corpus_written: int = 0
    corpus_deduped: int = 0
    per_template: dict = field(default_factory=dict)
    findings: list[Finding] = field(default_factory=list)
    coverage: CoverageMap = field(default_factory=CoverageMap)
    wall_s: float = 0.0
    pool_batches: int = 0
    pool_resets: int = 0

    @property
    def accept_rate(self) -> float:
        return self.accepted / self.programs if self.programs else 0.0

    @property
    def kill_rate(self) -> float:
        return self.mutants_killed / self.mutants if self.mutants else 1.0

    @property
    def soundness_violations(self) -> int:
        return (self.ub_violations + self.spec_violations +
                self.survivors_demonstrated)

    @property
    def ok(self) -> bool:
        return (self.soundness_violations == 0
                and self.checker_crashes == 0 and self.mutant_crashes == 0)

    def to_dict(self, deterministic: bool = False) -> dict:
        d = {
            "fuzz_schema_version": FUZZ_SCHEMA_VERSION,
            "seed": self.seed,
            "round_size": self.round_size,
            "steered": self.steered,
            "coverage_on": self.coverage_on,
            "trials": self.trials,
            "templates": list(self.templates),
            "mutant_limit": self.mutant_limit,
            "fuel": self.fuel,
            "programs": self.programs,
            "rounds": self.rounds,
            "accepted": self.accepted,
            "rejected": self.rejected,
            "checker_crashes": self.checker_crashes,
            "accept_rate": round(self.accept_rate, 6),
            "exec_trials": self.exec_trials,
            "exec_passes": self.exec_passes,
            "exec_inconclusive": self.exec_inconclusive,
            "exec_errors": self.exec_errors,
            "ub_violations": self.ub_violations,
            "spec_violations": self.spec_violations,
            "mutants": self.mutants,
            "mutants_killed": self.mutants_killed,
            "kill_rate": round(self.kill_rate, 6),
            "survivors_demonstrated": self.survivors_demonstrated,
            "survivors_undemonstrated": self.survivors_undemonstrated,
            "mutant_crashes": self.mutant_crashes,
            "soundness_violations": self.soundness_violations,
            "shrink_checks": self.shrink_checks,
            "per_template": {k: dict(sorted(v.items()))
                             for k, v in sorted(self.per_template.items())},
            "findings": [f.to_dict(deterministic) for f in self.findings],
            "coverage": self.coverage.to_dict() if self.coverage_on
            else None,
            "ok": self.ok,
        }
        if not deterministic:
            # How the budget was specified, how the work was spread over
            # processes/shards, how long it took, and whether findings
            # were persisted to a corpus are facts about the *run*, not
            # the computed campaign — a budget run and its count replay,
            # a 1-shard and a 4-shard run, and a --write-corpus run and
            # its corpus-less --verify-replay, must agree on everything
            # else.
            d["mode"] = self.mode
            d["jobs"] = self.jobs
            d["shards"] = self.shards
            d["corpus_written"] = self.corpus_written
            d["corpus_deduped"] = self.corpus_deduped
            d["wall_s"] = round(self.wall_s, 3)
            d["pool_batches"] = self.pool_batches
            d["pool_resets"] = self.pool_resets
        return d

    def to_json(self, deterministic: bool = False, indent: int = 2) -> str:
        return json.dumps(self.to_dict(deterministic), indent=indent)

    @classmethod
    def from_dict(cls, d: Mapping) -> "CampaignStats":
        got = d.get("fuzz_schema_version", d.get("schema_version"))
        if got != FUZZ_SCHEMA_VERSION:
            raise ValueError(
                f"fuzz stats schema mismatch: file has {got!r}, this "
                f"build speaks {FUZZ_SCHEMA_VERSION}")
        s = cls(seed=d["seed"], mode=d.get("mode", "count"),
                jobs=d.get("jobs", 1), shards=d.get("shards", 1),
                round_size=d.get("round_size", DEFAULT_ROUND_SIZE),
                steered=d.get("steered", False),
                coverage_on=d.get("coverage_on", True),
                trials=d.get("trials", 0),
                templates=list(d.get("templates", [])),
                mutant_limit=d.get("mutant_limit"),
                fuel=int(d.get("fuel", DEFAULT_FUEL)))
        for name in ("programs", "rounds", "accepted", "rejected",
                     "checker_crashes", "exec_trials", "exec_passes",
                     "exec_inconclusive", "exec_errors", "ub_violations",
                     "spec_violations", "mutants", "mutants_killed",
                     "survivors_demonstrated", "survivors_undemonstrated",
                     "mutant_crashes", "shrink_checks", "corpus_written",
                     "corpus_deduped"):
            setattr(s, name, int(d.get(name, 0)))
        s.per_template = {k: dict(v)
                          for k, v in d.get("per_template", {}).items()}
        s.findings = [Finding.from_dict(f) for f in d.get("findings", [])]
        if d.get("coverage"):
            s.coverage = CoverageMap.from_dict(d["coverage"])
        s.wall_s = float(d.get("wall_s", 0.0))
        return s

    def summary(self) -> str:
        cov = f", {len(self.coverage)} coverage keys" if self.coverage_on \
            else ""
        return (f"fuzz campaign seed={self.seed}: {self.programs} programs "
                f"({self.accepted} accepted, {self.rejected} rejected, "
                f"{self.checker_crashes} crashes), "
                f"{self.exec_trials} exec trials "
                f"({self.ub_violations} UB, {self.spec_violations} spec "
                f"violations, {self.exec_inconclusive} inconclusive), "
                f"{self.mutants} mutants "
                f"({self.mutants_killed} killed, "
                f"kill rate {self.kill_rate:.1%}), "
                f"{len(self.findings)} findings{cov}, {self.wall_s:.1f}s")


def _tally(per_template: dict, template: str, key: str, n: int = 1) -> None:
    per_template.setdefault(template, {})
    per_template[template][key] = per_template[template].get(key, 0) + n


# ---------------------------------------------------------------------
# Shrink predicates: does the failure still reproduce at these params?
# ---------------------------------------------------------------------

def _rebuild(template: str, params: dict,
             mutant: Optional[str]) -> Optional[GenProgram]:
    prog = TEMPLATES[template].build(params)
    if mutant is None:
        return prog
    match = [m for m in prog.mutants if m.name == mutant]
    if not match:
        return None
    return GenProgram(template=prog.template, params=prog.params,
                      index=prog.index, source=match[0].source,
                      entry=prog.entry, concurrent=prog.concurrent)


def _fail_predicate(kind: str, template: str, mutant: Optional[str],
                    exec_seed: str, trials: int,
                    fuel: int) -> Callable[[dict], bool]:
    def still_fails(params: dict) -> bool:
        prog = _rebuild(template, params, mutant)
        if prog is None:
            return False
        check = check_program(prog)
        if kind == "checker-crash":
            return check.verdict is CheckVerdict.CRASH
        if check.verdict is not CheckVerdict.ACCEPTED or check.tp is None:
            return False
        if kind == "mutant-survivor":
            return run_witness(template, mutant, params, check.tp,
                               fuel=fuel) is not None
        res = execute_program(prog, check.tp, random.Random(exec_seed),
                              trials=trials, fuel=fuel)
        if kind == "soundness-ub":
            return res.status is ExecStatus.UB
        if kind == "soundness-spec":
            return res.status is ExecStatus.SPEC_VIOLATION
        if kind == "exec-error":
            return res.status is ExecStatus.EXEC_ERROR
        return False
    return still_fails


_EXPECTED: dict[str, Callable[[Finding], dict]] = {
    # Corpus entries state the *desired* behaviour (see corpus.py): a
    # fresh finding keeps the replay suite red until the bug is fixed.
    "soundness-ub": lambda f: {"check": "accept", "exec": "pass"},
    "soundness-spec": lambda f: {"check": "accept", "exec": "pass"},
    "exec-error": lambda f: {"check": "accept", "exec": "pass"},
    "checker-crash": lambda f: {"check": "no-crash"},
    "mutant-survivor": lambda f: {"check": "reject"},
}


def finalize_findings(stats: CampaignStats, cfg: CampaignConfig) -> None:
    """Centralised post-processing: order findings deterministically,
    shrink each, and auto-file deduped corpus entries.

    Runs once per campaign, after the last round, so shard count never
    changes which corpus entries exist or what they contain."""
    stats.findings.sort(key=Finding.sort_key)
    seen: set[str] = set()
    for finding in stats.findings:
        exec_seed = f"{cfg.seed}:{finding.index}:exec"
        if cfg.shrink and finding.shrunk_params is None:
            pred = _fail_predicate(finding.kind, finding.template,
                                   finding.mutant, exec_seed, cfg.trials,
                                   cfg.fuel)
            shrunk, checks = shrink_params(finding.template, finding.params,
                                           pred)
            finding.shrunk_params = shrunk
            finding.shrink_checks = checks
            stats.shrink_checks += checks
        if not cfg.write_corpus:
            continue
        key = finding.dedup_key()
        if key in seen:
            stats.corpus_deduped += 1
            continue
        seen.add(key)
        entry = CorpusEntry(
            template=finding.template,
            params=finding.shrunk_params or finding.params,
            mutant=finding.mutant,
            expect=_EXPECTED[finding.kind](finding),
            exec_seed=exec_seed, trials=cfg.trials, fuel=cfg.fuel,
            note=f"campaign seed={cfg.seed} program={finding.index}: "
                 f"{finding.kind} — {finding.detail[:200]}")
        finding.corpus_path = str(write_entry(entry, cfg.corpus_dir))
        stats.corpus_written += 1


# ---------------------------------------------------------------------
# One round: generate → shard → check → execute → mutate → observe.
# ---------------------------------------------------------------------

def _shard_indices(start: int, k: int, shards: int) -> list[list[int]]:
    """Partition round indices ``start..start+k`` by ``index % shards``."""
    parts = [[] for _ in range(shards)]
    for i in range(start, start + k):
        parts[i % shards].append(i)
    return parts


def _run_round(cfg: CampaignConfig, stats: CampaignStats,
               programs: list[GenProgram], round_no: int,
               steering: Optional[SteeringState],
               session: Optional[PoolSession], checks: dict) -> None:
    """Process one round's programs (already generated and checked:
    ``checks`` holds the shard batches' results) and fold the results
    into ``stats`` in global index order."""
    new_by_index: dict[int, int] = {p.index: 0 for p in programs}

    def observe(keys, index: int) -> int:
        if not cfg.coverage or keys is None:
            return 0
        fresh = stats.coverage.observe(keys, index)
        new_by_index[index] = new_by_index.get(index, 0) + len(fresh)
        return len(fresh)

    accepted: list[GenProgram] = []
    for prog in programs:
        check = checks[f"g{prog.index}"]
        _tally(stats.per_template, prog.template, "programs")
        observe(check.signature, prog.index)
        if check.verdict is CheckVerdict.CRASH:
            stats.checker_crashes += 1
            _tally(stats.per_template, prog.template, "crashes")
            stats.findings.append(Finding(
                "checker-crash", prog.template, prog.params,
                prog.index, detail=check.detail))
            continue
        if check.verdict is CheckVerdict.REJECTED:
            stats.rejected += 1
            _tally(stats.per_template, prog.template, "rejected")
            continue
        stats.accepted += 1
        _tally(stats.per_template, prog.template, "accepted")
        accepted.append(prog)

        rng = random.Random(f"{cfg.seed}:{prog.index}:exec")
        res = execute_program(prog, check.tp, rng, trials=cfg.trials,
                              fuel=cfg.fuel)
        stats.exec_trials += res.trials
        stats.exec_passes += res.passes
        stats.exec_inconclusive += res.inconclusive
        observe(oracle_keys(res.status.value, res.ub_class), prog.index)
        if res.status is ExecStatus.UB:
            stats.ub_violations += 1
            stats.findings.append(Finding(
                "soundness-ub", prog.template, prog.params, prog.index,
                ub_class=res.ub_class, detail=res.detail))
        elif res.status is ExecStatus.SPEC_VIOLATION:
            stats.spec_violations += 1
            stats.findings.append(Finding(
                "soundness-spec", prog.template, prog.params,
                prog.index, detail=res.detail))
        elif res.status is ExecStatus.EXEC_ERROR:
            stats.exec_errors += 1
            stats.findings.append(Finding(
                "exec-error", prog.template, prog.params, prog.index,
                detail=res.detail))

    for mr in evaluate_mutants(accepted, jobs=cfg.jobs,
                               limit=cfg.mutant_limit,
                               coverage=cfg.coverage,
                               witness_killed=cfg.coverage,
                               session=session):
        stats.mutants += 1
        _tally(stats.per_template, mr.template, "mutants")
        observe(mr.signature, mr.index)
        observe(oracle_keys(None, mr.ub_class), mr.index)
        if mr.verdict is MutantVerdict.KILLED:
            stats.mutants_killed += 1
            _tally(stats.per_template, mr.template, "killed")
        elif mr.verdict is MutantVerdict.CRASH:
            stats.mutant_crashes += 1
            stats.findings.append(Finding(
                "checker-crash", mr.template, mr.params, mr.index,
                mutant=mr.mutant.name, detail=mr.detail))
        elif mr.verdict is MutantVerdict.SURVIVED_DEMONSTRATED:
            stats.survivors_demonstrated += 1
            stats.findings.append(Finding(
                "mutant-survivor", mr.template, mr.params, mr.index,
                mutant=mr.mutant.name, ub_class=mr.ub_class,
                detail=mr.detail))
        else:
            stats.survivors_undemonstrated += 1

    # new_keys is steered-only bookkeeping: blind campaigns skip it.
    if steering is not None:
        for prog in programs:
            n_new = new_by_index.get(prog.index, 0)
            steering.observe(prog.template, n_new, round_no)
            if n_new:
                _tally(stats.per_template, prog.template, "new_keys",
                       n_new)


# ---------------------------------------------------------------------
# The campaign drivers.
# ---------------------------------------------------------------------

def _round_plan(cfg: CampaignConfig, idx: int) -> int:
    """Programs in the round starting at ``idx`` under a count budget
    (full ``round_size`` under a time budget)."""
    if cfg.count is None:
        return cfg.round_size
    return min(cfg.round_size, cfg.count - idx)


def run_campaign(cfg: Optional[CampaignConfig] = None) -> CampaignStats:
    """The in-process engine: rounds of ``round_size`` programs, each
    round partitioned into ``shards`` shard batches fanned out on one
    warm pool session, with steering weights recomputed at every round
    barrier from the merged coverage so far."""
    cfg = cfg or CampaignConfig()
    if cfg.count is None and cfg.budget_s is None:
        cfg = CampaignConfig(**{**cfg.__dict__, "count": 32})
    names = cfg.template_names()
    steered = cfg.steering()
    stats = CampaignStats(
        seed=cfg.seed, mode="budget" if cfg.count is None else "count",
        jobs=cfg.jobs, shards=cfg.shards, round_size=cfg.round_size,
        steered=steered, coverage_on=cfg.coverage,
        trials=cfg.trials, templates=names, mutant_limit=cfg.mutant_limit,
        fuel=cfg.fuel)
    steering = SteeringState() if steered else None
    session = PoolSession(cfg.jobs) if cfg.jobs > 1 else None
    t0 = time.perf_counter()
    idx = round_no = 0

    try:
        while True:
            if cfg.count is not None and idx >= cfg.count:
                break
            if cfg.count is None \
                    and time.perf_counter() - t0 >= cfg.budget_s:
                break
            k = _round_plan(cfg, idx)
            weights = template_weights(names, steering, round_no) \
                if steering is not None else None
            programs: dict[int, GenProgram] = {}
            checks: dict = {}
            for part in _shard_indices(idx, k, cfg.shards):
                # Each shard's slice is checked as its own batch on the
                # shared warm pool.
                batch = [generate_program(cfg.seed, i, names,
                                          weights=weights) for i in part]
                programs.update({p.index: p for p in batch})
                checks.update(check_batch(
                    [(f"g{p.index}", p) for p in batch], jobs=cfg.jobs,
                    coverage=cfg.coverage, session=session))
            # Centralised assembly: whatever the shard partition, the
            # round is processed in global index order.
            _run_round(cfg, stats,
                       [programs[i] for i in sorted(programs)],
                       round_no, steering, session, checks)
            idx += k
            round_no += 1
    finally:
        if session is not None:
            stats.pool_batches = session.batches
            stats.pool_resets = session.resets
            session.close()

    stats.programs = idx
    stats.rounds = round_no
    finalize_findings(stats, cfg)
    stats.wall_s = time.perf_counter() - t0
    return stats
