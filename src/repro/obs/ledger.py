"""The run ledger: one JSONL record per verification/bench/fuzz run.

The ledger is the persistent memory of the observatory: every entry
point that opts in (``RC_LEDGER=1`` or ``RC_LEDGER=<path>``) appends one
schema-versioned JSON line describing what ran, under which
configuration, and what it cost —

* identity: record kind (``verify``/``bench``/``fuzz``/``serve``),
  wall-clock timestamp, git sha (best effort), platform triple;
* configuration: the tracked ``RC_*`` environment flags, the caller's
  run shape (result cache, incremental mode), job count, and the unit
  suite, so the regression sentinel never compares apples to oranges;
* cost: total wall seconds, per-function wall times keyed
  ``<unit>:<function>``, the cache-effectiveness block, and
  optionally the :class:`~.aggregate.RuleCostMap` of the run.

Append durability matters more than read speed: a record is serialized
to **one line** and written with a **single** ``write(2)`` on an
``O_APPEND`` descriptor, so concurrent appenders (pool workers, parallel
CI shards) interleave at line granularity, never mid-record.  Reads are
correspondingly paranoid: a torn or truncated line, non-JSON garbage, or
a record from an alien schema version is *counted and skipped*, never an
error — a half-written last line must not take down ``rcstat``.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence

#: bump when the record layout changes incompatibly; readers skip (and
#: count) records stamped with any other version
LEDGER_SCHEMA_VERSION = 1

DEFAULT_LEDGER_PATH = Path(".rc-ledger.jsonl")

#: the record kinds the toolchain itself appends; ``kind`` is free-form
#: for third parties, but rcstat's ``--kind`` filter offers these.
#: ``serve`` records come from the verification daemon — one per request,
#: with queue-wait and warm-pool telemetry under ``extra``.
KNOWN_KINDS = ("verify", "bench", "fuzz", "serve")

#: the environment flags that change proof-search performance; recorded
#: per run and required to match for two records to be comparable
TRACKED_ENV_FLAGS = ("RC_TRACE",)

_OFF_VALUES = ("", "0", "false", "off", "no")


def ledger_env_path() -> Optional[Path]:
    """Where ``RC_LEDGER`` says to append, or ``None`` for "ledger off".
    ``1``/``true``/``on``/``yes`` select the default path; anything else
    truthy is itself the path."""
    raw = os.environ.get("RC_LEDGER", "").strip()
    if raw.lower() in _OFF_VALUES:
        return None
    if raw.lower() in ("1", "true", "on", "yes"):
        return DEFAULT_LEDGER_PATH
    return Path(raw)


def _loose_head_sha(start: Path) -> str:
    """HEAD's sha read straight from a plain ``.git`` directory when HEAD
    is detached or names a loose branch ref; ``""`` for anything else
    (no repository, worktree links, packed refs), which git resolves."""
    for d in (start, *start.parents):
        git = d / ".git"
        if git.exists():
            break
    else:
        return ""
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            head = (git / head[5:]).read_text().strip()
    except OSError:
        return ""
    if len(head) in (40, 64) and all(c in "0123456789abcdef" for c in head):
        return head
    return ""


def git_sha(repo: Optional[Path] = None) -> str:
    """The current commit sha, or ``""`` when git is unavailable, the
    directory is not a repository, or the call fails for any reason —
    the ledger must work in export tarballs too.  The common layout is
    read from the files directly: one record is written per daemon
    request, and a ``git`` process costs milliseconds."""
    sha = _loose_head_sha(Path(repo).resolve() if repo is not None
                          else Path.cwd())
    if sha:
        return sha
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=str(repo) if repo is not None else None,
            capture_output=True, text=True, timeout=5)
    except (OSError, subprocess.SubprocessError):
        return ""
    return out.stdout.strip() if out.returncode == 0 else ""


def _platform_block() -> dict:
    return {
        "python": platform.python_version(),
        "machine": platform.machine(),
        "system": platform.system(),
    }


def build_record(kind: str, *,
                 wall_s: float = 0.0,
                 jobs: int = 1,
                 metrics: Optional[Sequence] = None,
                 costs=None,
                 suite: Optional[Sequence[str]] = None,
                 extra: Optional[dict] = None,
                 config_extra: Optional[dict] = None,
                 now: Optional[float] = None) -> dict:
    """Assemble one ledger record.

    ``metrics`` is a list of per-unit ``DriverMetrics`` (kept per-unit so
    the ``functions`` map preserves the unit association); ``costs`` an
    optional :class:`~.aggregate.RuleCostMap`.  ``extra`` lands verbatim
    under the ``extra`` key — bench/fuzz scripts stash their
    script-specific payloads there.  ``config_extra`` merges into the
    ``config`` block and therefore into the sentinel's comparability
    pool — callers use it for run shapes the environment cannot show
    (result cache on/off, incremental mode)."""
    from ..driver.metrics import (METRICS_SCHEMA_VERSION, DriverMetrics,
                                  merge_metrics)
    config = dict(config_extra or {})
    record = {
        "ledger_version": LEDGER_SCHEMA_VERSION,
        "kind": str(kind),
        "ts": float(now if now is not None else time.time()),
        "git_sha": git_sha(),
        "platform": _platform_block(),
        "env": {flag: os.environ.get(flag, "")
                for flag in TRACKED_ENV_FLAGS},
        "config": config,
        "jobs": int(jobs),
        "wall_s": round(float(wall_s), 6),
        "suite": sorted(str(s) for s in (suite or ())),
    }
    if metrics:
        per_unit = list(metrics)
        merged = per_unit[0] if len(per_unit) == 1 \
            else merge_metrics(per_unit)
        assert isinstance(merged, DriverMetrics)
        record["metrics_version"] = METRICS_SCHEMA_VERSION
        record["cache_effectiveness"] = merged.cache_effectiveness()
        record["functions"] = {
            f"{m.study}:{f.name}": round(f.wall_s, 6)
            for m in per_unit for f in m.functions}
        if not record["suite"]:
            record["suite"] = sorted(m.study for m in per_unit)
        if not record["wall_s"]:
            record["wall_s"] = round(sum(m.wall_s for m in per_unit), 6)
    if costs is not None and costs.entries:
        record["rules"] = costs.to_dict()
    if extra:
        record["extra"] = dict(extra)
    return record


def append_record(path: Path | str, record: dict) -> bool:
    """Append one record as a single line.  One ``os.write`` on an
    ``O_APPEND`` descriptor keeps concurrent appenders line-atomic;
    failures (read-only FS, full disk) are reported as ``False``, never
    raised — the ledger is telemetry, not a store of record."""
    path = Path(path)
    line = json.dumps(record, sort_keys=True,
                      separators=(",", ":")) + "\n"
    try:
        if path.parent != Path("."):
            path.parent.mkdir(parents=True, exist_ok=True)
        fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
        try:
            os.write(fd, line.encode("utf-8"))
        finally:
            os.close(fd)
        return True
    except OSError:
        return False


@dataclass
class LedgerView:
    """A tolerant read of a ledger file: the loadable records plus counts
    of what was skipped (and why)."""

    records: list[dict] = field(default_factory=list)
    corrupt_lines: int = 0
    alien_versions: int = 0

    def of_kind(self, kind: str) -> list[dict]:
        return [r for r in self.records if r.get("kind") == kind]


def read_ledger(path: Path | str) -> LedgerView:
    """Read every loadable record, in file (= append) order.  A missing
    file is an empty ledger; a torn last line, binary garbage, or a
    record from another schema version is counted and skipped."""
    view = LedgerView()
    try:
        text = Path(path).read_text(encoding="utf-8", errors="replace")
    except OSError:
        return view
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            rec = json.loads(line)
        except ValueError:
            view.corrupt_lines += 1
            continue
        if not isinstance(rec, dict):
            view.corrupt_lines += 1
            continue
        if rec.get("ledger_version") != LEDGER_SCHEMA_VERSION:
            view.alien_versions += 1
            continue
        view.records.append(rec)
    return view


def record_run(kind: str, *,
               wall_s: float = 0.0,
               jobs: int = 1,
               metrics: Optional[Sequence] = None,
               costs=None,
               suite: Optional[Sequence[str]] = None,
               extra: Optional[dict] = None,
               config_extra: Optional[dict] = None,
               path: Optional[Path | str] = None) -> Optional[dict]:
    """The one-call entry point the toolchain and scripts use: build a
    record and append it to the ``RC_LEDGER`` target (or ``path``, when
    given explicitly).  Returns the record, or ``None`` when the ledger
    is off — the no-op path costs one ``os.environ`` lookup."""
    target = Path(path) if path is not None else ledger_env_path()
    if target is None:
        return None
    record = build_record(kind, wall_s=wall_s, jobs=jobs, metrics=metrics,
                          costs=costs, suite=suite, extra=extra,
                          config_extra=config_extra)
    append_record(target, record)
    return record
