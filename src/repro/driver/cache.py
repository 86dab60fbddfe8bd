"""Content-addressed verification result cache (persisted under
``.rc-cache/``).

An entry is stored under one key: the function's **transitive key**
(:func:`repro.driver.depgraph.transitive_key`), a SHA-256 over every
input node reachable from the function in its unit's dependency graph —
its body and spec, the specs of its callees, the structs, globals,
tactics and lemma table it consumes — plus the engine fingerprint.  The
incremental planner (:mod:`repro.driver.incremental`) computes the key,
reads the entry for a clean function and has the pool write the entry
for a re-checked one; nothing else addresses the store.

Entries store the outcome, the deterministic ``Stats.counters()`` and the
error text — **not** the derivation tree.  A reused entry therefore
returns a :class:`FunctionResult` with ``derivations=[]``; re-run with
the cache disabled to regenerate certificates for ``proofs.certcheck``.

Corrupted, truncated, stale-version or otherwise unreadable entries are
treated as misses, never as errors.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path
from typing import Optional

from ..lithium.search import COUNTER_KEYS, Stats, VerificationError
from ..refinedc.checker import FunctionResult

CACHE_FORMAT_VERSION = 1

DEFAULT_CACHE_DIR = Path(".rc-cache")


def atomic_write_json(path: Path, obj) -> None:
    """Write ``obj`` as JSON via tempfile + rename.  Concurrent writers
    race benignly (last rename wins, never a torn file); write failures
    (read-only FS) are swallowed — cache files are accelerators, not
    stores of record."""
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            # dumps runs the C encoder; dump streams through the pure-
            # Python iterencode at several times the cost.
            with os.fdopen(fd, "w") as fh:
                fh.write(json.dumps(obj))
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
    except OSError:
        pass

# The plain integer counters persisted per cache entry: the keys of
# Stats.counters() but the two structured fields serialized separately
# below.
_COUNTER_FIELDS = tuple(f for f in COUNTER_KEYS
                        if f not in ("rules_used", "manual_conditions"))


class CachedVerificationError(VerificationError):
    """A verification error rehydrated from the cache.  The structured
    side-condition terms are not persisted, so ``format()`` replays the
    recorded text verbatim instead of re-rendering."""

    def __init__(self, reason: str, function: str, location: list,
                 text: str) -> None:
        self._cached_text = text
        super().__init__(reason, location, None, (), function)

    def format(self) -> str:
        # During super().__init__ the cached text is not set yet.
        return getattr(self, "_cached_text", "") or super().format()

    def __reduce__(self):
        return (CachedVerificationError,
                (self.reason, self.function, self.location,
                 self._cached_text))


class ResultCache:
    """A directory of JSON entries, one per (function, content-key).

    Layout: ``<root>/<key[:2]>/<key>.json`` — two-level fan-out keeps
    directories small for large programs.  Writes are atomic (tempfile +
    rename), so a crashed writer leaves no truncated entry behind."""

    def __init__(self, root: Path | str = DEFAULT_CACHE_DIR) -> None:
        self.root = Path(root)
        self.hits = 0
        self.misses = 0

    # ------------------------------------------------------------
    def _path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    # ------------------------------------------------------------
    def get(self, key: str) -> Optional[tuple[FunctionResult, float]]:
        """Return ``(result, original_wall_s)`` on a hit, None on a miss.
        Any malformed entry is silently a miss."""
        path = self._path(key)
        try:
            data = json.loads(path.read_text())
        except (OSError, ValueError, UnicodeDecodeError):
            self.misses += 1
            return None
        try:
            result, wall = self._rehydrate(key, data)
        except (KeyError, TypeError, ValueError):
            self.misses += 1
            return None
        self.hits += 1
        return result, wall

    @staticmethod
    def _rehydrate(key: str, data: dict) -> tuple[FunctionResult, float]:
        if data["format_version"] != CACHE_FORMAT_VERSION \
                or data["key"] != key:
            raise ValueError("stale or mismatched cache entry")
        raw = data["stats"]
        stats = Stats(**{f: int(raw[f]) for f in _COUNTER_FIELDS})
        stats.rules_used = set(raw["rules_used"])
        stats.manual_conditions = [tuple(m) for m in
                                   raw["manual_conditions"]]
        stats.solver_time = float(raw.get("solver_time", 0.0))
        error = None
        if data["error"] is not None:
            e = data["error"]
            error = CachedVerificationError(
                e["reason"], e["function"], list(e["location"]), e["text"])
        ok = bool(data["ok"])
        if not ok and error is None:
            raise ValueError("failed entry without an error record")
        return (FunctionResult(data["name"], ok, stats, error, []),
                float(data.get("wall_s", 0.0)))

    # ------------------------------------------------------------
    def put(self, key: str, result: FunctionResult, wall_s: float) -> None:
        """Persist one result.  Failures to write (read-only FS, races)
        are ignored — the cache is an accelerator, not a store of record."""
        entry = {
            "format_version": CACHE_FORMAT_VERSION,
            "key": key,
            "name": result.name,
            "ok": result.ok,
            "wall_s": wall_s,
            "stats": {
                **{f: getattr(result.stats, f) for f in _COUNTER_FIELDS},
                "rules_used": sorted(result.stats.rules_used),
                "manual_conditions": [list(m) for m in
                                      result.stats.manual_conditions],
                "solver_time": result.stats.solver_time,
            },
            "error": None if result.error is None else {
                "reason": result.error.reason,
                "function": result.error.function,
                "location": list(result.error.location),
                "text": result.error.format(),
            },
        }
        atomic_write_json(self._path(key), entry)
