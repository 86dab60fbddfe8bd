"""Per-rule cost accounting over the proof-search event stream.

:class:`RuleCostMap` is the observability sibling of the fuzz farm's
``CoverageMap``: where coverage records *which* behaviours a check
exercised, the cost map records *what each one cost*.  It holds, per
key, a :class:`~repro.trace.profile.CostEntry`:

* ``count`` — how many spans hit the key,
* ``total_s`` — summed wall time of those spans,
* ``self_s`` — total minus directly nested child spans (a rule's own
  cost separated from the solver calls it triggers),
* ``max_s`` — the single slowest span,

for two key families of the fuzz signature vocabulary
(:mod:`repro.trace.signature`):

* ``rule:<dispatch-key>:<rule-name>`` — one entry per applied typing
  rule at its dispatch key;
* ``solver:<outcome>[:<tactic>]`` — pure-solver ``prove`` spans, split
  by outcome and the named ``rc::tactics`` solver that discharged them.

The map walks no spans itself: a unit's entries come from its
self-profile (``UnitTrace.profile()``), the one stack replay that also
feeds the metrics ``trace`` block and ``scripts/trace.py``.

Maps **merge deterministically**: counts are schedule-independent (the
trace determinism contract), and the merge of the wall fields is
associative/commutative (sum/sum/sum/max), so folding per-unit maps in
any grouping yields the same totals.  ``to_dict``/``from_dict``
round-trip through JSON with a schema-version check, like the coverage
map, so persisted blocks from a different vocabulary fail loudly.
"""

from __future__ import annotations

from typing import Iterable, Optional

from ..trace.profile import COST_PREFIXES, CostEntry
from ..trace.signature import RULE_PREFIX, SOLVER_PREFIX
from ..trace.tracer import UnitTrace

#: bump when the key vocabulary or the per-key fields change incompatibly
AGGREGATE_SCHEMA_VERSION = 1


class RuleCostMap:
    """Count/total/self/max accounting per rule dispatch key and per
    solver tactic."""

    __slots__ = ("entries",)

    def __init__(self) -> None:
        self.entries: dict[str, CostEntry] = {}

    # -- accumulation -------------------------------------------------
    def add_unit_trace(self, trace: Optional[UnitTrace]) -> None:
        """Fold one unit's trace in: merge the rule/solver cost entries
        of its self-profile (``trace.profile()``, replayed at most once
        per trace)."""
        if trace is None:
            return
        for key, entry in trace.profile().costs.items():
            self.entries.setdefault(key, CostEntry()).merge(entry)

    def add_counts(self, keys) -> None:
        """Fold in count-only coverage keys (no wall columns) — the fuzz
        campaign path, which retains coverage signatures but not traces.
        Accepts an iterable of keys (each counted once) or a key→count
        mapping; only keys in the accounted vocabulary are kept."""
        items = keys.items() if hasattr(keys, "items") \
            else ((k, 1) for k in keys)
        for key, n in items:
            if key.startswith(COST_PREFIXES):
                self.entries.setdefault(key, CostEntry()).count += int(n)

    def merge(self, other: "RuleCostMap") -> None:
        for key, entry in other.entries.items():
            self.entries.setdefault(key, CostEntry()).merge(entry)

    # -- queries ------------------------------------------------------
    def rules(self) -> dict[str, CostEntry]:
        return {k: v for k, v in self.entries.items()
                if k.startswith(RULE_PREFIX)}

    def tactics(self) -> dict[str, CostEntry]:
        return {k: v for k, v in self.entries.items()
                if k.startswith(SOLVER_PREFIX)}

    def top(self, n: int = 10, *, prefix: str = RULE_PREFIX,
            by: str = "total_s") -> list[tuple[str, CostEntry]]:
        """The ``n`` most expensive keys under ``prefix``, ordered by the
        ``by`` field (falling back to ``count`` for count-only maps),
        ties broken by key so the order is deterministic."""
        items = [(k, v) for k, v in self.entries.items()
                 if k.startswith(prefix)]
        if all(v.total_s == 0.0 for _, v in items):
            by = "count"
        items.sort(key=lambda kv: (-getattr(kv[1], by), kv[0]))
        return items[:n]

    # -- persistence --------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "schema_version": AGGREGATE_SCHEMA_VERSION,
            "entries": {k: self.entries[k].to_dict()
                        for k in sorted(self.entries)},
        }

    @classmethod
    def from_dict(cls, data: dict) -> "RuleCostMap":
        version = data.get("schema_version")
        if version != AGGREGATE_SCHEMA_VERSION:
            raise ValueError(
                f"rule-cost schema mismatch: map has {version!r}, "
                f"this build speaks {AGGREGATE_SCHEMA_VERSION}")
        out = cls()
        for key, raw in data.get("entries", {}).items():
            out.entries[str(key)] = CostEntry(
                count=int(raw.get("count", 0)),
                total_s=float(raw.get("total_s", 0.0)),
                self_s=float(raw.get("self_s", 0.0)),
                max_s=float(raw.get("max_s", 0.0)))
        return out


def costs_of_outcomes(outcomes: Iterable) -> RuleCostMap:
    """Fold the traces of several ``VerificationOutcome``-likes (anything
    with a ``trace`` attribute) into one map — the shape the ledger
    writers use after a ``verify_files`` run."""
    costs = RuleCostMap()
    for out in outcomes:
        costs.add_unit_trace(getattr(out, "trace", None))
    return costs


def render_top_rules(costs: RuleCostMap, n: int = 10,
                     prefix: str = RULE_PREFIX) -> str:
    """The terminal/job-summary table shared by ``rcstat --top-rules``
    and the fuzz-nightly summary.  Count-only maps (no wall columns)
    render counts and dashes."""
    rows = costs.top(n, prefix=prefix)
    if not rows:
        return "(no entries)"
    timed = any(e.total_s > 0.0 for _, e in rows)
    lines = [f"{'key':<52} {'count':>7} {'total':>9} {'self':>9} "
             f"{'max':>9}"]
    for key, e in rows:
        if timed:
            lines.append(f"{key:<52} {e.count:>7} "
                         f"{e.total_s * 1e3:>7.2f}ms "
                         f"{e.self_s * 1e3:>7.2f}ms "
                         f"{e.max_s * 1e3:>7.2f}ms")
        else:
            lines.append(f"{key:<52} {e.count:>7} {'-':>9} {'-':>9} "
                         f"{'-':>9}")
    return "\n".join(lines)
