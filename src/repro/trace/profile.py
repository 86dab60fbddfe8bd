"""Self-profile over a trace: where the proof search spends its time.

One stack replay over the spans of a :class:`~.tracer.UnitTrace` yields

* per-``(cat, name)`` span statistics — count, total wall, *self* wall
  (total minus the directly nested spans), so e.g. a typing rule's own
  cost is separated from the solver calls it triggers;
* per-key rule and solver costs, keyed by the coverage-signature
  vocabulary (:func:`.signature._event_keys`) restricted to the
  ``rule:`` and ``solver:`` families — the entries the rule-cost ledger
  (:class:`repro.obs.aggregate.RuleCostMap`) merges;
* instant counts (memo hits/misses, evar events, context churn);
* every ``solver.prove`` call, slowest first, with its goal and outcome —
  the first place to look when a verification is slow.

``UnitTrace.profile()`` computes this once per trace; ``trace_summary``
distills it into the JSON-able ``trace`` block of the driver metrics,
``render_profile`` into the ``scripts/trace.py`` tables.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .signature import RULE_PREFIX, SOLVER_PREFIX, _event_keys
from .tracer import TraceEvent, UnitTrace

#: how many of the slowest ``solver.prove`` calls the metrics ``trace``
#: block keeps — per unit and merged across units alike
SLOWEST_PROVE_N = 5

#: the signature key families that carry a cost entry
COST_PREFIXES = (RULE_PREFIX, SOLVER_PREFIX)


@dataclass
class CostEntry:
    """The aggregate cost of one span key: count, summed wall, summed
    self wall (minus direct children) and the single slowest span."""

    count: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    max_s: float = 0.0

    def add_span(self, dur_s: float, self_s: float) -> None:
        self.count += 1
        self.total_s += dur_s
        self.self_s += self_s
        if dur_s > self.max_s:
            self.max_s = dur_s

    def merge(self, other: "CostEntry") -> None:
        self.count += other.count
        self.total_s += other.total_s
        self.self_s += other.self_s
        self.max_s = max(self.max_s, other.max_s)

    def to_dict(self) -> dict:
        return {"count": self.count,
                "total_s": round(self.total_s, 6),
                "self_s": round(self.self_s, 6),
                "max_s": round(self.max_s, 6)}


@dataclass
class SlowCall:
    dur_s: float
    function: str
    goal: str
    outcome: str
    solver: str


@dataclass
class SelfProfile:
    spans: dict[tuple[str, str], CostEntry] = field(default_factory=dict)
    costs: dict[str, CostEntry] = field(default_factory=dict)
    instants: dict[tuple[str, str], int] = field(default_factory=dict)
    #: every ``solver.prove`` call, slowest first
    slowest_prove: list[SlowCall] = field(default_factory=list)
    events: int = 0
    dropped: int = 0

    def rules(self) -> dict[str, CostEntry]:
        """Per-typing-rule aggregate (spans in the ``rule`` category are
        named after the rule that was applied)."""
        return {name: agg for (cat, name), agg in self.spans.items()
                if cat == "rule"}


def build_profile(trace: UnitTrace) -> SelfProfile:
    """The one stack replay over a unit trace's spans.  Prefer
    ``trace.profile()``, which runs it once per trace."""
    prof = SelfProfile(events=trace.event_count(),
                       dropped=trace.dropped_count())
    spans, costs, instants = prof.spans, prof.costs, prof.instants
    slow = prof.slowest_prove
    for buf in trace.buffers:
        # Stack replay over the pre-ordered span stream: an event at depth
        # d is a direct child of the last open span at depth < d.
        stack: list[list] = []   # [event, direct_child_dur]

        def pop() -> None:
            ev, child_dur = stack.pop()
            dur = ev.dur or 0.0
            self_s = max(0.0, dur - child_dur)
            if stack:
                stack[-1][1] += dur
            agg = spans.get((ev.cat, ev.name))
            if agg is None:
                agg = spans[(ev.cat, ev.name)] = CostEntry()
            agg.add_span(dur, self_s)
            for key in _event_keys(ev):
                if key.startswith(COST_PREFIXES):
                    entry = costs.get(key)
                    if entry is None:
                        entry = costs[key] = CostEntry()
                    entry.add_span(dur, self_s)
            if ev.cat == "solver" and ev.name == "prove":
                slow.append(SlowCall(dur, buf.function,
                                     str(ev.args.get("goal", "")),
                                     str(ev.args.get("outcome", "")),
                                     str(ev.args.get("solver", ""))))

        for ev in buf.events:
            if ev.ph == TraceEvent.INSTANT:
                key = (ev.cat, ev.name)
                instants[key] = instants.get(key, 0) + 1
                continue
            while stack and stack[-1][0].depth >= ev.depth:
                pop()
            stack.append([ev, 0.0])
        while stack:
            pop()
    slow.sort(key=lambda c: -c.dur_s)
    return prof


def render_profile(prof: SelfProfile, top_n: int = 10) -> str:
    """The human-readable self-profile printed by ``scripts/trace.py``."""
    lines = [f"trace profile: {prof.events} event(s)"
             + (f", {prof.dropped} dropped" if prof.dropped else "")]

    rules = sorted(prof.rules().items(), key=lambda kv: -kv[1].total_s)
    if rules:
        lines.append("")
        lines.append(f"{'rule':<24} {'count':>6} {'total':>9} {'self':>9}")
        for name, agg in rules[:top_n]:
            lines.append(f"{name:<24} {agg.count:>6} "
                         f"{agg.total_s * 1e3:>7.2f}ms "
                         f"{agg.self_s * 1e3:>7.2f}ms")

    other = sorted(((k, v) for k, v in prof.spans.items() if k[0] != "rule"),
                   key=lambda kv: -kv[1].total_s)
    if other:
        lines.append("")
        lines.append(f"{'span':<24} {'count':>6} {'total':>9} {'self':>9}")
        for (cat, name), agg in other[:top_n]:
            label = f"{cat}.{name}"
            lines.append(f"{label:<24} {agg.count:>6} "
                         f"{agg.total_s * 1e3:>7.2f}ms "
                         f"{agg.self_s * 1e3:>7.2f}ms")

    if prof.instants:
        lines.append("")
        lines.append(f"{'instant':<24} {'count':>6}")
        for (cat, name), count in sorted(prof.instants.items(),
                                         key=lambda kv: -kv[1])[:top_n]:
            lines.append(f"{cat + '.' + name:<24} {count:>6}")

    slowest = prof.slowest_prove[:top_n]
    if slowest:
        lines.append("")
        lines.append(f"top {len(slowest)} slowest solver goals:")
        for c in slowest:
            where = f" [{c.function}]" if c.function else ""
            lines.append(f"  {c.dur_s * 1e3:7.2f}ms  {c.outcome:<8} "
                         f"{c.goal}{where}")
    return "\n".join(lines)


def trace_summary(trace: UnitTrace) -> dict:
    """The ``trace`` block of the driver metrics: per-rule counts/time,
    solver/memo roll-ups and the :data:`SLOWEST_PROVE_N` slowest goals.
    Counts are deterministic; the ``*_s`` fields are wall-clock."""
    prof = trace.profile()
    rules = {name: {"count": agg.count,
                    "total_s": round(agg.total_s, 6),
                    "self_s": round(agg.self_s, 6)}
             for name, agg in sorted(prof.rules().items())}
    prove = prof.spans.get(("solver", "prove"), CostEntry())
    return {
        "events": prof.events,
        "dropped": prof.dropped,
        "rules": rules,
        "solver": {
            "prove_calls": prove.count,
            "prove_total_s": round(prove.total_s, 6),
            "memo_hits": prof.instants.get(("memo", "hit"), 0),
            "memo_misses": prof.instants.get(("memo", "miss"), 0),
        },
        "slowest_prove": [
            {"dur_s": round(c.dur_s, 6), "function": c.function,
             "goal": c.goal, "outcome": c.outcome}
            for c in prof.slowest_prove[:SLOWEST_PROVE_N]
        ],
    }
