"""Coverage signatures: distill a trace into the set of behaviours it hit.

The fuzz farm steers generation with an execution-coverage signal (the
AFL/libFuzzer idea transplanted to proof search): every checked program
is run under tracing and its :class:`~.tracer.UnitTrace` is distilled
into a **coverage signature** — a set of short deterministic strings
naming the proof-search behaviours the check exercised:

* ``rule:<dispatch-key>:<rule-name>`` — one key per applied typing rule
  *at its dispatch key*, i.e. per (Lithium judgment, type-constructor)
  pair plus the rule chosen for it (``rule:binop:+:int:int:T-BINOP``);
* ``step:<goal-kind>`` — the interpreter cases of §5 taken (``GConj``,
  ``GForall``, ``GSep``, …) — the search-branch shapes;
* ``branch:<label>`` — conjunction branch labels (function entry vs
  loop-invariant blocks, optional case splits);
* ``solver:<outcome>[:<tactic>]`` — pure-solver outcomes, split by the
  named tactic that discharged the goal;
* ``evar:<via>`` — how existentials got instantiated (unification,
  linear solving, simplification rules);
* ``search:deferred`` / ``search:fail`` — deferred side conditions and
  proof failures.

Signatures contain *no* timestamps, term instances or counters, only
behaviour names, so they are byte-identical between serial and parallel
schedules (the trace determinism contract) and cheap to merge across
campaign shards.
"""

from __future__ import annotations

from typing import Iterable, Optional

from .tracer import TraceEvent, UnitTrace

#: bump when the key vocabulary changes incompatibly — persisted coverage
#: maps carry it so stale baselines fail loudly instead of diffing weirdly
SIGNATURE_SCHEMA_VERSION = 1

#: key-prefix for the (judgment, type-constructor) rule dimension;
#: dashboards and the coverage floor filter on it
RULE_PREFIX = "rule:"

#: key-prefix for pure-solver outcomes (and their discharging tactic)
SOLVER_PREFIX = "solver:"


def _event_keys(ev: TraceEvent) -> Iterable[str]:
    if ev.cat == "rule":
        # args["key"] is the goal's full dispatch key (judgment head +
        # type-constructor heads); older traces without it fall back to
        # the judgment class name.
        dispatch = ev.args.get("key") or ev.args.get("goal", "")
        yield f"{RULE_PREFIX}{dispatch}:{ev.name}"
    elif ev.cat == "search":
        if ev.name == "step":
            yield f"step:{ev.args.get('goal', '')}"
        elif ev.name == "conj_branch":
            yield f"branch:{ev.args.get('label', '')}"
        elif ev.name == "side_condition_deferred":
            yield "search:deferred"
        elif ev.name == "fail":
            yield "search:fail"
    elif ev.cat == "solver" and ev.name == "prove":
        outcome = ev.args.get("outcome")
        if outcome is not None:
            tactic = ev.args.get("solver", "")
            yield (f"{SOLVER_PREFIX}{outcome}:{tactic}" if tactic
                   else f"{SOLVER_PREFIX}{outcome}")
    elif ev.cat == "evar" and ev.name == "instantiate":
        yield f"evar:{ev.args.get('via', '')}"
    # memo hits/misses, context churn and frontend phases are performance
    # telemetry, not rule coverage — deliberately excluded.


def signature_of(trace: Optional[UnitTrace]) -> frozenset[str]:
    """Distill a unit trace into its coverage signature (empty for a
    missing trace — checks run without tracing have no coverage)."""
    keys: set[str] = set()
    if trace is None:
        return frozenset()
    for _buf, ev in trace.all_events():
        keys.update(_event_keys(ev))
    return frozenset(keys)


def rule_keys(signature: Iterable[str]) -> frozenset[str]:
    """The (judgment, type-constructor) rule subset of a signature — the
    dimension the coverage floor and the per-rule dashboard are pinned
    on."""
    return frozenset(k for k in signature if k.startswith(RULE_PREFIX))
