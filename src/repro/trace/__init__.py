"""End-to-end proof-search tracing (observability layer).

RefinedC's practicality rests on seeing *where* the automation spends its
time (the per-example breakdown behind Figure 7) and *why* a proof gets
stuck (§2.1's actionable error reporting).  This package provides both:

* :mod:`.tracer` — the core :class:`Tracer` emitting typed span/instant
  events (parse, elaborate, per-function check, per-``SearchState`` step,
  rule application, ``PureSolver.prove`` call, evar seal/instantiate,
  context atom add/consume, memo hit/miss) with monotonic timestamps,
  nesting depth and deterministic sequence ids.  The off path is a single
  ``CURRENT is None`` check at every site; ``perfbench/run.py --trace 1``
  reports the cost of the on path as ``tracing_overhead_frac``.
* :mod:`.chrome` — Chrome trace-event JSON export (loadable in Perfetto /
  ``chrome://tracing``), a JSONL stream, and an event-schema validator.
* :mod:`.profile` — the self-profile: one stack replay per unit trace
  giving time per span kind, per rule/solver cost key and the slowest
  solver goals; the metrics ``trace`` block, the rule-cost ledger and
  ``scripts/trace.py`` all read it.
* :mod:`.stuck` — the stuck-goal report rendered on
  :class:`~repro.lithium.search.VerificationError`: the failing goal, the
  pure side condition, the Γ/Δ context snapshot and the last K trace
  events leading to the failure.

Tracing is enabled by the ``RC_TRACE`` environment variable or the
``trace=`` keyword of ``verify_source``/``verify_file``/``verify_files``;
the merged per-function buffers are exposed as
``VerificationOutcome.trace`` (see :class:`UnitTrace`).
"""

from .chrome import (chrome_trace, to_jsonl, validate_chrome_trace,
                     write_chrome_trace, write_jsonl)
from .profile import SelfProfile, build_profile, render_profile, trace_summary
from .signature import (RULE_PREFIX, SIGNATURE_SCHEMA_VERSION, rule_keys,
                        signature_of)
from .stuck import StuckGoalReport, build_stuck_report
from .tracer import (FunctionTrace, TraceEvent, Tracer, UnitTrace,
                     current_tracer, merge_function_traces, set_current,
                     trace_env_enabled, using)

__all__ = [
    "FunctionTrace",
    "RULE_PREFIX",
    "SIGNATURE_SCHEMA_VERSION",
    "SelfProfile",
    "StuckGoalReport",
    "TraceEvent",
    "Tracer",
    "UnitTrace",
    "build_profile",
    "build_stuck_report",
    "chrome_trace",
    "current_tracer",
    "merge_function_traces",
    "render_profile",
    "rule_keys",
    "set_current",
    "signature_of",
    "to_jsonl",
    "trace_env_enabled",
    "trace_summary",
    "using",
    "validate_chrome_trace",
    "write_chrome_trace",
    "write_jsonl",
]
