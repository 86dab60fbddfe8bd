"""The core tracing engine: typed events, spans, deterministic merging.

Design constraints (see DESIGN.md "Proof-search tracing"):

* **Low overhead when off.**  Every instrumentation site reads the module
  global :data:`CURRENT` and compares against ``None`` — one dict lookup
  and one pointer compare.  No event objects, no string formatting, no
  timestamps are produced on the off path.
* **Determinism.**  Every event carries a per-tracer *sequence id* drawn
  from a plain counter that starts at 0, plus the span nesting depth and
  structured ``args`` built only from deterministic inputs (term reprs,
  rule names, outcomes).  Wall-clock data lives exclusively in the ``ts``
  and ``dur`` fields.  Stripping those two fields must make the parallel
  (process-pool) event stream byte-identical to the serial one — the
  driver merges per-worker buffers by unit, then function (spec order),
  then sequence id, and the trace tests assert the identity.
* **Bounded memory.**  A tracer stops recording past ``limit`` events and
  counts the drops instead; spans still balance (ends of recorded spans
  are always applied), so exports never contain dangling spans.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Iterator, Optional

#: Fields whose values are wall-clock measurements.  Everything else in an
#: event must be deterministic; :meth:`TraceEvent.key` strips exactly these.
TIMESTAMP_FIELDS = ("ts", "dur")

#: Default per-tracer event cap (one tracer covers one function check).
DEFAULT_EVENT_LIMIT = 1_000_000


def trace_env_enabled() -> bool:
    """``RC_TRACE`` turns tracing on for every entry point that is not
    explicitly passed ``trace=``; ``0``/``false``/``off``/``no``/unset
    leave it off."""
    raw = os.environ.get("RC_TRACE", "0").strip().lower()
    return raw not in ("", "0", "false", "off", "no")


class TraceEvent:
    """One trace event.

    ``ph`` follows the Chrome trace-event phase vocabulary: ``"X"`` is a
    complete span (has ``dur``), ``"i"`` an instant.  ``seq`` is the
    deterministic per-tracer sequence id (spans are numbered at *open*
    time, so the stream is in pre-order); ``depth`` is the span nesting
    depth at emission.
    """

    __slots__ = ("seq", "ph", "cat", "name", "depth", "ts", "dur", "args")

    SPAN = "X"
    INSTANT = "i"

    def __init__(self, seq: int, ph: str, cat: str, name: str, depth: int,
                 ts: float, dur: Optional[float] = None,
                 args: Optional[dict] = None) -> None:
        self.seq = seq
        self.ph = ph
        self.cat = cat
        self.name = name
        self.depth = depth
        self.ts = ts
        self.dur = dur
        self.args = args if args is not None else {}

    # -- determinism -------------------------------------------------
    def key(self) -> tuple:
        """The deterministic portion of the event: everything except the
        wall-clock fields (:data:`TIMESTAMP_FIELDS`)."""
        return (self.seq, self.ph, self.cat, self.name, self.depth,
                tuple(sorted(self.args.items())))

    # -- serialization (worker -> parent over the process pool) ------
    def __getstate__(self) -> tuple:
        return (self.seq, self.ph, self.cat, self.name, self.depth,
                self.ts, self.dur, self.args)

    def __setstate__(self, state: tuple) -> None:
        (self.seq, self.ph, self.cat, self.name, self.depth,
         self.ts, self.dur, self.args) = state

    def to_dict(self) -> dict:
        d = {"seq": self.seq, "ph": self.ph, "cat": self.cat,
             "name": self.name, "depth": self.depth,
             "ts": self.ts, "args": self.args}
        if self.ph == self.SPAN:
            d["dur"] = self.dur if self.dur is not None else 0.0
        return d

    def __repr__(self) -> str:  # debugging aid only
        return (f"TraceEvent(#{self.seq} {self.ph} {self.cat}.{self.name} "
                f"depth={self.depth} args={self.args})")


class Tracer:
    """Collects the events of one traced scope (one function check, or one
    unit's front end).  Not thread-safe — a tracer belongs to exactly one
    proof search, mirroring how ``Stats`` works."""

    __slots__ = ("scope", "events", "dropped", "limit", "_seq", "_stack",
                 "_t0")

    def __init__(self, scope: str = "",
                 limit: int = DEFAULT_EVENT_LIMIT,
                 start_seq: int = 0) -> None:
        """``start_seq`` lets a caller append events to an existing
        buffer (e.g. the incremental planner annotating a unit's
        front-end trace) while keeping seq ids strictly increasing."""
        self.scope = scope
        self.events: list[TraceEvent] = []
        self.dropped = 0
        self.limit = limit
        self._seq = start_seq
        self._stack: list[Optional[TraceEvent]] = []
        self._t0 = time.perf_counter()

    # ------------------------------------------------------------
    @property
    def depth(self) -> int:
        return len(self._stack)

    def _next_seq(self) -> int:
        seq = self._seq
        self._seq += 1
        return seq

    # ------------------------------------------------------------
    def instant(self, cat: str, name: str, **args: Any) -> None:
        """Emit an instant event."""
        if len(self.events) >= self.limit:
            self.dropped += 1
            self._next_seq()  # keep seq ids aligned with the untruncated run
            return
        self.events.append(TraceEvent(
            self._next_seq(), TraceEvent.INSTANT, cat, name,
            len(self._stack), time.perf_counter() - self._t0, None,
            args or {}))

    def begin(self, cat: str, name: str, **args: Any) -> None:
        """Open a span; must be balanced by :meth:`end`."""
        if len(self.events) >= self.limit:
            self.dropped += 1
            self._next_seq()
            self._stack.append(None)   # balance the matching end()
            return
        ev = TraceEvent(
            self._next_seq(), TraceEvent.SPAN, cat, name,
            len(self._stack), time.perf_counter() - self._t0, None,
            args or {})
        self.events.append(ev)
        self._stack.append(ev)

    def end(self, **args: Any) -> None:
        """Close the innermost open span, filling its duration (and merging
        any late ``args``, e.g. an outcome known only at completion)."""
        ev = self._stack.pop()
        if ev is None:
            return             # the matching begin() was dropped
        ev.dur = (time.perf_counter() - self._t0) - ev.ts
        if args:
            ev.args.update(args)

    @contextmanager
    def span(self, cat: str, name: str, **args: Any) -> Iterator[None]:
        self.begin(cat, name, **args)
        try:
            yield
        finally:
            self.end()

    # ------------------------------------------------------------
    def tail(self, k: int) -> list[TraceEvent]:
        """The last ``k`` recorded events — the material for the
        stuck-goal report."""
        return self.events[-k:] if k > 0 else []

    def close(self) -> None:
        """Close any spans left open (e.g. when a ``VerificationError``
        unwinds through them) so exports are well-formed."""
        while self._stack:
            self.end(unwound=True)


# ---------------------------------------------------------------------
# The current tracer.  Instrumentation sites read the module attribute
# directly (``_trace.CURRENT``) so later rebinding is observed; the
# helpers below are the stable public API for everything else.
# ---------------------------------------------------------------------

CURRENT: Optional[Tracer] = None


def current_tracer() -> Optional[Tracer]:
    return CURRENT


def set_current(tracer: Optional[Tracer]) -> Optional[Tracer]:
    """Install ``tracer`` as the current tracer; returns the previous one."""
    global CURRENT
    previous = CURRENT
    CURRENT = tracer
    return previous


@contextmanager
def using(tracer: Tracer) -> Iterator[Tracer]:
    """Run a block with ``tracer`` installed, closing it on exit."""
    previous = set_current(tracer)
    try:
        yield tracer
    finally:
        tracer.close()
        set_current(previous)


# ---------------------------------------------------------------------
# Merged traces: per-function buffers -> unit trace.
# ---------------------------------------------------------------------

@dataclass
class FunctionTrace:
    """One tracer's harvest: the events of one scope.  ``function`` is
    empty for a unit's front-end (parse/elaborate) buffer."""

    unit: str
    function: str
    events: list[TraceEvent] = field(default_factory=list)
    dropped: int = 0

    @property
    def scope(self) -> str:
        return f"{self.unit}:{self.function}" if self.function else self.unit

    def keys(self) -> list[tuple]:
        return [ev.key() for ev in self.events]


@dataclass
class UnitTrace:
    """The merged trace of one translation unit: the front-end buffer
    first, then one buffer per live-checked function in *spec order* —
    regardless of the schedule that produced them.  Within a buffer events
    are in sequence-id order.  This makes the parallel stream equal to the
    serial one modulo the timestamp fields (``TraceEvent.key``)."""

    unit: str
    buffers: list[FunctionTrace] = field(default_factory=list)
    _profile: Any = field(default=None, init=False, repr=False,
                          compare=False)

    def all_events(self) -> Iterator[tuple[FunctionTrace, TraceEvent]]:
        for buf in self.buffers:
            for ev in buf.events:
                yield buf, ev

    def event_count(self) -> int:
        return sum(len(b.events) for b in self.buffers)

    def dropped_count(self) -> int:
        return sum(b.dropped for b in self.buffers)

    def deterministic_keys(self) -> list[tuple]:
        """The timestamp-free view of the whole unit trace, suitable for
        byte-level comparison across schedules (serial vs ``jobs>1``)."""
        return [(buf.unit, buf.function) + ev.key()
                for buf, ev in self.all_events()]

    # Exporters live in repro.trace.chrome; these are convenience hooks.
    def to_chrome(self) -> dict:
        from .chrome import chrome_trace
        return chrome_trace(self)

    def to_jsonl(self) -> str:
        from .chrome import to_jsonl
        return to_jsonl(self)

    def profile(self):
        """The self-profile (:mod:`.profile`): the trace summary, the
        rule-cost entries and ``scripts/trace.py`` all read it.  The one
        stack replay runs on first use and is kept, so call this only
        once the buffers are final."""
        if self._profile is None:
            from .profile import build_profile
            self._profile = build_profile(self)
        return self._profile


def merge_function_traces(unit: str, front: Optional[FunctionTrace],
                          by_function: dict[str, FunctionTrace],
                          spec_order: Iterator[str]) -> UnitTrace:
    """Assemble a :class:`UnitTrace` deterministically: front end first,
    then the function buffers in ``spec_order`` (functions with no buffer
    — cache hits, missing bodies — are skipped)."""
    buffers: list[FunctionTrace] = []
    if front is not None:
        buffers.append(front)
    for name in spec_order:
        buf = by_function.get(name)
        if buf is not None:
            buffers.append(buf)
    return UnitTrace(unit, buffers)
