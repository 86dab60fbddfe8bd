"""The multi-tenant request queue: FIFO admission with wait telemetry.

Verification requests are *serialized* through one worker loop: the warm
:class:`~repro.driver.PoolSession` is a single shared resource, and
running two requests' process-pool batches concurrently would interleave
their worker memos nondeterministically.  FIFO order keeps multi-tenant
results deterministic (two clients racing the same namespace see the
first request's writes, then the second's — never a torn interleaving)
and makes the *queue wait* a meaningful, reportable number: it is
exactly the head-of-line blocking a request experienced, recorded per
request and rolled into the daemon's ledger records.
"""

from __future__ import annotations

import asyncio
import threading
import time
from dataclasses import dataclass, field
from typing import Optional, Union

from .protocol import Request, encode_event


class EventStream:
    """One response's NDJSON lines: produced on any thread, written by
    the connection handler in batches.

    :meth:`put` appends a list of events to a buffer, encoding each
    event dict and taking ``bytes`` items as lines already encoded; it
    wakes the handler with one ``call_soon_threadsafe`` only when no
    wake-up is pending already, so a burst of puts costs one wake-up.
    :meth:`take` returns every line buffered by the time the handler
    runs, joined, in put order.  Created on the event loop's thread (its
    loop is the running one)."""

    def __init__(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._lock = threading.Lock()
        self._lines: list[bytes] = []
        self._closed = False
        self._wake_pending = False
        self._ready = asyncio.Event()

    def put(self, events: list[Union[dict, bytes]]) -> None:
        lines = [ev if isinstance(ev, bytes) else encode_event(ev)
                 for ev in events]
        with self._lock:
            self._lines.extend(lines)
            self._wake()

    def close(self) -> None:
        """End the stream after every line already put."""
        with self._lock:
            self._closed = True
            self._wake()

    def _wake(self) -> None:
        # Caller holds the lock.
        if not self._wake_pending:
            self._wake_pending = True
            self._loop.call_soon_threadsafe(self._ready.set)

    async def take(self) -> tuple[bytes, bool]:
        """Wait for lines; return ``(joined lines, closed)``."""
        await self._ready.wait()
        self._ready.clear()
        with self._lock:
            lines, self._lines = self._lines, []
            self._wake_pending = False
            return b"".join(lines), self._closed


@dataclass
class Ticket:
    """One admitted request travelling from the queue to its stream.

    ``stream`` carries the response events from the worker loop (and
    its executor thread) to the connection handler."""

    seq: int
    request: Request
    enqueued_at: float = field(default_factory=time.monotonic)
    stream: EventStream = field(default_factory=EventStream)
    queue_wait_s: Optional[float] = None

    def start(self) -> float:
        """Mark dequeue time; returns (and records) the queue wait."""
        self.queue_wait_s = time.monotonic() - self.enqueued_at
        return self.queue_wait_s


class RequestQueue:
    """An asyncio FIFO of :class:`Ticket` with admission telemetry."""

    def __init__(self) -> None:
        self._queue: asyncio.Queue = asyncio.Queue()
        self._seq = 0
        self.enqueued = 0          # tickets ever admitted
        self.served = 0            # tickets fully processed
        self.total_wait_s = 0.0    # summed queue waits of served tickets
        self.max_wait_s = 0.0

    @property
    def depth(self) -> int:
        """Requests admitted but not yet finished (incl. the in-flight
        one) — what ``status`` reports as the backlog."""
        return self.enqueued - self.served

    def admit(self, request: Request) -> Ticket:
        """Admit one request; returns its ticket.  The ticket's queue
        position (0 = next to run) is ``depth`` at admission time."""
        self._seq += 1
        ticket = Ticket(seq=self._seq, request=request)
        self.enqueued += 1
        self._queue.put_nowait(ticket)
        return ticket

    async def get(self) -> Ticket:
        return await self._queue.get()

    def done(self, ticket: Ticket) -> None:
        """Account one finished ticket (its wait must have been taken
        via :meth:`Ticket.start`)."""
        self.served += 1
        wait = ticket.queue_wait_s or 0.0
        self.total_wait_s += wait
        self.max_wait_s = max(self.max_wait_s, wait)
        self._queue.task_done()

    async def join(self) -> None:
        """Drain: resolves when every admitted ticket has been served."""
        await self._queue.join()

    def stats(self) -> dict:
        return {
            "depth": self.depth,
            "enqueued": self.enqueued,
            "served": self.served,
            "total_wait_s": round(self.total_wait_s, 6),
            "max_wait_s": round(self.max_wait_s, 6),
        }
