"""Verification as a service (README "Verification as a service").

The serve subsystem wraps the verification driver in a long-lived
daemon so the edit-annotate-recheck loop the paper promises (§1, §8:
*interactive-speed* foundational verification) never pays pool
cold-start, re-interning, or planner-state re-parsing between requests.
A warm request costs what changed: planner state is written only when
it changed, a source whose stat signature is unchanged (and settled)
is not even opened, and a unit whose source text is unchanged is
neither re-parsed nor re-elaborated (its program and dependency graph
come from the namespace's memo):

* :mod:`.protocol` — the JSON-RPC-over-HTTP request schema and the
  NDJSON response event stream, with structured errors;
* :mod:`.queue` — the multi-tenant FIFO request queue with queue-wait
  telemetry;
* :mod:`.server` — the asyncio daemon: a warm
  :class:`repro.driver.PoolSession` shared across requests, per-project
  cache/depgraph namespaces, streamed per-function results, graceful
  drain/shutdown and poisoned-pool recovery;
* :mod:`.watcher` — mtime/sha polling that turns file edits into dirty
  sets for ``rcd watch``;
* :mod:`.client` — the stdlib HTTP client behind ``scripts/rcd.py``.
"""

from .client import DaemonClient, DaemonError, default_state_path, read_state
from .protocol import (MAX_BODY_BYTES, PROTOCOL_VERSION, ProtocolError,
                       Request, encode_event, event, parse_request)
from .queue import RequestQueue, Ticket
from .server import Namespace, ServeConfig, VerifyDaemon
from .watcher import FileWatcher

__all__ = [
    "DaemonClient", "DaemonError", "default_state_path", "read_state",
    "MAX_BODY_BYTES", "PROTOCOL_VERSION", "ProtocolError", "Request",
    "encode_event", "event", "parse_request",
    "RequestQueue", "Ticket",
    "Namespace", "ServeConfig", "VerifyDaemon",
    "FileWatcher",
]
