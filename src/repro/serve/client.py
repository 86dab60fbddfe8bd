"""The daemon client: stdlib HTTP, streamed NDJSON events.

``scripts/rcd.py`` is a thin shell over this module.  A request is one
``POST /rpc``; the response body is consumed read by read as the daemon
streams it, each read's complete lines decoded in one ``json.loads``, so
``verify`` callers can print per-function results while later units are
still checking.  The daemon's address comes from its
state file (``.rc-serve.json`` under the serve root), written at bind
time — ephemeral ports (``--port 0``) therefore need no out-of-band
coordination.
"""

from __future__ import annotations

import http.client
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Optional

from .protocol import PROTOCOL_VERSION
from .server import STATE_FILE_NAME

#: generous: a cold verify of every case study plus queueing
DEFAULT_TIMEOUT_S = 600.0

#: the most bytes one read of a response body takes off the socket
READ_SIZE = 1 << 16


class DaemonError(Exception):
    """A structured error event from the daemon (or a dead daemon)."""

    def __init__(self, code: str, message: str) -> None:
        super().__init__(f"{code}: {message}")
        self.code = code
        self.message = message


@dataclass
class DaemonState:
    """The daemon's published coordinates (its state file)."""

    host: str
    port: int
    pid: int
    root: str
    started: float


def default_state_path(root: Path | str = ".") -> Path:
    return Path(root) / STATE_FILE_NAME


def read_state(path: Path | str) -> Optional[DaemonState]:
    """Load a state file; ``None`` when absent or unreadable (the
    daemon is simply not running)."""
    try:
        data = json.loads(Path(path).read_text())
        return DaemonState(host=str(data["host"]), port=int(data["port"]),
                           pid=int(data["pid"]), root=str(data["root"]),
                           started=float(data["started"]))
    except (OSError, ValueError, KeyError, TypeError):
        return None


def decode_lines(data: bytes) -> list:
    """The events of the NDJSON lines in ``data``, blank lines skipped.

    All lines are decoded in one ``json.loads`` of a JSON array.  When
    that fails (or yields a different number of values than there are
    lines), they are decoded one at a time, so the error names the first
    bad line."""
    lines = [line for line in (raw.strip() for raw in data.split(b"\n"))
             if line]
    if not lines:
        return []
    try:
        events = json.loads(b"[" + b",".join(lines) + b"]")
        if len(events) == len(lines):
            return events
    except ValueError:
        pass
    events = []
    for line in lines:
        try:
            events.append(json.loads(line))
        except ValueError:
            raise DaemonError("bad-stream",
                              f"unparseable event line {line[:120]!r}")
    return events


class DaemonClient:
    """Issue requests against one daemon address."""

    def __init__(self, host: str, port: int,
                 timeout: float = DEFAULT_TIMEOUT_S) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout

    @classmethod
    def from_state(cls, state: DaemonState,
                   timeout: float = DEFAULT_TIMEOUT_S) -> "DaemonClient":
        return cls(state.host, state.port, timeout=timeout)

    # ------------------------------------------------------------
    def request(self, method: str,
                params: Optional[dict] = None) -> Iterator[dict]:
        """Stream the daemon's response events for one request.

        Raises :class:`DaemonError` on connection failure; *error
        events* are yielded like any other so callers that stream can
        render them in place (the convenience wrappers below raise)."""
        body = json.dumps({"protocol": PROTOCOL_VERSION,
                           "method": method,
                           "params": params or {}})
        try:
            conn = http.client.HTTPConnection(self.host, self.port,
                                              timeout=self.timeout)
            conn.request("POST", "/rpc", body,
                         {"Content-Type": "application/json"})
            resp = conn.getresponse()
        except (OSError, http.client.HTTPException) as exc:
            raise DaemonError("unreachable",
                              f"no daemon at {self.host}:{self.port} "
                              f"({exc})") from exc
        try:
            tail = b""
            while True:
                chunk = resp.read1(READ_SIZE)
                if not chunk:
                    break
                lines, _, tail = (tail + chunk).rpartition(b"\n")
                yield from decode_lines(lines)
            yield from decode_lines(tail)
        finally:
            # The response owns the socket once the daemon announced
            # ``Connection: close``; a stream left before its end (a bad
            # line, a caller that stops reading) must close it too.
            resp.close()
            conn.close()

    def collect(self, method: str,
                params: Optional[dict] = None) -> list[dict]:
        """All events of one request; raises on an ``error`` event."""
        events = []
        for ev in self.request(method, params):
            if ev.get("event") == "error":
                raise DaemonError(ev.get("code", "error"),
                                  ev.get("message", ""))
            events.append(ev)
        return events

    # ------------------------------------------------------------
    def status(self) -> dict:
        events = self.collect("status")
        if not events or events[0].get("event") != "status":
            raise DaemonError("bad-stream", "no status event in reply")
        return events[0]

    def ping(self) -> bool:
        try:
            self.status()
            return True
        except DaemonError:
            return False

    def verify(self, paths: Optional[list[str]] = None, *,
               root: Optional[str] = None, jobs: Optional[int] = None,
               full: bool = False) -> list[dict]:
        params: dict = {}
        if paths:
            params["paths"] = list(paths)
        if root is not None:
            params["root"] = str(root)
        if jobs is not None:
            params["jobs"] = int(jobs)
        if full:
            params["full"] = True
        return self.collect("verify", params)

    def reset(self) -> dict:
        return self.collect("reset")[-1]

    def shutdown(self) -> dict:
        return self.collect("shutdown")[-1]
