"""Encode once, decode once: replayed unit lines and batched decoding.

A unit served from its memoized reuse plan hands the daemon the very
``DriverMetrics`` object of its last report, and the daemon sends the
lines it encoded for that object then.  Anything that could change the
report (an edit, a reset, a foreign ``depgraph.json``, a traced request)
goes through the driver again and re-encodes.  The client decodes each
read of the stream in one ``json.loads``.
"""

import http.client
import json
import socket
import threading

import pytest

from repro.serve import DaemonClient, DaemonError, protocol, queue, server
from repro.serve.client import decode_lines
from .conftest import done_of, events_of, make_project
from .test_server import rename_local
from .test_warm_memo import REJECTED, stream_bytes

#: ``REJECTED`` with the spec its body meets
ACCEPTED = REJECTED.replace("{n + 1} @ int<size_t>", "n @ int<size_t>")

#: the request's own events, encoded on every request
OWN = {"queued", "start", "done"}


@pytest.fixture
def encoded(monkeypatch):
    """``(event, unit)`` of every ``encode_event`` call, in call order."""
    calls = []

    def counting(ev):
        calls.append((ev["event"], ev.get("unit")))
        return protocol.encode_event(ev)

    for owner in (server, queue):
        monkeypatch.setattr(owner, "encode_event", counting)
    return calls


def raw_verify(client, params=None) -> bytes:
    """One verify request's response body, exactly as sent."""
    conn = http.client.HTTPConnection(client.host, client.port, timeout=60)
    try:
        conn.request("POST", "/rpc", json.dumps(
            {"protocol": protocol.PROTOCOL_VERSION, "method": "verify",
             "params": params or {}}))
        return conn.getresponse().read()
    finally:
        conn.close()


def unit_lines(body: bytes) -> list[bytes]:
    """The body's lines without the request's own events."""
    return [line for line in body.splitlines(keepends=True)
            if json.loads(line)["event"] not in OWN]


def unit_names(encoded) -> set:
    return {unit for name, unit in encoded if name in ("function", "unit")}


def test_second_memo_noop_encodes_only_its_own_events(daemon, encoded):
    _, client = daemon
    client.verify()                   # cold
    planned = raw_verify(client)      # records the reuse plans
    served = raw_verify(client)       # served from them: records outcomes
    del encoded[:]
    replayed = raw_verify(client)
    assert sorted(name for name, _unit in encoded) == sorted(OWN)
    lines = unit_lines(replayed)
    assert len(lines) > 2
    assert lines == unit_lines(served) == unit_lines(planned)


def test_edit_reencodes_only_the_edited_unit(daemon, project, encoded):
    _, client = daemon
    for _ in range(4):
        client.verify()
    rename_local(project / "queue.c")
    del encoded[:]
    done = done_of(client.verify())
    assert done["rechecked"] >= 1
    assert unit_names(encoded) == {"queue"}


def test_edit_to_a_failing_function_streams_its_error(daemon_factory,
                                                      tmp_path, encoded):
    project = make_project(tmp_path / "proj")
    (project / "calc.c").write_text(ACCEPTED)
    _daemon, client = daemon_factory(project)
    for _ in range(4):
        assert done_of(client.verify())["ok"] is True
    (project / "calc.c").write_text(REJECTED)
    del encoded[:]
    for _ in range(3):               # the edit, then served and replayed
        events = client.verify()
        failed = [ev for ev in events_of(events, "function")
                  if not ev["ok"]]
        assert [(ev["unit"], ev["name"]) for ev in failed] == \
            [("calc", "wrong")]
        assert "Cannot prove" in failed[0]["error"]
        [unit] = [ev for ev in events_of(events, "unit")
                  if ev["unit"] == "calc"]
        assert unit["ok"] is False
    assert unit_names(encoded) == {"calc"}


@pytest.mark.parametrize("how", ["reset", "garbage-state"])
def test_reset_and_foreign_state_rebuild_the_lines(daemon, project,
                                                   encoded, how):
    _, client = daemon
    for _ in range(3):
        client.verify()
    replayed = raw_verify(client)
    if how == "reset":
        client.reset()
    else:
        (project / ".rc-cache" / "depgraph.json").write_text("garbage\n")
    del encoded[:]
    rebuilt = raw_verify(client)
    assert unit_names(encoded) == {"queue", "mpool"}
    functions = [json.loads(line) for line in unit_lines(rebuilt)
                 if b'"event":"function"' in line]
    if how == "reset":
        # The result cache survives a reset: the same clean report.
        assert unit_lines(rebuilt) == unit_lines(replayed)
    else:
        # Empty planner state: every function re-checked, none replayed.
        assert {ev["cache"] for ev in functions} == {"dirty"}


def test_traced_request_never_replays(daemon, encoded, monkeypatch):
    _, client = daemon
    for _ in range(4):
        client.verify()
    monkeypatch.setenv("RC_TRACE", "1")
    del encoded[:]
    client.verify()
    assert unit_names(encoded) == {"queue", "mpool"}
    monkeypatch.delenv("RC_TRACE")
    del encoded[:]
    client.verify()                   # served from the plans again
    assert unit_names(encoded) == {"queue", "mpool"}
    del encoded[:]
    client.verify()
    assert unit_names(encoded) == set()


def test_single_path_unit_wall_is_its_live_check_time(daemon):
    """A unit's ``wall_s`` sums the walls of the functions checked in
    this request, whatever else the request holds: 0 on a no-op."""
    _, client = daemon
    client.verify()
    first = client.verify(["queue"])
    second = client.verify(["queue"])
    [unit] = events_of(second, "unit")
    assert unit["wall_s"] == 0
    assert [ev for ev in stream_bytes(first) if b'"event":"unit"' in ev] \
        == [ev for ev in stream_bytes(second) if b'"event":"unit"' in ev]


def test_small_reads_decode_the_same_events(daemon, monkeypatch):
    """Every line split across reads: the replayed stream decodes to the
    same events as with whole-buffer reads."""
    _, client = daemon
    for _ in range(3):
        client.verify()
    whole = stream_bytes(client.verify())
    monkeypatch.setattr("repro.serve.client.READ_SIZE", 7)
    assert stream_bytes(client.verify()) == whole


class CannedDaemon:
    """A one-connection HTTP server answering with ``chunks``, sent one
    by one."""

    def __init__(self, chunks: list[bytes]) -> None:
        self.sock = socket.create_server(("127.0.0.1", 0))
        self.chunks = chunks
        self.thread = threading.Thread(target=self._serve, daemon=True)
        self.thread.start()

    def _serve(self) -> None:
        conn, _addr = self.sock.accept()
        with conn:
            data = b""
            while b"\r\n\r\n" not in data:
                data += conn.recv(4096)
            head, _, body = data.partition(b"\r\n\r\n")
            length = int(head.lower().split(b"content-length:")[1]
                         .split(b"\r\n")[0])
            while len(body) < length:
                body += conn.recv(4096)
            conn.sendall(b"HTTP/1.1 200 OK\r\nConnection: close\r\n\r\n")
            for chunk in self.chunks:
                conn.sendall(chunk)

    def request(self) -> list[dict]:
        host, port = self.sock.getsockname()[:2]
        try:
            return list(DaemonClient(host, port, timeout=10)
                        .request("verify"))
        finally:
            self.thread.join(10)
            self.sock.close()


def test_a_line_split_across_reads_decodes():
    events = CannedDaemon([b'{"event":"queued"}\n{"event":"fun',
                           b'ction","name":"f"}\n\n{"event":"done"}']
                          ).request()
    assert events == [{"event": "queued"},
                      {"event": "function", "name": "f"},
                      {"event": "done"}]


def test_a_garbage_line_raises_bad_stream_naming_it():
    daemon = CannedDaemon([b'{"event":"queued"}\n{"event":"start"}\n'
                           b'not json at all\n{"event":"done"}\n'])
    with pytest.raises(DaemonError) as info:
        daemon.request()
    assert info.value.code == "bad-stream"
    assert "not json at all" in info.value.message


def test_decode_lines_matches_line_by_line_decoding():
    good = [{"event": "a", "n": 1}, {"event": "b", "s": "x\ny"}]
    data = b"".join(protocol.encode_event(ev) for ev in good)
    assert decode_lines(data) == good
    assert decode_lines(b"\n \n") == []
    # Two values on one line decode line by line, and fail there.
    with pytest.raises(DaemonError, match="bad-stream"):
        decode_lines(b'{"event":"a"},{"event":"b"}\n{"event":"c"}')
