"""Batched response streams, and the status latency window.

The daemon hands every unit one driver callback releases to the
ticket's stream as one batch and writes every batch that is ready when
the connection handler wakes with one ``write`` and one ``drain``.
Batching must not hold a unit back until ``done``, and must not change
a byte of the NDJSON lines or their order.
"""

import asyncio
import importlib.util
import json
import sys
import threading
from pathlib import Path

from repro.serve.protocol import encode_event
from repro.serve.queue import EventStream
from .conftest import done_of, events_of
from .test_warm_memo import stream_bytes

#: bound on every wait in these tests; the staged driver call waits this
#: long for the client to read unit 1, so a stream held back until
#: ``done`` times out there
TIMEOUT_S = 10.0


def test_event_stream_loses_and_reorders_nothing_under_contention():
    producers, puts = 4, 300     # more producer threads than cores

    async def run() -> bytes:
        stream = EventStream()

        def produce(k):
            for i in range(puts):
                stream.put([{"event": "x", "p": k, "i": i},
                            {"event": "y", "p": k, "i": i}])

        threads = [threading.Thread(target=produce, args=(k,))
                   for k in range(producers)]

        def join_all():
            for t in threads:
                t.join(TIMEOUT_S)
            return not any(t.is_alive() for t in threads)

        async def consume() -> bytes:
            chunks, closed = [], False
            while not closed:
                data, closed = await stream.take()
                chunks.append(data)
            return b"".join(chunks)

        consumer = asyncio.ensure_future(consume())
        for t in threads:
            t.start()
        assert await asyncio.to_thread(join_all), "a producer hung"
        stream.close()
        return await asyncio.wait_for(consumer, TIMEOUT_S)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        data = asyncio.run(run())
    finally:
        sys.setswitchinterval(old)
    got = [json.loads(line) for line in data.splitlines()]
    assert len(got) == producers * puts * 2
    for k in range(producers):
        mine = [(ev["event"], ev["i"]) for ev in got if ev["p"] == k]
        assert mine == [(name, i) for i in range(puts)
                        for name in ("x", "y")]


def test_first_unit_reaches_the_client_before_the_rest_is_checked(
        daemon):
    d, client = daemon
    release = threading.Event()
    waited = []
    original = d._run_verify

    def staged(paths, ns, jobs, session, full):
        original(paths[:1], ns, jobs, session, full)
        waited.append(release.wait(TIMEOUT_S))
        return original(paths[1:], ns, jobs, session, full)

    d._run_verify = staged
    events = []
    for ev in client.request("verify"):
        events.append(ev)
        if ev["event"] == "unit":
            release.set()
    assert waited == [True], "unit 1 was held back until the request ended"
    assert [ev["unit"] for ev in events_of(events, "unit")] \
        == ["mpool", "queue"]
    assert done_of(events)["ok"] is True


def test_noop_takes_fewer_writes_than_events(daemon, monkeypatch):
    _, client = daemon
    client.verify()
    client.verify()
    writes = []
    real = asyncio.StreamWriter.write

    def recording(writer, data):
        writes.append(bytes(data))
        return real(writer, data)

    monkeypatch.setattr(asyncio.StreamWriter, "write", recording)
    events = client.verify()
    assert done_of(events)["warm"] is True
    assert len(writes) < len(events)
    head, _, body = b"".join(writes).partition(b"\r\n\r\n")
    assert head.startswith(b"HTTP/1.1 200 OK")
    lines = body.splitlines(keepends=True)
    assert lines == [encode_event(ev) for ev in events]
    assert [line for line in lines
            if json.loads(line)["event"] in ("function", "unit")] \
        == stream_bytes(events)


def test_status_reports_latency_after_three_requests(daemon, capsys):
    d, client = daemon
    for _ in range(3):
        client.verify()
    ns = client.status()["namespaces"][str(d.config.root)]
    lat = ns["latency"]
    assert lat["requests"] == 3
    assert 0 < lat["p50_s"] <= lat["p99_s"]

    rcd = _load_rcd()
    assert rcd.main(["status", "--root", str(d.config.root)]) == 0
    assert "latency: p50" in capsys.readouterr().out
    assert rcd.main(["status", "--root", str(d.config.root),
                     "--json"]) == 0
    shown = json.loads(capsys.readouterr().out)
    assert shown["namespaces"][str(d.config.root)]["latency"]["requests"] \
        == 3


def _load_rcd():
    path = Path(__file__).resolve().parents[2] / "scripts" / "rcd.py"
    spec = importlib.util.spec_from_file_location("script_rcd", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod
