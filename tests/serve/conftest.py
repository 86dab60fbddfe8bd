"""Fixtures for the serve tests: real daemons on ephemeral ports.

The daemon runs in a background thread with its own event loop — the
exact topology ``rcd start --foreground`` uses — against tiny project
directories populated with real case studies (every study verifies in
well under 100ms, so a full request/response cycle is cheap).  Tests
run at ``jobs=1``: the serial in-process path exercises every protocol,
queueing and namespace behaviour without paying pool fork cost; the
pool-specific recovery path is driven through an injected fake session
(see ``test_server.py``).
"""

import asyncio
import shutil
import threading

import pytest

from repro.report import casestudies_dir
from repro.serve import DaemonClient, ServeConfig, VerifyDaemon

#: small, fast studies used to populate serve project directories
PROJECT_STUDIES = ("queue", "mpool")


def make_project(root, studies=PROJECT_STUDIES):
    root.mkdir(parents=True, exist_ok=True)
    for stem in studies:
        shutil.copy(casestudies_dir() / f"{stem}.c", root / f"{stem}.c")
    return root


@pytest.fixture
def project(tmp_path):
    return make_project(tmp_path / "proj")


@pytest.fixture
def daemon_factory(tmp_path):
    """Start daemons on demand; every one is stopped at teardown."""
    running = []

    def start(root, **cfg_kw):
        cfg_kw.setdefault("jobs", 1)
        cfg = ServeConfig(root=root, **cfg_kw)
        daemon = VerifyDaemon(cfg)
        loop = asyncio.new_event_loop()
        ready = threading.Event()

        def run():
            asyncio.set_event_loop(loop)
            loop.run_until_complete(daemon.start())
            ready.set()
            loop.run_until_complete(daemon.serve_forever())

        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        assert ready.wait(10), "daemon failed to start"
        running.append((daemon, loop, thread))
        client = DaemonClient(daemon.host, daemon.port, timeout=60)
        return daemon, client

    yield start

    for daemon, loop, thread in running:
        try:
            loop.call_soon_threadsafe(daemon.request_stop)
        except RuntimeError:
            pass          # loop already closed: daemon shut itself down
        thread.join(timeout=10)
        if not thread.is_alive():
            # The loop is stopped for good once its thread is gone;
            # closing it also shuts the default executor down.
            loop.close()


@pytest.fixture
def daemon(daemon_factory, project):
    return daemon_factory(project)


def events_of(events, name):
    return [ev for ev in events if ev.get("event") == name]


def done_of(events):
    done = events_of(events, "done")
    assert len(done) == 1, f"expected one done event, got {events}"
    return done[0]
