"""Daemon behaviour: streams, namespaces, errors, recovery, drain.

Every test talks to a real daemon over a real socket (ephemeral port,
background thread — see conftest).  The driver underneath is the real
one on real case studies; only the pool-crash test injects a failure.
"""

import http.client
import json
import os
import threading

import pytest

from repro.driver.incremental import memoized_program, source_sha
from repro.frontend import verify_files
from repro.serve import DaemonError
from .conftest import done_of, events_of, make_project


def batch_fingerprint(paths):
    """(unit, fn, ok, counters) rows from one plain batch run — the
    reference the daemon's streamed results must match exactly."""
    outcomes = verify_files(paths, jobs=1, ledger=False)
    return sorted(
        (stem, name, fr.ok, fr.stats.counters())
        for stem, out in outcomes.items()
        for name, fr in out.result.functions.items())


def serve_fingerprint(events):
    return sorted(
        (ev["unit"], ev["name"], ev["ok"], ev["counters"])
        for ev in events_of(events, "function"))


def raw_post(daemon, body, path="/rpc"):
    conn = http.client.HTTPConnection(daemon.host, daemon.port,
                                      timeout=30)
    try:
        conn.request("POST", path, body,
                     {"Content-Type": "application/json"})
        resp = conn.getresponse()
        lines = [json.loads(l) for l in resp.read().splitlines() if l]
        return resp.status, lines
    finally:
        conn.close()


# ---------------------------------------------------------------------
# The verify stream.
# ---------------------------------------------------------------------

class TestVerifyStream:
    def test_cold_request_matches_batch_outcomes(self, daemon, project):
        _, client = daemon
        events = client.verify()
        done = done_of(events)
        assert done["ok"] is True
        assert done["warm"] is False
        assert serve_fingerprint(events) == batch_fingerprint(
            sorted(project.glob("*.c")))

    def test_stream_orders_queued_start_units_done(self, daemon):
        _, client = daemon
        names = [ev["event"] for ev in client.verify()]
        assert names[0] == "queued"
        assert names[1] == "start"
        assert names[-1] == "done"
        assert names.count("unit") == 2          # queue + mpool

    def test_warm_request_rechecks_nothing(self, daemon):
        _, client = daemon
        client.verify()
        done = done_of(client.verify())
        assert done["warm"] is True
        assert done["rechecked"] == 0
        assert done["clean"] == done["functions"] > 0

    def test_warm_results_stay_identical(self, daemon, project):
        _, client = daemon
        cold = client.verify()
        warm = client.verify()
        assert serve_fingerprint(cold) == serve_fingerprint(warm)

    def test_edit_dirties_only_the_edited_unit(self, daemon, project):
        _, client = daemon
        client.verify()
        src = (project / "queue.c").read_text()
        (project / "queue.c").write_text(src + "\n")
        done = done_of(client.verify())
        units = {ev["unit"]: ev for ev in
                 events_of(client.verify(), "unit")}
        assert done["ok"] is True
        assert units["mpool"]["rechecked"] == 0

    def test_full_bypasses_caches(self, daemon):
        _, client = daemon
        client.verify()
        done = done_of(client.verify(full=True))
        assert done["warm"] is False
        assert done["rechecked"] == done["functions"] > 0


# ---------------------------------------------------------------------
# The per-namespace program memo.
# ---------------------------------------------------------------------

def outcome_map(events):
    """The canonical ``{stem: {fn: {ok, error, counters}}}`` map of one
    verify stream, serialised — what ``rcd verify --json`` writes."""
    files: dict = {}
    for ev in events_of(events, "function"):
        files.setdefault(ev["unit"], {})[ev["name"]] = {
            "ok": ev["ok"], "error": ev.get("error", ""),
            "counters": ev["counters"]}
    return json.dumps(files, sort_keys=True)


def batch_outcome_map(paths):
    outcomes = verify_files(paths, jobs=1, ledger=False)
    return json.dumps({
        stem: {name: {"ok": fr.ok,
                      "error": "" if fr.ok else fr.format_error(),
                      "counters": fr.stats.counters()}
               for name, fr in out.result.functions.items()}
        for stem, out in outcomes.items()}, sort_keys=True)


def rename_local(path):
    """A same-size edit of queue.c's dequeue body (a renamed local)."""
    text = path.read_text()
    edited = text.replace("int64_t v = n->value;", "int64_t w = n->value;")
    edited = edited.replace("return v;", "return w;")
    assert edited != text and len(edited) == len(text)
    path.write_text(edited)


class TestProgramMemo:
    def test_warm_noop_parses_nothing(self, daemon):
        _, client = daemon
        assert done_of(client.verify())["parsed"] == 2
        assert done_of(client.verify())["parsed"] == 0

    def test_same_size_edit_with_restored_mtime_is_rechecked(self, daemon,
                                                             project):
        _, client = daemon
        client.verify()
        path = project / "queue.c"
        st = path.stat()
        rename_local(path)
        os.utime(path, ns=(st.st_atime_ns, st.st_mtime_ns))
        assert path.stat().st_size == st.st_size
        done = done_of(client.verify())
        assert done["parsed"] == 1
        assert done["rechecked"] >= 1

    def test_reset_empties_the_memo(self, daemon):
        d, client = daemon
        client.verify()
        key = str(d.config.root)
        # planner state + one entry per unit
        assert client.status()["namespaces"][key]["memo_entries"] == 3
        client.reset()
        assert client.status()["namespaces"][key]["memo_entries"] == 0
        assert d.namespaces[key].state_cache == {}
        assert done_of(client.verify())["parsed"] == 2

    def test_namespaces_never_share_a_unit_entry(self, daemon, project,
                                                 tmp_path):
        d, client = daemon
        other = make_project(tmp_path / "other")
        rename_local(other / "queue.c")
        client.verify()
        client.verify(root=str(other))
        memo_a = d.namespaces[str(project.resolve())].state_cache
        memo_b = d.namespaces[str(other.resolve())].state_cache
        sha_a = source_sha((project / "queue.c").read_text())
        sha_b = source_sha((other / "queue.c").read_text())
        assert sha_a != sha_b
        tp_a = memoized_program(memo_a, "queue", sha_a)
        tp_b = memoized_program(memo_b, "queue", sha_b)
        assert tp_a is not None and tp_b is not None
        assert tp_a is not tp_b
        assert memoized_program(memo_a, "queue", sha_b) is None
        assert memoized_program(memo_b, "queue", sha_a) is None
        # ...and each namespace stays warm on its own text.
        assert done_of(client.verify())["parsed"] == 0
        assert done_of(client.verify(root=str(other)))["parsed"] == 0

    def test_edit_then_noop_matches_cold_batch(self, daemon, project):
        _, client = daemon
        client.verify()
        rename_local(project / "queue.c")
        assert done_of(client.verify())["parsed"] == 1
        noop = client.verify()
        assert done_of(noop)["parsed"] == 0
        assert done_of(noop)["rechecked"] == 0
        assert outcome_map(noop) == batch_outcome_map(
            sorted(project.glob("*.c")))


# ---------------------------------------------------------------------
# Namespaces.
# ---------------------------------------------------------------------

class TestNamespaces:
    def test_concurrent_clients_two_namespaces(self, daemon, tmp_path):
        d, client = daemon
        other = make_project(tmp_path / "other", studies=("alloc",))
        results = {}

        def hit(key, **kw):
            results[key] = client.verify(**kw)

        threads = [
            threading.Thread(target=hit, args=("a",)),
            threading.Thread(target=hit, args=("b",),
                             kwargs={"root": str(other)}),
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)

        done_a, done_b = done_of(results["a"]), done_of(results["b"])
        assert done_a["ok"] and done_b["ok"]
        assert done_a["namespace"] != done_b["namespace"]
        units_b = {ev["unit"] for ev in
                   events_of(results["b"], "function")}
        assert units_b == {"alloc"}
        # each namespace got its own on-disk cache
        assert (d.config.root / ".rc-cache").is_dir()
        assert (other / ".rc-cache").is_dir()
        # and requests were serialized through one queue
        assert d.queue.stats()["served"] == 2

    def test_namespace_warmth_is_independent(self, daemon, tmp_path):
        _, client = daemon
        other = make_project(tmp_path / "other", studies=("alloc",))
        client.verify()
        assert done_of(client.verify())["warm"] is True
        # first contact with the second namespace is cold...
        assert done_of(client.verify(root=str(other)))["warm"] is False
        # ...and does not chill the first
        assert done_of(client.verify())["warm"] is True

    def test_deterministic_across_namespaces(self, daemon, tmp_path):
        _, client = daemon
        other = make_project(tmp_path / "other")   # same two studies
        a = client.verify()
        b = client.verify(root=str(other))
        assert serve_fingerprint(a) == serve_fingerprint(b)


# ---------------------------------------------------------------------
# Structured errors; the daemon must survive all of them.
# ---------------------------------------------------------------------

class TestErrors:
    def test_malformed_json_is_structured(self, daemon):
        d, client = daemon
        status, lines = raw_post(d, b"{nope")
        assert status == 400
        assert lines[0]["code"] == "parse-error"
        assert client.ping()

    def test_oversized_body_is_refused_readably(self, daemon):
        d, client = daemon
        status, lines = raw_post(d, b"x" * (2 << 20))
        assert status == 413
        assert lines[0]["code"] == "request-too-large"
        assert client.ping()

    def test_get_is_rejected(self, daemon):
        d, client = daemon
        conn = http.client.HTTPConnection(d.host, d.port, timeout=30)
        try:
            conn.request("GET", "/rpc")
            resp = conn.getresponse()
            assert resp.status == 405
            ev = json.loads(resp.read().splitlines()[0])
            assert ev["code"] == "bad-http"
        finally:
            conn.close()
        assert client.ping()

    def test_unknown_method_event(self, daemon):
        _, client = daemon
        ev = next(client.request("frobnicate"))
        assert ev["event"] == "error"
        assert ev["code"] == "unknown-method"

    def test_bad_namespace_root(self, daemon, tmp_path):
        _, client = daemon
        with pytest.raises(DaemonError) as exc:
            client.verify(root=str(tmp_path / "nowhere"))
        assert exc.value.code == "bad-params"

    def test_path_escaping_namespace_is_refused(self, daemon, tmp_path):
        _, client = daemon
        (tmp_path / "outside.c").write_text("int x;\n")
        with pytest.raises(DaemonError) as exc:
            client.verify(paths=["../outside"])
        assert exc.value.code == "bad-params"
        assert "outside the namespace" in exc.value.message

    def test_missing_path_is_refused(self, daemon):
        _, client = daemon
        with pytest.raises(DaemonError) as exc:
            client.verify(paths=["no_such_study"])
        assert exc.value.code == "bad-params"

    def test_errors_do_not_kill_later_verifies(self, daemon):
        d, client = daemon
        raw_post(d, b"{nope")
        raw_post(d, b"x" * (2 << 20))
        with pytest.raises(DaemonError):
            client.verify(paths=["no_such_study"])
        assert done_of(client.verify())["ok"] is True


# ---------------------------------------------------------------------
# Poisoned-pool recovery.
# ---------------------------------------------------------------------

class FakeSession:
    jobs = 2
    batches = 0
    tasks = 0
    resets = 0

    def reset(self):
        self.resets += 1

    def close(self):
        pass


class TestCrashRecovery:
    def test_pool_crash_resets_and_retries_serially(self, daemon_factory,
                                                    tmp_path):
        project = make_project(tmp_path / "proj", studies=("queue",))
        daemon, client = daemon_factory(project)
        fake = FakeSession()
        daemon.config.jobs = 2           # session() now hands out `fake`
        daemon._session = fake

        original = daemon._run_verify
        state = {"failed": False}

        def flaky(paths, ns, jobs, session, full):
            if session is not None and not state["failed"]:
                state["failed"] = True
                raise RuntimeError("worker died mid-task")
            return original(paths, ns, 1, None, full)

        daemon._run_verify = flaky
        events = client.verify()
        done = done_of(events)
        recovered = events_of(events, "recovered")

        assert state["failed"], "injected failure never triggered"
        assert len(recovered) == 1
        assert recovered[0]["retry"] == "serial"
        assert recovered[0]["unit"] == "queue"
        assert done["ok"] is True
        assert done["recovered"] == 1
        assert fake.resets == 1
        assert daemon.pool_recoveries == 1
        # the daemon is healthy afterwards
        assert done_of(client.verify())["ok"] is True


# ---------------------------------------------------------------------
# Drain and shutdown.
# ---------------------------------------------------------------------

class TestLifecycle:
    def test_draining_refuses_verify(self, daemon):
        d, client = daemon
        d.draining = True
        try:
            with pytest.raises(DaemonError) as exc:
                client.verify()
            assert exc.value.code == "draining"
        finally:
            d.draining = False
        assert done_of(client.verify())["ok"] is True

    def test_shutdown_stops_and_removes_state_file(self, daemon_factory,
                                                   tmp_path):
        project = make_project(tmp_path / "proj", studies=("queue",))
        daemon, client = daemon_factory(project)
        state_file = daemon.config.resolved_state_file()
        assert state_file.is_file()
        ev = client.shutdown()
        assert ev["event"] == "shutting-down"
        deadline = threading.Event()
        for _ in range(100):
            if not state_file.exists():
                break
            deadline.wait(0.05)
        assert not state_file.exists()
        assert not client.ping()

    def test_status_reports_queue_and_namespaces(self, daemon):
        d, client = daemon
        client.verify()
        st = client.status()
        assert st["requests_served"] == 1
        assert st["draining"] is False
        assert st["queue"]["served"] == 1
        assert str(d.config.root) in st["namespaces"]
        ns = st["namespaces"][str(d.config.root)]
        assert ns["functions_checked"] > 0
        # A warm no-op reuses every function and checks none of them.
        assert done_of(client.verify())["warm"] is True
        after = client.status()["namespaces"][str(d.config.root)]
        assert after["functions_checked"] == ns["functions_checked"]


# ---------------------------------------------------------------------
# Ledger threading.
# ---------------------------------------------------------------------

class TestLedger:
    def test_each_request_appends_a_serve_record(self, daemon_factory,
                                                 tmp_path):
        project = make_project(tmp_path / "proj", studies=("queue",))
        ledger = tmp_path / "serve-ledger.jsonl"
        daemon, client = daemon_factory(project, ledger_path=ledger)
        client.verify()
        client.verify()
        records = [json.loads(line)
                   for line in ledger.read_text().splitlines()]
        assert [r["kind"] for r in records] == ["serve", "serve"]
        cold, warm = records
        assert cold["extra"]["warm"] is False
        assert warm["extra"]["warm"] is True
        assert warm["extra"]["rechecked"] == 0
        assert cold["extra"]["parsed"] == 1
        assert warm["extra"]["parsed"] == 0
        assert cold["suite"] == ["queue"]
        assert cold["extra"]["queue_wait_s"] >= 0
        assert cold["config"]["incremental"] is True
