"""The verification daemon: a warm driver behind an asyncio HTTP front.

One long-lived process holds everything the batch CLI re-builds per
invocation: the worker :class:`~repro.driver.PoolSession` (process pool
+ per-worker, content-addressed memos of the pickled programs the
parent ships them), the interned-term and pure-solver caches those
workers accumulate, and the parsed incremental planner state per
project namespace.  Requests then pay
only for what actually changed — the paper's edit-annotate-recheck loop
at interactive latency.

Architecture (see DESIGN.md "Verification as a service"):

* the **accept loop** parses one ``POST /rpc`` per connection and
  answers with a streamed NDJSON event body (:mod:`.protocol`);
* ``verify`` requests are admitted to the FIFO :class:`~.queue
  .RequestQueue` and executed one at a time by the **worker loop** —
  the warm pool is a single shared resource, and serialization is what
  keeps multi-tenant results deterministic;
* each request is **one driver call** over all its units, streamed
  back unit by unit in request order as the driver finishes them; the
  connection handler writes every event batch that is ready when it
  wakes in one socket write (:class:`~.queue.EventStream`);
* each project root is a :class:`Namespace` with its own ``.rc-cache``
  result cache, ``depgraph.json`` planner state, and an in-memory memo
  of the parsed planner state and, per unit, the elaborated program and
  the last reuse plan, so tenants never read each other's caches;
* a pool-level failure mid-request triggers **poisoned-pool recovery**:
  ``session.reset()`` plus a serial in-process retry of the units not
  yet streamed (the same fallback the fuzz oracle uses), so one crashed
  worker never fails the request, let alone the daemon;
* ``shutdown`` **drains**: new verify requests are refused with a
  structured ``draining`` error, queued ones finish, then the server
  stops and removes its state file.

Observability: every served verify request appends one ``kind=serve``
ledger record (:mod:`repro.obs.ledger`) carrying queue wait, warm-pool
telemetry (session batches/resets), the per-unit run counts of
:meth:`~repro.driver.metrics.DriverMetrics.counts` and per-function
walls — ``rcstat --kind serve`` then shows the
daemon-vs-batch trajectory next to every other run kind.  ``status``
reports each namespace's request-latency p50/p99 over its last
:data:`LATENCY_WINDOW` verify requests.
"""

from __future__ import annotations

import asyncio
import json
import math
import multiprocessing
import os
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

from ..driver.metrics import DriverMetrics
from ..driver.pool import PoolSession
from ..frontend import verify_files
from ..obs.ledger import ledger_env_path, record_run
from .protocol import (E_DRAINING, E_HTTP, E_INTERNAL, E_PARAMS,
                       E_TOO_LARGE, MAX_BODY_BYTES, PROTOCOL_VERSION,
                       ProtocolError, Request, encode_event, event,
                       parse_request)
from .queue import RequestQueue

#: wall-clock budget for reading one request off a connection
REQUEST_READ_TIMEOUT_S = 30.0

#: default daemon state-file name, written under the serve root
STATE_FILE_NAME = ".rc-serve.json"

#: the latest requests per namespace whose latencies ``status``
#: summarises
LATENCY_WINDOW = 256


@dataclass
class ServeConfig:
    """Daemon knobs, resolved once at startup."""

    root: Path = Path(".")
    host: str = "127.0.0.1"
    port: int = 0                  # 0 = ephemeral, resolved on bind
    jobs: int = 1                  # worker-pool width; 1 = in-process
    cache_name: str = ".rc-cache"  # per-namespace cache dir name
    ledger_path: Optional[Path] = None   # None: defer to RC_LEDGER
    state_file: Optional[Path] = None    # None: <root>/.rc-serve.json

    def resolved_state_file(self) -> Path:
        if self.state_file is not None:
            return Path(self.state_file)
        return Path(self.root) / STATE_FILE_NAME


@dataclass
class Namespace:
    """One tenant: a project root with isolated caches and telemetry.

    ``state_cache`` memoises the parsed incremental planner state
    (:func:`repro.driver.incremental.load_state_cached`) and, per unit
    stem, a :class:`~repro.driver.incremental.UnitMemo`: source text,
    sha and stat signature, program, dependency graph, the unit's
    planner-state object and, when every function was reused clean, the
    reuse plan.  A warm request opens only the sources whose stat
    signature moved (or that were too fresh to trust it), re-reads
    ``depgraph.json`` only when some other process moved it, writes it
    only when some unit's state changed, re-parses
    and re-elaborates only the units whose text changed, and serves a
    unit from its reuse plan — no planning, no result-cache read — only
    while the planner state still holds the very object the memo
    recorded.  The memo holds at most one entry per file of the
    namespace; ``reset`` empties it.

    ``unit_lines`` keeps, per unit stem, the encoded ``function`` and
    ``unit`` lines of the unit's last report and its run counts, next to
    the :class:`~repro.driver.metrics.DriverMetrics` object they were
    encoded from.  A request whose driver call hands back that very
    object (a memo-served unit's replayed outcome) sends the kept bytes
    instead of encoding them again; ``reset`` drops them with the memo.

    ``latencies`` holds the last :data:`LATENCY_WINDOW` verify requests'
    latencies: queue wait plus the request's wall, admission to
    ``done``."""

    root: Path
    cache_dir: Path
    state_cache: dict = field(default_factory=dict)
    unit_lines: dict = field(default_factory=dict)
    # (directory, file names, their Paths) of the last default request
    default_targets: tuple = (None, None, None)
    served: int = 0
    functions_checked: int = 0    # checks run, clean reuses excluded
    latencies: deque = field(
        default_factory=lambda: deque(maxlen=LATENCY_WINDOW))

    def latency(self) -> dict:
        """Nearest-rank p50/p99 of the latency window, in seconds
        (``None`` before the first request)."""
        window = sorted(self.latencies)

        def rank(q: float):
            if not window:
                return None
            return round(window[math.ceil(q * len(window)) - 1], 6)

        return {"requests": len(window), "p50_s": rank(0.50),
                "p99_s": rank(0.99)}

    @property
    def default_dir(self) -> Path:
        """Where bare stems resolve: the Figure-7 case-study directory
        when the root carries one, else the root itself."""
        cand = self.root / "examples" / "casestudies"
        return cand if cand.is_dir() else self.root


class _UnitStream:
    """One verify request's unit stream: the driver's per-unit callback.

    Units arrive as the driver finishes them; each is emitted (its
    ``function`` events, then its ``unit`` event) once every unit before
    it in request order has been, so a unit that finishes early waits in
    ``finished``.  Every unit one callback releases goes to ``emit`` as
    one list of encoded lines.  A unit's lines are encoded once per
    ``DriverMetrics`` object and kept in ``lines`` (the namespace's
    ``unit_lines``) with the unit's counts, so a replayed outcome sends
    the kept bytes and adds the kept counts to ``totals``.  ``read``
    counts the units whose source bytes were read and ``parsed`` those
    that went through the front end again (each outcome's own ``read``
    and ``parsed``)."""

    def __init__(self, targets: list[Path], lines: dict,
                 emit: Callable[[list[bytes]], None]) -> None:
        self.order = [p.stem for p in targets]
        self.lines = lines
        self.emit = emit
        self.finished: dict = {}
        self.metrics: list = []
        self.totals = DriverMetrics().counts()
        self.ok = True
        self.read = 0
        self.parsed = 0

    def __call__(self, stem: str, out) -> None:
        self.finished[stem] = out
        lines: list[bytes] = []
        while len(self.metrics) < len(self.order) and \
                self.order[len(self.metrics)] in self.finished:
            lines.append(self._publish(
                self.finished[self.order[len(self.metrics)]]))
        if lines:
            self.emit(lines)

    def _publish(self, out) -> bytes:
        stem, m = out.study, out.metrics
        self.read += out.read
        self.parsed += out.parsed
        self.metrics.append(m)
        self.ok = self.ok and out.ok
        kept = self.lines.get(stem)
        if kept is None or kept[0] is not m:
            counts = m.counts()
            kept = (m, b"".join(encode_event(ev)
                                for ev in self._events(out, counts)),
                    counts)
            self.lines[stem] = kept
        for key, n in kept[2].items():
            self.totals[key] += n
        return kept[1]

    @staticmethod
    def _events(out, counts: dict) -> list[dict]:
        """The unit's ``function`` events, then its ``unit`` event.  The
        unit's ``wall_s`` sums its live (non-clean) function walls, so a
        unit's lines do not depend on what else the request held."""
        stem, m = out.study, out.metrics
        events = []
        for fm in m.functions:
            ev = event("function", unit=stem, name=fm.name, ok=fm.ok,
                       cache=fm.cache, wall_s=round(fm.wall_s, 6),
                       counters=fm.counters)
            if not fm.ok:
                fr = out.result.functions[fm.name]
                ev["error"] = fr.format_error()
                stuck = getattr(fr.error, "stuck", None)
                if stuck is not None:
                    ev["stuck"] = stuck.render()
            events.append(ev)
        live_s = sum(fm.wall_s for fm in m.functions if fm.cache != "clean")
        events.append(event("unit", unit=stem, ok=out.ok,
                            wall_s=round(live_s, 6), **counts))
        return events


class VerifyDaemon:
    """The serve daemon.  ``asyncio.run(daemon.serve_forever())`` in the
    CLI; tests drive :meth:`start`/:meth:`request_stop` directly."""

    def __init__(self, config: Optional[ServeConfig] = None) -> None:
        self.config = config or ServeConfig()
        self.config.root = Path(self.config.root).resolve()
        self.queue = RequestQueue()
        self.namespaces: dict[str, Namespace] = {}
        self.draining = False
        self.requests_served = 0
        self.pool_recoveries = 0
        self.host = self.config.host
        self.port = self.config.port
        self.ledger_target = (Path(self.config.ledger_path)
                              if self.config.ledger_path is not None
                              else ledger_env_path())
        self._session: Optional[PoolSession] = None
        # The running request's unit stream (requests run one at a time).
        self._on_unit: Optional[_UnitStream] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._worker_task: Optional[asyncio.Task] = None
        self._stopped: Optional[asyncio.Event] = None
        self._t0 = time.monotonic()
        self._started_at = time.time()

    # ------------------------------------------------------------
    # Lifecycle.
    # ------------------------------------------------------------

    @staticmethod
    def _pool_context():
        """The multiprocessing context for the daemon's pool.

        Plain ``fork`` (the batch driver's default) is wrong here:
        workers forked mid-request would inherit the accepted
        connection's file descriptor, and the client would never see
        EOF on its event stream — the parent's close leaves the socket
        open in every worker.  ``forkserver`` forks workers from a
        helper process started *before* the listening socket exists,
        so no worker ever holds a connection fd."""
        if "forkserver" in multiprocessing.get_all_start_methods():
            return multiprocessing.get_context("forkserver")
        return None   # driver default (Windows/macOS spawn: no fd leak)

    def session(self) -> Optional[PoolSession]:
        """The warm worker pool, created lazily; ``None`` at jobs=1
        (the serial in-process path needs no pool to keep warm)."""
        if self.config.jobs <= 1:
            return None
        if self._session is None:
            self._session = PoolSession(self.config.jobs,
                                        mp_context=self._pool_context())
        return self._session

    async def start(self) -> tuple[str, int]:
        if self._pool_context() is not None:
            # Fork the helper process now, while the only open fds are
            # inherited std streams — see _pool_context.  Preload the
            # worker module instead of the default __main__: re-running
            # the daemon entry script inside the helper is never wanted.
            from multiprocessing import forkserver
            multiprocessing.set_forkserver_preload(["repro.driver.pool"])
            forkserver.ensure_running()
        self._stopped = asyncio.Event()
        self._server = await asyncio.start_server(
            self._handle_conn, host=self.config.host,
            port=self.config.port)
        sock = self._server.sockets[0]
        self.host, self.port = sock.getsockname()[:2]
        self._worker_task = asyncio.create_task(self._worker_loop())
        self._write_state_file()
        return self.host, self.port

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        assert self._stopped is not None
        try:
            await self._stopped.wait()
        finally:
            await self._shutdown_now()

    def request_stop(self) -> None:
        """Stop the daemon (idempotent; safe from handler tasks)."""
        if self._stopped is not None:
            self._stopped.set()

    async def _shutdown_now(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        if self._worker_task is not None:
            self._worker_task.cancel()
            try:
                await self._worker_task
            except (asyncio.CancelledError, Exception):
                pass
            self._worker_task = None
        if self._session is not None:
            self._session.close()
            self._session = None
        try:
            self.config.resolved_state_file().unlink()
        except OSError:
            pass

    def _write_state_file(self) -> None:
        payload = {
            "protocol": PROTOCOL_VERSION,
            "host": self.host,
            "port": self.port,
            "pid": os.getpid(),
            "root": str(self.config.root),
            "started": self._started_at,
        }
        path = self.config.resolved_state_file()
        path.write_text(json.dumps(payload, indent=2, sort_keys=True)
                        + "\n")

    # ------------------------------------------------------------
    # Connection handling.
    # ------------------------------------------------------------

    async def _handle_conn(self, reader: asyncio.StreamReader,
                           writer: asyncio.StreamWriter) -> None:
        try:
            try:
                body = await asyncio.wait_for(
                    self._read_http(reader),
                    timeout=REQUEST_READ_TIMEOUT_S)
                request = parse_request(body)
            except ProtocolError as exc:
                await self._respond(writer, [exc.to_event()],
                                    status=exc.http_status)
                # Drain whatever the client is still sending (e.g. the
                # rest of an oversized body) before closing, so it can
                # read the structured error instead of seeing a reset.
                await self._discard(reader)
                return
            except (asyncio.IncompleteReadError, asyncio.TimeoutError,
                    ConnectionError):
                return
            await self._dispatch(request, writer)
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _read_http(self, reader: asyncio.StreamReader) -> bytes:
        line = await reader.readline()
        if not line:
            raise ProtocolError(E_HTTP, "empty request")
        parts = line.decode("latin-1", "replace").split()
        if len(parts) != 3 or parts[0] != "POST":
            raise ProtocolError(E_HTTP,
                                "expected 'POST /rpc HTTP/1.1', got "
                                f"{line.decode('latin-1', 'replace')!r}",
                                http_status=405)
        length: Optional[int] = None
        for _ in range(100):
            raw = await reader.readline()
            if raw in (b"\r\n", b"\n", b""):
                break
            name, _, value = raw.decode("latin-1", "replace").partition(":")
            if name.strip().lower() == "content-length":
                try:
                    length = int(value.strip())
                except ValueError:
                    raise ProtocolError(E_HTTP, "bad Content-Length")
        else:
            raise ProtocolError(E_HTTP, "too many headers")
        if length is None:
            raise ProtocolError(E_HTTP, "Content-Length required",
                                http_status=411)
        if length > MAX_BODY_BYTES:
            # Refuse before reading: an oversized body never reaches the
            # JSON parser, let alone the queue.
            raise ProtocolError(E_TOO_LARGE,
                                f"request body {length} bytes exceeds "
                                f"limit {MAX_BODY_BYTES}", http_status=413)
        return await reader.readexactly(length)

    @staticmethod
    async def _discard(reader: asyncio.StreamReader,
                       limit: int = 64 << 20) -> None:
        try:
            while limit > 0:
                chunk = await asyncio.wait_for(
                    reader.read(min(1 << 16, limit)), timeout=5.0)
                if not chunk:
                    return
                limit -= len(chunk)
        except (asyncio.TimeoutError, ConnectionError, OSError):
            return

    @staticmethod
    def _response_head(status: int) -> bytes:
        reasons = {200: "OK", 400: "Bad Request", 405: "Method Not "
                   "Allowed", 411: "Length Required",
                   413: "Payload Too Large"}
        return (f"HTTP/1.1 {status} {reasons.get(status, 'Error')}\r\n"
                "Content-Type: application/x-ndjson\r\n"
                "Connection: close\r\n\r\n").encode()

    @staticmethod
    async def _write(writer: asyncio.StreamWriter, data: bytes) -> None:
        """The one way response bytes leave the daemon: one write, one
        drain, however many NDJSON lines ``data`` holds."""
        writer.write(data)
        await writer.drain()

    async def _respond(self, writer: asyncio.StreamWriter,
                       events: list[dict], status: int = 200) -> None:
        await self._write(writer, self._response_head(status) + b"".join(
            encode_event(ev) for ev in events))

    async def _dispatch(self, request: Request,
                        writer: asyncio.StreamWriter) -> None:
        if request.method == "status":
            await self._respond(writer, [self.status_payload()])
            return
        if request.method == "reset":
            await self._respond(writer, [self._do_reset()])
            return
        if request.method == "shutdown":
            pending = self.queue.depth
            self.draining = True
            asyncio.create_task(self._drain_then_stop())
            await self._respond(writer, [event("shutting-down",
                                               pending=pending)])
            return
        # verify
        if self.draining:
            err = ProtocolError(E_DRAINING,
                                "daemon is draining; request refused",
                                http_status=200)
            await self._respond(writer, [err.to_event()])
            return
        position = self.queue.depth
        ticket = self.queue.admit(request)
        sendable = True
        try:
            await self._respond(writer, [event("queued", position=position,
                                               request=ticket.seq)])
        except (ConnectionError, OSError):
            sendable = False
        closed = False
        while not closed:
            # Every batch the worker put since the last wake-up.
            data, closed = await ticket.stream.take()
            if not sendable or not data:
                continue          # nothing new, or the client went away
            try:
                await self._write(writer, data)
            except (ConnectionError, OSError):
                sendable = False

    async def _drain_then_stop(self) -> None:
        await self.queue.join()
        self.request_stop()

    def _do_reset(self) -> dict:
        """Drop every warm layer: the pool and the per-namespace memo of
        planner state and elaborated programs.  On-disk caches survive
        (they are content-addressed); the next request rebuilds warmth
        from them."""
        if self._session is not None:
            self._session.reset()
        for ns in self.namespaces.values():
            ns.state_cache.clear()
            ns.unit_lines.clear()
        return event("reset-done")

    # ------------------------------------------------------------
    # The worker loop: one verify request at a time.
    # ------------------------------------------------------------

    async def _worker_loop(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            ticket = await self.queue.get()
            wait = ticket.start()
            emit = ticket.stream.put
            emit([event("start", queue_wait_s=round(wait, 6))])
            try:
                await loop.run_in_executor(
                    None, self._execute_verify, ticket.request.params,
                    wait, emit)
            except ProtocolError as exc:
                emit([exc.to_event()])
            except Exception as exc:   # noqa: BLE001 — daemon must live
                emit([event("error", code=E_INTERNAL,
                            message=f"{type(exc).__name__}: {exc}")])
            finally:
                # The executor thread is done: every line it put is in
                # the buffer ahead of the end of the stream.
                ticket.stream.close()
                self.queue.done(ticket)
                self.requests_served += 1

    # ------------------------------------------------------------
    # Verification proper (executor thread).
    # ------------------------------------------------------------

    def _namespace(self, root_param: Optional[str]) -> Namespace:
        # The daemon root was resolved at start-up.
        root = Path(root_param).resolve() if root_param \
            else self.config.root
        if not root.is_dir():
            raise ProtocolError(E_PARAMS,
                                f"namespace root {root} is not a "
                                "directory")
        key = str(root)
        ns = self.namespaces.get(key)
        if ns is None:
            ns = Namespace(root=root,
                           cache_dir=root / self.config.cache_name)
            self.namespaces[key] = ns
        return ns

    def _resolve_targets(self, ns: Namespace,
                         paths_param) -> list[Path]:
        if not paths_param:
            # One scandir pass.  In one directory, ordering by name is
            # the path order, without the cost of comparing Path objects;
            # the last request's Paths serve while the names are the same.
            where = ns.default_dir
            with os.scandir(where) as entries:
                names = sorted(e.name for e in entries
                               if e.name.endswith(".c") and e.is_file())
            if not names:
                raise ProtocolError(E_PARAMS,
                                    f"no .c files under {where}")
            if ns.default_targets[:2] != (where, names):
                ns.default_targets = (where, names,
                                      [where / name for name in names])
            return ns.default_targets[2]
        # A unit is named by its stem in the one driver call.
        out: dict[str, Path] = {}
        for raw in paths_param:
            p = Path(raw)
            if p.suffix != ".c":
                p = p.with_suffix(".c")
            if p.is_absolute():
                cand = p
            else:
                direct = ns.root / p
                cand = direct if direct.exists() else ns.default_dir / p.name
            cand = cand.resolve()
            if not cand.is_relative_to(ns.root):
                raise ProtocolError(E_PARAMS,
                                    f"{raw!r} resolves outside the "
                                    f"namespace root {ns.root}")
            if not cand.is_file():
                raise ProtocolError(E_PARAMS, f"no such file: {cand}")
            other = out.setdefault(cand.stem, cand)
            if other != cand:
                raise ProtocolError(E_PARAMS,
                                    f"{other} and {cand} share the unit "
                                    f"name {cand.stem!r}")
        return list(out.values())

    def _run_verify(self, paths: list[Path], ns: Namespace, jobs: int,
                    session: Optional[PoolSession], full: bool) -> dict:
        """The request's one driver call — split out so tests can inject
        pool failures and observe the recovery path.  Each unit is
        handed to the request's stream as soon as it is checked."""
        return verify_files(
            paths, jobs=jobs,
            cache_dir=None if full else ns.cache_dir, session=session,
            state_cache=None if full else ns.state_cache,
            ledger=False, on_unit=self._on_unit)

    def _execute_verify(self, params: dict, queue_wait_s: float,
                        emit: Callable[[list], None]) -> None:
        ns = self._namespace(params.get("root"))
        targets = self._resolve_targets(ns, params.get("paths"))
        jobs = int(params.get("jobs") or self.config.jobs)
        full = bool(params.get("full", False))
        session = self.session() if jobs > 1 else None

        t0 = time.perf_counter()
        stream = _UnitStream(targets, ns.unit_lines, emit)
        recovered = 0
        # One driver call for the whole request: every unit is planned
        # once and the dirty functions of all units share one pool
        # batch; the stream still reports each unit, in request order,
        # as soon as it is done.  A pool failure resets the session and
        # retries serially only the units not yet streamed.
        self._on_unit = stream
        try:
            try:
                self._run_verify(targets, ns, jobs, session, full)
            except Exception as exc:   # noqa: BLE001 — poisoned pool
                rest = [p for p in targets if p.stem not in stream.finished]
                recovered = len(rest)
                self.pool_recoveries += 1
                if session is not None:
                    session.reset()
                emit([event("recovered", unit=path.stem,
                            message=f"{type(exc).__name__}: {exc}",
                            retry="serial") for path in rest])
                self._run_verify(rest, ns, 1, None, full)
        finally:
            self._on_unit = None
        wall = time.perf_counter() - t0
        ns.latencies.append(queue_wait_s + wall)
        ns.served += len(stream.metrics)
        totals = stream.totals
        ns.functions_checked += totals["rechecked"]
        warm = totals["functions"] > 0 and totals["rechecked"] == 0
        summary = dict(ok=stream.ok, wall_s=round(wall, 6),
                       queue_wait_s=round(queue_wait_s, 6), warm=warm,
                       namespace=str(ns.root), jobs=jobs,
                       recovered=recovered, read=stream.read,
                       parsed=stream.parsed,
                       files=len(stream.metrics), **totals)
        if session is not None:
            summary["session"] = {"jobs": session.jobs,
                                  "batches": session.batches,
                                  "tasks": session.tasks,
                                  "resets": session.resets}
        emit([event("done", **summary)])
        self._ledger_record(summary, stream.metrics, jobs, wall, full)

    def _ledger_record(self, summary: dict, metrics: list, jobs: int,
                       wall: float, full: bool) -> None:
        if self.ledger_target is None:
            return
        extra = {k: summary[k] for k in
                 ("queue_wait_s", "warm", "clean", "dirty", "rechecked",
                  "recovered", "parsed", "namespace")}
        extra["units"] = {m.study: m.counts() for m in metrics}
        extra["session_batches"] = (summary.get("session") or {}) \
            .get("batches", 0)
        extra["session_resets"] = (summary.get("session") or {}) \
            .get("resets", 0)
        record_run("serve", wall_s=wall, jobs=jobs, metrics=metrics,
                   suite=[m.study for m in metrics], extra=extra,
                   config_extra={"result_cache": not full,
                                 "incremental": not full},
                   path=self.ledger_target)

    # ------------------------------------------------------------
    # Status.
    # ------------------------------------------------------------

    def status_payload(self) -> dict:
        session_block = None
        if self._session is not None:
            session_block = {"jobs": self._session.jobs,
                             "batches": self._session.batches,
                             "tasks": self._session.tasks,
                             "resets": self._session.resets}
        return event(
            "status", protocol=PROTOCOL_VERSION, pid=os.getpid(),
            root=str(self.config.root), jobs=self.config.jobs,
            uptime_s=round(time.monotonic() - self._t0, 3),
            draining=self.draining, queue=self.queue.stats(),
            requests_served=self.requests_served,
            pool_recoveries=self.pool_recoveries,
            namespaces={key: {"served": ns.served,
                              "functions_checked": ns.functions_checked,
                              "memo_entries": len(ns.state_cache),
                              "cache_dir": str(ns.cache_dir),
                              "latency": ns.latency()}
                        for key, ns in sorted(self.namespaces.items())},
            session=session_block,
            ledger=str(self.ledger_target)
            if self.ledger_target is not None else None)
