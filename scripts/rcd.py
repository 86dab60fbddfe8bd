#!/usr/bin/env python3
"""The verification-daemon client CLI (README "Verification as a
service").

Run:  PYTHONPATH=src python scripts/rcd.py COMMAND ...

Commands:

* ``start``  — launch the daemon (detached by default; ``--foreground``
  to run in this process).  Binds an ephemeral port unless ``--port``
  is given and publishes its address in the state file
  (``<root>/.rc-serve.json``), which every other command reads.
* ``status`` — the daemon's live telemetry: uptime, queue depth and
  waits, warm-session batches/resets, per-namespace served units,
  function checks run (clean reuses are not checks) and rolling
  request-latency p50/p99.
* ``verify`` — verify case-study stems or ``.c`` paths through the
  daemon.  Incremental re-verification against the namespace's warm
  state is the *default* hot path; ``--full`` forces a cache-free run.
  Each unit and the total print the run counts of
  ``DriverMetrics.counts``: functions, clean / dirty, re-checked in
  this request, failures.
  ``--json`` writes the canonical per-function outcome map the CI
  serve-smoke job diffs against a batch run.
* ``watch``  — poll the watched files (mtime/sha) and feed each dirty
  set to the daemon as it appears: the edit-annotate-recheck loop.
* ``stop``   — graceful drain: queued requests finish, then the daemon
  exits and removes its state file.

Exit codes: 0 ok, 1 verification failure, 2 daemon/transport error.
"""

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.serve import (DaemonClient, DaemonError,      # noqa: E402
                         FileWatcher, ServeConfig, VerifyDaemon,
                         default_state_path, read_state)

EXIT_FAIL = 1
EXIT_DAEMON = 2

START_TIMEOUT_S = 30.0
STOP_TIMEOUT_S = 30.0


def _state_path(args) -> Path:
    if getattr(args, "state", None):
        return Path(args.state)
    return default_state_path(getattr(args, "root", None) or ".")


def _client(args, timeout: float = 600.0) -> DaemonClient:
    state = read_state(_state_path(args))
    if state is None:
        print(f"rcd: no daemon state at {_state_path(args)} "
              "(is the daemon running? start one with 'rcd start')",
              file=sys.stderr)
        raise SystemExit(EXIT_DAEMON)
    return DaemonClient.from_state(state, timeout=timeout)


# ---------------------------------------------------------------------
# start / stop / status
# ---------------------------------------------------------------------

def do_start(args) -> int:
    state_path = _state_path(args)
    existing = read_state(state_path)
    if existing is not None and DaemonClient.from_state(
            existing, timeout=3.0).ping():
        print(f"rcd: daemon already running at "
              f"{existing.host}:{existing.port} (pid {existing.pid})")
        return 0
    config = ServeConfig(
        root=Path(args.root), host=args.host, port=args.port,
        jobs=args.jobs,
        ledger_path=Path(args.ledger) if args.ledger else None,
        state_file=state_path)
    if args.foreground:
        import asyncio
        daemon = VerifyDaemon(config)

        async def _run():
            host, port = await daemon.start()
            print(f"rcd: serving on {host}:{port} "
                  f"(root {config.root}, jobs {config.jobs})",
                  flush=True)
            await daemon.serve_forever()

        try:
            asyncio.run(_run())
        except KeyboardInterrupt:
            pass
        return 0
    # Detach: re-exec ourselves in the foreground in a new session and
    # wait for the state file + a successful ping.
    cmd = [sys.executable, os.path.abspath(__file__), "start",
           "--foreground", "--root", str(args.root), "--host", args.host,
           "--port", str(args.port), "--jobs", str(args.jobs),
           "--state", str(state_path)]
    if args.ledger:
        cmd += ["--ledger", args.ledger]
    log = open(args.log, "ab") if args.log else subprocess.DEVNULL
    subprocess.Popen(cmd, stdout=log, stderr=subprocess.STDOUT,
                     stdin=subprocess.DEVNULL, start_new_session=True)
    deadline = time.monotonic() + START_TIMEOUT_S
    while time.monotonic() < deadline:
        state = read_state(state_path)
        if state is not None and DaemonClient.from_state(
                state, timeout=3.0).ping():
            print(f"rcd: daemon up at {state.host}:{state.port} "
                  f"(pid {state.pid}, state {state_path})")
            return 0
        time.sleep(0.2)
    print("rcd: daemon did not come up within "
          f"{START_TIMEOUT_S:.0f}s", file=sys.stderr)
    return EXIT_DAEMON


def do_stop(args) -> int:
    state_path = _state_path(args)
    state = read_state(state_path)
    if state is None:
        print(f"rcd: no daemon state at {state_path}; nothing to stop")
        return 0
    client = DaemonClient.from_state(state, timeout=STOP_TIMEOUT_S)
    try:
        reply = client.shutdown()
        print(f"rcd: draining ({reply.get('pending', 0)} queued "
              "request(s))")
    except DaemonError as exc:
        print(f"rcd: daemon unreachable ({exc}); removing stale state "
              "file")
        try:
            state_path.unlink()
        except OSError:
            pass
        return 0
    deadline = time.monotonic() + STOP_TIMEOUT_S
    while time.monotonic() < deadline:
        if not state_path.exists():
            print("rcd: daemon stopped")
            return 0
        time.sleep(0.2)
    print("rcd: daemon still shutting down (state file remains)",
          file=sys.stderr)
    return EXIT_DAEMON


def do_status(args) -> int:
    status = _client(args, timeout=10.0).status()
    if args.json:
        print(json.dumps(status, indent=2, sort_keys=True))
        return 0
    queue = status.get("queue", {})
    session = status.get("session")
    print(f"daemon pid {status.get('pid')} root {status.get('root')} "
          f"jobs {status.get('jobs')} uptime "
          f"{status.get('uptime_s', 0):.1f}s"
          f"{' DRAINING' if status.get('draining') else ''}")
    print(f"queue: depth {queue.get('depth', 0)}, served "
          f"{queue.get('served', 0)}, total wait "
          f"{queue.get('total_wait_s', 0.0):.3f}s (max "
          f"{queue.get('max_wait_s', 0.0):.3f}s)")
    if session:
        print(f"session: jobs {session['jobs']}, batches "
              f"{session['batches']}, tasks {session['tasks']}, resets "
              f"{session['resets']}")
    else:
        print("session: in-process (jobs=1, no warm pool)")
    for root, ns in status.get("namespaces", {}).items():
        print(f"namespace {root}: {ns['served']} unit run(s), "
              f"{ns['functions_checked']} function check(s), "
              f"{ns.get('memo_entries', 0)} memo entr(ies)")
        lat = ns.get("latency") or {}
        if lat.get("requests"):
            print(f"  latency: p50 {lat['p50_s'] * 1e3:.1f}ms, p99 "
                  f"{lat['p99_s'] * 1e3:.1f}ms over the last "
                  f"{lat['requests']} request(s)")
    if status.get("ledger"):
        print(f"ledger: {status['ledger']} "
              f"(rcstat --kind serve for trajectories)")
    return 0


# ---------------------------------------------------------------------
# verify / watch
# ---------------------------------------------------------------------

def _render_verify(events) -> tuple[dict, dict]:
    """Print the streamed events; return (files map, done summary).

    The files map is the canonical per-function outcome shape the CI
    serve-smoke job compares byte-for-byte against a batch run:
    ``{stem: {fn: {"ok", "error", "counters"}}}``."""
    files: dict = {}
    summary: dict = {}
    for ev in events:
        kind = ev.get("event")
        if kind == "function":
            files.setdefault(ev["unit"], {})[ev["name"]] = {
                "ok": ev["ok"],
                "error": ev.get("error", ""),
                "counters": ev.get("counters", {}),
            }
            if not ev["ok"]:
                print(f"  FAILED {ev['unit']}:{ev['name']}")
                if ev.get("stuck"):
                    print(ev["stuck"])
        elif kind == "unit":
            print(f"{ev['unit']}: {ev['functions']} function(s), "
                  f"{ev['clean']} clean / {ev['dirty']} dirty, "
                  f"{ev['rechecked']} re-checked "
                  f"{'ok' if ev['ok'] else 'FAILED'}")
        elif kind == "recovered":
            print(f"rcd: pool failure on {ev.get('unit')} "
                  f"({ev.get('message')}); retried serially")
        elif kind == "done":
            summary = ev
        elif kind == "error":
            raise DaemonError(ev.get("code", "error"),
                              ev.get("message", ""))
    return files, summary


def do_verify(args) -> int:
    client = _client(args)
    try:
        events = client.request("verify", _verify_params(args))
        files, summary = _render_verify(events)
    except DaemonError as exc:
        print(f"rcd: {exc}", file=sys.stderr)
        return EXIT_DAEMON
    if summary:
        print(f"total: {summary['functions']} function(s), "
              f"{summary['clean']} clean, {summary['rechecked']} "
              f"re-checked, {summary['failed']} failure(s) "
              f"[wall {summary['wall_s']:.3f}s, queue wait "
              f"{summary['queue_wait_s']:.3f}s, "
              f"{summary.get('read', 0)} source(s) read, "
              f"{summary.get('parsed', 0)} unit(s) parsed"
              f"{', warm' if summary.get('warm') else ''}]")
    if args.json_path:
        payload = {"files": files, "summary": summary}
        Path(args.json_path).write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n")
        print(f"wrote {args.json_path}")
    return 0 if summary.get("ok") else EXIT_FAIL


def _verify_params(args, paths=None) -> dict:
    params: dict = {}
    stems = paths if paths is not None else args.paths
    if stems:
        params["paths"] = [str(s) for s in stems]
    if args.root:
        params["root"] = str(Path(args.root).resolve())
    if args.jobs:
        params["jobs"] = args.jobs
    if getattr(args, "full", False):
        params["full"] = True
    return params


def do_watch(args) -> int:
    client = _client(args)
    root = Path(args.root or read_state(_state_path(args)).root)
    if args.paths:
        targets = []
        for s in args.paths:
            p = Path(s)
            if p.suffix != ".c":
                p = p.with_suffix(".c")
            if not p.is_absolute() and not (root / p).exists():
                p = root / "examples" / "casestudies" / p.name
            else:
                p = root / p if not p.is_absolute() else p
            targets.append(p)
    else:
        base = root / "examples" / "casestudies"
        base = base if base.is_dir() else root
        targets = sorted(base.glob("*.c"))
    if not targets:
        print("rcd: nothing to watch", file=sys.stderr)
        return EXIT_DAEMON
    print(f"rcd: watching {len(targets)} file(s) every "
          f"{args.interval:.2f}s (ctrl-c to stop)")
    watcher = FileWatcher(targets)
    ok = True
    if args.initial:
        ok = _watch_verify(client, args, [p.stem for p in targets])
    try:
        while True:
            time.sleep(args.interval)
            result = watcher.poll()
            for p in result.deleted:
                print(f"rcd: {p} deleted; dropped from dirty set")
            if result.changed:
                stems = [p.stem for p in result.changed]
                print(f"rcd: changed: {', '.join(stems)}")
                ok = _watch_verify(client, args, stems)
            if args.once:
                break
    except KeyboardInterrupt:
        print("rcd: watch stopped")
    return 0 if ok else EXIT_FAIL


def _watch_verify(client, args, stems) -> bool:
    try:
        events = client.request("verify", _verify_params(args, stems))
        _files, summary = _render_verify(events)
        return bool(summary.get("ok"))
    except DaemonError as exc:
        print(f"rcd: {exc}", file=sys.stderr)
        return False


# ---------------------------------------------------------------------

def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, root_default=None):
        p.add_argument("--root", default=root_default,
                       help="serve/namespace root (default: cwd or the "
                            "daemon's root)")
        p.add_argument("--state", default="",
                       help="daemon state file (default: "
                            "<root>/.rc-serve.json)")

    p = sub.add_parser("start", help="launch the daemon")
    common(p, root_default=".")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=0,
                   help="0 = ephemeral (published in the state file)")
    p.add_argument("--jobs", type=int, default=1,
                   help="warm worker-pool width (1 = in-process)")
    p.add_argument("--ledger", default="",
                   help="serve ledger path (default: $RC_LEDGER)")
    p.add_argument("--log", default="", help="daemon log file (detached)")
    p.add_argument("--foreground", action="store_true")
    p.set_defaults(func=do_start)

    p = sub.add_parser("status", help="daemon telemetry")
    common(p)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=do_status)

    p = sub.add_parser("verify", help="verify through the daemon")
    p.add_argument("paths", nargs="*",
                   help="case-study stems or .c paths (default: all)")
    common(p)
    p.add_argument("--jobs", type=int, default=0,
                   help="override the daemon's job count for this run")
    p.add_argument("--full", action="store_true",
                   help="cache-free full verification")
    p.add_argument("--json", dest="json_path", default="",
                   help="write canonical outcomes JSON to PATH")
    p.set_defaults(func=do_verify)

    p = sub.add_parser("watch", help="poll files, re-verify dirty sets")
    p.add_argument("paths", nargs="*")
    common(p)
    p.add_argument("--interval", type=float, default=0.5)
    p.add_argument("--jobs", type=int, default=0)
    p.add_argument("--initial", action="store_true",
                   help="verify everything once before watching")
    p.add_argument("--once", action="store_true",
                   help="poll a single time, then exit")
    p.set_defaults(func=do_watch, full=False)

    p = sub.add_parser("stop", help="drain and stop the daemon")
    common(p)
    p.set_defaults(func=do_stop)

    args = ap.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
