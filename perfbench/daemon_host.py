#!/usr/bin/env python3
"""Host one ``repro.serve`` daemon for the benchmark (started by run.py).

    python3 perfbench/daemon_host.py --root PROJECT --jobs 2 [--spans-out F]

Imports the daemon, computes the engine fingerprint, starts the daemon
(which forks its forkserver before binding), prints one JSON line
``{"host", "port"}`` once it listens, and serves until a client sends
``shutdown``.  With ``--spans-out`` it records spans around the layer
entry points (perfbench/spans.py) and writes them to that file on exit.

Pool workers started by the forkserver import this file as their main
module, so everything but imports stays under the ``__main__`` guard.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--root", required=True)
    ap.add_argument("--jobs", type=int, required=True)
    ap.add_argument("--spans-out", default="")
    args = ap.parse_args(argv)
    sys.path.insert(0, str(SRC))

    import asyncio

    from repro.driver import engine_fingerprint
    from repro.serve import ServeConfig, VerifyDaemon

    recorder = None
    if args.spans_out:
        from spans import SpanRecorder
        recorder = SpanRecorder()
        recorder.install(daemon=True)
    engine_fingerprint()
    daemon = VerifyDaemon(ServeConfig(root=Path(args.root), jobs=args.jobs))

    async def serve() -> None:
        host, port = await daemon.start()
        print(json.dumps({"host": host, "port": port}), flush=True)
        await daemon.serve_forever()

    asyncio.run(serve())
    if recorder is not None:
        from spans import dump_spans
        dump_spans(args.spans_out, recorder.spans, recorder.missing)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
