"""Process-tree helpers for the benchmark (Linux ``/proc``).

* :class:`RssSampler` measures the peak memory of the benchmark and of
  every process it started.  A helper process samples, so the benchmark
  itself runs no extra thread;
* :func:`reap` stops every descendant still alive when a run ends.

Run as a script, this file is that helper:
``procs.py ROOT_PID INTERVAL_S`` samples until a line arrives on its
stdin or ROOT_PID exits, then prints ``{"peak_kb": N}``.
"""

from __future__ import annotations

import json
import os
import select
import signal
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path


def _children() -> dict[int, list[int]]:
    """Parent pid → live (non-zombie) child pids."""
    out: dict[int, list[int]] = defaultdict(list)
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat", "rb") as fh:
                raw = fh.read()
        except OSError:
            continue
        # The command name may hold spaces and parentheses: the state
        # and the parent pid are the first fields after its last ')'.
        fields = raw[raw.rfind(b")") + 2:].split()
        if len(fields) > 1 and fields[0] != b"Z":
            out[int(fields[1])].append(int(name))
    return out


def descendants(pid: int) -> list[int]:
    tree = _children()
    out: list[int] = []
    todo = list(tree.get(pid, ()))
    while todo:
        p = todo.pop()
        out.append(p)
        todo.extend(tree.get(p, ()))
    return out


def _hwm_kb(pid: int) -> int:
    """Peak resident set size of one process (``VmHWM``); 0 once gone."""
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def tree_peak_kb(root: int, skip: int) -> int:
    """Sum of the per-process peak RSS of ``root`` and its live
    descendants, leaving out ``skip`` (the sampler itself)."""
    return sum(_hwm_kb(p) for p in [root] + descendants(root) if p != skip)


class RssSampler:
    """Peak, from construction to :meth:`stop`, of the summed per-process
    peak RSS over this process and its live descendants.  Pool workers
    of successive batch passes are never alive together, so each pass's
    pool counts once."""

    def __init__(self, interval_s: float = 0.2) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()),
             str(os.getpid()), str(interval_s)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def stop(self) -> int:
        """Stop sampling; the peak in kB.  Stopping writes a line rather
        than closing the pipe: forked pool workers share its write end."""
        self.proc.stdin.write("stop\n")
        self.proc.stdin.close()
        out = self.proc.stdout.read()
        self.proc.wait(timeout=30)
        return int(json.loads(out)["peak_kb"])


def reap(root: int, timeout_s: float = 10.0) -> list[int]:
    """Terminate every live descendant of ``root`` and wait until all are
    gone (SIGTERM, then SIGKILL).  Returns the pids that survived."""
    left = descendants(root)
    for sig in (signal.SIGTERM, signal.SIGKILL):
        if not left:
            break
        for pid in left:
            try:
                os.kill(pid, sig)
            except OSError:
                pass
        deadline = time.monotonic() + timeout_s / 2
        while left and time.monotonic() < deadline:
            time.sleep(0.05)
            left = descendants(root)
    return left


def _sample(root: int, interval_s: float) -> int:
    me = os.getpid()
    peak = 0
    while True:
        peak = max(peak, tree_peak_kb(root, me))
        ready, _, _ = select.select([sys.stdin], [], [], interval_s)
        if ready or not os.path.exists(f"/proc/{root}"):
            return max(peak, tree_peak_kb(root, me))


if __name__ == "__main__":
    print(json.dumps({"peak_kb": _sample(int(sys.argv[1]),
                                         float(sys.argv[2]))}))
