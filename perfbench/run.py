#!/usr/bin/env python3
"""The layered benchmark of the RefinedC checker.

Run from the root of a checkout::

    python3 perfbench/run.py --workload fig7_cold --seed 1 --seconds 20 --trace 0

It drives the checker only through its public entry points,
``repro.frontend.verify_files`` and the ``repro.serve`` daemon through
``DaemonClient``, on one of three workloads (``perfbench/workloads.json``
records their sizes, loop type, seeds and why each was chosen):

* ``fig7_cold``: the 14 case studies, verified back-to-back as cold
  batch passes;
* ``gen_corpus_cold``: seeded generated programs plus those of their
  designed-unsound mutants whose UB witness fires on the Caesium
  machine, one batch call per pass;
* ``serve_edit_loop``: one daemon over the case studies plus generated
  units; one client repeats an edit-then-verify request followed by two
  no-op verify requests.

Every verdict is checked against a known answer: case studies and
generated programs must be accepted, witnessed mutants rejected.  An
operation fails on a wrong verdict, a daemon ``error`` or ``recovered``
event, a pool session reset, or a no-op request that re-checks anything.

``--trace 0`` measures the end-to-end metrics with no span recorded.
``--trace 1`` alternates untraced and traced operations in one session,
prints the layer table, and reports the per-layer metrics plus the
tracing overhead between the two kinds of operation.  The last stdout
line is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics`` (named, with units, as in ``BENCHMARK.json``).  See
perfbench/README.md.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import random
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Optional

import layers
import procs
from spans import SpanRecorder, load_spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CASESTUDIES = ROOT / "examples" / "casestudies"
WORK = HERE / "_work"

#: request kinds of one serve_edit_loop cycle.  An edit is followed by
#: two no-op re-checks, so the median request lies inside the no-op
#: distribution and the p90 inside the edit one, never between the two.
SERVE_CYCLE = ("edit", "noop", "noop")

#: at least this many timed operations, however long they take
MIN_OPS = 3

#: a daemon or set-up probe that has not answered by then is broken
CHILD_TIMEOUT_S = 120.0

#: seconds :func:`_calibration_work` takes at the reference CPU speed
CALIBRATION_REF_S = 0.02


# ---------------------------------------------------------------------
# Inputs.  Everything is drawn from --seed; the checker sees only files.
# ---------------------------------------------------------------------

def _studies(size: dict) -> list[str]:
    from repro.report import EXTRA_STUDIES, FIGURE7_STUDIES
    if size["studies"] == "all":
        return [stem for stem, _cls in FIGURE7_STUDIES + EXTRA_STUDIES]
    return list(size["studies"])


def _copy_studies(stems: list[str], dest: Path) -> list[Path]:
    out = []
    for stem in stems:
        path = dest / f"{stem}.c"
        shutil.copyfile(CASESTUDIES / f"{stem}.c", path)
        out.append(path)
    return out


def _draw(seed: int, index: int):
    """Program ``index`` of the seeded draw, stratified by template
    (index ``i`` uses template ``i mod 10``): the seed picks every
    parameter, while the mix of templates, and with it the amount of
    work, stays the same from seed to seed."""
    from repro.fuzz.generator import DEFAULT_TEMPLATES, generate_program
    template = DEFAULT_TEMPLATES[index % len(DEFAULT_TEMPLATES)]
    return generate_program(seed, index, templates=[template])


def _corpus(seed: int, programs: int, dest: Path) -> dict[Path, bool]:
    """``programs`` generated programs (to accept) and every mutant of
    theirs whose UB witness fires on the Caesium machine (to reject): the
    machine, not the checker, is the reference for a rejection."""
    from repro.fuzz.oracle import run_witness
    from repro.lang.elaborate import elaborate_source
    expected: dict[Path, bool] = {}
    for i in range(programs):
        prog = _draw(seed, i)
        path = dest / f"gen{i:03d}.c"
        path.write_text(prog.source)
        expected[path] = True
        for j, mutant in enumerate(prog.mutants):
            if not mutant.has_witness:
                continue
            try:
                tp = elaborate_source(mutant.source)
            except Exception:   # noqa: BLE001 — refused by the front end:
                continue        # then it is no input for the checker
            if run_witness(prog.template, mutant.name, prog.params,
                           tp) is None:
                continue
            path = dest / f"gen{i:03d}_m{j}.c"
            path.write_text(mutant.source)
            expected[path] = False
    return expected


class EditStream:
    """Seeded edits of a serve project.  Each regenerates one generated
    unit with a fresh draw from the unit's own template, so the project
    keeps its template mix, and never with the unit's current text (an
    unchanged file would make the edit a no-op).  Units of templates
    with a single text (``spinlock``) are never picked."""

    def __init__(self, seed: int, units: dict[str, tuple[str, str]]) -> None:
        self.seed = seed
        self.units = units
        self.rng = random.Random(f"perfbench-edit:{seed}")
        self.draw = len(units)
        self.stems = sorted(stem for stem, (template, _) in units.items()
                            if template != "spinlock")

    def next(self) -> tuple[str, str]:
        from repro.fuzz.generator import generate_program
        stem = self.stems[self.rng.randrange(len(self.stems))]
        template, current = self.units[stem]
        while True:
            source = generate_program(self.seed, self.draw,
                                      templates=[template]).source
            self.draw += 1
            if source != current:
                self.units[stem] = (template, source)
                return stem, source


# ---------------------------------------------------------------------
# CPU speed.
# ---------------------------------------------------------------------

def _calibration_work() -> int:
    """A fixed unit of pure-Python work of the kind the checker does:
    dict and tuple churn, hashing, small lists and a few MB of small
    objects."""
    table: dict = {}
    acc = 0
    for i in range(4000):
        key = (i % 251, i % 17, i & 7)
        table[key] = table.get(key, 0) + i
        acc += len([j for j in range(i % 16)])
    nodes = [(i, str(i), (i, i + 1)) for i in range(20000)]
    return acc + sum(n[0] for n in nodes[::7])


class Speed:
    """CPU-speed samples taken between operations.

    The single-thread speed of a shared virtual machine drifts by tens of
    percent over minutes.  Every end-to-end time is scaled by the
    calibration samples taken nearest to it (``factor``), which reports
    it at the reference speed, so that runs taken at different moments
    compare.  Raw times are printed and kept in the report."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []

    def sample(self) -> None:
        t0 = time.perf_counter()
        _calibration_work()
        self.samples.append((t0, time.perf_counter() - t0))

    def factor(self, at: float, k: int = 7) -> float:
        near = sorted(self.samples, key=lambda s: abs(s[0] - at))[:k]
        return CALIBRATION_REF_S / statistics.median(c for _, c in near)


@dataclass
class Run:
    """Everything one invocation measured."""

    ops: list[layers.Op] = field(default_factory=list)
    speed: Speed = field(default_factory=Speed)
    setup: list[float] = field(default_factory=list)
    setup_at: list[float] = field(default_factory=list)
    setup_parts: list[dict] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)   # set-up, warm-up
    certs: list[dict] = field(default_factory=list)
    peak_kb: int = 0
    inputs: dict = field(default_factory=dict)
    missing_spans: list[str] = field(default_factory=list)


# ---------------------------------------------------------------------
# Children.
# ---------------------------------------------------------------------

def _read_line(proc: subprocess.Popen, timeout_s: float) -> str:
    ready, _, _ = select.select([proc.stdout], [], [], timeout_s)
    line = proc.stdout.readline() if ready else ""
    if not line:
        raise RuntimeError(f"{proc.args[1]} gave no result line "
                           f"(exit {proc.poll()})")
    return line


def _finish(proc: subprocess.Popen, timeout_s: float = 30.0) -> None:
    try:
        proc.wait(timeout=timeout_s)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()


def _verdict_problems(verdicts: dict[str, bool],
                      want: dict[str, bool]) -> list[str]:
    problems = []
    for stem, expect in want.items():
        got = verdicts.get(stem)
        if got is None:
            problems.append(f"{stem}: no verdict")
        elif got != expect:
            problems.append(f"{stem}: {'accepted' if got else 'rejected'}, "
                            f"expected {'accept' if expect else 'reject'}")
    return problems


class Daemon:
    """One daemon process (perfbench/daemon_host.py) and its client."""

    def __init__(self, project: Path, jobs: int,
                 spans_out: Optional[Path] = None) -> None:
        from repro.serve import DaemonClient
        self.project = project
        self.spans_out = spans_out
        self.resets = 0
        cmd = [sys.executable, str(HERE / "daemon_host.py"),
               "--root", str(project), "--jobs", str(jobs)]
        if spans_out is not None:
            cmd += ["--spans-out", str(spans_out)]
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                                     stdin=subprocess.DEVNULL, text=True)
        try:
            info = json.loads(_read_line(self.proc, CHILD_TIMEOUT_S))
        except BaseException:
            self.proc.kill()
            self.proc.wait()
            raise
        self.ready_s = time.perf_counter() - t0
        self.client = DaemonClient(info["host"], info["port"],
                                   timeout=CHILD_TIMEOUT_S)

    def verify(self, index: int, kind: str, n_files: int) -> layers.Op:
        """One verify request of the whole project, checked."""
        from repro.serve import DaemonError
        events: list[dict] = []
        t0 = time.perf_counter()
        try:
            for ev in self.client.request("verify"):
                events.append(ev)
        except DaemonError as exc:
            events.append({"event": "error", "code": exc.code,
                           "message": exc.message})
        t1 = time.perf_counter()
        op = layers.Op(index, kind, t1 - t0, traced=self.spans_out
                       is not None, t0=t0, t1=t1, events=len(events))
        done = None
        for ev in events:
            name = ev.get("event")
            if name == "done":
                done = ev
            elif name == "error":
                op.problems.append(f"error event {ev.get('code')}: "
                                   f"{ev.get('message')}")
            elif name == "recovered":
                op.recovered += 1
                op.problems.append(f"recovered event for {ev.get('unit')}")
            elif name == "function":
                op.functions += 1
                if not ev.get("ok"):
                    op.problems.append(f"{ev.get('unit')}.{ev.get('name')}: "
                                       "rejected, expected accept")
        if done is None:
            op.problems.append("no done event")
            return op
        op.server_wall = float(done.get("wall_s", 0.0))
        op.queue_wait = float(done.get("queue_wait_s", 0.0))
        op.rechecked = int(done.get("rechecked", 0))
        resets = int((done.get("session") or {}).get("resets", 0))
        op.resets, self.resets = resets - self.resets, resets
        if op.resets:
            op.problems.append(f"{op.resets} pool session reset(s)")
        if done.get("files") != n_files:
            op.problems.append(f"{done.get('files')} files verified, "
                               f"expected {n_files}")
        if kind == "noop" and op.rechecked:
            op.problems.append(f"no-op request re-checked {op.rechecked} "
                               "function(s)")
        if kind in ("edit", "prime") and not op.rechecked:
            op.problems.append(f"{kind} request re-checked nothing")
        return op

    def close(self) -> None:
        from repro.serve import DaemonError
        try:
            self.client.shutdown()
        except DaemonError:
            pass
        _finish(self.proc)


# ---------------------------------------------------------------------
# The batch workloads.
# ---------------------------------------------------------------------

def _certify(outcomes: dict) -> dict:
    """Re-check the certificate (derivation) of every accepted function
    of one pass with ``repro.proofs.certcheck``."""
    from repro.proofs.certcheck import check_derivation
    from repro.pure.solver import PureSolver
    from repro.refinedc.rules import REGISTRY
    out = {"derivations": 0, "rechecked": 0, "skipped": 0, "problems": 0}
    for outcome in outcomes.values():
        for name, fr in outcome.result.functions.items():
            spec = outcome.typed_program.specs.get(name)
            if not fr.ok or spec is None:
                continue
            solver = PureSolver(tactics=spec.tactics, lemmas=spec.lemmas)
            for d in fr.derivations:
                report = check_derivation(d, REGISTRY, solver)
                out["derivations"] += 1
                out["rechecked"] += report.side_conditions_rechecked
                out["skipped"] += report.side_conditions_skipped
                out["problems"] += len(report.problems)
    return out


def _batch_setup(paths: list[Path], want: dict[str, bool], jobs: int,
                 samples: int, work: Path, run: Run) -> None:
    listing = work / "inputs.json"
    listing.write_text(json.dumps([str(p) for p in paths]))
    for _ in range(samples):
        run.speed.sample()
        t0 = time.perf_counter()
        run.setup_at.append(t0)
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "setup_probe.py"),
             "--inputs", str(listing), "--jobs", str(jobs)],
            stdout=subprocess.PIPE, stdin=subprocess.DEVNULL, text=True)
        try:
            line = _read_line(proc, CHILD_TIMEOUT_S)
            run.setup.append(time.perf_counter() - t0)
        finally:
            _finish(proc)
        data = json.loads(line)
        run.problems += _verdict_problems(data.pop("verdicts"), want)
        run.setup_parts.append(data)
    run.speed.sample()


def _batch(args, size: dict, jobs: int, setup_samples: int,
           work: Path) -> Run:
    inputs = work / "inputs"
    inputs.mkdir()
    if args.workload == "fig7_cold":
        expected = {p: True for p in _copy_studies(_studies(size), inputs)}
    else:
        expected = _corpus(args.seed, size["programs"], inputs)
    paths = list(expected)
    want = {p.stem: ok for p, ok in expected.items()}
    run = Run(inputs={"units": len(paths),
                      "accept": sum(expected.values()),
                      "reject": len(paths) - sum(expected.values())})
    if not args.trace:
        _batch_setup(paths, want, jobs, setup_samples, work, run)

    from repro.driver import engine_fingerprint
    from repro.frontend import verify_files
    from repro.pure.memo import clear_pure_caches
    engine_fingerprint()
    rec = None
    if args.trace:
        rec = SpanRecorder()
        rec.install()
        rec.enabled = False
        run.missing_spans = rec.missing

    def checked(outcomes: dict) -> list[str]:
        problems = _verdict_problems(
            {k: o.ok for k, o in outcomes.items()}, want)
        return problems + [f"{k}: no function verdicts"
                           for k, o in outcomes.items()
                           if not o.result.functions]

    sampler = procs.RssSampler()
    try:
        # Warm-up: lazy imports and the first pool start of this process.
        run.problems += checked(verify_files(paths, jobs=jobs))
        deadline = time.perf_counter() + args.seconds
        i = 0
        while time.perf_counter() < deadline or i < MIN_OPS:
            traced = rec is not None and i % 2 == 1
            run.speed.sample()
            clear_pure_caches()
            if traced:
                first = len(rec.spans)
                rec.enabled, rec.request_id = True, i
                outcomes = rec.record("op", verify_files, paths, jobs=jobs)
                rec.enabled, rec.request_id = False, None
                op = layers.Op(i, "pass", rec.spans[-1].dur, traced=True,
                               t0=rec.spans[-1].t0, spans=rec.spans[first:])
                t0 = time.perf_counter()
                cert = _certify(outcomes)
                cert["seconds"] = time.perf_counter() - t0
                run.certs.append(cert)
            else:
                t0 = time.perf_counter()
                outcomes = verify_files(paths, jobs=jobs)
                op = layers.Op(i, "pass", time.perf_counter() - t0, t0=t0)
            op.problems = checked(outcomes)
            op.functions = sum(len(o.result.functions)
                               for o in outcomes.values())
            run.ops.append(op)
            i += 1
    finally:
        run.peak_kb = sampler.stop()
    return run


# ---------------------------------------------------------------------
# The serve workload.
# ---------------------------------------------------------------------

def _serve(args, size: dict, jobs: int, setup_samples: int,
           work: Path) -> Run:
    base = work / "project"
    base.mkdir()
    _copy_studies(_studies(size), base)
    units = {}
    for i in range(size["units"]):
        prog = _draw(args.seed, i)
        units[f"gen{i:02d}"] = (prog.template, prog.source)
        (base / f"gen{i:02d}.c").write_text(prog.source)
    n_files = len(list(base.glob("*.c")))
    run = Run(inputs={"files": n_files, "generated_units": len(units)})
    copies = itertools.count()

    def project() -> Path:
        dest = work / f"project{next(copies)}"
        shutil.copytree(base, dest)
        return dest

    daemons: list[Daemon] = []
    try:
        if args.trace:
            # Same session, same edits: one untraced and one traced daemon
            # take turns, so their difference is the tracing overhead.
            daemons.append(Daemon(project(), jobs))
            daemons.append(Daemon(project(), jobs,
                                  spans_out=work / "daemon-spans.json"))
            for d in daemons:
                run.problems += d.verify(-1, "prime", n_files).problems
        else:
            # Each set-up sample is a fresh daemon on a fresh project copy:
            # imports, fingerprint and forkserver start until it listens,
            # then the priming request (first pool start, cold caches).
            for k in range(setup_samples):
                dest = project()
                run.speed.sample()
                run.setup_at.append(time.perf_counter())
                d = Daemon(dest, jobs)
                daemons.append(d)
                prime = d.verify(-1, "prime", n_files)
                run.setup.append(d.ready_s + prime.wall)
                run.setup_parts.append({"ready_s": d.ready_s,
                                        "prime_s": prime.wall})
                run.problems += prime.problems
                if k < setup_samples - 1:
                    daemons.remove(d)
                    d.close()
            run.speed.sample()
        edits = EditStream(args.seed, units)
        sampler = procs.RssSampler()
        try:
            deadline = time.perf_counter() + args.seconds
            i = 0
            while time.perf_counter() < deadline or i < MIN_OPS:
                kind = SERVE_CYCLE[i % len(SERVE_CYCLE)]
                run.speed.sample()
                if kind == "edit":
                    stem, source = edits.next()
                    for d in daemons:
                        (d.project / f"{stem}.c").write_text(source)
                for d in (daemons if i % 2 == 0 else daemons[::-1]):
                    run.ops.append(d.verify(i, kind, n_files))
                i += 1
        finally:
            run.peak_kb = sampler.stop()
    finally:
        for d in daemons:
            d.close()
    if args.trace:
        spans, run.missing_spans = load_spans(work / "daemon-spans.json")
        layers.assign_by_time(spans, [op for op in run.ops if op.traced])
    return run


# ---------------------------------------------------------------------
# Reporting.
# ---------------------------------------------------------------------

def _p90(values: list[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def _end_to_end(run: Run) -> dict[str, float]:
    """The end-to-end metrics, times at the reference CPU speed."""
    walls = [op.wall * run.speed.factor(op.t0) for op in run.ops]
    setup = [s * run.speed.factor(at)
             for s, at in zip(run.setup, run.setup_at)]
    return {"setup_s": statistics.median(setup),
            "op_wall_p50_s": statistics.median(walls),
            "op_wall_p90_s": _p90(walls),
            "functions_per_s": sum(op.functions for op in run.ops)
            / sum(walls),
            "peak_rss_mb": run.peak_kb / 1024.0}


def _summary(args, jobs: int, run: Run, values: dict) -> list[str]:
    walls = [op.wall for op in run.ops]
    failed = sum(1 for op in run.ops if op.problems)
    calib = [c for _, c in run.speed.samples]
    lines = [f"perfbench {args.workload}: seed {args.seed}, jobs {jobs}, "
             f"trace {args.trace}, inputs {run.inputs}",
             f"  calibration: median {statistics.median(calib) * 1e3:.3f} ms"
             f" (reference {CALIBRATION_REF_S * 1e3:.3f} ms, "
             f"n={len(calib)}); raw times below",
             f"  {len(run.ops)} op(s) in {sum(walls):.2f} s: wall p50 "
             f"{statistics.median(walls) * 1e3:.2f} ms, p90 "
             f"{_p90(walls) * 1e3:.2f} ms (n={len(walls)})",
             f"  failed {failed}/{len(run.ops)} "
             f"(failed_frac {failed / len(run.ops):.4f}), set-up/warm-up "
             f"problems {len(run.problems)}"]
    for kind in ("edit", "noop"):
        kw = [op.wall for op in run.ops if op.kind == kind
              and not op.traced]
        if kw:
            lines.append(f"  {kind} requests: p50 "
                         f"{statistics.median(kw) * 1e3:.2f} ms (n={len(kw)})")
    if run.setup:
        lines.append(f"  setup_s {statistics.median(run.setup):.4f} "
                     f"(median of {len(run.setup)}: {run.setup_parts})")
    lines.append(f"  peak RSS {run.peak_kb / 1024.0:.1f} MB "
                 "(benchmark + children)")
    for problem in (run.problems + [p for op in run.ops
                                    for p in op.problems])[:10]:
        lines.append(f"  PROBLEM: {problem}")
    if args.trace:
        traced = [op for op in run.ops if op.traced]
        groups = [("all", traced)]
        if any(op.kind != "pass" for op in traced):
            groups += [(kind, [op for op in traced if op.kind == kind])
                       for kind in ("edit", "noop")]
        for label, ops in groups:
            if not ops:
                continue
            table = layers.layer_table(ops)
            lines += layers.render_table(f"{args.workload} ({label})", table)
            if args.workload == "serve_edit_loop":
                lines.append(
                    f"  planner state I/O: {table['state_io_s'] * 1e3:.3f} "
                    f"ms/request ({table['state_io_share'] * 100:.1f}% of "
                    f"wall), state saves/request {table['state_saves']:.1f}")
        lines.append(f"  tracing overhead (traced vs untraced median, same "
                     f"session): {values['tracing_overhead_frac'] * 100:+.2f}%")
        if run.certs:
            lines.append(f"  certificates: {run.certs[-1]}")
        if run.missing_spans:
            lines.append(f"  entry points not found: {run.missing_spans}")
    return lines


def _report(path: Path, args, run: Run, values: dict) -> None:
    ops = []
    for op in run.ops:
        d = asdict(op)
        if not args.trace:
            d.pop("spans")
        ops.append(d)
    tables = {}
    if args.trace:
        tables["all"] = layers.layer_table([op for op in run.ops
                                            if op.traced])
    path.write_text(json.dumps(
        {"workload": args.workload, "seed": args.seed, "trace": args.trace,
         "inputs": run.inputs, "setup_s": run.setup,
         "calibration": run.speed.samples,
         "setup_parts": run.setup_parts, "problems": run.problems,
         "certs": run.certs, "metrics": values, "tables": tables,
         "ops": ops}))


# ---------------------------------------------------------------------

def _prepare_env(work: Path) -> None:
    """Measure the checker's default configuration, keep the files the
    run writes inside the checkout, and let child interpreters import
    the checker."""
    for key in [k for k in os.environ if k.startswith("RC_")]:
        del os.environ[key]
    os.environ["PYTHONPATH"] = str(SRC)
    tmp = work / "tmp"
    tmp.mkdir(parents=True)
    # The forkserver binds a Unix socket (paths are limited to about 107
    # bytes) a few levels below the temporary directory.
    if len(str(tmp)) <= 64:
        os.environ["TMPDIR"] = str(tmp)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny: the smoke-check size of every workload")
    ap.add_argument("--report", default="",
                    help="write the run's JSON report here")
    args = ap.parse_args(argv)
    if not (SRC / "repro" / "frontend.py").is_file() \
            or not CASESTUDIES.is_dir():
        print(f"perfbench: {SRC / 'repro'} or {CASESTUDIES} is missing; "
              "run from the root of a checkout of the repository",
              file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    manifest = json.loads((HERE / "workloads.json").read_text())
    spec = manifest["workloads"].get(args.workload)
    if spec is None:
        print(f"perfbench: unknown workload {args.workload!r}",
              file=sys.stderr)
        return 2
    jobs = manifest["jobs"]
    size = spec[args.size]
    serve = args.workload == "serve_edit_loop"
    setup_samples = manifest["setup_samples"]["serve" if serve else "batch"]

    work = WORK / f"w{os.getpid()}"
    sys.path.insert(0, str(SRC))
    # A terminated run still stops its children (the finally below).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        _prepare_env(work)
        runner = _serve if serve else _batch
        run = runner(args, size, jobs, setup_samples, work)
    finally:
        procs.reap(os.getpid())
        shutil.rmtree(work, ignore_errors=True)

    if args.trace:
        values = layers.layer_metrics(run.ops, run.certs)
        names = bench["per_layer"]
    else:
        values = _end_to_end(run)
        names = bench["end_to_end"]
    for line in _summary(args, jobs, run, values):
        print(line)
    report = Path(args.report) if args.report else \
        WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    _report(report, args, run, values)
    failed = sum(1 for op in run.ops if op.problems)
    print(json.dumps({
        "correct": failed == 0 and not run.problems,
        "attempted": len(run.ops),
        "failed": failed,
        "metrics": {m["name"]: {"value": values.get(m["name"], 0.0),
                                "unit": m["unit"]} for m in names}}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
