"""One set of run counts: the CLI, the daemon and the ledger agree.

``DriverMetrics.counts`` is the only place that counts clean, dirty and
re-checked functions; ``scripts/verify.py --json``, the daemon's
``unit``/``done`` events and the ``kind=serve`` ledger record all render
it.  A spec'd function without a body is reported (as a failure) but
never checked, so it must not count as re-checked on a no-op rerun.
"""

import json

from ..scripts.conftest import load_script
from .conftest import done_of, events_of, make_project

#: ``magic`` has a spec but no body (and is not trusted): it fails and is
#: never checked; ``caller`` verifies against its spec.
BODYLESS = '''
[[rc::parameters("n: nat")]]
[[rc::args("n @ int<size_t>")]]
[[rc::returns("{n * 2} @ int<size_t>")]]
size_t magic(size_t x);

[[rc::parameters("n: nat")]]
[[rc::args("n @ int<size_t>")]]
[[rc::returns("{n * 2} @ int<size_t>")]]
size_t caller(size_t x) { return magic(x); }
'''

COUNT_KEYS = ("functions", "clean", "dirty", "rechecked", "failed")


def counts_of(entry):
    return {k: entry[k] for k in COUNT_KEYS}


def bodyless_project(root, studies=()):
    make_project(root, studies)
    (root / "bodyless.c").write_text(BODYLESS)
    return root


def cli_pass(project, cache, out):
    """One ``scripts/verify.py --json`` run over the project's files."""
    rc = load_script("verify").main(
        [str(p) for p in sorted(project.glob("*.c"))]
        + ["--cache-dir", str(cache), "--json", str(out)])
    return rc, json.loads(out.read_text())


def test_bodyless_noop_rechecks_nothing(daemon_factory, tmp_path):
    project = bodyless_project(tmp_path / "proj")
    cache, out = tmp_path / "cli-cache", tmp_path / "cli.json"

    _rc, cold = cli_pass(project, cache, out)
    assert cold["totals"]["rechecked"] == 1          # caller only
    _rc, noop = cli_pass(project, cache, out)
    assert counts_of(noop["totals"]) == {
        "functions": 2, "clean": 1, "dirty": 0, "rechecked": 0,
        "failed": 1}

    _daemon, client = daemon_factory(project)
    client.verify()
    done = done_of(client.verify())
    assert done["rechecked"] == 0
    assert done["warm"] is True
    assert "reused" not in done


def test_cli_daemon_and_ledger_counts_agree(daemon_factory, tmp_path):
    project = bodyless_project(tmp_path / "proj", studies=("queue",))
    ledger = tmp_path / "serve-ledger.jsonl"
    _daemon, client = daemon_factory(project, ledger_path=ledger)
    cache, out = tmp_path / "cli-cache", tmp_path / "cli.json"

    for _pass in ("cold", "noop"):
        _rc, cli = cli_pass(project, cache, out)
        events = client.verify()
        cli_units = {stem: counts_of(entry)
                     for stem, entry in cli["files"].items()}
        daemon_units = {ev["unit"]: counts_of(ev)
                        for ev in events_of(events, "unit")}
        record = json.loads(ledger.read_text().splitlines()[-1])
        assert record["kind"] == "serve"
        assert cli_units == daemon_units == record["extra"]["units"]
        assert counts_of(cli["totals"]) == counts_of(done_of(events))
        assert all("reused" not in entry for entry in cli["files"].values())

    assert cli_units["bodyless"] == {"functions": 2, "clean": 1,
                                     "dirty": 0, "rechecked": 0,
                                     "failed": 1}
    assert cli_units["queue"]["rechecked"] == 0
