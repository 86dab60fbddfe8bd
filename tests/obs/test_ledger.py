"""The run ledger: atomic appends, tolerant reads, env gating."""

import json
import multiprocessing
import subprocess

import pytest

from repro.obs import (LEDGER_SCHEMA_VERSION, append_record, build_record,
                       read_ledger, record_run)
from repro.obs.ledger import ledger_env_path

from .conftest import synthetic_metrics


def make_metrics(wall_s=0.1):
    return synthetic_metrics(wall_s, clean=3, dirty=1, solver_calls=10,
                             rule_applications=40, solver_cache_hits=4)


def test_build_record_shape():
    rec = build_record("verify", wall_s=0.5, jobs=2,
                       metrics=[make_metrics()], suite=["unit"],
                       extra={"note": 1})
    assert rec["ledger_version"] == LEDGER_SCHEMA_VERSION
    assert rec["kind"] == "verify"
    assert rec["jobs"] == 2
    assert rec["wall_s"] == 0.5
    assert rec["suite"] == ["unit"]
    assert rec["functions"] == {"unit:c0": 0.0, "unit:c1": 0.0,
                                "unit:c2": 0.0, "unit:f": 0.1}
    assert set(rec["cache_effectiveness"]) == {
        "result_cache", "solver_memo", "dispatch_table"}
    assert rec["cache_effectiveness"]["result_cache"]["ratio"] == 0.75
    assert rec["env"].keys() == {"RC_TRACE"}
    assert rec["config"] == {}
    assert rec["extra"] == {"note": 1}
    json.dumps(rec)  # must be JSON-clean


def test_build_record_config_extra_lands_in_config():
    rec = build_record("verify", config_extra={"result_cache": True,
                                               "incremental": False})
    assert rec["config"]["result_cache"] is True
    assert rec["config"]["incremental"] is False


def test_append_and_read_round_trip(tmp_path):
    path = tmp_path / "ledger.jsonl"
    for i in range(3):
        assert append_record(path, build_record("verify", wall_s=0.1 * i))
    view = read_ledger(path)
    assert len(view.records) == 3
    assert view.corrupt_lines == 0
    assert view.alien_versions == 0
    assert [r["wall_s"] for r in view.records] == [0.0, 0.1, 0.2]


def test_read_missing_file_is_empty():
    view = read_ledger("/nonexistent/ledger.jsonl")
    assert view.records == [] and view.corrupt_lines == 0


def test_truncated_last_line_is_skipped(tmp_path):
    """A crashed writer leaves a torn last line; reads must keep every
    complete record and count the torn one."""
    path = tmp_path / "ledger.jsonl"
    append_record(path, build_record("verify", wall_s=1.0))
    append_record(path, build_record("verify", wall_s=2.0))
    full = path.read_bytes()
    # Re-append the first line cut off mid-JSON, no trailing newline.
    first_line = full.split(b"\n")[0]
    with open(path, "ab") as fh:
        fh.write(first_line[:len(first_line) // 2])
    view = read_ledger(path)
    assert [r["wall_s"] for r in view.records] == [1.0, 2.0]
    assert view.corrupt_lines == 1


def test_binary_garbage_is_skipped(tmp_path):
    path = tmp_path / "ledger.jsonl"
    append_record(path, build_record("verify"))
    with open(path, "ab") as fh:
        fh.write(b"\x00\xff\xfe not json at all\n")
        fh.write(b'{"also": "not a ledger record"}\n')
    append_record(path, build_record("verify"))
    view = read_ledger(path)
    assert len(view.records) == 2
    # The well-formed-but-versionless dict counts as alien, the binary
    # garbage as corrupt.
    assert view.corrupt_lines == 1
    assert view.alien_versions == 1


def test_version_mismatch_is_counted_not_raised(tmp_path):
    path = tmp_path / "ledger.jsonl"
    append_record(path, build_record("verify"))
    future = build_record("verify")
    future["ledger_version"] = LEDGER_SCHEMA_VERSION + 99
    append_record(path, future)
    view = read_ledger(path)
    assert len(view.records) == 1
    assert view.alien_versions == 1


def _appender(path, worker, count):
    for i in range(count):
        append_record(path, build_record(
            "verify", wall_s=worker + i / 1000.0,
            extra={"worker": worker, "i": i}))


def test_concurrent_appenders_never_tear(tmp_path):
    """Several processes appending at once: every record must read back
    intact (O_APPEND + single-write atomicity)."""
    path = tmp_path / "ledger.jsonl"
    workers, per_worker = 4, 25
    procs = [multiprocessing.Process(target=_appender,
                                     args=(path, w, per_worker))
             for w in range(workers)]
    for p in procs:
        p.start()
    for p in procs:
        p.join()
    assert all(p.exitcode == 0 for p in procs)
    view = read_ledger(path)
    assert view.corrupt_lines == 0
    assert len(view.records) == workers * per_worker
    seen = {(r["extra"]["worker"], r["extra"]["i"])
            for r in view.records}
    assert len(seen) == workers * per_worker


def test_append_failure_returns_false(tmp_path):
    target = tmp_path / "file"
    target.write_text("")
    # A path *under a regular file* cannot be created.
    assert append_record(target / "sub" / "ledger.jsonl",
                         build_record("verify")) is False


@pytest.mark.parametrize("raw,expect", [
    ("", None), ("0", None), ("off", None), ("false", None),
    ("1", ".rc-ledger.jsonl"), ("true", ".rc-ledger.jsonl"),
    ("custom/l.jsonl", "custom/l.jsonl"),
])
def test_ledger_env_path(monkeypatch, raw, expect):
    monkeypatch.setenv("RC_LEDGER", raw)
    got = ledger_env_path()
    assert (got is None) == (expect is None)
    if expect is not None:
        assert str(got) == expect


def test_record_run_is_noop_when_env_unset(monkeypatch, tmp_path):
    monkeypatch.delenv("RC_LEDGER", raising=False)
    monkeypatch.chdir(tmp_path)
    assert record_run("verify") is None
    assert list(tmp_path.iterdir()) == []


def test_record_run_appends_via_env(monkeypatch, tmp_path):
    target = tmp_path / "env-ledger.jsonl"
    monkeypatch.setenv("RC_LEDGER", str(target))
    rec = record_run("verify", wall_s=0.25, metrics=[make_metrics()])
    assert rec is not None
    view = read_ledger(target)
    assert len(view.records) == 1
    assert view.records[0]["wall_s"] == 0.25


def test_verify_files_appends_record(monkeypatch, tmp_path):
    """The toolchain wiring: a verify_files run under RC_LEDGER appends
    one ``verify`` record with suite, per-function walls, effectiveness
    ratios and the per-rule cost block (tracing on)."""
    from repro.frontend import verify_files
    from repro.report import casestudies_dir

    target = tmp_path / "ledger.jsonl"
    monkeypatch.setenv("RC_LEDGER", str(target))
    verify_files([casestudies_dir() / "mpool.c"], trace=True)
    view = read_ledger(target)
    assert len(view.records) == 1
    rec = view.records[0]
    assert rec["kind"] == "verify"
    assert rec["suite"] == ["mpool"]
    assert rec["wall_s"] > 0
    assert all(k.startswith("mpool:") for k in rec["functions"])
    assert rec["config"]["result_cache"] is False
    assert any(k.startswith("rule:") for k in rec["rules"]["entries"])


def test_verify_files_no_ledger_by_default(monkeypatch, tmp_path):
    from repro.frontend import verify_files
    from repro.report import casestudies_dir

    monkeypatch.delenv("RC_LEDGER", raising=False)
    monkeypatch.chdir(tmp_path)
    verify_files([casestudies_dir() / "mpool.c"])
    assert not (tmp_path / ".rc-ledger.jsonl").exists()


def test_git_sha_tolerates_missing_repo(tmp_path):
    from repro.obs import git_sha
    assert git_sha(tmp_path) == ""
    sha = git_sha()
    assert sha == "" or (len(sha) == 40
                         and all(c in "0123456789abcdef" for c in sha))


def test_git_sha_file_read_agrees_with_git(tmp_path):
    """A detached HEAD and a loose branch ref are read from the files;
    the answer is what ``git rev-parse HEAD`` prints."""
    from repro.obs import git_sha
    sha = "0123456789abcdef0123456789abcdef01234567"
    git = tmp_path / ".git"
    (git / "refs" / "heads").mkdir(parents=True)
    (git / "HEAD").write_text(sha + "\n")
    assert git_sha(tmp_path) == sha
    (git / "HEAD").write_text("ref: refs/heads/main\n")
    (git / "refs" / "heads" / "main").write_text(sha + "\n")
    (tmp_path / "sub").mkdir()
    assert git_sha(tmp_path / "sub") == sha
    try:
        real = subprocess.run(["git", "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=5)
    except OSError:
        return
    if real.returncode == 0:
        assert git_sha() == real.stdout.strip()


def test_records_are_single_lines(tmp_path):
    """One record == one line: the property concurrent interleaving and
    tolerant reads both rest on."""
    path = tmp_path / "ledger.jsonl"
    append_record(path, build_record("verify",
                                     extra={"multi": "a\nb\nc"}))
    text = path.read_text()
    assert text.endswith("\n") and text.count("\n") == 1
    rec = json.loads(text)
    assert rec["extra"]["multi"] == "a\nb\nc"
