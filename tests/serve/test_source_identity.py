"""A warm request opens only the sources whose stat signature moved.

The daemon's memo keeps, per unit, the source text, its sha and the
``(st_dev, st_ino, st_size, st_mtime_ns, st_ctime_ns)`` signature of
the file it was read from.  A file whose signature is unchanged is not
opened; the memo stays keyed by content, so the signature only licenses
reusing a hash taken earlier.  A file whose mtime or ctime lay within
``SETTLE_NS`` of the moment it was read is read again on every request.
Each test below fails when the signature is trusted blindly.
"""

import builtins
import io
import os
import shutil
import time

import pytest

from repro.driver import incremental
from repro.frontend import verify_files
from repro.fuzz.generator import DEFAULT_TEMPLATES, generate_program
from repro.report import casestudies_dir
from .conftest import done_of
from .test_server import rename_local

#: a settle window that files a test made a moment ago soon leave
SHORT_WINDOW_NS = 50_000_000


def settle(window_ns=SHORT_WINDOW_NS):
    """Wait until every file written so far is older than the window."""
    time.sleep(2 * window_ns / 1e9)


@pytest.fixture
def short_window(monkeypatch):
    monkeypatch.setattr(incremental, "SETTLE_NS", SHORT_WINDOW_NS)
    settle()


@pytest.fixture
def opened(monkeypatch):
    """The ``.c`` files opened, in order, however they are opened."""
    paths = []
    real = builtins.open

    def counting(file, *args, **kwargs):
        if str(file).endswith(".c"):
            paths.append(str(file))
        return real(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", counting)
    monkeypatch.setattr(io, "open", counting)
    return paths


def test_unchanged_sources_are_not_read(daemon, short_window):
    _, client = daemon
    assert done_of(client.verify())["read"] == 2
    noop = done_of(client.verify())
    assert (noop["read"], noop["parsed"], noop["rechecked"]) == (0, 0, 0)


def test_touched_source_is_read_but_not_parsed(daemon, project,
                                               short_window):
    _, client = daemon
    client.verify()
    os.utime(project / "queue.c")
    done = done_of(client.verify())
    assert (done["read"], done["parsed"], done["rechecked"]) == (1, 0, 0)


def test_same_size_edit_with_restored_mtime_is_reparsed(daemon, project,
                                                        short_window):
    """Setting the mtime back cannot set the ctime back."""
    _, client = daemon
    client.verify()
    assert done_of(client.verify())["read"] == 0    # trusted from here
    path = project / "queue.c"
    st = path.stat()
    rename_local(path)
    os.utime(path, ns=(st.st_atime_ns, st.st_mtime_ns))
    assert path.stat().st_size == st.st_size
    done = done_of(client.verify())
    assert (done["read"], done["parsed"]) == (1, 1)
    assert done["rechecked"] >= 1


def test_rewrite_within_a_coarse_tick_is_reparsed(daemon, project,
                                                  monkeypatch):
    """On a filesystem with whole-second timestamps a same-size
    rewrite in the second the file was read leaves its signature as it
    was; the settle window re-reads it anyway."""
    real = incremental._signature

    def coarse(st):
        dev, ino, size, mtime, ctime = real(st)
        return (dev, ino, size, mtime // 10**9 * 10**9,
                ctime // 10**9 * 10**9)

    monkeypatch.setattr(incremental, "_signature", coarse)
    _, client = daemon
    client.verify()                    # cold: checks every function
    path = project / "queue.c"
    # Start just after a second begins, so what follows shares it.
    time.sleep(1.02 - time.time() % 1)
    path.write_text(path.read_text())
    assert done_of(client.verify())["parsed"] == 0
    st = path.stat()
    rename_local(path)
    os.utime(path, ns=(st.st_atime_ns, st.st_mtime_ns))
    done = done_of(client.verify())
    assert done["parsed"] == 1 and done["rechecked"] >= 1


def test_source_replaced_by_rename_is_read(daemon, project, short_window):
    """A new file under the old name: same size, same mtime."""
    _, client = daemon
    client.verify()
    assert done_of(client.verify())["read"] == 0
    path = project / "queue.c"
    st = path.stat()
    fresh = project / "queue.c.new"
    shutil.copy(path, fresh)
    rename_local(fresh)
    os.utime(fresh, ns=(st.st_atime_ns, st.st_mtime_ns))
    os.replace(fresh, path)
    assert path.stat().st_ino != st.st_ino
    done = done_of(client.verify())
    assert (done["read"], done["parsed"]) == (1, 1)


def test_reset_drops_the_signatures(daemon, short_window):
    """Without the memo entries every source is read again."""
    _, client = daemon
    client.verify()
    assert done_of(client.verify())["read"] == 0
    client.reset()
    done = done_of(client.verify())
    assert (done["read"], done["parsed"]) == (2, 2)


def test_batch_calls_never_consult_signatures(project, tmp_path,
                                              monkeypatch, opened):
    """Without a ``state_cache`` every call reads every file, and a
    same-size edit with its mtime restored at once is seen."""
    def refuse(*args):
        raise AssertionError("batch call consulted the source memo")

    monkeypatch.setattr(incremental, "load_source", refuse)
    monkeypatch.setattr("repro.frontend.load_source", refuse)
    paths = sorted(project.glob("*.c"))
    cache = tmp_path / "cache"
    first = verify_files(paths, cache_dir=cache, ledger=False)
    assert all(o.read and o.parsed for o in first.values())
    path = project / "queue.c"
    st = path.stat()
    rename_local(path)
    os.utime(path, ns=(st.st_atime_ns, st.st_mtime_ns))
    del opened[:]
    again = verify_files(paths, cache_dir=cache, ledger=False)
    assert sorted(opened) == sorted(str(p) for p in paths)
    assert all(o.read and o.parsed for o in again.values())
    dirty = [fm for fm in again["queue"].metrics.functions
             if fm.cache == "dirty"]
    assert dirty


def make_54_file_project(root):
    """The serve benchmark's project: every case study plus 40
    generated units (seed 1, templates in rotation)."""
    root.mkdir()
    for src in casestudies_dir().glob("*.c"):
        shutil.copy(src, root / src.name)
    for i in range(40):
        prog = generate_program(
            1, i, templates=[DEFAULT_TEMPLATES[i % len(DEFAULT_TEMPLATES)]])
        (root / f"gen{i:02d}.c").write_text(prog.source)
    return root


def test_settled_noop_over_54_files_opens_no_source(daemon_factory,
                                                    tmp_path, monkeypatch,
                                                    opened):
    """Once every file is older than the window (patched, not the
    clock), a warm no-op opens no source at all."""
    root = make_54_file_project(tmp_path / "p54")
    monkeypatch.setattr(incremental, "SETTLE_NS", SHORT_WINDOW_NS)
    settle()
    _, client = daemon_factory(root)
    cold = done_of(client.verify())
    assert (cold["files"], cold["read"]) == (54, 54)
    del opened[:]
    noop = done_of(client.verify())
    assert opened == []
    assert (noop["read"], noop["parsed"], noop["rechecked"]) == (0, 0, 0)
    assert noop["files"] == 54
