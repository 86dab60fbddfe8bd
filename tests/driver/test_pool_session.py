"""PoolSession: a warm, reusable process pool for batch verification.

Fuzzing campaigns call ``run_units`` once per round; without a session
every round pays process-pool cold-start.  These tests pin the session
contract: same results as the per-call pool, reuse across batches, and
survival of a ``reset()`` (the campaign's poisoned-pool recovery)."""

from repro.driver import DriverConfig, PoolSession, Unit, run_units
from repro.lang.elaborate import elaborate_source

from .conftest import study_path


def _units(stems):
    units = []
    for stem in stems:
        source = study_path(stem).read_text()
        units.append(Unit(key=stem, source=source,
                          tp=elaborate_source(source)))
    return units


def _outcomes(results):
    return {key: (result.ok,
                  sorted((name, fr.ok)
                         for name, fr in result.functions.items()))
            for key, (result, _metrics) in results.items()}


def test_session_results_equal_per_call_pool():
    units = _units(["mpool", "queue"])
    plain = run_units(units, DriverConfig(jobs=2))
    with PoolSession(2) as session:
        pooled = run_units(units, DriverConfig(jobs=2), session=session)
    assert _outcomes(plain) == _outcomes(pooled)


def test_session_is_reused_across_batches():
    with PoolSession(2) as session:
        a = run_units(_units(["mpool", "queue"]),
                      DriverConfig(jobs=2), session=session)
        b = run_units(_units(["alloc", "queue"]), DriverConfig(jobs=2),
                      session=session)
        assert session.batches >= 2
    assert all(result.ok for result, _ in a.values())
    assert all(result.ok for result, _ in b.values())


def test_session_survives_reset():
    units = _units(["mpool", "alloc"])
    with PoolSession(2) as session:
        before = run_units(units, DriverConfig(jobs=2), session=session)
        session.reset()
        after = run_units(units, DriverConfig(jobs=2), session=session)
        assert session.resets == 1
    assert _outcomes(before) == _outcomes(after)


def test_session_preserves_traced_signatures():
    # the trace determinism contract extends to session workers: pooled
    # traced checks distill to the same signature as serial ones
    from repro.trace.signature import signature_of
    units = _units(["queue"])
    serial = run_units(units, DriverConfig(jobs=1, trace=True))
    with PoolSession(2) as session:
        pooled = run_units(_units(["queue"]),
                           DriverConfig(jobs=2, trace=True),
                           session=session)
    sig = lambda res: signature_of(res["queue"][0].trace)  # noqa: E731
    assert sig(serial) == sig(pooled)


def test_session_serves_each_batch_its_own_source():
    """Tenant safety: one warm session, the same unit key with different
    source in two batches.  Workers memoise programs by the sha256 of
    the pickled program, so the second batch gets the second source's
    outcome, never the first's."""
    source = study_path("mpool").read_text()
    broken = source.replace('rc::args("&own<uninit<64>>")',
                            'rc::args("&own<uninit<65>>")', 1)
    assert broken != source

    def batch(text):
        return [Unit(key="tenant", source=text, tp=elaborate_source(text))]

    expected = run_units(batch(broken), DriverConfig(jobs=1))
    with PoolSession(2) as session:
        first = run_units(batch(source), DriverConfig(jobs=2),
                          session=session)
        second = run_units(batch(broken), DriverConfig(jobs=2),
                           session=session)
    assert first["tenant"][0].ok
    assert not second["tenant"][0].ok
    assert _outcomes(second) == _outcomes(expected)
