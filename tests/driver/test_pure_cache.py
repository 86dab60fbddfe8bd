"""End-to-end observational purity of the pure-stack caches.

The driver must produce byte-identical results — per-function outcome,
``Stats.counters()`` and exact error text — whether the memoization
caches (and the compiled forms stamped on interned nodes) start cold,
right after ``clear_pure_caches()``, or warm from unrelated studies;
the caches may only surface in the (non-counter) telemetry fields
``solver_cache_hits`` / ``terms_interned`` / ``dispatch_table_hits`` /
``terms_compiled``."""

import pytest

from repro.frontend import verify_file, verify_source
from repro.pure.memo import clear_pure_caches

from .conftest import fingerprint, study_path

STUDIES = ["alloc", "mpool", "binary_search", "hashmap"]


def _warm_up(skip: str) -> None:
    """Fill the caches with every other study of the sample."""
    for other in STUDIES:
        if other != skip:
            verify_file(study_path(other))


@pytest.mark.parametrize("study", STUDIES)
def test_cached_equals_uncached(study):
    path = study_path(study)
    clear_pure_caches()
    cold = verify_file(path)
    _warm_up(study)
    warm = verify_file(path)
    assert warm.ok == cold.ok
    assert fingerprint(warm) == fingerprint(cold)


def test_cached_equals_uncached_on_failure():
    src = study_path("alloc").read_text().replace(
        "{n <= a} @ optional", "{n < a} @ optional")
    clear_pure_caches()
    cold = verify_source(src)
    _warm_up("")
    warm = verify_source(src)
    assert not cold.ok and not warm.ok
    assert fingerprint(warm) == fingerprint(cold)


def test_cache_telemetry_is_populated():
    clear_pure_caches()
    out = verify_file(study_path("mpool"))
    m = out.metrics
    assert m.terms_interned > 0
    assert m.solver_cache_hits > 0
    assert m.terms_interned == sum(f.terms_interned for f in m.functions)
    assert m.solver_cache_hits == sum(f.solver_cache_hits
                                      for f in m.functions)


def test_compile_telemetry_is_populated():
    clear_pure_caches()
    out = verify_file(study_path("mpool"))
    m = out.metrics
    assert m.dispatch_table_hits > 0
    assert m.terms_compiled > 0
    assert m.dispatch_table_hits == sum(f.dispatch_table_hits
                                        for f in m.functions)
    assert m.terms_compiled == sum(f.terms_compiled for f in m.functions)
