"""Central registry for the pure-stack memoization caches.

The hash-consed term engine (:mod:`repro.pure.terms`) makes structurally
equal terms pointer-identical, which turns every derived computation over
immutable terms — ``simplify``, hypothesis expansion, linearisation,
entailment checking — into a candidate for *observationally pure*
memoization: the cached result must be indistinguishable from recomputing
it (same value, same ``Stats`` counters, same error text).

Each derived form is memoized in exactly one place.  A form of a single
term node — its normal form, hypothesis decomposition, linear row or
linear constraints — lives in a slot on the interned node; a result keyed
on more than one term lives in a dict registered here.  There are three:
linear entailments (``linarith._IMPLIES_CACHE``, keyed on the facts
linarith uses, so contexts that differ only in ignored or repeated
facts share an entry), default-solver subproblems
(``solver._DEFAULT_CACHE``) and full ``prove`` results
(``solver._PROVE_CACHE``).  A dict stays only while it hits: ``python
scripts/ci_checks.py memo-census`` counts each one's hits over a cold
Figure-7 pass and fails on a memo that never hits, or on more than four.

Interned nodes and dict memos alike live for the process: the
verification driver resets only the fresh-name counters between function
checks, so a term one check built serves every later check, slots
included.  Both are bounded — a dict past its cap (:func:`trim_cache`)
or an intern table past :data:`DEFAULT_CACHE_CAP` is dropped wholesale.

:func:`register_cache` / :func:`register_clearer` enrol every memo so
:func:`clear_pure_caches` can drop the lot: the dict memos and the
intern tables.  That is how cold measurements, traced checks and the
certificate re-check start from nothing.  Compiled forms already
stamped on terms someone still holds survive it; they are rewrites, not
proof results.

Caches registered here must hold only *derived* data: clearing them at an
arbitrary point may cost performance but can never change a result.  The
purity tests check exactly that, cold (right after
:func:`clear_pure_caches`) against warm (after unrelated queries).
"""

from __future__ import annotations

from typing import Callable, MutableMapping

from ..trace import tracer as _trace

#: Default per-cache entry cap; a cache whose size exceeds its cap is
#: simply cleared (results are derived data, so this is always safe).
DEFAULT_CACHE_CAP = 1 << 18

_CACHES: list[tuple[MutableMapping, int]] = []
_CLEARERS: list[Callable[[], None]] = []


def register_cache(cache: MutableMapping, cap: int = DEFAULT_CACHE_CAP
                   ) -> MutableMapping:
    """Register a memoization dict; returns it for assignment symmetry."""
    _CACHES.append((cache, cap))
    return cache


def register_clearer(fn: Callable[[], None]) -> Callable[[], None]:
    """Register a callback invoked by :func:`clear_pure_caches` (for
    caches that need more than ``dict.clear`` — e.g. the term intern
    tables, which re-seed their singletons)."""
    _CLEARERS.append(fn)
    return fn


def clear_pure_caches() -> None:
    """Drop every registered cache.  Observationally a no-op."""
    for cache, _cap in _CACHES:
        cache.clear()
    for fn in _CLEARERS:
        fn()


def trim_cache(cache: MutableMapping, cap: int = DEFAULT_CACHE_CAP) -> None:
    """Bound a cache's size by clearing it once it exceeds ``cap``."""
    if len(cache) > cap:
        entries = len(cache)
        cache.clear()
        tr = _trace.CURRENT
        if tr is not None:
            # Cache-pressure signal: a memo table hit its cap and was
            # dropped wholesale (derived data — safe, but a cold restart).
            tr.instant("memo", "trim", entries=entries, cap=cap)

