"""Central registry for the pure-stack memoization caches.

The hash-consed term engine (:mod:`repro.pure.terms`) makes structurally
equal terms pointer-identical, which turns every derived computation over
immutable terms — ``simplify``, hypothesis expansion, linearisation,
entailment checking — into a candidate for *observationally pure*
memoization: the cached result must be indistinguishable from recomputing
it (same value, same ``Stats`` counters, same error text).

This module owns the registry used to clear those caches plus the
compiled-form telemetry counter:

* :func:`register_cache` / :func:`register_clearer` — every cache
  registers itself so :func:`clear_pure_caches` can drop the lot.  The
  verification driver clears only the term *intern* tables between
  function checks (so the per-function ``terms_interned`` metric counts
  one function's constructions); the semantic memo caches survive across
  functions — they are purely syntactic, so cross-function hits are free
  speedup — and are bounded by :func:`trim_cache`.
* :func:`note_compiled` / :func:`compiled_count` — count term nodes whose
  compiled form (normal form, hypothesis decomposition, or linear row)
  was computed and attached to the node.  Like ``intern_count`` this
  feeds a per-function metric (``terms_compiled``) that is excluded from
  ``Stats.counters()``, so fingerprints stay deterministic.

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
_TERMS_COMPILED = 0


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


def note_compiled(n: int = 1) -> None:
    """Record that a term node's compiled form was just materialised."""
    global _TERMS_COMPILED
    _TERMS_COMPILED += n


def compiled_count() -> int:
    """Total compiled-form materialisations in this process (telemetry)."""
    return _TERMS_COMPILED
