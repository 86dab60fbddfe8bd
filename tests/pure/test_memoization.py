"""Observational purity of the memoized pure-solver pipeline.

The hash-consed term engine and the memo caches (simplify / linarith /
lists / sets / prove) must be invisible: an answer computed from cold
caches — right after ``clear_pure_caches()``, the cache-free starting
point — must equal the same query answered after unrelated warm-up
queries have filled the caches.  These properties drive randomly
generated terms (the strategies from ``test_properties``) through both
orders and require agreement — plus structural ``==``/hash preservation
through interning and ``Subst.resolve`` round-trips.
"""

import pickle

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro.pure import simplify, simplify_hyp  # noqa: E402
from repro.pure import terms as T  # noqa: E402
from repro.pure.linarith import implies_linear  # noqa: E402
from repro.pure.memo import clear_pure_caches  # noqa: E402
from repro.pure.solver import PureSolver  # noqa: E402
from repro.pure.terms import Subst, fresh_evar  # noqa: E402

from .test_properties import bool_terms, int_terms  # noqa: E402


@pytest.fixture(autouse=True)
def _cold_caches():
    """Each test starts from cold caches."""
    clear_pure_caches()


def _cold_and_warm(query, warmup):
    """``query()`` after ``warmup()`` filled the caches, answered twice
    (the repeat is a memo hit), then again from cold caches.  Asserts
    the warm answers agree and returns (cold, warm)."""
    clear_pure_caches()
    warmup()
    warm = query()
    assert query() == warm
    clear_pure_caches()
    return query(), warm


def _warm_simplify(terms):
    return lambda: [simplify_hyp(simplify(u)) for u in terms]


# ---------------------------------------------------------------------
# cold (cache-free start) == warm

@settings(max_examples=80, deadline=None)
@given(t=st.one_of(int_terms, bool_terms), other=st.lists(bool_terms,
                                                         max_size=3))
def test_simplify_agrees_with_cache_free(t, other):
    cold, warm = _cold_and_warm(lambda: simplify(t), _warm_simplify(other))
    assert warm == cold
    assert hash(warm) == hash(cold)


@settings(max_examples=60, deadline=None)
@given(t=bool_terms, other=st.lists(bool_terms, max_size=3))
def test_simplify_hyp_agrees_with_cache_free(t, other):
    cold, warm = _cold_and_warm(lambda: simplify_hyp(t),
                                _warm_simplify(other))
    assert warm == cold


@settings(max_examples=60, deadline=None)
@given(hyps=st.lists(bool_terms, max_size=3), goal=bool_terms,
       other=st.lists(bool_terms, min_size=1, max_size=3))
def test_implies_linear_agrees_with_cache_free(hyps, goal, other):
    cold, warm = _cold_and_warm(
        lambda: implies_linear(hyps, goal),
        lambda: [implies_linear(other[1:] + hyps, g) for g in other])
    assert warm is cold


@settings(max_examples=40, deadline=None)
@given(hyps=st.lists(bool_terms, max_size=2), goal=bool_terms,
       other=st.lists(bool_terms, min_size=1, max_size=3))
def test_prove_agrees_with_cache_free(hyps, goal, other):
    def query():
        r = PureSolver().prove(hyps, goal)
        return r.outcome, r.solver
    cold, warm = _cold_and_warm(
        query, lambda: [PureSolver().prove(hyps + other[1:], g)
                        for g in other])
    assert warm == cold


@settings(max_examples=40, deadline=None)
@given(t=bool_terms)
def test_repeat_simplify_is_memoized(t):
    """The second simplify of a compound term is a cache hit — it
    returns the pointer-identical object."""
    first = simplify(t)
    second = simplify(t)
    assert first == second
    if isinstance(t, T.App):
        assert first is second


# ---------------------------------------------------------------------
# interning: == / hash through Subst.resolve round-trips

@settings(max_examples=80, deadline=None)
@given(t=int_terms)
def test_resolve_round_trip_preserves_identity(t):
    ev = fresh_evar(T.Sort.INT, "n")
    s = Subst()
    s.bind_evar(ev, t)
    assert s.resolve(ev) == t
    assert hash(s.resolve(ev)) == hash(t)
    # Resolving a compound containing the evar equals building the
    # compound from the binding directly — interning keeps both routes on
    # the same structural value (and the same object).
    compound = T.add(ev, T.intlit(1))
    expected = T.add(t, T.intlit(1))
    resolved = s.resolve(compound)
    assert resolved == expected
    assert hash(resolved) == hash(expected)
    assert resolved is expected


@settings(max_examples=60, deadline=None)
@given(t=st.one_of(int_terms, bool_terms))
def test_pickle_round_trip_reinterns(t):
    """Un-pickling re-interns: the copy is equal, equi-hashed, and
    pointer-identical to the original."""
    copy = pickle.loads(pickle.dumps(t))
    assert copy == t
    assert hash(copy) == hash(t)
    assert copy is t

