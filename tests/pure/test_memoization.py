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

from repro.pure import linarith, simplify, simplify_hyp  # noqa: E402
from repro.pure import terms as T  # noqa: E402
from repro.pure.linarith import implies_linear  # noqa: E402
from repro.pure.memo import clear_pure_caches  # noqa: E402
from repro.pure.solver import PureSolver  # noqa: E402
from repro.pure.terms import Subst, fresh_evar  # noqa: E402

from .linarith_oracle import oracle_implies_linear  # noqa: E402
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


def _ignored_facts():
    """Hypotheses linarith ignores: no linear row, no atom, no split."""
    xs, ys = T.var("ig_xs", T.Sort.LIST), T.var("ig_ys", T.Sort.LIST)
    return [T.TRUE, T.mmember(T.var("a"), T.var("ig_s", T.Sort.MSET)),
            T.eq(xs, ys)]


def test_ignored_and_repeated_facts_share_one_entailment(monkeypatch):
    """Linear entailment is keyed on the facts linarith uses: contexts
    that differ only in ignored or repeated facts leave one memo entry
    and run one Fourier--Motzkin elimination."""
    runs = []
    fm_int = linarith._fm_int
    monkeypatch.setattr(linarith, "_fm_int",
                        lambda rows: runs.append(rows) or fm_int(rows))
    a, b, c = T.var("a"), T.var("b"), T.var("c")
    ab, bc, goal = T.le(a, b), T.le(b, c), T.le(a, c)
    true, member, lists_eq = _ignored_facts()
    contexts = [[ab, bc], [ab, true, bc], [member, ab, bc, ab],
                [ab, lists_eq, bc, bc, true], [ab, ab, member, bc]]
    assert all(implies_linear(hyps, goal) for hyps in contexts)
    assert len(linarith._IMPLIES_CACHE) == 1
    assert len(runs) == 1


@settings(max_examples=60, deadline=None)
@given(hyps=st.lists(bool_terms, max_size=3), goal=bool_terms,
       noise=st.lists(st.integers(0, 2), max_size=3),
       where=st.integers(0, 3),
       repeat=st.lists(st.booleans(), max_size=3))
def test_ignored_and_repeated_facts_keep_the_oracle_verdict(
        hyps, goal, noise, where, repeat):
    """Mixing ignored facts and repeats into ``hyps`` leaves the
    verdict of the rational oracle on the distinct facts."""
    clear_pure_caches()
    facts = list(dict.fromkeys(hyps))
    ignored = _ignored_facts()
    mixed = (facts[:where] + [ignored[i] for i in noise] + facts[where:]
             + [h for h, again in zip(facts, repeat) if again])
    assert implies_linear(mixed, goal) == oracle_implies_linear(facts, goal)


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

