"""The forward-chaining head index: instantiations equal the full scan.

``PureSolver._instantiations`` tries a trigger pattern that resolves to
an ``App`` only against the pool terms of the same ``(op, arity)``.  The
other pool terms can never unify with it, so the instantiations it
yields, and their order, must be exactly those of scanning the whole
pool — on the manual lemmas as the case studies use them, and on a
synthetic set whose bare-variable trigger still scans everything.
"""

import pytest

from repro.frontend import verify_file
from repro.proofs.manual import LEMMAS_BY_STUDY
from repro.pure import Lemma, PureSolver, Sort, terms as T
from repro.pure.memo import clear_pure_caches
from repro.pure.solver import _app_subterms, _head_index
from repro.report import casestudies_dir


def instantiations(solver, lemma, patterns, pool, heads):
    return list(solver._instantiations(lemma, patterns, pool, heads))


def assert_same_as_full_scan(solver, lemma, patterns, pool):
    heads = _head_index(pool)
    assert heads is not None
    full = instantiations(solver, lemma, patterns, pool, None)
    assert instantiations(solver, lemma, patterns, pool, heads) == full
    return full


@pytest.fixture(scope="module")
def recorded_calls():
    """``(solver, lemma, patterns, pool)`` of every enumeration the
    lemma-using case studies make, from a cold pure cache."""
    calls = []
    real = PureSolver._instantiations

    def recording(self, lemma, patterns, pool, heads):
        calls.append((self, lemma, patterns, list(pool)))
        return real(self, lemma, patterns, pool, heads)

    clear_pure_caches()
    PureSolver._instantiations = recording
    try:
        for study in sorted(LEMMAS_BY_STUDY):
            out = verify_file(casestudies_dir() / f"{study}.c")
            assert out.ok, study
    finally:
        PureSolver._instantiations = real
    return calls


def test_case_study_enumerations_match_full_scan(recorded_calls):
    assert recorded_calls, "the lemma studies chain forward"
    yielded = 0
    for solver, lemma, patterns, pool in recorded_calls:
        yielded += len(assert_same_as_full_scan(solver, lemma, patterns,
                                                pool))
    assert yielded > 0


K, N = T.var("K"), T.var("N")
XS = T.var("XS", Sort.LIST)


def ground_pool():
    """Subterms of ground instances of every manual lemma: many heads,
    several terms per head, duplicates dropped in first-seen order."""
    pool, seen = [], set()
    lists = [T.var("xs", Sort.LIST), T.var("ys", Sort.LIST)]
    for table in LEMMAS_BY_STUDY.values():
        for lemma in table.values():
            for i, xs in enumerate(lists):
                inst = {p: (xs if p.sort is Sort.LIST
                            else T.var(f"{p.name.lower()}{i}", p.sort))
                        for p in lemma.params}
                for t in (lemma.conclusion,) + lemma.hyps:
                    u = T.subst_vars(t, inst)
                    subs = _app_subterms(u)
                    for s in (u, *subs) if isinstance(u, T.App) else subs:
                        if s not in seen:
                            seen.add(s)
                            pool.append(s)
    return pool


@pytest.mark.parametrize("study", sorted(LEMMAS_BY_STUDY))
def test_manual_lemmas_on_a_ground_pool(study):
    pool = ground_pool()
    solver = PureSolver(lemmas=list(LEMMAS_BY_STUDY[study].values()))
    for lemma in solver.lemmas:
        assert_same_as_full_scan(solver, lemma, lemma.trigger_patterns(),
                                 pool)


def test_variable_trigger_scans_the_whole_pool():
    pool = ground_pool()
    ints = [t for t in pool if t.sort is Sort.INT]
    # A bare-variable trigger matches every INT pool term, in pool order.
    anything = Lemma("anything", (K,), (), T.le(K, K), triggers=(K,))
    solver = PureSolver(lemmas=[anything])
    got = assert_same_as_full_scan(solver, anything, anything.triggers,
                                   pool)
    assert [inst[K] for inst in got] == ints[:PureSolver._FORWARD_ATTEMPTS]
    # Mixed: a head pattern after a variable one, sharing no parameter.
    mixed = Lemma("mixed", (K, XS, N), (), T.le(K, N),
                  triggers=(K, T.app("index", XS, N)))
    got = assert_same_as_full_scan(PureSolver(lemmas=[mixed]), mixed,
                                   mixed.triggers, pool)
    assert got


def test_pool_with_an_evar_is_not_indexed():
    ev = T.fresh_evar(Sort.INT, "e")
    assert _head_index([T.app("add", ev, T.intlit(1))]) is None
    length = T.app("len", XS)
    assert _head_index([length]) == {("len", 1): [length]}
