"""Differential tests: the compiled hot paths against independent oracles.

The linear-arithmetic entailment check runs Gaussian and
Fourier–Motzkin elimination on integer rows.  ``linarith_oracle`` keeps
the rational-arithmetic formulation of the same procedure as a tests-only
reference; the verdicts must agree on random inputs — including every
"don't know".  Each comparison starts from cold pure caches, so no memo
entry from an earlier example can mask a divergence.

``simplify``'s node-stamped closures are checked against brute-force
evaluation in ``test_properties``.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro.pure import simplify  # noqa: E402
from repro.pure import terms as T  # noqa: E402
from repro.pure.linarith import implies_linear  # noqa: E402
from repro.pure.memo import clear_pure_caches  # noqa: E402

from .linarith_oracle import oracle_implies_linear  # noqa: E402
from .test_properties import VARS, bool_terms, int_terms  # noqa: E402

# ``k·v + c ⋈ 0`` with k > 1: systems whose integer cut (gcd division
# and flooring of the constant) decides the verdict.
_scaled_atoms = st.tuples(
    st.integers(2, 4), st.sampled_from(VARS), st.integers(-6, 6),
    st.sampled_from((T.le, T.lt, T.eq))).map(
    lambda t: t[3](T.add(T.mul(T.intlit(t[0]), T.var(t[1])),
                         T.intlit(t[2])), T.intlit(0)))
_linear = st.one_of(bool_terms, _scaled_atoms)
_div_terms = st.tuples(int_terms, st.integers(-2, 4).map(T.intlit)).map(
    lambda ab: T.app("div", *ab))
_minmax_terms = st.tuples(st.sampled_from(("min", "max")), int_terms,
                          int_terms).map(lambda t: T.app(*t))
_opaque_atoms = st.tuples(st.one_of(_div_terms, _minmax_terms), int_terms,
                          st.sampled_from((T.le, T.lt, T.eq))).map(
    lambda t: t[2](t[0], t[1]))


@settings(max_examples=80, deadline=None)
@given(hyps=st.lists(_linear, max_size=3), goal=_linear)
def test_implies_linear_matches_oracle(hyps, goal):
    """Entailment verdicts must agree — including every "don't know"."""
    clear_pure_caches()
    want = oracle_implies_linear(hyps, goal)
    got = implies_linear(hyps, goal)
    assert got == want, f"implies_linear({hyps} |= {goal}): {got} != {want}"


@settings(max_examples=60, deadline=None)
@given(hyps=st.lists(st.one_of(bool_terms, _opaque_atoms), max_size=3),
       goal=st.one_of(bool_terms, _opaque_atoms))
def test_axioms_match_oracle(hyps, goal):
    """The same over opaque ``div``/``min``/``max`` atoms, whose bounding
    axioms run nested entailment queries on each side."""
    clear_pure_caches()
    want = oracle_implies_linear(hyps, goal)
    got = implies_linear(hyps, goal)
    assert got == want, f"implies_linear({hyps} |= {goal}): {got} != {want}"


@settings(max_examples=40, deadline=None)
@given(t=st.one_of(int_terms, bool_terms))
def test_compiled_simplify_is_idempotent(t):
    """The node-stamped normal form, computed from cold caches, is a
    fixpoint."""
    clear_pure_caches()
    s = simplify(t)
    assert simplify(s) == s
