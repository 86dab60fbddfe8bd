"""``SearchState._solve_linear_evar``: solving a linear integer equality
for a single evar (the engine's deterministic instantiation step,
e.g. ``?n - 1 = m`` gives ``?n := m + 1``).

The solver must bind only when the solution is the *unique* integer
solution: a unit evar coefficient, the evar nowhere inside an opaque
atom, and an integral right-hand side.  Each rejection case is pinned
down here, plus the successful binding."""

from repro.lithium import RuleRegistry, SearchState
from repro.pure import PureSolver, Sort, terms as T
from repro.pure.linarith import LinExpr
from repro.pure.terms import fresh_evar


def make_state():
    return SearchState(RuleRegistry(), PureSolver(),
                       lambda have, want, cont: None, function="toy")


m = T.var("m")


def test_solves_unit_coefficient_equation():
    st = make_state()
    ev = fresh_evar(Sort.INT, "n")
    phi = T.eq(T.sub(ev, T.intlit(1)), m)
    assert st._solve_linear_evar(phi)
    assert st.subst.resolve(ev) == T.add(m, T.intlit(1))
    # The equation is now discharged under the binding.
    assert st.subst.resolve(phi) == T.eq(T.sub(T.add(m, T.intlit(1)),
                                               T.intlit(1)), m)


def test_solves_negated_evar():
    st = make_state()
    ev = fresh_evar(Sort.INT, "n")
    # -?n + m = 3  =>  ?n := m - 3
    phi = T.eq(T.add(T.neg(ev), m), T.intlit(3))
    assert st._solve_linear_evar(phi)
    assert st.subst.resolve(ev) == T.add(m, T.intlit(-3))


def test_solution_is_exact_beyond_float_precision():
    """``size_t``-range constants must survive the solve exactly."""
    st = make_state()
    ev = fresh_evar(Sort.INT, "n")
    big = 2 ** 64 - 1
    # -?n + 3·m = 2^64 - 1  =>  ?n := 3·m - (2^64 - 1)
    phi = T.eq(T.add(T.neg(ev), T.mul(T.intlit(3), m)), T.intlit(big))
    assert st._solve_linear_evar(phi)
    assert st.subst.resolve(ev) == T.add(T.mul(T.intlit(3), m),
                                         T.intlit(-big))


def test_rejects_non_unit_coefficient():
    st = make_state()
    ev = fresh_evar(Sort.INT, "n")
    # 2·?n = m has no unique integer solution for arbitrary m.
    phi = T.eq(T.mul(T.intlit(2), ev), m)
    assert not st._solve_linear_evar(phi)
    assert st.subst.resolve(ev) is ev


def test_rejects_two_evars():
    st = make_state()
    ev1 = fresh_evar(Sort.INT, "a")
    ev2 = fresh_evar(Sort.INT, "b")
    phi = T.eq(T.add(ev1, ev2), m)
    assert not st._solve_linear_evar(phi)
    assert st.subst.resolve(ev1) is ev1
    assert st.subst.resolve(ev2) is ev2


def test_rejects_evar_inside_opaque_atom():
    st = make_state()
    ev = fresh_evar(Sort.INT, "n")
    # ?n + m·?n = 0: the non-linear m·?n is an opaque atom containing the
    # evar, so ?n := -(m·?n) would be circular — must be rejected.
    phi = T.eq(T.add(ev, T.mul(m, ev)), T.intlit(0))
    assert not st._solve_linear_evar(phi)
    assert st.subst.resolve(ev) is ev


def test_rejects_non_integral_solution(monkeypatch):
    """A fractional residue can only arise from upstream rewrites; guard
    the integrality check directly by stubbing the lineariser."""
    from fractions import Fraction

    from repro.pure import linarith

    st = make_state()
    ev = fresh_evar(Sort.INT, "n")
    phi = T.eq(ev, m)

    real_linearise = linarith.linearise
    half = Fraction(1, 2)

    def fake_linearise(e, atoms, local=None):
        if e is phi.args[1]:  # give the rhs a non-integral coefficient
            return LinExpr({m: half}, Fraction(0))
        return real_linearise(e, atoms)

    monkeypatch.setattr(linarith, "linearise", fake_linearise)
    assert not st._solve_linear_evar(phi)
    assert st.subst.resolve(ev) is ev


def test_rejects_non_integral_constant(monkeypatch):
    from fractions import Fraction

    from repro.pure import linarith

    st = make_state()
    ev = fresh_evar(Sort.INT, "n")
    phi = T.eq(ev, T.intlit(1))

    real_linearise = linarith.linearise

    def fake_linearise(e, atoms, local=None):
        if e is phi.args[1]:
            return LinExpr({}, Fraction(1, 2))
        return real_linearise(e, atoms)

    monkeypatch.setattr(linarith, "linearise", fake_linearise)
    assert not st._solve_linear_evar(phi)
    assert st.subst.resolve(ev) is ev


def test_rejects_unlinearisable_equation():
    st = make_state()
    ev = fresh_evar(Sort.BOOL, "p")
    # A boolean equation has no linear form; linearise raises and the
    # solver declines without touching the substitution.
    phi = T.eq(T.and_(ev, T.TRUE), T.TRUE)
    assert not st._solve_linear_evar(phi)
    assert st.subst.resolve(ev) is ev
