"""Unit tests for the refinement term language."""

import pytest

from repro.pure import Sort, Subst, TermError, fresh_evar, terms as T


class TestConstruction:
    def test_literal_sorts(self):
        assert T.intlit(3).sort is Sort.INT
        assert T.TRUE.sort is Sort.BOOL

    def test_add_folds_constants(self):
        assert T.add(T.intlit(2), T.intlit(3)) == T.intlit(5)

    def test_add_flattens(self):
        a, b = T.var("a"), T.var("b")
        t = T.add(T.add(a, b), T.intlit(1), T.intlit(2))
        assert isinstance(t, T.App) and t.op == "add"
        assert T.intlit(3) in t.args and a in t.args and b in t.args

    def test_add_identity(self):
        a = T.var("a")
        assert T.add(a, T.intlit(0)) == a

    def test_mul_zero_annihilates(self):
        assert T.mul(T.var("a"), T.intlit(0)) == T.intlit(0)

    def test_sub_zero(self):
        a = T.var("a")
        assert T.sub(a, T.intlit(0)) == a

    def test_comparison_folding(self):
        assert T.le(T.intlit(1), T.intlit(2)) == T.TRUE
        assert T.lt(T.intlit(2), T.intlit(2)) == T.FALSE
        assert T.eq(T.intlit(5), T.intlit(5)) == T.TRUE

    def test_eq_reflexive_without_evars(self):
        a = T.var("a")
        assert T.eq(a, a) == T.TRUE

    def test_eq_not_folded_with_evars(self):
        ev = fresh_evar(Sort.INT)
        t = T.eq(ev, ev)
        assert t != T.TRUE  # evars must not be eagerly identified

    def test_and_simplification(self):
        p = T.var("p", Sort.BOOL)
        assert T.and_(p, T.TRUE) == p
        assert T.and_(p, T.FALSE) == T.FALSE
        assert T.or_(p, T.TRUE) == T.TRUE
        assert T.or_(p, T.FALSE) == p

    def test_double_negation(self):
        p = T.var("p", Sort.BOOL)
        assert T.not_(T.not_(p)) == p

    def test_ite_concrete_condition(self):
        a, b = T.var("a"), T.var("b")
        assert T.ite(T.TRUE, a, b) == a
        assert T.ite(T.FALSE, a, b) == b
        assert T.ite(T.var("p", Sort.BOOL), a, a) == a

    def test_ite_branch_sort_mismatch(self):
        with pytest.raises(TermError):
            T.ite(T.TRUE, T.intlit(1), T.var("s", Sort.MSET))

    def test_sort_checking(self):
        with pytest.raises(TermError):
            T.add(T.intlit(1), T.TRUE)
        with pytest.raises(TermError):
            T.eq(T.intlit(1), T.var("s", Sort.MSET))

    def test_loc_offset_zero(self):
        p = T.var("p", Sort.LOC)
        assert T.loc_offset(p, T.intlit(0)) == p

    def test_loc_offset_collapses(self):
        p = T.var("p", Sort.LOC)
        t = T.loc_offset(T.loc_offset(p, T.intlit(4)), T.intlit(3))
        assert t == T.loc_offset(p, T.intlit(7))

    def test_munion_empty_unit(self):
        s = T.var("s", Sort.MSET)
        assert T.munion(s, T.mempty()) == s

    def test_unknown_op_rejected(self):
        with pytest.raises(TermError):
            T.app("frobnicate", T.intlit(1))


class TestTraversal:
    def test_free_vars(self):
        a, b = T.var("a"), T.var("b")
        t = T.add(a, T.mul(b, T.intlit(2)))
        assert t.free_vars() == {a, b}

    def test_evars(self):
        ev = fresh_evar(Sort.INT)
        t = T.add(T.var("a"), ev)
        assert t.evars() == {ev}
        assert t.has_evars()

    def test_no_evars(self):
        assert not T.add(T.var("a"), T.intlit(1)).has_evars()


class TestSubst:
    def test_bind_and_resolve(self):
        s = Subst()
        ev = fresh_evar(Sort.INT)
        s.bind_evar(ev, T.intlit(7))
        assert s.resolve(T.add(ev, T.intlit(1))) == T.intlit(8)

    def test_double_bind_rejected(self):
        s = Subst()
        ev = fresh_evar(Sort.INT)
        s.bind_evar(ev, T.intlit(1))
        with pytest.raises(TermError):
            s.bind_evar(ev, T.intlit(2))

    def test_occurs_check(self):
        s = Subst()
        ev = fresh_evar(Sort.INT)
        with pytest.raises(TermError):
            s.bind_evar(ev, T.add(ev, T.intlit(1)))

    def test_chained_resolution(self):
        s = Subst()
        e1, e2 = fresh_evar(Sort.INT), fresh_evar(Sort.INT)
        s.bind_evar(e1, e2)
        s.bind_evar(e2, T.intlit(3))
        assert s.resolve(e1) == T.intlit(3)

    def test_sort_mismatch_rejected(self):
        s = Subst()
        ev = fresh_evar(Sort.INT)
        with pytest.raises(TermError):
            s.bind_evar(ev, T.TRUE)

    def test_subst_vars(self):
        a = T.var("a")
        t = T.subst_vars(T.add(a, T.intlit(1)), {a: T.intlit(4)})
        assert t == T.intlit(5)

    def test_subst_vars_recanonicalises(self):
        a, b = T.var("a"), T.var("b")
        t = T.subst_vars(T.le(a, b), {a: T.intlit(1), b: T.intlit(2)})
        assert t == T.TRUE


class TestRefcountFreed:
    """A term keeps no reference to itself — not through its free-var
    or evar set, its subterm list, its linear row, its linear
    constraints, its normal form or its hypothesis decomposition — and
    the solver's recursive searches leave no cycles behind, so a term
    the pure caches drop is freed by reference counting, not left for
    the cyclic collector."""

    @staticmethod
    def _work():
        from repro.pure import Lemma, PureSolver, simplify, simplify_hyp
        from repro.pure.linarith import implies_linear
        a, b, c, n, k = (T.var(f"rc_{x}") for x in "abcnk")
        xs = T.var("rc_xs", Sort.LIST)
        s = T.var("rc_s", Sort.MSET)
        e = fresh_evar(Sort.INT, "rc_e")

        def f(t):
            return T.fn_app("rc_f", [t], Sort.INT)

        hyps = [T.le(T.intlit(0), n), T.le(n, a), T.lt(a, b),
                T.eq(c, T.mul(a, b)), T.le(T.app("len", xs), n)]
        goals = [T.le(T.sub(a, n), a), T.lt(n, b),
                 T.le(T.ite(T.le(n, a), T.sub(a, n), a), a),
                 T.le(T.intlit(0), T.app("len", xs)),
                 T.eq(T.munion(s, T.mempty()), s),
                 T.lt(T.intlit(0), T.add(f(a), T.intlit(1))),
                 T.eq(e, T.add(a, T.intlit(1)))]
        lemma = Lemma("rc_pos", (k,), (T.le(T.intlit(0), k),),
                      T.le(T.intlit(0), f(k)))
        solver = PureSolver(lemmas=[lemma])
        for goal in goals:
            solver.prove(hyps, goal)
            implies_linear(hyps, goal)
            simplify_hyp(simplify(goal))
            goal.free_vars(), goal.evars()
        for hyp in hyps:
            simplify_hyp(hyp)
        # Constraint extraction through a conjunction, a negated `le`
        # (translated via a fresh `lt` node) and a strict `lt`.
        linear = [T.and_(T.le(T.intlit(0), n), T.lt(n, a)),
                  T.not_(T.le(b, n)), T.lt(a, T.add(b, c))]
        for goal in goals[:4]:
            implies_linear(linear, goal)
        # Repeated and ignored facts (no linear row), cut from the key.
        noisy = [T.TRUE, linear[0], T.mmember(a, s), linear[0],
                 T.eq(xs, T.cons(a, xs)), *linear, T.TRUE]
        for goal in goals[:4]:
            implies_linear(noisy, goal)
        assert all(getattr(h, "_lcon", None) is not None for h in linear)

    def test_dropped_terms_leave_no_cyclic_garbage(self):
        import gc

        from repro.pure.memo import clear_pure_caches
        gc.collect()
        saved = gc.get_debug()
        gc.set_debug(saved | gc.DEBUG_SAVEALL)
        try:
            self._work()
            clear_pure_caches()
            gc.collect()
            leaked = [o for o in gc.garbage if isinstance(o, T.Term)]
        finally:
            gc.set_debug(saved)
            gc.garbage.clear()
        assert not leaked, leaked[:10]
