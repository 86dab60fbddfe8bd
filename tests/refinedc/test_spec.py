"""Spec-layer tests: type-expression parsing and spec building."""

import pytest

from repro.caesium.layout import SIZE_T, IntLayout, PtrLayout, StructLayout
from repro.pure import Sort, terms as T
from repro.refinedc import (ArrayT, AtomicBoolT, ConstrainedT, ExistsT,
                            IntT, NamedT, NullT, OptionalT, OwnPtr,
                            RawFunctionAnnotations, RawStructAnnotations,
                            ShrPtr, SpecContext, SpecError, StructT, UninitT,
                            WandT, build_function_spec, define_struct_type,
                            parse_assertion, parse_type)
from repro.refinedc.judgments import LocType, TokenAtom


@pytest.fixture
def ctx():
    c = SpecContext()
    layout = StructLayout("mem_t", (("len", IntLayout(SIZE_T)),
                                    ("buffer", PtrLayout())))
    c.structs["mem_t"] = layout
    define_struct_type(layout, RawStructAnnotations(
        refined_by=["a: nat"],
        fields={"len": "a @ int<size_t>", "buffer": "&own<uninit<a>>"},
    ), c)
    return c


a = T.var("a")
n = T.var("n")
p = T.var("p", Sort.LOC)
ENV = {"a": a, "n": n, "p": p}


class TestParseType:
    def test_refined_int(self, ctx):
        t = parse_type("n @ int<size_t>", ENV, ctx)
        assert t == IntT(SIZE_T, n)

    def test_unrefined_int(self, ctx):
        assert parse_type("int<size_t>", ENV, ctx) == IntT(SIZE_T, None)

    def test_own_pointer(self, ctx):
        t = parse_type("p @ &own<uninit<a>>", ENV, ctx)
        assert t == OwnPtr(UninitT(a), p)

    def test_shared_pointer(self, ctx):
        t = parse_type("&shr<int<size_t>>", ENV, ctx)
        assert isinstance(t, ShrPtr)

    def test_null(self, ctx):
        assert parse_type("null", ENV, ctx) == NullT()

    def test_optional(self, ctx):
        t = parse_type("{n <= a} @ optional<&own<uninit<n>>, null>",
                       ENV, ctx)
        assert isinstance(t, OptionalT)
        assert t.phi == T.le(n, a)
        assert t.else_type == NullT()

    def test_named_type(self, ctx):
        t = parse_type("a @ mem_t", ENV, ctx)
        assert t == NamedT("mem_t", (a,))

    def test_named_type_unfolds_to_struct(self, ctx):
        t = ctx.types.unfold(NamedT("mem_t", (a,)))
        # nat refinement wraps the struct in its non-negativity constraint
        assert isinstance(t, ConstrainedT)
        assert isinstance(t.inner, StructT)
        assert t.inner.field_type("len") == IntT(SIZE_T, a)

    def test_wand(self, ctx):
        t = parse_type("wand<{own p : a @ mem_t}, a @ mem_t>", ENV, ctx)
        assert isinstance(t, WandT)
        assert isinstance(t.hole[0], LocType)
        assert t.hole[0].loc == p

    def test_array(self, ctx):
        env = dict(ENV)
        env["xs"] = T.var("xs", Sort.LIST)
        t = parse_type("xs @ array<int64_t, n>", env, ctx)
        assert isinstance(t, ArrayT) and t.length == n

    def test_atomicbool(self, ctx):
        t = parse_type("atomicbool<int; ; tok(lockres, 0)>", ENV, ctx)
        assert isinstance(t, AtomicBoolT)
        assert t.h_true == ()
        assert isinstance(t.h_false[0], TokenAtom)

    def test_multi_refinement(self, ctx):
        layout = StructLayout("pairs", (("x", IntLayout(SIZE_T)),))
        ctx.structs["pairs"] = layout
        define_struct_type(layout, RawStructAnnotations(
            refined_by=["u: nat", "v: nat"], fields={"x": "u @ int<size_t>"},
        ), ctx)
        t = parse_type("(a, n) @ pairs", ENV, ctx)
        assert t == NamedT("pairs", (a, n))

    def test_unknown_type(self, ctx):
        with pytest.raises(SpecError):
            parse_type("a @ widget_t", ENV, ctx)

    def test_wrong_arity(self, ctx):
        with pytest.raises(SpecError):
            parse_type("(a, n) @ mem_t", ENV, ctx)

    def test_optional_needs_refinement(self, ctx):
        with pytest.raises(SpecError):
            parse_type("optional<null, null>", ENV, ctx)


class TestParseAssertion:
    def test_own_assertion(self, ctx):
        atom = parse_assertion("own p : a @ mem_t", ENV, ctx)
        assert isinstance(atom, LocType) and not atom.shared
        assert atom.loc == p

    def test_shared_assertion(self, ctx):
        atom = parse_assertion("shr p : int<size_t>", ENV, ctx)
        assert isinstance(atom, LocType) and atom.shared

    def test_token(self, ctx):
        atom = parse_assertion("tok(lockres, 0)", ENV, ctx)
        assert isinstance(atom, TokenAtom) and not atom.dup

    def test_persistent_token(self, ctx):
        atom = parse_assertion("ptok(ready, 0)", ENV, ctx)
        assert atom.dup

    def test_pure_assertion(self, ctx):
        t = parse_assertion("{n <= a}", ENV, ctx)
        assert t == T.le(n, a)

    def test_loc_offset_assertion(self, ctx):
        atom = parse_assertion("own p + 8 : a @ mem_t", ENV, ctx)
        assert atom.loc == T.loc_offset(p, T.intlit(8))


class TestFunctionSpec:
    def test_alloc_spec(self, ctx):
        spec = build_function_spec("alloc", RawFunctionAnnotations(
            parameters=["a: nat", "n: nat", "p: loc"],
            args=["p @ &own<a @ mem_t>", "n @ int<size_t>"],
            returns="{n <= a} @ optional<&own<uninit<n>>, null>",
            ensures=["own p : {n <= a ? a - n : a} @ mem_t"],
        ), ctx)
        assert [q.name for q in spec.params] == ["a", "n", "p"]
        assert len(spec.param_facts) == 2  # two nat parameters
        assert isinstance(spec.returns, OptionalT)
        assert isinstance(spec.ensures[0], LocType)

    def test_exists_binders(self, ctx):
        spec = build_function_spec("f", RawFunctionAnnotations(
            parameters=["n: nat"], args=["n @ int<size_t>"],
            exists=["q: loc"], returns="int<size_t>",
            ensures=["own q : uninit<8>"],
        ), ctx)
        assert [y.name for y in spec.exists] == ["q"]

    def test_tactics_normalised(self, ctx):
        spec = build_function_spec("f", RawFunctionAnnotations(
            tactics=["all: multiset_solver."],
        ), ctx)
        assert spec.tactics == ["multiset_solver"]

    def test_bad_binder(self, ctx):
        with pytest.raises(SpecError):
            build_function_spec("f", RawFunctionAnnotations(
                parameters=["nat a"]), ctx)

    def test_unknown_lemma(self, ctx):
        with pytest.raises(SpecError):
            build_function_spec("f", RawFunctionAnnotations(
                lemmas=["no_such_lemma"]), ctx, lemma_table={})

    def test_ptr_type_definition(self, ctx):
        layout = StructLayout("chunk", (("size", IntLayout(SIZE_T)),
                                        ("next", PtrLayout())))
        ctx.structs["chunk"] = layout
        define_struct_type(layout, RawStructAnnotations(
            refined_by=["s: {gmultiset nat}"],
            ptr_type=("chunks_t", "{s != ∅} @ optional<&own<...>, null>"),
            exists=["n: nat", "tail: {gmultiset nat}"],
            size="n",
            constraints=["{s = {[n]} ⊎ tail}"],
            fields={"size": "n @ int<size_t>", "next": "tail @ chunks_t"},
        ), ctx)
        s = T.var("s", Sort.MSET)
        t = ctx.types.unfold(NamedT("chunks_t", (s,)))
        assert isinstance(t, OptionalT)
        assert isinstance(t.then_type, OwnPtr)
        inner = t.then_type.inner
        assert isinstance(inner, ExistsT)  # ∃n. ∃tail. padded(...)


class TestStructUnfoldingFreesItself:
    def test_checking_a_struct_study_leaves_no_wrap_exists_closure(self):
        """Unfolding a struct's ``rc::exists`` binders builds no
        self-referencing closure: none waits for the cyclic collector
        after a check."""
        import gc
        import types

        from repro.frontend import verify_file
        from repro.report import casestudies_dir
        gc.collect()
        saved = gc.get_debug()
        gc.set_debug(saved | gc.DEBUG_SAVEALL)
        try:
            out = verify_file(casestudies_dir() / "linked_list.c")
            gc.collect()
            closures = [o.__qualname__ for o in gc.garbage
                        if isinstance(o, types.FunctionType)
                        and "wrap_exists" in o.__qualname__]
        finally:
            gc.set_debug(saved)
            gc.garbage.clear()
        assert out.ok, out.report()
        assert closures == []
