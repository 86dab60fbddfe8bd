"""Normalisation of refinement terms and hypotheses.

Two mechanisms from the paper live here:

1. Term *normalisation* used before solving: distribute ``msize`` over
   multiset unions, ``len`` over list constructors, decompose structural
   equalities, etc.  These are equivalences, so they preserve provability
   (paper §5: "By default, this simplification mechanism applies
   equivalences and thus preserves provability").

2. Hypothesis *simplification* used by Lithium case (7c) when a pure fact is
   introduced into the context: e.g. ``xs ++ ys = []`` is split into
   ``xs = []`` and ``ys = []``, and ``mall_ge({[k]} ⊎ s, n)`` into
   ``n <= k`` and ``mall_ge(s, n)``.

The rule set is user-extensible (:func:`register_hyp_rule`), mirroring the
paper's extensible ``autorewrite``/typeclass mechanism.
"""

from __future__ import annotations

from typing import Callable, Optional

from .terms import (App, Lit, Sort, Term, add, and_, app, eq, intlit, le,
                    mall_ge, mall_le, msize, not_, sub)

_set = object.__setattr__
# The compiled form of a node that is its own result (its normal form,
# its hypothesis decomposition); see ``simplify``.
_NORMAL = object()


def simplify(t: Term) -> Term:
    """Normalise a term bottom-up.  Idempotent and semantics-preserving.

    Each interned node dispatches through a flat per-operator closure
    table (:data:`_NODE_RULES`) and remembers its normal form in a slot on
    the node itself (``_simp``) — the compiled form of the term, the
    only memo of it.  Interned nodes live across function checks, so a
    later check that builds the term again is answered from the slot.
    """
    if not isinstance(t, App):
        return t
    hit = getattr(t, "_simp", None)
    if hit is not None:
        return t if hit is _NORMAL else hit
    args = tuple(simplify(a) for a in t.args)
    op = t.op
    if op.startswith("fn:") or op == "list_lit":
        t2: Term = App(op, args, t.result_sort)
    else:
        t2 = app(op, *args, sort=t.result_sort)
    if isinstance(t2, App):
        handler = _NODE_RULES.get(t2.op)
        out = handler(t2) if handler is not None else t2
        if out is not t2:
            out = simplify(out)
    else:
        out = t2
    # A node already in normal form records a marker, not itself: a slot
    # holding its own node is a reference cycle, which would keep a
    # dropped term alive until the cyclic collector ran.
    _set(t, "_simp", _NORMAL if out is t else out)
    return out


def _mset_parts(t: Term) -> Optional[list[Term]]:
    """Flatten a multiset term into union parts; None if not constructor-led."""
    if isinstance(t, App):
        if t.op == "mempty":
            return []
        if t.op == "munion":
            out: list[Term] = []
            for a in t.args:
                sub_parts = _mset_parts(a)
                if sub_parts is None:
                    out.append(a)
                else:
                    out.extend(sub_parts)
            return out
        if t.op == "msingle":
            return [t]
    return [t] if t.sort is Sort.MSET else None


def _list_parts(t: Term) -> list[Term]:
    """Flatten a list term into append-parts (cons cells kept as parts)."""
    if isinstance(t, App) and t.op == "append":
        return _list_parts(t.args[0]) + _list_parts(t.args[1])
    if isinstance(t, App) and t.op == "nil":
        return []
    return [t]


# ------------------------------------------------------------------
# Node rules: one closure per App head.  Each closure takes the
# canonicalised node and returns the rewritten term, or the node itself
# when no rewrite applies, so dispatch is one dict hit instead of a scan
# over every operator's guard.  tests/pure/test_properties.py checks the
# rewrites against brute-force evaluation on random terms.
# ------------------------------------------------------------------


def _c_list_lit(t: App) -> Term:
    out: Term = app("nil")
    for x in reversed(t.args):
        out = app("cons", x, out)
    return out


def _c_msize(t: App) -> Term:
    inner = t.args[0]
    if isinstance(inner, App):
        if inner.op == "mempty":
            return intlit(0)
        if inner.op == "msingle":
            return intlit(1)
        if inner.op == "munion":
            return add(*(msize(a) for a in inner.args))
    return t


def _c_len(t: App) -> Term:
    inner = t.args[0]
    if isinstance(inner, App):
        if inner.op == "nil":
            return intlit(0)
        if inner.op == "cons":
            return add(intlit(1), app("len", inner.args[1]))
        if inner.op == "append":
            return add(app("len", inner.args[0]), app("len", inner.args[1]))
        if inner.op == "list_lit":
            return intlit(len(inner.args))
        if inner.op == "store":
            return app("len", inner.args[0])
    return t


def _c_sub(t: App) -> Term:
    a, b = t.args
    a_parts = list(a.args) if isinstance(a, App) and a.op == "add" else [a]
    b_parts = list(b.args) if isinstance(b, App) and b.op == "add" else [b]
    remaining = list(a_parts)
    for bp in b_parts:
        if bp in remaining:
            remaining.remove(bp)
        elif isinstance(bp, Lit):
            lit = next((x for x in remaining if isinstance(x, Lit)), None)
            if lit is None:
                return t
            remaining.remove(lit)
            remaining.append(intlit(int(lit.value) - int(bp.value)))
        else:
            return t
    if not remaining:
        return intlit(0)
    return add(*remaining)


def _c_append(t: App) -> Term:
    a, b = t.args
    if isinstance(a, App) and a.op == "nil":
        return b
    if isinstance(b, App) and b.op == "nil":
        return a
    if isinstance(a, App) and a.op == "cons":
        return app("cons", a.args[0], app("append", a.args[1], b))
    if isinstance(a, App) and a.op == "list_lit" and a.args:
        out = b
        for x in reversed(a.args):
            out = app("cons", x, out)
        return out
    if isinstance(a, App) and a.op == "append":
        return app("append", a.args[0], app("append", a.args[1], b))
    return t


def _c_head(t: App) -> Term:
    if isinstance(t.args[0], App) and t.args[0].op == "cons":
        return t.args[0].args[0]
    return t


def _c_tail(t: App) -> Term:
    if isinstance(t.args[0], App) and t.args[0].op == "cons":
        return t.args[0].args[1]
    return t


def _c_index(t: App) -> Term:
    xs0, j = t.args
    if isinstance(xs0, App) and xs0.op == "cons" and isinstance(j, Lit):
        i = int(j.value)
        if i == 0:
            return xs0.args[0]
        return app("index", xs0.args[1], intlit(i - 1))
    if isinstance(xs0, App) and xs0.op == "store":
        xs, i, v = xs0.args
        if i == j:
            return v
        if isinstance(i, Lit) and isinstance(j, Lit):
            return app("index", xs, j)
    return t


def _c_implies(t: App) -> Term:
    if t.args[1] == Lit(False):
        return not_(t.args[0])
    return t


def _c_eq(t: App) -> Term:
    decomposed = _decompose_eq(t.args[0], t.args[1])
    return t if decomposed is None else decomposed


def _c_mall_ge(t: App) -> Term:
    s, n = t.args
    if isinstance(s, App):
        if s.op == "mempty":
            return Lit(True)
        if s.op == "msingle":
            return le(n, s.args[0])
        if s.op == "munion":
            return and_(*(mall_ge(a, n) for a in s.args))
    return t


def _c_mall_le(t: App) -> Term:
    s, n = t.args
    if isinstance(s, App):
        if s.op == "mempty":
            return Lit(True)
        if s.op == "msingle":
            return le(s.args[0], n)
        if s.op == "munion":
            return and_(*(mall_le(a, n) for a in s.args))
    return t


def _c_mmember(t: App) -> Term:
    k, s = t.args
    if isinstance(s, App):
        if s.op == "mempty":
            return Lit(False)
        if s.op == "msingle":
            return eq(k, s.args[0])
        if s.op == "munion":
            return app("or", *(app("mmember", k, a) for a in s.args))
    return t


_NODE_RULES: dict[str, Callable[[App], Term]] = {
    "list_lit": _c_list_lit,
    "msize": _c_msize,
    "len": _c_len,
    "sub": _c_sub,
    "append": _c_append,
    "head": _c_head,
    "tail": _c_tail,
    "index": _c_index,
    "implies": _c_implies,
    "eq": _c_eq,
    "mall_ge": _c_mall_ge,
    "mall_le": _c_mall_le,
    "mmember": _c_mmember,
}


def _decompose_eq(a: Term, b: Term) -> Optional[Term]:
    """Structural decomposition of constructor-led equalities."""
    if a.sort is Sort.LIST:
        if isinstance(a, App) and isinstance(b, App):
            if a.op == "cons" and b.op == "cons":
                return and_(eq(a.args[0], b.args[0]), eq(a.args[1], b.args[1]))
            if {a.op, b.op} == {"cons", "nil"}:
                return Lit(False)
            if a.op == "nil" and b.op == "nil":
                return Lit(True)
            # xs ++ ys = []  <->  xs = [] ∧ ys = []  (an equivalence)
            for x, y in ((a, b), (b, a)):
                if y.op == "nil" and x.op == "append":
                    return and_(eq(x.args[0], app("nil")),
                                eq(x.args[1], app("nil")))
                if y.op == "nil" and x.op == "list_lit" and x.args:
                    return Lit(False)
                if y.op == "nil" and x.op == "store":
                    return eq(x.args[0], app("nil"))
    if a.sort is Sort.MSET:
        pa, pb = _mset_parts(a), _mset_parts(b)
        if pa is not None and pb is not None:
            # Cancel syntactically equal parts from both sides.
            rb = list(pb)
            ra: list[Term] = []
            for x in pa:
                if x in rb:
                    rb.remove(x)
                else:
                    ra.append(x)
            if len(ra) != len(pa):  # progress was made
                return _rebuild_mset_eq(ra, rb)
            # {[x]} = {[y]}  <->  x = y
            if len(ra) == 1 and len(rb) == 1 and \
                    all(isinstance(p, App) and p.op == "msingle" for p in (ra[0], rb[0])):
                return eq(ra[0].args[0], rb[0].args[0])
            if not ra and any(isinstance(p, App) and p.op == "msingle" for p in rb):
                return Lit(False)
            if not rb and any(isinstance(p, App) and p.op == "msingle" for p in ra):
                return Lit(False)
    return None


def _rebuild_mset_eq(ra: list[Term], rb: list[Term]) -> Term:
    def build(parts: list[Term]) -> Term:
        if not parts:
            return app("mempty")
        return app("munion", *parts) if len(parts) > 1 else parts[0]
    return eq(build(ra), build(rb))


# ------------------------------------------------------------------
# Hypothesis simplification (Lithium case (7c)).
# ------------------------------------------------------------------

HypRule = Callable[[Term], Optional[list[Term]]]
_HYP_RULES: list[HypRule] = []

# Bumped on every rule registration; compiled decompositions attached to
# term nodes carry the generation they were computed under, so a stale
# one is recomputed rather than replayed.
_HYP_GEN = 0


def register_hyp_rule(rule: HypRule) -> None:
    """Register a user-extensible hypothesis simplification rule.

    A rule takes a hypothesis and returns a list of replacement hypotheses,
    or ``None`` if it does not apply.  Rules should be equivalences unless
    the user deliberately opts into implications (the paper's escape hatch).
    """
    global _HYP_GEN
    _HYP_RULES.append(rule)
    _HYP_GEN += 1


def simplify_hyp(phi: Term) -> list[Term]:
    """Normalise a hypothesis into a list of simpler hypotheses.

    An interned ``App`` keeps its decomposition in a node slot
    (``_hypx``) tagged with the rule generation it was computed under."""
    if not isinstance(phi, App):
        return _simplify_hyp(phi)
    hit = getattr(phi, "_hypx", None)
    if hit is not None and hit[0] == _HYP_GEN:
        return [phi] if hit[1] is _NORMAL else list(hit[1])
    out = _simplify_hyp(phi)
    # As in ``simplify``: a hypothesis that is its own decomposition
    # records the marker rather than a tuple holding the node.
    own = len(out) == 1 and out[0] is phi
    _set(phi, "_hypx", (_HYP_GEN, _NORMAL if own else tuple(out)))
    return out


def _simplify_hyp(phi: Term) -> list[Term]:
    phi = simplify(phi)
    if isinstance(phi, Lit) and phi.value is True:
        return []
    if isinstance(phi, App) and phi.op == "and":
        out: list[Term] = []
        for a in phi.args:
            out.extend(simplify_hyp(a))
        return out
    for rule in _HYP_RULES:
        repl = rule(phi)
        if repl is not None:
            out = []
            for r in repl:
                out.extend(simplify_hyp(r))
            return out
    return [phi]


def _rule_append_nil(phi: Term) -> Optional[list[Term]]:
    """``xs ++ ys = []``  ~~>  ``xs = []`` and ``ys = []`` (and symmetric)."""
    if not (isinstance(phi, App) and phi.op == "eq"):
        return None
    a, b = phi.args
    if a.sort is not Sort.LIST:
        return None
    for x, y in ((a, b), (b, a)):
        if isinstance(y, App) and y.op == "nil" and isinstance(x, App) and x.op == "append":
            return [eq(x.args[0], app("nil")), eq(x.args[1], app("nil"))]
    return None


def _rule_munion_empty(phi: Term) -> Optional[list[Term]]:
    """``a ⊎ b = ∅``  ~~>  ``a = ∅`` and ``b = ∅`` (and symmetric)."""
    if not (isinstance(phi, App) and phi.op == "eq"):
        return None
    a, b = phi.args
    if a.sort is not Sort.MSET:
        return None
    for x, y in ((a, b), (b, a)):
        if isinstance(y, App) and y.op == "mempty" and isinstance(x, App) and x.op == "munion":
            return [eq(p, app("mempty")) for p in x.args]
    return None


register_hyp_rule(_rule_append_nil)
register_hyp_rule(_rule_munion_empty)
