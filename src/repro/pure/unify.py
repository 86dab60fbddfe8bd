"""Syntactic first-order unification over refinement terms.

This implements the evar-instantiation heuristic of Lithium (paper §5,
"Handling of evars"): when a pure side condition is an equality, all evars
are unsealed and the two sides are unified, potentially instantiating evars.

As in the paper, unification is *syntactic* and may instantiate an evar under
a non-injective symbol (e.g. unifying ``len ?x`` with ``len l`` binds
``?x := l``); this can in principle turn a provable goal unprovable, which is
an accepted incompleteness of RefinedC (§5, §9).

Unlike Coq's unification we make one hygiene improvement that does not affect
the search discipline: candidate bindings are accumulated on a trail and
committed to the shared :class:`~repro.pure.terms.Subst` only if the whole
unification succeeds, so a failed attempt leaves no partial instantiation.
"""

from __future__ import annotations

from typing import Iterable

from .terms import App, EVar, Lit, Subst, Term, Var, app


def unify(a: Term, b: Term, subst: Subst, frozen: Iterable[int] = ()) -> bool:
    """Try to unify ``a`` and ``b`` modulo ``subst``.

    ``frozen`` is a set of evar ids that must not be instantiated (Lithium's
    *sealed* evars).  On success the new bindings are committed to ``subst``
    and ``True`` is returned; on failure ``subst`` is unchanged.
    """
    frozen_set = set(frozen)
    trail: dict[int, Term] = {}
    if not _go(a, b, subst, trail, frozen_set):
        return False
    for eid, t in trail.items():
        # Resolve through the rest of the trail before committing.
        resolved = _resolve_trail(t, trail, subst)
        subst.bind_evar(EVar(eid, resolved.sort), resolved)
    return True


# Module-level functions that thread (subst, trail), not closures inside
# ``unify``: a recursive closure refers to itself through its cell, so
# each call would leave a reference cycle, holding the terms on the
# trail, for the cyclic collector to find.

def _walk(t: Term, subst: Subst, trail: dict[int, Term]) -> Term:
    t = subst.resolve(t)
    while isinstance(t, EVar) and t.eid in trail:
        t = trail[t.eid]
    return t


def _walk_deep(t: Term, subst: Subst, trail: dict[int, Term]):
    t = _walk(t, subst, trail)
    yield t
    if isinstance(t, App):
        for arg in t.args:
            yield from _walk_deep(arg, subst, trail)


def _occurs(ev: EVar, t: Term, subst: Subst, trail: dict[int, Term]) -> bool:
    return any(isinstance(s, EVar) and s.eid == ev.eid
               for s in _walk_deep(t, subst, trail))


def _go(x: Term, y: Term, subst: Subst, trail: dict[int, Term],
        frozen: set[int]) -> bool:
    x, y = _walk(x, subst, trail), _walk(y, subst, trail)
    if x == y:
        return True
    if isinstance(x, EVar) and x.eid not in frozen:
        if x.sort is not y.sort or _occurs(x, y, subst, trail):
            return False
        trail[x.eid] = y
        return True
    if isinstance(y, EVar) and y.eid not in frozen:
        if y.sort is not x.sort or _occurs(y, x, subst, trail):
            return False
        trail[y.eid] = x
        return True
    if isinstance(x, App) and isinstance(y, App):
        if x.op != y.op or len(x.args) != len(y.args):
            return False
        return all(_go(xa, ya, subst, trail, frozen)
                   for xa, ya in zip(x.args, y.args))
    return False


def _resolve_trail(t: Term, trail: dict[int, Term], subst: Subst) -> Term:
    t = subst.resolve(t)
    if isinstance(t, EVar) and t.eid in trail:
        return _resolve_trail(trail[t.eid], trail, subst)
    if isinstance(t, App):
        new_args = tuple(_resolve_trail(a, trail, subst) for a in t.args)
        if new_args == t.args:
            return t
        if t.op.startswith("fn:") or t.op == "list_lit":
            return App(t.op, new_args, t.result_sort)
        return app(t.op, *new_args, sort=t.result_sort)
    return t
