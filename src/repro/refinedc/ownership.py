"""Ownership manipulation helpers shared by the typing rules.

These build Lithium *goals* (so every step is recorded in the derivation):

* :func:`intro_loc_goal` — introduce ``ℓ ◁ₗ τ`` into the context,
  decomposing structs into per-field atoms (plus padding), skolemising
  type-level existentials, and splitting ``padded``/``constrained``
  wrappers.  This is RefinedC's "unfolding" direction.
* :func:`locate` — find the context atom covering a byte range, using the
  syntactic normal form of locations (``base +ₗ offset``); candidate checks
  for carving out of ``uninit`` blocks use quiet entailment checks on the
  offset arithmetic.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from ..lithium.goals import GForall, Goal, GWand, HAtom, HPure
from ..lithium.search import SearchState
from ..pure.solver import Outcome
from ..pure.terms import (App, Sort, Term, add, and_, eq, intlit, le,
                          loc_offset, sub)
from .judgments import LocType
from .spec import ShrPtr
from .types import (ArrayT, ConstrainedT, ExistsT, IntT, NamedT, OwnPtr,
                    PaddedT, RType, StructT, UninitT)

if TYPE_CHECKING:  # pragma: no cover
    from .checker import FnCtx


def split_loc(loc: Term) -> tuple[Term, Term]:
    """Decompose a location into (base, byte offset)."""
    if isinstance(loc, App) and loc.op == "loc_offset":
        base, off = split_loc(loc.args[0])
        return base, add(off, loc.args[1])
    return loc, intlit(0)


def range_facts(ty: RType) -> list[Term]:
    """Pure facts implied by owning a location at a scalar type — e.g. a
    refined ``n @ int<α>`` guarantees ``min(α) ≤ n ≤ max(α)``."""
    if isinstance(ty, IntT) and ty.refinement is not None:
        return [le(intlit(ty.itype.min_value), ty.refinement),
                le(ty.refinement, intlit(ty.itype.max_value))]
    if isinstance(ty, UninitT):
        return [le(intlit(0), ty.size)]
    if isinstance(ty, ArrayT):
        return [le(intlit(0), ty.length),
                eq(App("len", (ty.xs,), Sort.INT), ty.length)]
    return []


def intro_loc_goal(sigma: "FnCtx", state: SearchState, loc: Term, ty: RType,
                   cont: Goal, shared: bool = False) -> Goal:
    """Build the goal introducing ``ℓ ◁ₗ τ`` (decomposed) then ``cont``."""
    ty = ty.resolve(state.subst)
    if isinstance(ty, NamedT):
        unfolded = sigma.types.unfold(ty)
        return intro_loc_goal(sigma, state, loc, unfolded, cont, shared)
    if isinstance(ty, ExistsT):
        body = ty.body
        return GForall(ty.sort, ty.hint, lambda x: intro_loc_goal(
            sigma, state, loc, body(x), cont, shared))
    if isinstance(ty, ConstrainedT):
        return GWand(HPure(ty.phi),
                     intro_loc_goal(sigma, state, loc, ty.inner, cont, shared))
    if isinstance(ty, PaddedT):
        inner_size = ty.inner.layout_size()
        if inner_size is None:
            raise TypeError(f"padded inner type has unknown size: {ty!r}")
        pad = UninitT(sub(ty.size, inner_size))
        return intro_loc_goal(
            sigma, state, loc, ty.inner,
            intro_loc_goal(sigma, state, loc_offset(loc, inner_size), pad,
                           cont, shared),
            shared)
    if isinstance(ty, StructT):
        goal = cont
        pieces = struct_pieces(ty)
        for off, piece_ty in reversed(pieces):
            goal = intro_loc_goal(sigma, state,
                                  loc_offset(loc, intlit(off)), piece_ty,
                                  goal, shared)
        return goal
    if isinstance(ty, OwnPtr) and ty.loc is None:
        # Skolemise the pointer value so every owned pointer has a concrete
        # location refinement internally.
        v = state.fresh_var(Sort.LOC, "ptr")
        ty = OwnPtr(ty.inner, v)
    if isinstance(ty, OwnPtr):
        # Surface the *pure shell* of the pointee: constraints that sit
        # above any binder are implied by ownership, so they may enter Γ
        # without unfolding the pointer (needed e.g. when a loop invariant
        # mentions them before the first dereference).
        for phi in shell_facts(sigma, ty.inner):
            cont = GWand(HPure(phi), cont)
    if isinstance(ty, ShrPtr) and ty.loc is None:
        v = state.fresh_var(Sort.LOC, "sptr")
        ty = ShrPtr(ty.inner, v)
    goal: Goal = GWand(HAtom(LocType(loc, ty, shared)), cont)
    facts = range_facts(ty)
    for phi in reversed(facts):
        goal = GWand(HPure(phi), goal)
    return goal


def shell_facts(sigma: "FnCtx", ty: RType, depth: int = 0) -> list[Term]:
    """Pure constraints of a type that sit above any existential binder —
    facts implied by owning a value of the type."""
    if depth > 3:
        return []
    if isinstance(ty, NamedT):
        try:
            return shell_facts(sigma, sigma.types.unfold(ty), depth + 1)
        except Exception:
            return []
    if isinstance(ty, ConstrainedT):
        from ..pure.simplify import simplify_hyp
        return (simplify_hyp(ty.phi)
                + shell_facts(sigma, ty.inner, depth + 1))
    if isinstance(ty, PaddedT):
        return shell_facts(sigma, ty.inner, depth + 1)
    return []


def struct_pieces(ty: StructT) -> list[tuple[int, RType]]:
    """The (offset, type) pieces of a struct: fields plus padding holes."""
    layout = ty.layout
    pieces: list[tuple[int, RType]] = []
    pos = 0
    for fname, flayout in layout.fields:
        off = layout.offset_of(fname)
        if off > pos:
            pieces.append((pos, UninitT(intlit(off - pos))))
        pieces.append((off, ty.field_type(fname)))
        pos = off + flayout.size
    if layout.size > pos:
        pieces.append((pos, UninitT(intlit(layout.size - pos))))
    return pieces


# ---------------------------------------------------------------------
# Locating ownership.
# ---------------------------------------------------------------------

def quiet_entails(state: SearchState, phi: Term) -> bool:
    """Check a pure fact without recording a side condition — used only to
    *select* among candidate atoms (the choice itself is then justified by
    recorded side conditions emitted by the rule that uses it)."""
    phi = state.subst.resolve(phi)
    if phi.has_evars():
        return False
    facts = state.gamma.resolved_facts(state.subst)
    return state.solver.prove(facts, phi).outcome is not Outcome.FAILED


def locate(sigma: "FnCtx", state: SearchState, loc: Term,
           size: Optional[Term]) -> Optional[tuple[LocType, Term]]:
    """Find the Δ atom covering ``[loc, loc+size)``.

    Returns ``(atom, start_offset_within_atom)``; exact-location matches are
    preferred, then ``uninit`` blocks at the same base whose bounds provably
    cover the range.
    """
    loc = state.subst.resolve(loc)
    exact = state.delta.find_related(loc, state.subst)
    if isinstance(exact, LocType):
        return exact, intlit(0)
    base, off = split_loc(loc)
    for atom in list(state.delta):
        if not isinstance(atom, LocType):
            continue
        a_base, a_off = split_loc(state.subst.resolve(atom.loc))
        if a_base != base:
            continue
        a_ty = atom.ty.resolve(state.subst)
        if size is None:
            continue
        if isinstance(a_ty, UninitT):
            total = a_ty.size
        elif isinstance(a_ty, ArrayT):
            total = a_ty.layout_size()
        else:
            continue
        # Need: a_off ≤ off and off + size ≤ a_off + atom_size.
        fits = and_(le(a_off, off), le(add(off, size), add(a_off, total)))
        if quiet_entails(state, fits):
            return atom, sub(off, a_off)
    return None
