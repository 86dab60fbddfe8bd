"""RefinedC atoms and typing judgments (§4–§6, Figure 6).

Atoms:

* ``LocType(ℓ, τ)`` — the location ℓ stores bytes satisfying τ (``ℓ ◁ₗ τ``).
* ``ValType(v, τ)`` — the value v satisfies τ (``v ◁ᵥ τ``); used when a
  rule *parks* ownership that travels with a value (e.g. O-ADD-UNINIT).
* ``TokenAtom`` — a named abstract resource (ghost tokens for the
  spinlock/one-time-barrier case studies, §7 #6).

Judgments (Lithium basic goals ``F``) are continuation-passing, exactly as
in the paper: "the expression judgment ⊢expr e {v, τ. G(v, τ)} ... is
parameterized by a continuation G" (§6).  Each judgment's ``dispatch_key``
encodes the syntax-directedness: the program construct plus the heads of
the types it operates on uniquely select a typing rule.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional

from ..caesium.layout import Layout
from ..caesium.syntax import Expr, Stmt, Terminator
from ..lithium.goals import Atom, BasicGoal, Goal
from ..pure.terms import Subst, Term
from .types import RType

if TYPE_CHECKING:  # pragma: no cover
    from .checker import FnCtx
    from .spec import FunctionSpec

# Continuation taking the inferred (symbolic value, type) of an expression.
ExprCont = Callable[[Term, RType], Goal]
# Continuation taking a location term.
LocCont = Callable[[Term], Goal]


# ---------------------------------------------------------------------
# Atoms.
# ---------------------------------------------------------------------

@dataclass(frozen=True)
class LocType(Atom):
    """``ℓ ◁ₗ τ`` — ownership of the memory at location ℓ at type τ.

    ``shared=True`` marks an invariant-governed (duplicable) location, the
    target of an ``&shr`` pointer — e.g. the spinlock's atomic boolean.
    """

    loc: Term
    ty: RType
    shared: bool = False

    @property
    def subject(self) -> Term:
        return self.loc

    @property
    def persistent(self) -> bool:
        return self.shared

    def resolve(self, subst: Subst) -> "LocType":
        loc = subst.resolve(self.loc)
        ty = self.ty.resolve(subst)
        if loc is self.loc and ty is self.ty:
            return self
        return LocType(loc, ty, self.shared)

    def __repr__(self) -> str:
        mark = "◁ₛ" if self.shared else "◁ₗ"
        return f"{self.loc!r} {mark} {self.ty!r}"


@dataclass(frozen=True)
class ValType(Atom):
    """``v ◁ᵥ τ`` — the value v has type τ (carrying ownership).

    The subject is namespaced so that a value atom for a location-sorted
    value never shadows the ``LocType`` atom of the same location.
    """

    val: Term
    ty: RType

    @property
    def subject(self) -> Term:
        from ..pure.terms import Sort, fn_app
        return fn_app("val$", [self.val], Sort.BOOL)

    def resolve(self, subst: Subst) -> "ValType":
        val = subst.resolve(self.val)
        ty = self.ty.resolve(subst)
        if val is self.val and ty is self.ty:
            return self
        return ValType(val, ty)

    def __repr__(self) -> str:
        return f"{self.val!r} ◁ᵥ {self.ty!r}"


@dataclass(frozen=True)
class TokenAtom(Atom):
    """A named abstract resource (ghost token), identified by a name and an
    index term (the γ of ``spinlock<γ>``).  ``dup=True`` makes it
    persistent (e.g. the one-time barrier's "initialised" witness)."""

    name: str
    index: Term
    dup: bool = False

    @property
    def subject(self) -> Term:
        from ..pure.terms import Sort, fn_app
        return fn_app(f"tok${self.name}", [self.index], Sort.BOOL)

    @property
    def persistent(self) -> bool:
        return self.dup

    def resolve(self, subst: Subst) -> "TokenAtom":
        index = subst.resolve(self.index)
        return self if index is self.index \
            else TokenAtom(self.name, index, self.dup)

    def __repr__(self) -> str:
        kind = "ptok" if self.dup else "tok"
        return f"{kind}:{self.name}({self.index!r})"


# ---------------------------------------------------------------------
# Judgments.
# ---------------------------------------------------------------------

@dataclass(frozen=True)
class StmtsJ(BasicGoal):
    """``⊢stmt`` — type a statement sequence + terminator of a block."""

    sigma: "FnCtx"
    stmts: tuple[Stmt, ...]
    term: Terminator

    def dispatch_key(self) -> tuple:
        if self.stmts:
            return ("stmts", type(self.stmts[0]).__name__)
        return ("stmts", "term:" + type(self.term).__name__)

    def describe(self) -> str:
        if self.stmts:
            return f"statement {self.stmts[0]!r}"
        return f"terminator {self.term!r}"

    def location_label(self) -> Optional[str]:
        node = self.stmts[0] if self.stmts else self.term
        kind = {"Assign": "assignment", "ExprS": "expression statement",
                "Ret": "return statement", "CondGoto": "if condition",
                "Goto": "goto", "Switch": "switch"}.get(
                    type(node).__name__, type(node).__name__)
        line = getattr(node, "line", 0)
        return f"{kind} (line {line})" if line else kind


@dataclass(frozen=True)
class ExprJ(BasicGoal):
    """``⊢expr e {v, τ. G(v, τ)}`` — infer a value and type for ``e``."""

    sigma: "FnCtx"
    expr: Expr
    cont: ExprCont

    def dispatch_key(self) -> tuple:
        return ("expr", type(self.expr).__name__)

    def describe(self) -> str:
        return f"expression {self.expr!r}"


@dataclass(frozen=True)
class BinOpJ(BasicGoal):
    """``⊢binop (v₁ : τ₁) ⊙ (v₂ : τ₂) {v, τ. G}`` (Figure 6, T-BINOP)."""

    sigma: "FnCtx"
    op: str
    v1: Term
    t1: RType
    v2: Term
    t2: RType
    cont: ExprCont

    def dispatch_key(self) -> tuple:
        return ("binop", self.op, self.t1.head, self.t2.head)

    def resolve(self, subst: Subst) -> "BinOpJ":
        v1 = subst.resolve(self.v1)
        t1 = self.t1.resolve(subst)
        v2 = subst.resolve(self.v2)
        t2 = self.t2.resolve(subst)
        if v1 is self.v1 and t1 is self.t1 and v2 is self.v2 \
                and t2 is self.t2:
            return self
        return BinOpJ(self.sigma, self.op, v1, t1, v2, t2, self.cont)

    def describe(self) -> str:
        return f"({self.v1!r} : {self.t1!r}) {self.op} ({self.v2!r} : {self.t2!r})"


@dataclass(frozen=True)
class UnOpJ(BasicGoal):
    sigma: "FnCtx"
    op: str
    v: Term
    t: RType
    cont: ExprCont

    def dispatch_key(self) -> tuple:
        return ("unop", self.op, self.t.head)

    def resolve(self, subst: Subst) -> "UnOpJ":
        v = subst.resolve(self.v)
        t = self.t.resolve(subst)
        if v is self.v and t is self.t:
            return self
        return UnOpJ(self.sigma, self.op, v, t, self.cont)

    def describe(self) -> str:
        return f"{self.op}({self.v!r} : {self.t!r})"


@dataclass(frozen=True)
class IfJ(BasicGoal):
    """``⊢if τ then s₁ else s₂`` — dispatch on the condition's type
    (IF-BOOL vs IF-INT, Figure 6)."""

    sigma: "FnCtx"
    v: Term
    ty: RType
    then_label: str
    else_label: str

    def dispatch_key(self) -> tuple:
        return ("if", self.ty.head)

    def resolve(self, subst: Subst) -> "IfJ":
        v = subst.resolve(self.v)
        ty = self.ty.resolve(subst)
        if v is self.v and ty is self.ty:
            return self
        return IfJ(self.sigma, v, ty, self.then_label, self.else_label)

    def describe(self) -> str:
        return f"if ({self.v!r} : {self.ty!r})"


@dataclass(frozen=True)
class GotoJ(BasicGoal):
    """``⊢goto`` — jump to a block; consumes the loop invariant if the
    target block carries one."""

    sigma: "FnCtx"
    target: str

    def dispatch_key(self) -> tuple:
        return ("goto",)

    def describe(self) -> str:
        return f"goto {self.target}"


@dataclass(frozen=True)
class ReadJ(BasicGoal):
    """``⊢read`` — locate the ownership covering ``loc`` and dispatch to a
    ``read_at`` rule on the type found."""

    sigma: "FnCtx"
    loc: Term
    layout: Layout
    atomic: bool
    cont: ExprCont

    def dispatch_key(self) -> tuple:
        return ("read",)

    def resolve(self, subst: Subst) -> "ReadJ":
        loc = subst.resolve(self.loc)
        return self if loc is self.loc \
            else ReadJ(self.sigma, loc, self.layout, self.atomic, self.cont)

    def describe(self) -> str:
        return f"read {self.layout!r} at {self.loc!r}"


@dataclass(frozen=True)
class ReadAtJ(BasicGoal):
    """``⊢read_at`` — read from a location whose type is known."""

    sigma: "FnCtx"
    loc: Term
    ty: RType
    layout: Layout
    atomic: bool
    cont: ExprCont

    def dispatch_key(self) -> tuple:
        return ("read_at", self.ty.head)

    def resolve(self, subst: Subst) -> "ReadAtJ":
        loc = subst.resolve(self.loc)
        ty = self.ty.resolve(subst)
        if loc is self.loc and ty is self.ty:
            return self
        return ReadAtJ(self.sigma, loc, ty, self.layout, self.atomic,
                       self.cont)

    def describe(self) -> str:
        return f"read at {self.loc!r} : {self.ty!r}"


@dataclass(frozen=True)
class WriteJ(BasicGoal):
    """``⊢write`` — locate ownership covering ``loc`` for a store."""

    sigma: "FnCtx"
    loc: Term
    v: Term
    vty: RType
    layout: Layout
    atomic: bool
    cont: Goal

    def dispatch_key(self) -> tuple:
        return ("write",)

    def resolve(self, subst: Subst) -> "WriteJ":
        loc = subst.resolve(self.loc)
        v = subst.resolve(self.v)
        vty = self.vty.resolve(subst)
        if loc is self.loc and v is self.v and vty is self.vty:
            return self
        return WriteJ(self.sigma, loc, v, vty, self.layout, self.atomic,
                      self.cont)

    def describe(self) -> str:
        return f"write {self.v!r} : {self.vty!r} to {self.loc!r}"


@dataclass(frozen=True)
class WriteAtJ(BasicGoal):
    """``⊢write_at`` — store into a location whose current type is known."""

    sigma: "FnCtx"
    loc: Term
    old_ty: RType
    v: Term
    vty: RType
    layout: Layout
    atomic: bool
    cont: Goal

    def dispatch_key(self) -> tuple:
        return ("write_at", self.old_ty.head)

    def resolve(self, subst: Subst) -> "WriteAtJ":
        loc = subst.resolve(self.loc)
        old_ty = self.old_ty.resolve(subst)
        v = subst.resolve(self.v)
        vty = self.vty.resolve(subst)
        if loc is self.loc and old_ty is self.old_ty and v is self.v \
                and vty is self.vty:
            return self
        return WriteAtJ(self.sigma, loc, old_ty, v, vty, self.layout,
                        self.atomic, self.cont)

    def describe(self) -> str:
        return f"write {self.v!r} over {self.old_ty!r} at {self.loc!r}"


@dataclass(frozen=True)
class ToPlaceJ(BasicGoal):
    """``⊢to_place`` — use a pointer value as a place (l-value): ensure the
    pointed-to memory's ownership is available in Δ as a ``LocType``."""

    sigma: "FnCtx"
    v: Term
    ty: RType
    cont: LocCont

    def dispatch_key(self) -> tuple:
        return ("to_place", self.ty.head)

    def resolve(self, subst: Subst) -> "ToPlaceJ":
        v = subst.resolve(self.v)
        ty = self.ty.resolve(subst)
        if v is self.v and ty is self.ty:
            return self
        return ToPlaceJ(self.sigma, v, ty, self.cont)

    def describe(self) -> str:
        return f"place of ({self.v!r} : {self.ty!r})"


@dataclass(frozen=True)
class SubsumeLocJ(BasicGoal):
    """``ℓ ◁ₗ τ₁ <: ℓ ◁ₗ τ₂ {G}`` — location subsumption (§5)."""

    sigma: "FnCtx"
    loc: Term
    have: RType
    want: RType
    cont: Goal

    def dispatch_key(self) -> tuple:
        return ("subsume_loc", self.have.head, self.want.head)

    def resolve(self, subst: Subst) -> "SubsumeLocJ":
        loc = subst.resolve(self.loc)
        have = self.have.resolve(subst)
        want = self.want.resolve(subst)
        if loc is self.loc and have is self.have and want is self.want:
            return self
        return SubsumeLocJ(self.sigma, loc, have, want, self.cont)

    def describe(self) -> str:
        return f"{self.loc!r} ◁ₗ {self.have!r} <: {self.want!r}"


@dataclass(frozen=True)
class SubsumeValJ(BasicGoal):
    """``v ◁ᵥ τ₁ <: v ◁ᵥ τ₂ {G}`` — value subsumption (S-NULL/S-OWN live
    here, Figure 6)."""

    sigma: "FnCtx"
    v: Term
    have: RType
    want: RType
    cont: Goal

    def dispatch_key(self) -> tuple:
        return ("subsume_val", self.have.head, self.want.head)

    def resolve(self, subst: Subst) -> "SubsumeValJ":
        v = subst.resolve(self.v)
        have = self.have.resolve(subst)
        want = self.want.resolve(subst)
        if v is self.v and have is self.have and want is self.want:
            return self
        return SubsumeValJ(self.sigma, v, have, want, self.cont)

    def describe(self) -> str:
        return f"{self.v!r} ◁ᵥ {self.have!r} <: {self.want!r}"


@dataclass(frozen=True)
class ProvePlaceJ(BasicGoal):
    """``⊢prove_place`` — establish ``loc ◁ₗ τ`` as a *goal*.

    The default rule consumes a related context atom (engine case 6d); the
    ``wand`` rule instead *introduces* the hole and consumes the wand's
    conclusion — this is how magic-wand types are (re-)established at loop
    heads (§2.2)."""

    sigma: "FnCtx"
    loc: Term
    want: RType
    cont: Goal

    def dispatch_key(self) -> tuple:
        return ("prove_place", self.want.head)

    def resolve(self, subst: Subst) -> "ProvePlaceJ":
        loc = subst.resolve(self.loc)
        want = self.want.resolve(subst)
        if loc is self.loc and want is self.want:
            return self
        return ProvePlaceJ(self.sigma, loc, want, self.cont)

    def describe(self) -> str:
        return f"establish {self.loc!r} ◁ₗ {self.want!r}"


@dataclass(frozen=True)
class HookJ(BasicGoal):
    """An internal judgment that runs a Python callback against the search
    state and continues with the goal it returns.  Used for bookkeeping
    that must observe the context (e.g. recording loop-head frames)."""

    label: str
    callback: Callable[..., Goal]

    def dispatch_key(self) -> tuple:
        return ("hook",)

    def describe(self) -> str:
        return f"hook:{self.label}"


@dataclass(frozen=True)
class CallJ(BasicGoal):
    """``⊢call`` — call a function against its RefinedC function type."""

    sigma: "FnCtx"
    spec: "FunctionSpec"
    args: tuple[tuple[Term, RType], ...]
    cont: ExprCont

    def dispatch_key(self) -> tuple:
        return ("call",)

    def describe(self) -> str:
        return f"call {self.spec.name}"


@dataclass(frozen=True)
class CASJ(BasicGoal):
    """``⊢cas`` — compare-and-swap; CAS-BOOL (Figure 6) dispatches on the
    type of the atomically accessed location."""

    sigma: "FnCtx"
    atom_loc: Term
    atom_ty: RType
    exp_loc: Term
    exp_ty: RType
    des_v: Term
    des_ty: RType
    layout: Layout
    cont: ExprCont

    def dispatch_key(self) -> tuple:
        return ("cas", self.atom_ty.head, self.exp_ty.head, self.des_ty.head)

    def resolve(self, subst: Subst) -> "CASJ":
        atom_loc = subst.resolve(self.atom_loc)
        atom_ty = self.atom_ty.resolve(subst)
        exp_loc = subst.resolve(self.exp_loc)
        exp_ty = self.exp_ty.resolve(subst)
        des_v = subst.resolve(self.des_v)
        des_ty = self.des_ty.resolve(subst)
        if atom_loc is self.atom_loc and atom_ty is self.atom_ty \
                and exp_loc is self.exp_loc and exp_ty is self.exp_ty \
                and des_v is self.des_v and des_ty is self.des_ty:
            return self
        return CASJ(self.sigma, atom_loc, atom_ty, exp_loc, exp_ty, des_v,
                    des_ty, self.layout, self.cont)

    def describe(self) -> str:
        return (f"CAS({self.atom_loc!r} : {self.atom_ty!r}, "
                f"{self.exp_loc!r}, {self.des_v!r})")
