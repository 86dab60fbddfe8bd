"""RefinedC types (§4, Figure 4).

Every type is an immutable description of (a) the physical layout of some
bytes and (b) the logical refinement constraining them.  Refinements are
terms of :mod:`repro.pure.terms` and "range over arbitrary mathematical
domains".

The executable *semantic model* of these types — the analogue of the paper's
Iris interpretation — lives in :mod:`repro.proofs.semantics`; the typing
rules in :mod:`repro.refinedc.rules` are validated against it by the
adequacy harness.

Type heads (used as Lithium dispatch keys):

======================= ================================================
``int``                 ``n @ int<α>`` — C integer of type α encoding n
``bool``                ``φ @ bool`` — boolean reflecting proposition φ
``own``                 ``ℓ @ &own<τ>`` — unique ownership of τ at ℓ
``uninit``              ``uninit<n>`` — n uninitialised bytes
``null``                singleton type of NULL
``optional``            ``φ @ optional<τ₁, τ₂>`` — if φ then τ₁ else τ₂
``wand``                ``wand<H, τ>`` — τ with hole H (magic wand)
``struct``              struct with per-field types
``exists``              ``∃x. τ(x)``
``constrained``         ``{τ | φ}``
``padded``              ``padded<τ, n>`` — τ padded to n bytes
``array``               array of cells refined by a mathematical list
``value``               singleton "this location holds exactly value v"
``fn``                  function-pointer type carrying a full spec
``atomicbool``          atomic boolean holding H⊤ or H⊥ (§6)
``named``               a (possibly recursive) user-defined type by name
======================= ================================================
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Optional, Sequence

from ..caesium.layout import PTR_SIZE, IntType, Layout, StructLayout
from ..pure.terms import Sort, Subst, Term, intlit

if TYPE_CHECKING:  # pragma: no cover
    from .judgments import LocType, ValType
    from .spec import FunctionSpec


class RType:
    """Base class of RefinedC types."""

    @property
    def head(self) -> str:
        raise NotImplementedError

    def resolve(self, subst: Subst) -> "RType":
        return self

    def layout_size(self) -> Optional[Term]:
        """The number of bytes this type occupies, as a term (``None`` when
        not statically known from the type alone)."""
        return None

    def describe(self) -> str:
        return repr(self)


@dataclass(frozen=True)
class IntT(RType):
    """``n @ int<α>`` (refinement ``None`` = unrefined ``int<α>``)."""

    itype: IntType
    refinement: Optional[Term] = None

    @property
    def head(self) -> str:
        return "int"

    def resolve(self, subst: Subst) -> "IntT":
        if self.refinement is None:
            return self
        r = subst.resolve(self.refinement)
        return self if r is self.refinement else IntT(self.itype, r)

    def layout_size(self) -> Term:
        return intlit(self.itype.size)

    def __repr__(self) -> str:
        prefix = f"{self.refinement!r} @ " if self.refinement is not None else ""
        return f"{prefix}int<{self.itype.name}>"


@dataclass(frozen=True)
class BoolT(RType):
    """``φ @ bool`` over an integer layout (C has no native bool in our
    subset; comparisons produce ``int``)."""

    itype: IntType
    phi: Optional[Term] = None

    @property
    def head(self) -> str:
        return "bool"

    def resolve(self, subst: Subst) -> "BoolT":
        if self.phi is None:
            return self
        r = subst.resolve(self.phi)
        return self if r is self.phi else BoolT(self.itype, r)

    def layout_size(self) -> Term:
        return intlit(self.itype.size)

    def __repr__(self) -> str:
        prefix = f"{self.phi!r} @ " if self.phi is not None else ""
        return f"{prefix}bool<{self.itype.name}>"


@dataclass(frozen=True)
class OwnPtr(RType):
    """``ℓ @ &own<τ>`` — unique ownership of ``τ`` stored at ``ℓ``.

    The refinement ``loc`` pins the exact location (used for the ownership
    give-back pattern of ``rc::ensures``, §2.1); ``None`` leaves it
    unconstrained.
    """

    inner: RType
    loc: Optional[Term] = None

    @property
    def head(self) -> str:
        return "own"

    def resolve(self, subst: Subst) -> "OwnPtr":
        inner = self.inner.resolve(subst)
        loc = subst.resolve(self.loc) if self.loc is not None else None
        if inner is self.inner and loc is self.loc:
            return self
        return OwnPtr(inner, loc)

    def layout_size(self) -> Term:
        return intlit(PTR_SIZE)

    def __repr__(self) -> str:
        prefix = f"{self.loc!r} @ " if self.loc is not None else ""
        return f"{prefix}&own<{self.inner!r}>"


@dataclass(frozen=True)
class UninitT(RType):
    """``uninit<n>`` — ``n`` uninitialised (arbitrary) bytes."""

    size: Term

    @property
    def head(self) -> str:
        return "uninit"

    def resolve(self, subst: Subst) -> "UninitT":
        r = subst.resolve(self.size)
        return self if r is self.size else UninitT(r)

    def layout_size(self) -> Term:
        return self.size

    def __repr__(self) -> str:
        return f"uninit<{self.size!r}>"


@dataclass(frozen=True)
class NullT(RType):
    """The singleton type of ``NULL``."""

    @property
    def head(self) -> str:
        return "null"

    def layout_size(self) -> Term:
        return intlit(PTR_SIZE)

    def __repr__(self) -> str:
        return "null"


@dataclass(frozen=True)
class OptionalT(RType):
    """``φ @ optional<τ₁, τ₂>`` — τ₁ if φ holds, else τ₂ (§2.1, §6)."""

    phi: Term
    then_type: RType
    else_type: RType

    @property
    def head(self) -> str:
        return "optional"

    def resolve(self, subst: Subst) -> "OptionalT":
        phi = subst.resolve(self.phi)
        then_t = self.then_type.resolve(subst)
        else_t = self.else_type.resolve(subst)
        if phi is self.phi and then_t is self.then_type \
                and else_t is self.else_type:
            return self
        return OptionalT(phi, then_t, else_t)

    def layout_size(self) -> Optional[Term]:
        return self.then_type.layout_size()

    def __repr__(self) -> str:
        return (f"{self.phi!r} @ optional<{self.then_type!r}, "
                f"{self.else_type!r}>")


@dataclass(frozen=True)
class WandT(RType):
    """``wand<H, τ>`` — the partial data structure pattern (§2.2): providing
    the resources ``H`` yields ``τ``.  ``hole`` is a tuple of atoms."""

    hole: tuple                 # tuple of Atom (LocType/ValType)
    inner: RType

    @property
    def head(self) -> str:
        return "wand"

    def resolve(self, subst: Subst) -> "WandT":
        hole = tuple(a.resolve(subst) for a in self.hole)
        inner = self.inner.resolve(subst)
        if inner is self.inner \
                and all(a is b for a, b in zip(hole, self.hole)):
            return self
        return WandT(hole, inner)

    def __repr__(self) -> str:
        return f"wand<{list(self.hole)!r}, {self.inner!r}>"


@dataclass(frozen=True)
class StructT(RType):
    """A struct type: per-field RefinedC types over a C struct layout."""

    layout: StructLayout
    fields: tuple[tuple[str, RType], ...]

    @property
    def head(self) -> str:
        return "struct"

    def resolve(self, subst: Subst) -> "StructT":
        fields = tuple((n, t.resolve(subst)) for n, t in self.fields)
        if all(t is u for (_, t), (_, u) in zip(fields, self.fields)):
            return self
        return StructT(self.layout, fields)

    def field_type(self, name: str) -> RType:
        for n, t in self.fields:
            if n == name:
                return t
        raise KeyError(name)

    def layout_size(self) -> Term:
        return intlit(self.layout.size)

    def __repr__(self) -> str:
        inner = ", ".join(f"{n}: {t!r}" for n, t in self.fields)
        return f"struct {self.layout.name}{{{inner}}}"


@dataclass(frozen=True)
class ExistsT(RType):
    """``∃x. τ(x)`` (generated by ``rc::exists``)."""

    sort: Sort
    hint: str
    body: Callable[[Term], RType]

    @property
    def head(self) -> str:
        return "exists"

    def resolve(self, subst: Subst) -> "ExistsT":
        # ``resolve`` is idempotent, so once the body has been wrapped to
        # resolve against *this* store (bindings only ever accumulate,
        # and unfolding reads the store's state at unfold time), wrapping
        # again against the same store is the identity.  Collapsing the
        # stack keeps repeated resolves from nesting wrappers.
        if getattr(self, "_rsubst", None) is subst:
            return self
        body = self.body
        out = ExistsT(self.sort, self.hint,
                      lambda x: body(x).resolve(subst))
        object.__setattr__(out, "_rsubst", subst)
        return out

    def __repr__(self) -> str:
        return f"∃{self.hint}. …"


@dataclass(frozen=True)
class ConstrainedT(RType):
    """``{τ | φ}`` (generated by ``rc::constraints``)."""

    inner: RType
    phi: Term

    @property
    def head(self) -> str:
        return "constrained"

    def resolve(self, subst: Subst) -> "ConstrainedT":
        inner = self.inner.resolve(subst)
        phi = subst.resolve(self.phi)
        if inner is self.inner and phi is self.phi:
            return self
        return ConstrainedT(inner, phi)

    def layout_size(self) -> Optional[Term]:
        return self.inner.layout_size()

    def __repr__(self) -> str:
        return f"{{{self.inner!r} | {self.phi!r}}}"


@dataclass(frozen=True)
class PaddedT(RType):
    """``padded<τ, n>`` — τ overlaid at the start of ``n`` bytes; the rest
    is uninitialised (generated by ``rc::size``, §2.2)."""

    inner: RType
    size: Term

    @property
    def head(self) -> str:
        return "padded"

    def resolve(self, subst: Subst) -> "PaddedT":
        inner = self.inner.resolve(subst)
        size = subst.resolve(self.size)
        if inner is self.inner and size is self.size:
            return self
        return PaddedT(inner, size)

    def layout_size(self) -> Term:
        return self.size

    def __repr__(self) -> str:
        return f"padded<{self.inner!r}, {self.size!r}>"


@dataclass(frozen=True)
class ArrayT(RType):
    """An array of integer cells refined by a mathematical list ``xs``:
    cell ``i`` has type ``xs[i] @ int<α>``.  ``length`` is the cell count."""

    itype: IntType
    xs: Term        # LIST-sorted refinement
    length: Term    # INT-sorted

    @property
    def head(self) -> str:
        return "array"

    def resolve(self, subst: Subst) -> "ArrayT":
        xs = subst.resolve(self.xs)
        length = subst.resolve(self.length)
        if xs is self.xs and length is self.length:
            return self
        return ArrayT(self.itype, xs, length)

    def layout_size(self) -> Term:
        from ..pure.terms import mul
        return mul(intlit(self.itype.size), self.length)

    def __repr__(self) -> str:
        return f"array<{self.itype.name}, {self.xs!r}, {self.length!r}>"


@dataclass(frozen=True)
class ValueT(RType):
    """The singleton location type "holds exactly the value ``v``".

    Produced when ownership is *moved out* of a place by a read: the place
    keeps the raw value, the ownership travels with the expression.
    """

    v: Term
    layout: Optional[Layout]

    @property
    def head(self) -> str:
        return "value"

    def resolve(self, subst: Subst) -> "ValueT":
        v = subst.resolve(self.v)
        return self if v is self.v else ValueT(v, self.layout)

    def layout_size(self) -> Optional[Term]:
        if self.layout is None:
            return None
        return intlit(self.layout.size)

    def __repr__(self) -> str:
        return f"value({self.v!r})"


@dataclass(frozen=True)
class FnT(RType):
    """A first-class function-pointer type carrying a full RefinedC
    function spec (function types are first class, §4)."""

    spec: "FunctionSpec"

    @property
    def head(self) -> str:
        return "fn"

    def layout_size(self) -> Term:
        return intlit(PTR_SIZE)

    def __repr__(self) -> str:
        return f"fn<{self.spec.name}>"


@dataclass(frozen=True)
class AtomicBoolT(RType):
    """``atomicbool<H⊤, H⊥>`` (§6): an atomically accessed boolean that owns
    the resources ``h_true`` when true and ``h_false`` when false."""

    itype: IntType
    h_true: tuple    # tuple of Atom
    h_false: tuple   # tuple of Atom

    @property
    def head(self) -> str:
        return "atomicbool"

    def resolve(self, subst: Subst) -> "AtomicBoolT":
        h_true = tuple(a.resolve(subst) for a in self.h_true)
        h_false = tuple(a.resolve(subst) for a in self.h_false)
        if all(a is b for a, b in zip(h_true, self.h_true)) \
                and all(a is b for a, b in zip(h_false, self.h_false)):
            return self
        return AtomicBoolT(self.itype, h_true, h_false)

    def layout_size(self) -> Term:
        return intlit(self.itype.size)

    def __repr__(self) -> str:
        return f"atomicbool<{list(self.h_true)!r}, {list(self.h_false)!r}>"


@dataclass(frozen=True)
class NamedT(RType):
    """A reference to a user-defined (possibly recursive) type, e.g.
    ``s @ chunks_t``.  Unfolding is automatic (§2.2) via the
    :class:`TypeTable` rules."""

    name: str
    args: tuple[Term, ...]

    @property
    def head(self) -> str:
        return "named"

    def resolve(self, subst: Subst) -> "NamedT":
        args = tuple(subst.resolve(a) for a in self.args)
        if all(a is b for a, b in zip(args, self.args)):
            return self
        return NamedT(self.name, args)

    def __repr__(self) -> str:
        if not self.args:
            return self.name
        args = ", ".join(map(repr, self.args))
        return f"{args} @ {self.name}" if len(self.args) == 1 \
            else f"({args}) @ {self.name}"


@dataclass
class TypeDef:
    """Definition of a named type: parameters + body builder."""

    name: str
    param_sorts: tuple[Sort, ...]
    body: Callable[..., RType]     # takes len(param_sorts) terms
    # Layout this type refines, for size computations (None for ptr types).
    layout: Optional[Layout] = None
    is_ptr_type: bool = False      # rc::ptr_type (refines the pointer)

    def unfold(self, args: Sequence[Term]) -> RType:
        if len(args) != len(self.param_sorts):
            raise TypeError(
                f"type {self.name} expects {len(self.param_sorts)} "
                f"refinement(s), got {len(args)}")
        return self.body(*args)


class TypeTable:
    """Registry of user-defined named types (one per verification run)."""

    def __init__(self) -> None:
        self._defs: dict[str, TypeDef] = {}

    def define(self, td: TypeDef) -> None:
        if td.name in self._defs:
            raise ValueError(f"type {td.name!r} already defined")
        self._defs[td.name] = td

    def lookup(self, name: str) -> TypeDef:
        if name not in self._defs:
            raise KeyError(f"unknown named type {name!r}")
        return self._defs[name]

    def unfold(self, t: NamedT) -> RType:
        return self.lookup(t.name).unfold(t.args)

    def __contains__(self, name: str) -> bool:
        return name in self._defs
