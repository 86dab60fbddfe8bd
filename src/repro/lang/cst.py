"""Concrete syntax tree for the C subset accepted by the front end."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..caesium.layout import IntType


# ---------------------------------------------------------------------
# C types.
# ---------------------------------------------------------------------

@dataclass(frozen=True)
class CType:
    pass


@dataclass(frozen=True)
class CInt(CType):
    itype: IntType

    def __repr__(self) -> str:
        return self.itype.name


@dataclass(frozen=True)
class CPtr(CType):
    inner: CType

    def __repr__(self) -> str:
        return f"{self.inner!r}*"


@dataclass(frozen=True)
class CStruct(CType):
    name: str
    is_union: bool = False

    def __repr__(self) -> str:
        return f"{'union' if self.is_union else 'struct'} {self.name}"


@dataclass(frozen=True)
class CVoid(CType):
    def __repr__(self) -> str:
        return "void"


@dataclass(frozen=True)
class CFnPtr(CType):
    """A function-pointer type introduced by a typedef; parameter/return
    C types are tracked for call elaboration."""

    name: str
    ret: CType
    params: tuple[CType, ...]

    def __repr__(self) -> str:
        return f"fnptr {self.name}"


@dataclass(frozen=True)
class CArray(CType):
    elem: CType
    count: int

    def __repr__(self) -> str:
        return f"{self.elem!r}[{self.count}]"


# ---------------------------------------------------------------------
# Expressions.
# ---------------------------------------------------------------------

@dataclass(frozen=True)
class Expr:
    pass


@dataclass(frozen=True)
class Ident(Expr):
    name: str


@dataclass(frozen=True)
class Num(Expr):
    value: int


@dataclass(frozen=True)
class NullLit(Expr):
    pass


@dataclass(frozen=True)
class BoolLit(Expr):
    value: bool


@dataclass(frozen=True)
class SizeofType(Expr):
    ctype: CType


@dataclass(frozen=True)
class Unary(Expr):
    op: str          # "-", "!", "~", "*", "&"
    e: Expr


@dataclass(frozen=True)
class Binary(Expr):
    op: str
    l: Expr
    r: Expr


@dataclass(frozen=True)
class Member(Expr):
    e: Expr
    name: str
    arrow: bool      # True for "->", False for "."


@dataclass(frozen=True)
class Index(Expr):
    e: Expr
    i: Expr


@dataclass(frozen=True)
class Call(Expr):
    fn: Expr
    args: tuple[Expr, ...]


@dataclass(frozen=True)
class CastExpr(Expr):
    ctype: CType
    e: Expr


# ---------------------------------------------------------------------
# Statements.
# ---------------------------------------------------------------------

@dataclass
class Stmt:
    line: int = 0


@dataclass
class SDecl(Stmt):
    ctype: CType = None
    name: str = ""
    init: Optional[Expr] = None


@dataclass
class SExpr(Stmt):
    e: Expr = None


@dataclass
class SAssign(Stmt):
    lhs: Expr = None
    op: str = "="    # "=", "+=", "-=", "*=", "/=", "%="
    rhs: Expr = None


@dataclass
class SIf(Stmt):
    cond: Expr = None
    then: list[Stmt] = field(default_factory=list)
    els: list[Stmt] = field(default_factory=list)


@dataclass
class LoopAnnots:
    exists: list[str] = field(default_factory=list)
    inv_vars: list[str] = field(default_factory=list)
    constraints: list[str] = field(default_factory=list)


@dataclass
class SWhile(Stmt):
    cond: Expr = None
    body: list[Stmt] = field(default_factory=list)
    annots: LoopAnnots = field(default_factory=LoopAnnots)


@dataclass
class SSwitch(Stmt):
    scrutinee: Expr = None
    # (case values, body) in source order; fallthrough is preserved.
    cases: list = field(default_factory=list)
    default: Optional[list] = None


@dataclass
class SReturn(Stmt):
    e: Optional[Expr] = None


@dataclass
class SBreak(Stmt):
    pass


@dataclass
class SContinue(Stmt):
    pass


# ---------------------------------------------------------------------
# Top-level declarations.
# ---------------------------------------------------------------------

@dataclass
class AttrSet:
    """Raw rc:: attributes attached to a declaration."""

    items: list[tuple[str, tuple[str, ...]]] = field(default_factory=list)

    def all(self, name: str) -> list[str]:
        out: list[str] = []
        for n, args in self.items:
            if n == name:
                out.extend(args)
        return out

    def first(self, name: str) -> Optional[str]:
        vals = self.all(name)
        return vals[0] if vals else None

    def has(self, name: str) -> bool:
        return any(n == name for n, _ in self.items)


@dataclass
class StructDecl:
    name: str
    fields: list[tuple[CType, str, bool]]   # (type, name, is_atomic)
    attrs: AttrSet
    field_attrs: dict[str, str]             # field -> rc::field annotation
    is_union: bool = False
    typedef_alias: Optional[str] = None     # typedef struct {...} alias;
    typedef_ptr_alias: Optional[str] = None  # typedef struct {...}* alias;
    line: int = 0


@dataclass
class FuncDef:
    name: str
    ret: CType
    params: list[tuple[CType, str]]
    body: Optional[list[Stmt]]              # None for declarations
    attrs: AttrSet
    line: int = 0


@dataclass
class GlobalDecl:
    name: str
    ctype: CType
    attrs: AttrSet
    line: int = 0


@dataclass
class TranslationUnit:
    structs: list[StructDecl] = field(default_factory=list)
    functions: list[FuncDef] = field(default_factory=list)
    globals: list[GlobalDecl] = field(default_factory=list)
