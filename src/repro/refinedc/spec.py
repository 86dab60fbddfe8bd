"""RefinedC specifications: parsing type expressions and building function
types from ``[[rc::...]]`` annotations (§2, §4).

The type-expression surface syntax mirrors the paper's::

    n @ int<size_t>                  singleton integer
    int<size_t>                      unrefined integer
    p @ &own<a @ mem_t>              owned pointer, location-refined
    &shr<spinlock_t<g>>              shared (invariant-governed) pointer
    &own<uninit<a>>                  pointer to a uninitialised bytes
    null                             the NULL singleton
    {n ≤ a} @ optional<T1, T2>       type-level conditional
    wand<{own cp : T}, T2>           magic-wand type (partial structures)
    xs @ array<int64_t, n>           integer array refined by a list
    fn<qsort_cmp>                    function pointer with a named spec
    atomicbool<int, H_true; H_false> atomic boolean (§6)
    s @ chunks_t                     user-defined (possibly recursive) type
    ...                              the enclosing-struct placeholder
                                     inside rc::ptr_type (§2.2)

Resource assertions (in ``rc::requires``/``rc::ensures``/wand holes)::

    own <loc-expr> : <type>          a LocType atom (the paper's "own p : τ")
    shr <loc-expr> : <type>          a persistent LocType atom
    tok(<name>, <expr>)              a ghost token
    ptok(<name>, <expr>)             a persistent ghost token
    <anything else>                  a pure proposition
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping, Optional

from ..caesium.layout import INT_TYPES_BY_NAME, IntType, StructLayout
from ..pure.parser import SpecParseError, parse_sort, parse_term
from ..pure.solver import Lemma
from ..pure.terms import (Sort, Term, Var, and_, intlit, le, subst_vars,
                          var)
from .judgments import LocType, TokenAtom
from .types import (ArrayT, AtomicBoolT, BoolT, ConstrainedT, ExistsT, FnT,
                    IntT, NamedT, NullT, OptionalT, OwnPtr, PaddedT, RType,
                    StructT, TypeDef, TypeTable, UninitT, WandT)


class SpecError(Exception):
    """Raised for malformed specifications."""


@dataclass(frozen=True)
class ShrPtr(RType):
    """``&shr<τ>`` — a shared pointer to invariant-governed content.

    Only atomic accesses are allowed through it; its target ``LocType`` is
    persistent.  (The paper's spinlock abstraction is built on this.)
    """

    inner: RType
    loc: Optional[Term] = None

    @property
    def head(self) -> str:
        return "shr"

    def resolve(self, subst):
        return ShrPtr(self.inner.resolve(subst),
                      subst.resolve(self.loc) if self.loc is not None else None)

    def layout_size(self):
        return intlit(8)

    def subst_with(self, m):
        from ..pure.terms import subst_vars
        from .substitution import subst_type
        return ShrPtr(subst_type(self.inner, m),
                      subst_vars(self.loc, m) if self.loc is not None else None)

    def __repr__(self) -> str:
        prefix = f"{self.loc!r} @ " if self.loc is not None else ""
        return f"{prefix}&shr<{self.inner!r}>"


@dataclass
class SpecContext:
    """Everything a type expression may refer to."""

    types: TypeTable = field(default_factory=TypeTable)
    structs: dict[str, StructLayout] = field(default_factory=dict)
    fn_specs: dict[str, "FunctionSpec"] = field(default_factory=dict)
    constants: dict[str, Term] = field(default_factory=dict)
    fn_sorts: dict[str, Sort] = field(default_factory=dict)
    # The rc::ptr_type "..." placeholder, set while elaborating a struct.
    placeholder: Optional[Callable[[], RType]] = None
    # Which struct definition owns each named RefinedC type (filled by
    # define_struct_type).  The dependency graph (repro.driver.depgraph)
    # uses this to map a consumed type name back to its defining struct.
    type_sources: dict[str, str] = field(default_factory=dict)
    # When set, parse_type records every named type / fn<> spec it
    # resolves as a ``(kind, name)`` pair — the "verification inputs
    # actually consumed" by the annotation being elaborated.
    recording: Optional[set] = None
    # (text, binder sorts) -> parsed refinement template, per context
    # (refinements re-parse on every named-type unfold at check time).
    refinement_cache: dict = field(default_factory=dict)

    def record(self, kind: str, name: str) -> None:
        if self.recording is not None:
            self.recording.add((kind, name))


# ---------------------------------------------------------------------
# Splitting helpers (respecting <>, {}, () nesting).
# ---------------------------------------------------------------------

def _depths(text: str):
    """Yield ``(index, top_level)`` for each character.

    Angle brackets only count as nesting *outside* ``{...}`` Coq escapes —
    inside braces, ``<``/``<=`` are comparisons, not type brackets.
    """
    brace = paren = bracket = angle = 0
    for i, ch in enumerate(text):
        if ch == "{":
            brace += 1
        elif ch == "}":
            brace -= 1
        elif ch == "(":
            paren += 1
        elif ch == ")":
            paren -= 1
        elif ch == "[":
            bracket += 1
        elif ch == "]":
            bracket -= 1
        elif brace == 0 and ch == "<":
            angle += 1
        elif brace == 0 and ch == ">":
            angle -= 1
        opener = ch in "{([" or (brace == 0 and ch == "<")
        top = (brace == 0 and paren == 0 and bracket == 0 and angle == 0
               and not opener)
        yield i, top


def _split_top(text: str, seps: str) -> list[str]:
    """Split ``text`` at top-level occurrences of any char in ``seps``."""
    parts: list[str] = []
    cur: list[str] = []
    for i, top in _depths(text):
        ch = text[i]
        if top and ch in seps:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    parts.append("".join(cur))
    return parts


def _find_top(text: str, target: str) -> int:
    """Index of the first top-level occurrence of ``target``, or -1."""
    for i, top in _depths(text):
        if top and text[i:i + len(target)] == target:
            return i
    return -1


def _angle_body(text: str, prefix: str) -> str:
    """For ``prefix<...>`` return the ``...`` (validating the match)."""
    rest = text[len(prefix):].strip()
    if not (rest.startswith("<") and rest.endswith(">")):
        raise SpecError(f"expected {prefix}<...>, got {text!r}")
    return rest[1:-1].strip()


# ---------------------------------------------------------------------
# Type expressions.
# ---------------------------------------------------------------------

def parse_type(text: str, env: Mapping[str, Term], ctx: SpecContext) -> RType:
    """Parse a RefinedC type expression."""
    text = text.strip()
    at = _find_top(text, "@")
    refinement: Optional[Term] = None
    refinements: Optional[list[Term]] = None
    if at >= 0:
        ref_text = text[:at].strip()
        text = text[at + 1:].strip()
        if ref_text.startswith("(") and ref_text.endswith(")") \
                and "," in ref_text:
            refinements = [
                _parse_refinement(p.strip(), env, ctx)
                for p in _split_top(ref_text[1:-1], ",")]
        else:
            refinement = _parse_refinement(ref_text, env, ctx)
            refinements = [refinement]
    return _parse_constructor(text, refinement, refinements, env, ctx)


_TMPL_MISS = object()


def _parse_refinement(text: str, env: Mapping[str, Term],
                      ctx: SpecContext) -> Term:
    # Refinement texts are re-parsed at check time whenever a named
    # type is unfolded (StructBody unfolds call back into
    # parse_type per field).  The binder *terms* differ per unfold,
    # so memoizing on the exact environment rarely hits; instead the
    # text is parsed ONCE per (text, binder-sort signature) against
    # placeholder variables, and each unfold merely substitutes the
    # actual binders into the compiled template.  ``subst_vars``
    # rebuilds changed nodes through ``app()``, so constant folding
    # and canonicalisation match a direct parse exactly.  The
    # placeholder names start with NUL, which the surface syntax
    # cannot produce, so they can never collide with variables
    # embedded in ``ctx.constants``.
    key = (text, tuple((n, t.sort) for n, t in env.items()))
    cache = ctx.refinement_cache
    tmpl = cache.get(key, _TMPL_MISS)
    if tmpl is _TMPL_MISS:
        try:
            phold = {n: Var("\x00tmpl:" + n, t.sort)
                     for n, t in env.items()}
            tmpl = (parse_term(text, phold, ctx.constants,
                               ctx.fn_sorts), phold)
        except Exception:
            # Re-parse failing texts directly so the error message
            # never mentions a placeholder.
            tmpl = None
        cache[key] = tmpl
    if tmpl is not None:
        term, phold = tmpl
        mapping = {phold[n]: t for n, t in env.items()
                   if phold[n] is not t}
        return subst_vars(term, mapping) if mapping else term
    try:
        return parse_term(text, env, ctx.constants, ctx.fn_sorts)
    except SpecParseError as exc:
        raise SpecError(f"bad refinement {text!r}: {exc}") from exc


def _parse_constructor(text: str, refinement: Optional[Term],
                       refinements: Optional[list[Term]],
                       env: Mapping[str, Term], ctx: SpecContext) -> RType:
    if text == "...":
        if ctx.placeholder is None:
            raise SpecError("'...' used outside rc::ptr_type")
        return ctx.placeholder()
    if text == "null":
        if refinement is not None:
            raise SpecError("null takes no refinement")
        return NullT()
    if text.startswith("int<"):
        itype = _int_type(_angle_body(text, "int"))
        return IntT(itype, refinement)
    if text.startswith("bool<"):
        itype = _int_type(_angle_body(text, "bool"))
        return BoolT(itype, refinement)
    if text == "bool":
        return BoolT(INT_TYPES_BY_NAME["int"], refinement)
    if text.startswith("&own<"):
        inner = parse_type(_angle_body(text, "&own"), env, ctx)
        return OwnPtr(inner, refinement)
    if text.startswith("&shr<"):
        inner = parse_type(_angle_body(text, "&shr"), env, ctx)
        return ShrPtr(inner, refinement)
    if text.startswith("uninit<"):
        size = _parse_refinement(_angle_body(text, "uninit"), env, ctx)
        return UninitT(size)
    if text.startswith("optional<"):
        parts = _split_top(_angle_body(text, "optional"), ",")
        if len(parts) != 2:
            raise SpecError(f"optional takes two types: {text!r}")
        if refinement is None:
            raise SpecError("optional needs a boolean refinement")
        return OptionalT(refinement, parse_type(parts[0], env, ctx),
                         parse_type(parts[1], env, ctx))
    if text.startswith("wand<"):
        parts = _split_top(_angle_body(text, "wand"), ",")
        if len(parts) < 2:
            raise SpecError(f"wand takes a hole and a type: {text!r}")
        hole_text = ",".join(parts[:-1]).strip()
        if hole_text.startswith("{") and hole_text.endswith("}"):
            hole_text = hole_text[1:-1]
        hole = tuple(parse_assertion(p.strip(), env, ctx)
                     for p in _split_top(hole_text, ";") if p.strip())
        return WandT(hole, parse_type(parts[-1], env, ctx))
    if text.startswith("array<"):
        parts = _split_top(_angle_body(text, "array"), ",")
        if len(parts) != 2:
            raise SpecError(f"array takes an int type and a length: {text!r}")
        itype = _int_type(parts[0].strip())
        length = _parse_refinement(parts[1], env, ctx)
        if refinement is None:
            raise SpecError("array needs a list refinement")
        return ArrayT(itype, refinement, length)
    if text.startswith("fn<"):
        name = _angle_body(text, "fn").strip()
        if name not in ctx.fn_specs:
            raise SpecError(f"fn<{name}>: unknown function spec")
        ctx.record("fnspec", name)
        return FnT(ctx.fn_specs[name])
    if text.startswith("atomicbool<"):
        parts = _split_top(_angle_body(text, "atomicbool"), ";")
        if len(parts) != 3:
            raise SpecError(
                "atomicbool<itype; H_true; H_false> takes three parts")
        itype = _int_type(parts[0].strip())
        h_true = _parse_hole(parts[1], env, ctx)
        h_false = _parse_hole(parts[2], env, ctx)
        return AtomicBoolT(itype, h_true, h_false)
    # Named type (possibly with explicit <args>).
    name = text
    args: list[Term] = list(refinements or [])
    lt = -1
    brace = 0
    for i, ch in enumerate(text):
        if ch == "{":
            brace += 1
        elif ch == "}":
            brace -= 1
        elif ch == "<" and brace == 0:
            lt = i
            break
    if lt > 0 and text.endswith(">"):
        name = text[:lt]
        args = [_parse_refinement(p, env, ctx)
                for p in _split_top(text[lt + 1:-1], ",") if p.strip()]
    if name in ctx.types:
        td = ctx.types.lookup(name)
        if len(args) != len(td.param_sorts):
            raise SpecError(
                f"type {name} expects {len(td.param_sorts)} refinement(s), "
                f"got {len(args)}")
        ctx.record("type", name)
        return NamedT(name, tuple(args))
    raise SpecError(f"cannot parse type expression {text!r}")


def _parse_hole(text: str, env: Mapping[str, Term],
                ctx: SpecContext) -> tuple:
    text = text.strip()
    if text in ("True", "true", "{True}", ""):
        return ()
    if text.startswith("{") and text.endswith("}"):
        text = text[1:-1]
    return tuple(parse_assertion(p.strip(), env, ctx)
                 for p in _split_top(text, ";") if p.strip())


def _int_type(name: str) -> IntType:
    name = name.strip()
    if name not in INT_TYPES_BY_NAME:
        raise SpecError(f"unknown C integer type {name!r}")
    return INT_TYPES_BY_NAME[name]


# ---------------------------------------------------------------------
# Resource assertions (requires/ensures/wand holes).
# ---------------------------------------------------------------------

def parse_assertion(text: str, env: Mapping[str, Term], ctx: SpecContext):
    """Parse an assertion: a LocType/Token atom, or a pure Term."""
    text = text.strip()
    for keyword, shared in (("own ", False), ("shr ", True)):
        if text.startswith(keyword):
            colon = _find_top(text[len(keyword):], ":")
            if colon < 0:
                raise SpecError(f"expected 'own <loc> : <type>': {text!r}")
            loc_text = text[len(keyword):len(keyword) + colon].strip()
            ty_text = text[len(keyword) + colon + 1:].strip()
            loc = _parse_refinement(loc_text, env, ctx)
            if loc.sort is not Sort.LOC:
                raise SpecError(f"{loc_text!r} is not a location")
            return LocType(loc, parse_type(ty_text, env, ctx), shared)
    for keyword, dup in (("ptok(", True), ("tok(", False)):
        if text.startswith(keyword) and text.endswith(")"):
            parts = _split_top(text[len(keyword):-1], ",")
            if len(parts) != 2:
                raise SpecError(f"tok takes (name, index): {text!r}")
            return TokenAtom(parts[0].strip(),
                             _parse_refinement(parts[1], env, ctx), dup)
    return _parse_refinement(text, env, ctx)


# ---------------------------------------------------------------------
# Function specifications.
# ---------------------------------------------------------------------

@dataclass
class FunctionSpec:
    """A RefinedC function type
    ``fn(∀x. τ_args; H_pre) → ∃y. τ_ret; H_post`` (§4)."""

    name: str
    params: list[Var] = field(default_factory=list)
    param_facts: list[Term] = field(default_factory=list)   # nat ≥ 0 etc.
    arg_types: list[RType] = field(default_factory=list)
    requires: list = field(default_factory=list)            # atoms + Terms
    exists: list[Var] = field(default_factory=list)         # postcond ∃y
    returns: Optional[RType] = None                         # None = void
    ensures: list = field(default_factory=list)             # atoms + Terms
    tactics: list[str] = field(default_factory=list)
    lemmas: list[Lemma] = field(default_factory=list)
    trusted: bool = False          # spec assumed without a verified body
    annotation_lines: dict[str, int] = field(default_factory=dict)
    # The named types and fn<> specs this spec's annotations consumed
    # during elaboration (``(kind, name)`` pairs, kind in {"type",
    # "fnspec"}) — the spec-side edges of the dependency graph.
    spec_deps: frozenset = frozenset()

    def spec_env(self) -> dict[str, Term]:
        env: dict[str, Term] = {p.name: p for p in self.params}
        for y in self.exists:
            env[y.name] = y
        return env


@dataclass
class RawFunctionAnnotations:
    """The raw string annotations attached to a C function definition, as
    produced by the front end."""

    parameters: list[str] = field(default_factory=list)   # "a: nat"
    args: list[str] = field(default_factory=list)
    requires: list[str] = field(default_factory=list)
    exists: list[str] = field(default_factory=list)
    returns: Optional[str] = None
    ensures: list[str] = field(default_factory=list)
    tactics: list[str] = field(default_factory=list)
    lemmas: list[str] = field(default_factory=list)        # named lemma refs
    trusted: bool = False


def build_function_spec(name: str, raw: RawFunctionAnnotations,
                        ctx: SpecContext,
                        lemma_table: Optional[Mapping[str, Lemma]] = None,
                        ) -> FunctionSpec:
    """Elaborate raw annotations into a :class:`FunctionSpec`.

    While the annotations are parsed, ``ctx.recording`` collects every
    named type and ``fn<>`` spec they resolve; the consumed set lands in
    ``spec.spec_deps`` for the incremental driver's dependency graph."""
    consumed: set = set()
    previous_recording = ctx.recording
    ctx.recording = consumed
    try:
        spec = _build_function_spec(name, raw, ctx, lemma_table)
    finally:
        ctx.recording = previous_recording
    spec.spec_deps = frozenset(consumed)
    return spec


def _build_function_spec(name: str, raw: RawFunctionAnnotations,
                         ctx: SpecContext,
                         lemma_table: Optional[Mapping[str, Lemma]] = None,
                         ) -> FunctionSpec:
    spec = FunctionSpec(name)
    env: dict[str, Term] = {}
    for decl in raw.parameters:
        pname, psort, is_nat = _parse_binder(decl)
        p = var(pname, psort)
        spec.params.append(p)
        env[pname] = p
        if is_nat:
            spec.param_facts.append(le(intlit(0), p))
    for decl in raw.exists:
        yname, ysort, is_nat = _parse_binder(decl)
        y = var(yname, ysort)
        spec.exists.append(y)
        if is_nat:
            spec.ensures.append(le(intlit(0), y))
    arg_env = dict(env)
    for a in raw.args:
        spec.arg_types.append(parse_type(a, arg_env, ctx))
    full_env = dict(env)
    for y in spec.exists:
        full_env[y.name] = y
    for r in raw.requires:
        spec.requires.append(parse_assertion(r, env, ctx))
    if raw.returns is not None:
        spec.returns = parse_type(raw.returns, full_env, ctx)
    for e in raw.ensures:
        spec.ensures.append(parse_assertion(e, full_env, ctx))
    spec.tactics = [t.strip().rstrip(".").removeprefix("all:").strip()
                    for t in raw.tactics]
    if raw.lemmas:
        table = lemma_table or {}
        missing = [l for l in raw.lemmas if l not in table]
        if missing:
            raise SpecError(f"{name}: unknown lemmas {missing}")
        spec.lemmas = [table[l] for l in raw.lemmas]
    spec.trusted = raw.trusted
    spec.annotation_lines = {
        "parameters": len(raw.parameters), "args": len(raw.args),
        "requires": len(raw.requires), "exists": len(raw.exists),
        "returns": 1 if raw.returns else 0, "ensures": len(raw.ensures),
        "tactics": len(raw.tactics),
    }
    return spec


def _parse_binder(decl: str) -> tuple[str, Sort, bool]:
    """Parse ``"a: nat"`` / ``"s: {gmultiset nat}"`` binder declarations."""
    if ":" not in decl:
        raise SpecError(f"bad binder {decl!r} (expected 'name: sort')")
    pname, sort_text = decl.split(":", 1)
    pname = pname.strip()
    if not pname.isidentifier():
        raise SpecError(f"bad binder name {pname!r}")
    try:
        psort, is_nat = parse_sort(sort_text)
    except SpecParseError as exc:
        raise SpecError(str(exc)) from exc
    return pname, psort, is_nat


# ---------------------------------------------------------------------
# Struct specifications (rc::refined_by / rc::field / ... on structs).
# ---------------------------------------------------------------------

@dataclass
class RawStructAnnotations:
    refined_by: list[str] = field(default_factory=list)
    fields: dict[str, str] = field(default_factory=dict)   # field -> type
    exists: list[str] = field(default_factory=list)
    constraints: list[str] = field(default_factory=list)
    size: Optional[str] = None
    ptr_type: Optional[tuple[str, str]] = None   # (name, type expr)
    typedef_name: Optional[str] = None           # plain typedef alias


@dataclass(eq=False, repr=False)
class StructBody:
    """The body of a struct-defined named type: unfolding it parses the
    ``rc::field``/``rc::constraints``/``rc::size`` annotations under the
    given refinements.

    A module-level class rather than a closure, so an elaborated
    :class:`~repro.refinedc.checker.TypedProgram` pickles and the driver
    can ship it to pool workers as data.  No generated ``__eq__`` or
    ``__repr__``: nothing should ever compare or print the whole
    :class:`SpecContext` it holds."""

    layout: StructLayout
    raw: RawStructAnnotations
    binders: list          # parsed rc::refined_by binders
    ex_binders: list       # parsed rc::exists binders
    ctx: SpecContext

    def __call__(self, *args: Term) -> RType:
        binders = self.binders
        env: dict[str, Term] = {n: a for (n, _, _), a in zip(binders, args)}
        nat_facts = [le(intlit(0), a)
                     for (n, _, is_nat), a in zip(binders, args) if is_nat]
        t = self.wrap_exists(self.ex_binders, env)
        if nat_facts:
            t = ConstrainedT(t, and_(*nat_facts))
        return t

    def wrap_exists(self, pending: list, env: dict[str, Term]) -> RType:
        """The struct under its ``pending`` ``rc::exists`` binders, each
        an :class:`ExistsT` whose body binds the witness in ``env``."""
        if pending:
            nm, srt, _is_nat = pending[0]
            return ExistsT(srt, nm, _StructExistsBody(self, pending, env))
        layout, raw, ctx = self.layout, self.raw, self.ctx
        fields = []
        for fname, _flayout in layout.fields:
            ftext = raw.fields.get(fname)
            if ftext is None:
                raise SpecError(
                    f"struct {layout.name}: field {fname!r} lacks an "
                    f"rc::field annotation")
            fields.append((fname, parse_type(ftext, env, ctx)))
        t: RType = StructT(layout, tuple(fields))
        constraints = [
            _parse_refinement(c, env, ctx) for c in raw.constraints]
        for nm, _srt, nat in self.ex_binders:
            if nat:
                constraints.append(le(intlit(0), env[nm]))
        if constraints:
            t = ConstrainedT(t, and_(*constraints))
        if raw.size is not None:
            t = PaddedT(t, _parse_refinement(raw.size, env, ctx))
        return t


@dataclass(eq=False, repr=False)
class _StructExistsBody:
    """The body of a struct's first pending ``rc::exists`` binder: binds
    the witness and wraps the rest.  A class rather than a closure that
    calls itself, so an unfolded struct forms no reference cycle."""

    struct_body: StructBody
    pending: list
    env: dict[str, Term]

    def __call__(self, x: Term) -> RType:
        return self.struct_body.wrap_exists(
            self.pending[1:], {**self.env, self.pending[0][0]: x})


@dataclass(eq=False, repr=False)
class PtrTypeBody:
    """The body of an ``rc::ptr_type`` named type: its type expression,
    with ``...`` standing for the enclosing struct's :class:`StructBody`
    at the same refinements.  Module-level for the same reason."""

    ptr_text: str
    struct_body: StructBody

    def __call__(self, *args: Term) -> RType:
        struct_body, ctx = self.struct_body, self.struct_body.ctx
        env = {n: a for (n, _, _), a in zip(struct_body.binders, args)}
        old = ctx.placeholder
        ctx.placeholder = lambda: struct_body(*args)
        try:
            return parse_type(self.ptr_text, env, ctx)
        finally:
            ctx.placeholder = old


def define_struct_type(layout: StructLayout, raw: RawStructAnnotations,
                       ctx: SpecContext) -> Optional[str]:
    """Register the named RefinedC type a struct annotation defines.

    Returns the name of the defined type (or ``None`` if the struct carries
    no refinement annotations).
    """
    if not raw.refined_by and not raw.fields:
        return None
    binders = [_parse_binder(d) for d in raw.refined_by]
    ex_binders = [_parse_binder(d) for d in raw.exists]
    param_sorts = tuple(s for _, s, _ in binders)
    struct_body = StructBody(layout, raw, binders, ex_binders, ctx)

    if raw.ptr_type is not None:
        ptr_name, ptr_text = raw.ptr_type
        # Defer: '...' inside the ptr_type expression means the struct body.
        ctx.types.define(TypeDef(ptr_name, param_sorts,
                                 PtrTypeBody(ptr_text, struct_body),
                                 layout=None, is_ptr_type=True))
        ctx.type_sources[ptr_name] = layout.name
        return ptr_name
    type_name = raw.typedef_name or layout.name
    ctx.types.define(TypeDef(type_name, param_sorts, struct_body,
                             layout=layout))
    ctx.type_sources[type_name] = layout.name
    return type_name
