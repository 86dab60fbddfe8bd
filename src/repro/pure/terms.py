"""Symbolic term language for RefinedC refinements and pure side conditions.

RefinedC refinements range over "arbitrary mathematical domains" (Coq types in
the paper).  This module provides the executable analogue: a small multi-sorted
first-order term language with

* mathematical integers (``INT``) -- naturals are integers plus ``0 <= x``
  hypotheses, as in the paper's use of ``nat``,
* booleans (``BOOL``) used both as values and as propositions,
* symbolic memory locations (``LOC``) with byte offsets,
* multisets of integers (``MSET``) -- the paper's ``gmultiset nat``,
* lists of integers (``LIST``) -- used for array/functional specs.

Terms are immutable and **hash-consed**: constructing a term that is
structurally equal to a live one returns the very same object (interned in
per-class tables), so structural equality is usually pointer identity and
terms are cheap dictionary keys for the solvers and Lithium's context.
Per-node attributes that the solvers used to recompute by traversal —
``has_evars``, ``size``, the hash, and (lazily) ``free_vars``/``evars`` —
are cached on the node and computed once at construction from the
children's caches.

Interning is an *allocation* optimization, never a semantic one: ``==``
and ``hash`` keep their historical structural definitions (in particular
``Lit(True) == Lit(1)`` still holds, mirroring Python's ``True == 1``,
while the two stay distinct interned objects so their ``sort``/``repr``
differ).  Pickling reconstructs through the constructors, so unpickled
terms re-intern into the local tables.

Existential metavariables (:class:`EVar`) implement the paper's *evars*
(Section 5, "Handling of evars"): they are created by the ``∃`` case of the
Lithium interpreter and instantiated only through a :class:`Subst` store,
never destructively.
"""

from __future__ import annotations

import enum
import itertools
from typing import Iterator, Mapping, Optional, Sequence, Union

from . import memo as _memo


class Sort(enum.Enum):
    """Sorts of the refinement term language."""

    INT = "int"
    BOOL = "bool"
    LOC = "loc"
    MSET = "mset"
    LIST = "list"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Sort.{self.name}"


class TermError(Exception):
    """Raised on ill-sorted term construction or malformed substitution."""


# ------------------------------------------------------------------
# Intern tables.  Keys never collide across semantically distinct nodes:
# Lit keys carry the value's type (bool vs int), and App keys are built
# from the children's intern ids (``_iid``), which are unique for the
# process lifetime and never reused — so clearing the tables mid-run can
# cost identity, never correctness.
#
# The tables live for the process: a term built again by a later
# function check is the very node an earlier one built, compiled forms
# (``App._simp``/``_hypx``/``_lrow``/``_lcon``) included.  They are
# bounded like every pure memo — a table past ``memo.DEFAULT_CACHE_CAP``
# entries drops them all — and :func:`repro.pure.memo.clear_pure_caches`
# drops them too.
# ------------------------------------------------------------------

_set = object.__setattr__

_VAR_TABLE: dict = {}
_EVAR_TABLE: dict = {}
_LIT_TABLE: dict = {}
_APP_TABLE: dict = {}

_IID_COUNTER = itertools.count(1)


def _intern(table: dict, key, node):
    if len(table) > _memo.DEFAULT_CACHE_CAP:
        clear_term_caches()
    table[key] = node
    return node


def clear_term_caches() -> None:
    """Drop the intern tables (and re-seed the module singletons).

    Live terms stay valid — equality is structural, so two copies of one
    term merely stop being pointer-identical until re-interned."""
    _VAR_TABLE.clear()
    _EVAR_TABLE.clear()
    _LIT_TABLE.clear()
    _APP_TABLE.clear()
    for lit in (TRUE, FALSE, ZERO, ONE):
        _LIT_TABLE.setdefault((lit.value.__class__, lit.value), lit)


class Term:
    """Base class of all terms.  Instances are immutable and interned."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise TermError(f"terms are immutable ({name!r})")

    def __delattr__(self, name):
        raise TermError(f"terms are immutable ({name!r})")

    @property
    def sort(self) -> Sort:
        raise NotImplementedError

    @property
    def size(self) -> int:
        """Number of nodes in the term (cached; O(1))."""
        return 1

    def subterms(self) -> Iterator["Term"]:
        """Yield this term and all its subterms, pre-order."""
        yield self

    def free_vars(self) -> frozenset["Var"]:
        return _EMPTY_VARS

    def evars(self) -> frozenset["EVar"]:
        return _EMPTY_EVARS

    def has_evars(self) -> bool:
        return False


_EMPTY_VARS: frozenset = frozenset()
_EMPTY_EVARS: frozenset = frozenset()


class Var(Term):
    """A universally quantified (rigid) variable, e.g. a ``rc::parameters``
    entry or a loop-invariant ``rc::exists`` binder after introduction."""

    __slots__ = ("name", "var_sort", "_hash", "_iid")

    def __new__(cls, name: str, var_sort: Sort) -> "Var":
        key = (name, var_sort)
        cached = _VAR_TABLE.get(key)
        if cached is not None:
            return cached
        self = object.__new__(cls)
        _set(self, "name", name)
        _set(self, "var_sort", var_sort)
        _set(self, "_hash", hash(key))
        _set(self, "_iid", next(_IID_COUNTER))
        return _intern(_VAR_TABLE, key, self)

    @property
    def sort(self) -> Sort:
        return self.var_sort

    def free_vars(self) -> frozenset["Var"]:
        # Not cached on the node: a set holding its own node is a
        # reference cycle, so a dropped Var would wait for the cyclic
        # collector instead of being freed by its reference count.
        return frozenset((self,))

    def __eq__(self, other) -> bool:
        return self is other or (type(other) is Var
                                 and other.name == self.name
                                 and other.var_sort is self.var_sort)

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return (Var, (self.name, self.var_sort))

    def __repr__(self) -> str:
        return self.name


_EVAR_COUNTER = itertools.count()


class EVar(Term):
    """An existential metavariable (paper: *evar*).

    Evars are instantiated via a :class:`Subst`; the ``sealed`` protocol that
    prevents premature instantiation lives in :mod:`repro.lithium.search`,
    which tracks the set of currently sealed evar ids.
    """

    __slots__ = ("eid", "var_sort", "hint", "_hash", "_iid")

    def __new__(cls, eid: int, var_sort: Sort, hint: str = "") -> "EVar":
        key = (eid, var_sort, hint)
        cached = _EVAR_TABLE.get(key)
        if cached is not None:
            return cached
        self = object.__new__(cls)
        _set(self, "eid", eid)
        _set(self, "var_sort", var_sort)
        _set(self, "hint", hint)
        _set(self, "_hash", hash(key))
        _set(self, "_iid", next(_IID_COUNTER))
        return _intern(_EVAR_TABLE, key, self)

    @property
    def sort(self) -> Sort:
        return self.var_sort

    def evars(self) -> frozenset["EVar"]:
        return frozenset((self,))   # uncached, as in Var.free_vars

    def has_evars(self) -> bool:
        return True

    def __eq__(self, other) -> bool:
        return self is other or (type(other) is EVar
                                 and other.eid == self.eid
                                 and other.var_sort is self.var_sort
                                 and other.hint == self.hint)

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return (EVar, (self.eid, self.var_sort, self.hint))

    def __repr__(self) -> str:
        suffix = f":{self.hint}" if self.hint else ""
        return f"?e{self.eid}{suffix}"


def fresh_evar(sort: Sort, hint: str = "") -> EVar:
    """Create a globally fresh evar of the given sort."""
    return EVar(next(_EVAR_COUNTER), sort, hint)


class Lit(Term):
    """An integer or boolean literal.

    Interned with a type-tagged key, so ``Lit(True)`` and ``Lit(1)`` stay
    distinct objects (different ``sort``/``repr``) while — exactly as the
    historical structural equality did via Python's ``True == 1`` —
    remaining ``==``/hash-equal."""

    __slots__ = ("value", "_hash", "_iid")

    def __new__(cls, value: Union[int, bool]) -> "Lit":
        key = (value.__class__, value)
        cached = _LIT_TABLE.get(key)
        if cached is not None:
            return cached
        if not isinstance(value, (int, bool)):
            raise TermError(f"bad literal {value!r}")
        self = object.__new__(cls)
        _set(self, "value", value)
        _set(self, "_hash", hash((value,)))
        _set(self, "_iid", next(_IID_COUNTER))
        return _intern(_LIT_TABLE, key, self)

    @property
    def sort(self) -> Sort:
        return Sort.BOOL if isinstance(self.value, bool) else Sort.INT

    def __eq__(self, other) -> bool:
        return self is other or (type(other) is Lit
                                 and other.value == self.value)

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return (Lit, (self.value,))

    def __repr__(self) -> str:
        return repr(self.value)


# Operator table: name -> (argument sorts or None for variadic, result sort).
# ``None`` in an argument position means "same sort as first argument".
_OPS: dict[str, tuple[Optional[tuple[Optional[Sort], ...]], Sort]] = {
    # Integer arithmetic.
    "add": (None, Sort.INT),          # variadic, INT args
    "mul": (None, Sort.INT),
    "sub": ((Sort.INT, Sort.INT), Sort.INT),
    "neg": ((Sort.INT,), Sort.INT),
    "div": ((Sort.INT, Sort.INT), Sort.INT),
    "mod": ((Sort.INT, Sort.INT), Sort.INT),
    "min": ((Sort.INT, Sort.INT), Sort.INT),
    "max": ((Sort.INT, Sort.INT), Sort.INT),
    "ite": ((Sort.BOOL, None, None), Sort.INT),  # result sort fixed at build
    # Comparisons / propositions.
    "le": ((Sort.INT, Sort.INT), Sort.BOOL),
    "lt": ((Sort.INT, Sort.INT), Sort.BOOL),
    "eq": ((None, None), Sort.BOOL),
    "not": ((Sort.BOOL,), Sort.BOOL),
    "and": (None, Sort.BOOL),
    "or": (None, Sort.BOOL),
    "implies": ((Sort.BOOL, Sort.BOOL), Sort.BOOL),
    # Locations.
    "loc_offset": ((Sort.LOC, Sort.INT), Sort.LOC),
    # Multisets (gmultiset nat).
    "mempty": ((), Sort.MSET),
    "msingle": ((Sort.INT,), Sort.MSET),
    "munion": (None, Sort.MSET),
    "msize": ((Sort.MSET,), Sort.INT),
    "mmember": ((Sort.INT, Sort.MSET), Sort.BOOL),
    "mall_ge": ((Sort.MSET, Sort.INT), Sort.BOOL),  # ∀k∈s. n ≤ k
    "mall_le": ((Sort.MSET, Sort.INT), Sort.BOOL),  # ∀k∈s. k ≤ n
    # Lists of integers.
    "nil": ((), Sort.LIST),
    "cons": ((Sort.INT, Sort.LIST), Sort.LIST),
    "append": ((Sort.LIST, Sort.LIST), Sort.LIST),
    "len": ((Sort.LIST,), Sort.INT),
    "head": ((Sort.LIST,), Sort.INT),
    "tail": ((Sort.LIST,), Sort.LIST),
    "index": ((Sort.LIST, Sort.INT), Sort.INT),
    "store": ((Sort.LIST, Sort.INT, Sort.INT), Sort.LIST),
    "list_lit": (None, Sort.LIST),   # literal list of INT terms
    "sorted": ((Sort.LIST,), Sort.BOOL),
}


class App(Term):
    """An operator or uninterpreted-function application.

    Uninterpreted functions (used e.g. for the hashmap's probing function)
    have ``op`` of the form ``"fn:<name>"`` and carry their result sort.
    """

    # The trailing slots hold *compiled forms*: the simplified normal
    # form, the hypothesis decomposition (stamped with the hyp-rule
    # generation), the linear row and the linear constraints of the node.
    # They are left unset until first use — reads go through
    # ``getattr(t, s, None)`` and writes through ``object.__setattr__`` —
    # so construction pays nothing for them.  None of them refers back to
    # its own node (a marker stands for "the node itself"), so no term is
    # part of a reference cycle: a term the intern tables drop is freed by
    # its reference count, without waiting for the cyclic collector.
    __slots__ = ("op", "args", "result_sort", "_hash", "_iid",
                 "_hevars", "_size", "_fvs", "_evs",
                 "_simp", "_hypx", "_lrow", "_lcon", "_subs")

    def __new__(cls, op: str, args: Sequence[Term],
                result_sort: Sort) -> "App":
        args = tuple(args)
        # The intern ids of the children identify them *exactly* (stricter
        # than ``==``, which conflates Lit(True)/Lit(1)), so the key can
        # never merge Apps whose reprs or child sorts differ.  One flat
        # tuple: the tables outlive a function check, so every byte of
        # a key is kept.
        key = (op, result_sort, *[a._iid for a in args])
        cached = _APP_TABLE.get(key)
        if cached is not None:
            return cached
        self = object.__new__(cls)
        _set(self, "op", op)
        _set(self, "args", args)
        _set(self, "result_sort", result_sort)
        _set(self, "_hash", hash((op, args, result_sort)))
        _set(self, "_iid", next(_IID_COUNTER))
        _set(self, "_hevars", any(a.has_evars() for a in args))
        _set(self, "_size", 1 + sum(a.size for a in args))
        _set(self, "_fvs", None)
        _set(self, "_evs", None)
        return _intern(_APP_TABLE, key, self)

    @property
    def sort(self) -> Sort:
        return self.result_sort

    @property
    def size(self) -> int:
        return self._size

    def subterms(self) -> Iterator[Term]:
        yield self
        for a in self.args:
            yield from a.subterms()

    def free_vars(self) -> frozenset[Var]:
        fvs = self._fvs
        if fvs is None:
            fvs = _EMPTY_VARS.union(*(a.free_vars() for a in self.args)) \
                if self.args else _EMPTY_VARS
            _set(self, "_fvs", fvs)
        return fvs

    def evars(self) -> frozenset[EVar]:
        evs = self._evs
        if evs is None:
            evs = _EMPTY_EVARS.union(*(a.evars() for a in self.args)) \
                if self.args else _EMPTY_EVARS
            _set(self, "_evs", evs)
        return evs

    def has_evars(self) -> bool:
        return self._hevars

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        return (type(other) is App
                and other._hash == self._hash
                and other.op == self.op
                and other.result_sort is self.result_sort
                and other.args == self.args)

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return (App, (self.op, self.args, self.result_sort))

    def __repr__(self) -> str:
        if not self.args:
            return self.op
        return f"{self.op}({', '.join(map(repr, self.args))})"


def _check_sorts(op: str, args: Sequence[Term]) -> Sort:
    if op.startswith("fn:"):
        raise TermError("use fn_app() for uninterpreted functions")
    if op not in _OPS:
        raise TermError(f"unknown operator {op!r}")
    arg_sorts, result = _OPS[op]
    if arg_sorts is None:
        want = {"and": Sort.BOOL, "or": Sort.BOOL, "munion": Sort.MSET,
                "list_lit": Sort.INT}.get(op, Sort.INT)
        for a in args:
            if a.sort is not want:
                raise TermError(f"{op}: expected {want}, got {a.sort} in {a!r}")
    else:
        if len(args) != len(arg_sorts):
            raise TermError(f"{op}: arity {len(arg_sorts)}, got {len(args)}")
        for a, want in zip(args, arg_sorts):
            if want is not None and a.sort is not want:
                raise TermError(f"{op}: expected {want}, got {a.sort} in {a!r}")
        if op == "eq" and args[0].sort is not args[1].sort:
            raise TermError(f"eq: sort mismatch {args[0].sort} vs {args[1].sort}")
    return result


def app(op: str, *args: Term, sort: Optional[Sort] = None) -> Term:
    """Build an application with light canonicalisation (constant folding,
    flattening of associative operators, neutral-element removal)."""
    result = _check_sorts(op, args)
    if op == "ite":
        if sort is None:
            sort = args[1].sort
        if args[1].sort is not args[2].sort:
            raise TermError("ite: branch sort mismatch")
        result = sort
        cond = args[0]
        if cond == TRUE:
            return args[1]
        if cond == FALSE:
            return args[2]
        if args[1] == args[2]:
            return args[1]
    if op in ("add", "mul", "and", "or", "munion"):
        flat: list[Term] = []
        for a in args:
            if isinstance(a, App) and a.op == op:
                flat.extend(a.args)
            else:
                flat.append(a)
        args = tuple(flat)
        folded = _fold_variadic(op, args)
        if folded is not None:
            return folded
    simple = _fold_fixed(op, args)
    if simple is not None:
        return simple
    return App(op, tuple(args), result)


def _fold_variadic(op: str, args: tuple[Term, ...]) -> Optional[Term]:
    """Constant-fold / simplify variadic operators; return None to keep App."""
    if op == "add":
        const = sum(a.value for a in args if isinstance(a, Lit))
        rest = [a for a in args if not isinstance(a, Lit)]
        if not rest:
            return Lit(const)
        if const:
            rest.append(Lit(const))
        if len(rest) == 1:
            return rest[0]
        return App("add", tuple(rest), Sort.INT)
    if op == "mul":
        const = 1
        rest = []
        for a in args:
            if isinstance(a, Lit):
                const *= a.value
            else:
                rest.append(a)
        if const == 0 or not rest:
            return Lit(const if not rest else 0)
        if const != 1:
            rest.insert(0, Lit(const))
        if len(rest) == 1:
            return rest[0]
        return App("mul", tuple(rest), Sort.INT)
    if op in ("and", "or"):
        unit, absorb = (TRUE, FALSE) if op == "and" else (FALSE, TRUE)
        out: list[Term] = []
        for a in args:
            if a == absorb:
                return absorb
            if a != unit and a not in out:
                out.append(a)
        if not out:
            return unit
        if len(out) == 1:
            return out[0]
        return App(op, tuple(out), Sort.BOOL)
    if op == "munion":
        out = [a for a in args if not (isinstance(a, App) and a.op == "mempty")]
        if not out:
            return App("mempty", (), Sort.MSET)
        if len(out) == 1:
            return out[0]
        return App("munion", tuple(out), Sort.MSET)
    return None


def _fold_fixed(op: str, args: tuple[Term, ...]) -> Optional[Term]:
    """Constant-fold fixed-arity operators on literal arguments."""
    vals = [a.value for a in args if isinstance(a, Lit)]
    if len(vals) == len(args):
        if op == "sub":
            return Lit(vals[0] - vals[1])
        if op == "neg":
            return Lit(-vals[0])
        if op == "div" and vals[1] != 0:
            q = abs(vals[0]) // abs(vals[1])
            return Lit(q if (vals[0] >= 0) == (vals[1] > 0) else -q)
        if op == "mod" and vals[1] != 0:
            return Lit(vals[0] - vals[1] * (vals[0] // vals[1] if (vals[0] >= 0) == (vals[1] > 0) else -(abs(vals[0]) // abs(vals[1]))))
        if op == "min":
            return Lit(min(vals))
        if op == "max":
            return Lit(max(vals))
        if op == "le":
            return Lit(bool(vals[0] <= vals[1]))
        if op == "lt":
            return Lit(bool(vals[0] < vals[1]))
        if op == "eq":
            return Lit(bool(vals[0] == vals[1]))
        if op == "not":
            return Lit(not vals[0])
        if op == "implies":
            return Lit((not vals[0]) or vals[1])
    if op == "sub" and isinstance(args[1], Lit) and args[1].value == 0:
        return args[0]
    if op == "not" and isinstance(args[0], App) and args[0].op == "not":
        return args[0].args[0]
    if op == "eq" and args[0] == args[1] and not args[0].has_evars():
        return TRUE
    if op == "implies" and args[0] == TRUE:
        return args[1]
    if op == "implies" and args[1] == TRUE:
        return TRUE
    if op == "loc_offset" and isinstance(args[1], Lit) and args[1].value == 0:
        return args[0]
    if op == "loc_offset" and isinstance(args[0], App) and args[0].op == "loc_offset":
        inner_loc, inner_off = args[0].args
        return app("loc_offset", inner_loc, app("add", inner_off, args[1]))
    return None


def fn_app(name: str, args: Sequence[Term], sort: Sort) -> Term:
    """Apply an uninterpreted function symbol (e.g. a spec-level Coq function)."""
    return App(f"fn:{name}", tuple(args), sort)


# ------------------------------------------------------------------
# Convenience constructors (the public vocabulary used everywhere else).
# ------------------------------------------------------------------

TRUE = Lit(True)
FALSE = Lit(False)
ZERO = Lit(0)
ONE = Lit(1)

_memo.register_clearer(clear_term_caches)


def intlit(n: int) -> Lit:
    return Lit(int(n))


def var(name: str, sort: Sort = Sort.INT) -> Var:
    return Var(name, sort)


def add(*ts: Term) -> Term:
    return app("add", *ts)


def sub(a: Term, b: Term) -> Term:
    return app("sub", a, b)


def mul(*ts: Term) -> Term:
    return app("mul", *ts)


def neg(a: Term) -> Term:
    return app("neg", a)


def le(a: Term, b: Term) -> Term:
    return app("le", a, b)


def lt(a: Term, b: Term) -> Term:
    return app("lt", a, b)


def ge(a: Term, b: Term) -> Term:
    return app("le", b, a)


def gt(a: Term, b: Term) -> Term:
    return app("lt", b, a)


def eq(a: Term, b: Term) -> Term:
    return app("eq", a, b)


def ne(a: Term, b: Term) -> Term:
    return app("not", app("eq", a, b))


def not_(a: Term) -> Term:
    return app("not", a)


def and_(*ts: Term) -> Term:
    return app("and", *ts)


def or_(*ts: Term) -> Term:
    return app("or", *ts)


def implies(a: Term, b: Term) -> Term:
    return app("implies", a, b)


def ite(c: Term, t: Term, e: Term) -> Term:
    return app("ite", c, t, e)


def loc_offset(l: Term, off: Term) -> Term:
    return app("loc_offset", l, off)


def mempty() -> Term:
    return app("mempty")


def msingle(n: Term) -> Term:
    return app("msingle", n)


def munion(*ts: Term) -> Term:
    return app("munion", *ts)


def msize(s: Term) -> Term:
    return app("msize", s)


def mmember(n: Term, s: Term) -> Term:
    return app("mmember", n, s)


def mall_ge(s: Term, n: Term) -> Term:
    return app("mall_ge", s, n)


def mall_le(s: Term, n: Term) -> Term:
    return app("mall_le", s, n)


def store(l: Term, i: Term, v: Term) -> Term:
    return app("store", l, i, v)


def nil() -> Term:
    return app("nil")


def cons(h: Term, t: Term) -> Term:
    return app("cons", h, t)


def append(a: Term, b: Term) -> Term:
    return app("append", a, b)


def length(l: Term) -> Term:
    return app("len", l)


def list_lit(*ts: Term) -> Term:
    return App("list_lit", tuple(ts), Sort.LIST)


# ------------------------------------------------------------------
# Substitution.
# ------------------------------------------------------------------

class Subst:
    """A persistent-feeling substitution store for evars and variables.

    Evar bindings are added by unification during Lithium proof search and
    never removed (no backtracking!), so a plain mutable dict suffices.

    ``generation`` counts bindings: it bumps on every :meth:`bind_evar`
    and never otherwise, so any value derived from resolving terms
    (e.g. :meth:`~repro.lithium.context.Gamma.resolved_facts`) can be
    cached against it.  Resolution itself is memoized per generation, and
    evar-free terms resolve to themselves in O(1) via the interned
    ``has_evars`` bit.
    """

    def __init__(self) -> None:
        self._evar: dict[int, Term] = {}
        self.generation = 0
        self._resolve_memo: dict[Term, Term] = {}

    def bind_evar(self, ev: EVar, t: Term) -> None:
        if ev.eid in self._evar:
            raise TermError(f"evar {ev!r} already bound")
        t = self.resolve(t)
        if ev in t.evars():
            raise TermError(f"occurs check failed binding {ev!r} to {t!r}")
        if t.sort is not ev.sort:
            raise TermError(f"sort mismatch binding {ev!r} to {t!r}")
        self._evar[ev.eid] = t
        self.generation += 1
        self._resolve_memo.clear()

    def lookup(self, ev: EVar) -> Optional[Term]:
        return self._evar.get(ev.eid)

    def resolve(self, t: Term) -> Term:
        """Fully apply the substitution to ``t`` (with re-canonicalisation)."""
        if not t.has_evars():
            return t
        if isinstance(t, EVar):
            bound = self._evar.get(t.eid)
            if bound is None:
                return t
            resolved = self.resolve(bound)
            if resolved is not bound:
                self._evar[t.eid] = resolved  # path compression
            return resolved
        if isinstance(t, App):
            hit = self._resolve_memo.get(t)
            if hit is not None:
                return hit
            new_args = tuple(self.resolve(a) for a in t.args)
            if new_args == t.args:
                out: Term = t
            elif t.op.startswith("fn:") or t.op == "list_lit":
                out = App(t.op, new_args, t.result_sort)
            else:
                out = app(t.op, *new_args, sort=t.result_sort)
            self._resolve_memo[t] = out
            return out
        return t

    def snapshot(self) -> dict[int, Term]:
        """Return a copy of the raw store (used by tests/diagnostics)."""
        return dict(self._evar)

    def copy(self) -> "Subst":
        """An independent clone with the same bindings.

        Equivalent to rebinding every snapshot entry into a fresh
        :class:`Subst` (the bindings are identical, so every later
        ``resolve`` agrees), but skips the per-entry occurs/sort
        re-checks, which matters on the unification-heavy forward
        chaining path.
        """
        out = Subst.__new__(Subst)
        out._evar = dict(self._evar)
        out.generation = self.generation
        out._resolve_memo = {}
        return out


def subst_vars(t: Term, mapping: Mapping[Var, Term]) -> Term:
    """Capture-avoiding substitution of rigid variables (terms are closed
    w.r.t. binders, so this is plain structural replacement)."""
    if isinstance(t, Var):
        repl = mapping.get(t)
        if repl is not None and repl.sort is not t.sort:
            raise TermError(f"sort mismatch substituting {t!r} -> {repl!r}")
        return repl if repl is not None else t
    if isinstance(t, App):
        new_args = tuple(subst_vars(a, mapping) for a in t.args)
        if new_args == t.args:
            return t
        if t.op.startswith("fn:") or t.op == "list_lit":
            return App(t.op, new_args, t.result_sort)
        return app(t.op, *new_args, sort=t.result_sort)
    return t
