"""Linear integer arithmetic solver (the core of RefinedC's *default solver*).

The paper's default pure-side-condition solver "currently only targets linear
arithmetic and Coq lists" (§7).  This module is the linear-arithmetic half: a
Fourier--Motzkin elimination procedure on integer rows with integer
tightening (``a < b`` over ints becomes ``a + 1 <= b``), preceded by Gaussian
elimination of equalities.

Entailment ``hyps |= goal`` is decided by refutation: normalise the
hypotheses and the negated goal into linear atoms and test unsatisfiability.
Non-linear subterms (``min``/``max``/``mod``/``msize``/``len``/uninterpreted
functions/...) are treated as opaque atoms, with sound bounding axioms added
lazily (e.g. ``0 <= len l``, ``min(a,b) <= a``).

Only the hypotheses that can change a verdict reach the procedure: those
with linear constraints, integer disequalities (which split) and
``False``, in first-seen order and without repeats.  Entailment is
memoized on that tuple, so contexts that differ only in facts this
solver ignores -- list or multiset facts, ``True``, repeats -- share one
elimination.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Callable, Iterable, Optional

from .memo import register_cache, trim_cache
from .terms import App, Lit, Sort, Term

_set = object.__setattr__

# A linear expression is a mapping from opaque INT atoms to coefficients plus
# a constant; it denotes  sum(coeff * atom) + const.
LinMap = dict[Term, int]

# Linearisation and constraint extraction are functions of one interned
# node, pure up to their ``atoms`` out-parameter: each stamps its result,
# with the frozenset of atoms it adds, on the node (``_lrow``, ``_lcon``),
# and a read replays the set union.  Entailment results are plain bools
# in the one dict memo, keyed on (linear facts of hyps, goal); see
# _linear_facts.
_IMPLIES_CACHE: dict = register_cache({})
_MISS = object()
_OPAQUE = object()   # the ``_lrow`` of an opaque atom; see linearise


@dataclass
class LinExpr:
    coeffs: LinMap
    const: int

    def __add__(self, other: "LinExpr") -> "LinExpr":
        out = dict(self.coeffs)
        for k, v in other.coeffs.items():
            out[k] = out.get(k, 0) + v
            if out[k] == 0:
                del out[k]
        return LinExpr(out, self.const + other.const)

    def scale(self, f: int) -> "LinExpr":
        if f == 0:
            return LinExpr({}, 0)
        return LinExpr({k: v * f for k, v in self.coeffs.items()}, self.const * f)

    def __sub__(self, other: "LinExpr") -> "LinExpr":
        return self + other.scale(-1)


# Constraint: LinExpr <= 0 (kind "le") or LinExpr == 0 (kind "eq").
@dataclass
class Constraint:
    expr: LinExpr
    kind: str  # "le" | "eq"


def linearise(t: Term, atoms: set[Term]) -> LinExpr:
    """Turn an INT term into a linear expression, collecting opaque atoms."""
    if not isinstance(t, App):
        return _linearise(t, atoms)
    hit = getattr(t, "_lrow", None)
    if hit is None:
        local: set[Term] = set()
        e = _linearise(t, local)
        # An opaque atom's row is the node itself with coefficient 1;
        # a marker stands for it, since a row holding its own node would
        # be a reference cycle.
        hit = _OPAQUE if t in local else (e, frozenset(local))
        _set(t, "_lrow", hit)
    if hit is _OPAQUE:
        atoms.add(t)
        return LinExpr({t: 1}, 0)
    atoms |= hit[1]
    # Fresh coeff dict per call: downstream arithmetic never mutates a
    # LinExpr in place, but sharing one dict across calls would make that
    # invariant load-bearing for correctness rather than just hygiene.
    return LinExpr(dict(hit[0].coeffs), hit[0].const)


def _linearise(t: Term, atoms: set[Term]) -> LinExpr:
    if isinstance(t, Lit):
        return LinExpr({}, int(t.value))
    if isinstance(t, App):
        if t.op == "add":
            out = LinExpr({}, 0)
            for a in t.args:
                out = out + linearise(a, atoms)
            return out
        if t.op == "sub":
            return linearise(t.args[0], atoms) - linearise(t.args[1], atoms)
        if t.op == "neg":
            return linearise(t.args[0], atoms).scale(-1)
        if t.op == "mul":
            const = 1
            non_const: list[Term] = []
            for a in t.args:
                if isinstance(a, Lit):
                    const *= int(a.value)
                else:
                    non_const.append(a)
            if not non_const:
                return LinExpr({}, const)
            if len(non_const) == 1:
                return linearise(non_const[0], atoms).scale(const)
            # Product of symbolic terms: opaque.
            atoms.add(t)
            return LinExpr({t: 1}, 0)
        if t.op == "ite":
            atoms.add(t)
            return LinExpr({t: 1}, 0)
    # Var, EVar, or opaque App (min/max/div/mod/len/msize/fn:...)
    atoms.add(t)
    return LinExpr({t: 1}, 0)


def _atom_axioms(atom: Term, atoms: set[Term]) -> list[Constraint]:
    """Sound bounding facts for an opaque atom (lazy theory axioms)."""
    out: list[Constraint] = []
    if not isinstance(atom, App):
        return out
    nonneg_ops = {"len", "msize"}
    if atom.op in nonneg_ops:
        # 0 <= atom   i.e.  -atom <= 0
        out.append(Constraint(LinExpr({atom: -1}, 0), "le"))
    if atom.op in ("min", "max"):
        a = linearise(atom.args[0], atoms)
        b = linearise(atom.args[1], atoms)
        me = LinExpr({atom: 1}, 0)
        if atom.op == "min":
            out.append(Constraint(me - a, "le"))  # min <= a
            out.append(Constraint(me - b, "le"))  # min <= b
        else:
            out.append(Constraint(a - me, "le"))  # a <= max
            out.append(Constraint(b - me, "le"))  # b <= max
    if atom.op == "mod" and isinstance(atom.args[1], Lit) and int(atom.args[1].value) > 0:
        m = int(atom.args[1].value)
        me = LinExpr({atom: 1}, 0)
        out.append(Constraint(me.scale(-1), "le"))           # 0 <= mod
        out.append(Constraint(me + LinExpr({}, 1 - m), "le"))  # mod <= m-1
    return out


def _to_constraints(prop: Term, atoms: set[Term]) -> Optional[list[Constraint]]:
    """Translate a boolean term into conjunction of linear constraints.

    Returns ``None`` if the proposition is not (a conjunction of) linear
    atoms -- such hypotheses are simply not visible to this solver.
    """
    if not isinstance(prop, App):
        return _to_constraints_impl(prop, atoms)
    hit = getattr(prop, "_lcon", None)
    if hit is None:
        # Every atom is a proper subterm of the node, so the slot never
        # refers back to its own node.
        local: set[Term] = set()
        cs = _to_constraints_impl(prop, local)
        hit = (tuple(cs) if cs is not None else None, frozenset(local))
        _set(prop, "_lcon", hit)
    atoms |= hit[1]
    return list(hit[0]) if hit[0] is not None else None


def _to_constraints_impl(prop: Term, atoms: set[Term]
                         ) -> Optional[list[Constraint]]:
    if isinstance(prop, Lit):
        if prop.value is True:
            return []
        # False hypothesis: encode as 1 <= 0.
        return [Constraint(LinExpr({}, 1), "le")]
    if isinstance(prop, App):
        if prop.op == "and":
            out: list[Constraint] = []
            for a in prop.args:
                sub_cs = _to_constraints(a, atoms)
                if sub_cs is None:
                    continue  # ignore non-linear conjunct (sound for hyps)
                out.extend(sub_cs)
            return out
        if prop.op == "le":
            e = linearise(prop.args[0], atoms) - linearise(prop.args[1], atoms)
            return [Constraint(e, "le")]
        if prop.op == "lt":
            e = linearise(prop.args[0], atoms) - linearise(prop.args[1], atoms)
            return [Constraint(e + LinExpr({}, 1), "le")]
        if prop.op == "eq" and prop.args[0].sort is Sort.INT:
            e = linearise(prop.args[0], atoms) - linearise(prop.args[1], atoms)
            return [Constraint(e, "eq")]
        if prop.op == "not":
            inner = prop.args[0]
            if isinstance(inner, App):
                if inner.op == "le":
                    return _to_constraints(App("lt", (inner.args[1], inner.args[0]), Sort.BOOL), atoms)
                if inner.op == "lt":
                    return _to_constraints(App("le", (inner.args[1], inner.args[0]), Sort.BOOL), atoms)
                if inner.op == "not":
                    return _to_constraints(inner.args[0], atoms)
    return None


def _negate_to_constraint_sets(goal: Term, atoms: set[Term]) -> Optional[list[list[Constraint]]]:
    """Negate ``goal`` into a *disjunction* of constraint conjunctions.

    Refutation must show every disjunct unsat.  ``None`` = not linear.
    """
    if isinstance(goal, Lit):
        if goal.value is True:
            return []  # ¬True = False: nothing to refute, trivially unsat
        # Proving False: refute the hypotheses themselves (¬False = True
        # adds no constraints).
        return [[]]
    if isinstance(goal, App):
        if goal.op == "le":
            cs = _to_constraints(App("lt", (goal.args[1], goal.args[0]), Sort.BOOL), atoms)
            return [cs] if cs is not None else None
        if goal.op == "lt":
            cs = _to_constraints(App("le", (goal.args[1], goal.args[0]), Sort.BOOL), atoms)
            return [cs] if cs is not None else None
        if goal.op == "eq" and goal.args[0].sort is Sort.INT:
            lt1 = _to_constraints(App("lt", (goal.args[0], goal.args[1]), Sort.BOOL), atoms)
            lt2 = _to_constraints(App("lt", (goal.args[1], goal.args[0]), Sort.BOOL), atoms)
            if lt1 is None or lt2 is None:
                return None
            return [lt1, lt2]
        if goal.op == "not":
            inner = goal.args[0]
            if isinstance(inner, App) and inner.op in ("le", "lt"):
                cs = _to_constraints(inner, atoms)
                return [cs] if cs is not None else None
            if isinstance(inner, App) and inner.op == "eq" and inner.args[0].sort is Sort.INT:
                cs = _to_constraints(inner, atoms)
                return [cs] if cs is not None else None
    return None


_FM_VAR_LIMIT = 24
_FM_SIZE_LIMIT = 3000


# ------------------------------------------------------------------
# The integer elimination kernel.
#
# Linear expressions have integer coefficients, so every constraint is
# already an integer row.  Gaussian elimination stays integral by
# combining rows as ``|p|·x − sign(p)·x_p·e`` (a positive multiple of the
# rational substitution), and Fourier--Motzkin runs with integer
# constants throughout.
#
# Every row is a positive multiple ``c·r`` of the row ``r`` that rational
# elimination would compute (the Gauss combination multiplies by ``|p|``;
# gcd reductions divide exactly).  Positive scaling preserves which
# coefficients are zero, the dict insertion order (and hence every pivot
# choice), the sign of constant-only rows, and the normalised form.  So
# the verdicts — including the size/round give-ups — equal those of the
# rational procedure, which tests/pure/linarith_oracle.py keeps as a
# differential oracle.
# ------------------------------------------------------------------

# An integer row is (coeffs: dict[Term, int], const: int) denoting
# sum(coeff·atom) + const (<= 0 or == 0 depending on the carried kind).
# Rows share their coefficient dicts with the (memoized) constraints;
# the kernel never mutates a row in place.
IntRow = tuple[dict, int]


def _row(c: Constraint) -> tuple[str, dict, int]:
    """The (kind, coeffs, const) integer row of a constraint."""
    return c.kind, c.expr.coeffs, c.expr.const


def _gauss_int(rows: list[tuple[str, dict, int]]) -> Optional[list[IntRow]]:
    """Integer Gaussian elimination: substitute every equality away.

    Returns the remaining inequality rows (each a positive multiple of
    the rational result), or ``None`` on an immediate contradiction."""
    eqs = [(coeffs, const) for kind, coeffs, const in rows if kind == "eq"]
    les = [(coeffs, const) for kind, coeffs, const in rows if kind == "le"]
    while eqs:
        coeffs, const = eqs.pop()
        if not coeffs:
            if const != 0:
                return None
            continue
        pivot = next(iter(coeffs))
        p = coeffs[pivot]
        a = p if p > 0 else -p
        s = 1 if p > 0 else -1

        def substitute(row: IntRow) -> IntRow:
            rc, rconst = row
            xp = rc.get(pivot)
            if xp is None:
                return row
            m = -s * xp
            out = {}
            for k, v in rc.items():
                if k != pivot:
                    out[k] = v * a
            for k, v in coeffs.items():
                if k == pivot:
                    continue
                nv = out.get(k, 0) + m * v
                if nv == 0:
                    out.pop(k, None)
                else:
                    out[k] = nv
            nconst = rconst * a + m * const
            # Exact gcd reduction keeps the integers small; the row stays
            # a positive multiple of its rational counterpart.
            g = 0
            for v in out.values():
                g = gcd(g, v if v > 0 else -v)
            g = gcd(g, nconst if nconst >= 0 else -nconst)
            if g > 1:
                out = {k: v // g for k, v in out.items()}
                nconst //= g
            return out, nconst

        eqs = [substitute(r) for r in eqs]
        les = [substitute(r) for r in les]
    return les


def _norm_int_row(row: IntRow) -> IntRow:
    """Integer cut: divide ``row ≤ 0`` by its coefficient gcd and floor
    the constant.  All atoms denote integers, so this is sound and
    recovers integer facts FM alone would miss (e.g. that ``8x + 1 ≤ 0``
    entails ``x ≤ -1``)."""
    coeffs, const = row
    if not coeffs:
        return row
    g = 0
    for v in coeffs.values():
        g = gcd(g, v if v > 0 else -v)
    if g <= 1:
        return row
    return {k: v // g for k, v in coeffs.items()}, -((-const) // g)


def _fm_int(rows: list[IntRow]) -> bool:
    """Return True iff the system ``{row <= 0}`` is unsatisfiable.

    Complete over the rationals; with the integer tightening performed
    during translation this is a sound (if incomplete) integer unsat
    check."""
    work = [_norm_int_row(r) for r in rows]
    for _round in range(_FM_VAR_LIMIT):
        # Constant rows are decided here: a refuting one ends the run,
        # the rest drop out.
        live = []
        for r in work:
            if r[0]:
                live.append(r)
            elif r[1] > 0:
                return True
        if not live:
            return False
        # Per atom, [rows with a positive, rows with a negative
        # coefficient], in first-occurrence order.
        occurrence: dict[Term, list[int]] = {}
        for coeffs, _const in live:
            for k, v in coeffs.items():
                counts = occurrence.get(k)
                if counts is None:
                    counts = occurrence[k] = [0, 0]
                counts[v < 0] += 1
        # Choose the variable minimising the pos*neg product (Bland-ish).
        pivot = min(occurrence, key=lambda k: occurrence[k][0] * occurrence[k][1])
        with_pos, with_neg, new = [], [], []
        for r in live:
            v = r[0].get(pivot)
            if v is None:
                new.append(r)
            elif v > 0:
                with_pos.append(r)
            else:
                with_neg.append(r)
        for pc, pconst in with_pos:
            a = pc[pivot]
            for nc, nconst in with_neg:
                b = nc[pivot]
                # p: a*x + r_p <= 0 (a>0) and n: b*x + r_n <= 0 (b<0)
                # combine positively to eliminate x:  -b*p + a*n <= 0.
                out = {k: -b * v for k, v in pc.items()}
                for k, v in nc.items():
                    nv = out.get(k, 0) + a * v
                    if nv == 0:
                        out.pop(k, None)
                    else:
                        out[k] = nv
                const = -b * pconst + a * nconst
                if out:
                    g = 0
                    for v in out.values():
                        g = gcd(g, v if v > 0 else -v)
                    if g > 1:
                        out = {k: v // g for k, v in out.items()}
                        const = -((-const) // g)
                new.append((out, const))
        if len(new) > _FM_SIZE_LIMIT:
            return False  # give up (incomplete, but sound: "not proved")
        work = new
    return False


def _div_axioms(atoms: set[Term], entailed: Callable[[LinExpr], bool]
                ) -> list[Constraint]:
    """Conditional axioms for truncating division by a positive constant:
    when ``0 ≤ x`` is entailed (``entailed(e)`` decides whether the
    hypotheses entail ``e ≤ 0``), add ``c*d ≤ x ≤ c*d + c - 1`` for
    ``d = x / c`` (exact for truncation)."""
    out: list[Constraint] = []
    for atom in list(atoms):
        if isinstance(atom, App) and atom.op == "div":
            x_t, c_t = atom.args
            x = linearise(x_t, atoms)
            d = LinExpr({atom: 1}, 0)
            if isinstance(c_t, Lit) and int(c_t.value) > 0:
                c = int(c_t.value)
                if not entailed(x.scale(-1)):   # need 0 <= x
                    continue
                out.append(Constraint(d.scale(c) - x, "le"))
                out.append(Constraint(x - d.scale(c)
                                      + LinExpr({}, 1 - c), "le"))
            else:
                # Symbolic divisor: with 0 <= x and 1 <= c we still know
                # 0 <= x/c <= x.
                cexpr = linearise(c_t, atoms)
                if entailed(x.scale(-1)) and \
                        entailed(LinExpr({}, 1) - cexpr):
                    out.append(Constraint(d.scale(-1), "le"))
                    out.append(Constraint(d - x, "le"))
        if isinstance(atom, App) and atom.op in ("min", "max"):
            a = linearise(atom.args[0], atoms)
            b = linearise(atom.args[1], atoms)
            me = LinExpr({atom: 1}, 0)
            # If the order of the operands is entailed, the min/max is
            # determined exactly.
            if entailed(a - b):       # a <= b
                out.append(Constraint(
                    (me - (b if atom.op == "max" else a)), "eq"))
            elif entailed(b - a):     # b <= a
                out.append(Constraint(
                    (me - (a if atom.op == "max" else b)), "eq"))
    return out


def _entailed_by(hyp_constraints: list[Constraint]
                 ) -> Callable[[LinExpr], bool]:
    """Nested entailment query for the axioms: does the hypothesis system
    entail ``e <= 0``?  (Refute hyps ∧ e >= 1.)"""
    hyp_rows = [_row(c) for c in hyp_constraints]

    def entailed(e: LinExpr) -> bool:
        neg = e.scale(-1) + LinExpr({}, 1)
        remaining = _gauss_int(hyp_rows + [("le", neg.coeffs, neg.const)])
        return remaining is None or _fm_int(remaining)
    return entailed


def _is_int_diseq(h: Term) -> bool:
    """``¬(a = b)`` over integers: a hypothesis linarith splits on."""
    if h.op != "not":
        return False
    inner = h.args[0]
    return isinstance(inner, App) and inner.op == "eq" \
        and inner.args[0].sort is Sort.INT


def _linear_facts(hyps: Iterable[Term]) -> tuple[Term, ...]:
    """The hypotheses that can change a verdict, in first-seen order
    and without repeats: those with linear constraints, the integer
    disequalities (they split) and ``False``.  Every other fact adds no
    row and no atom, so the verdict depends on this tuple alone."""
    out: dict[Term, None] = {}   # a repeat keeps its first position
    for h in hyps:
        if isinstance(h, App):
            hit = getattr(h, "_lcon", None)
            if hit is None:
                _to_constraints(h, set())
                hit = h._lcon
            if hit[0] or _is_int_diseq(h):
                out[h] = None
        elif isinstance(h, Lit) and h.value is not True:
            out[h] = None
    return tuple(out)


def implies_linear(hyps: Iterable[Term], goal: Term) -> bool:
    """Decide whether the linear fragment of ``hyps`` entails ``goal``."""
    hyps = _linear_facts(hyps)
    key = (hyps, goal)
    hit = _IMPLIES_CACHE.get(key, _MISS)
    if hit is _MISS:
        hit = _implies_linear(hyps, goal)
        trim_cache(_IMPLIES_CACHE)
        _IMPLIES_CACHE[key] = hit
    return hit


def _implies_linear(hyps: tuple[Term, ...], goal: Term) -> bool:
    """``implies_linear`` on hypotheses already cut to their linear
    facts."""
    if isinstance(goal, App) and goal.op == "and":
        return all(implies_linear(hyps, g) for g in goal.args)
    if isinstance(goal, App) and goal.op == "implies":
        return implies_linear(hyps + (goal.args[0],), goal.args[1])
    # Integer disequality hypotheses require a case split (a ≠ b is a < b
    # or b < a).
    for i, h in enumerate(hyps):
        if isinstance(h, App) and _is_int_diseq(h):
            a, b = h.args[0].args
            rest = hyps[:i] + hyps[i + 1:]
            return (implies_linear(rest + (App("lt", (a, b), Sort.BOOL),),
                                   goal)
                    and implies_linear(rest + (App("lt", (b, a), Sort.BOOL),),
                                       goal))
    atoms: set[Term] = set()
    constraints: list[Constraint] = []
    for h in hyps:
        cs = _to_constraints(h, atoms)
        if cs is not None:
            constraints.extend(cs)
    neg_sets = _negate_to_constraint_sets(goal, atoms)
    if neg_sets is None:
        return False
    # Lazy bounding axioms for every opaque atom, the goal's included;
    # the conditional ones ask nested entailment queries of the
    # hypotheses.  The whole refutation runs on integer rows.
    axioms: list[Constraint] = []
    for a in list(atoms):
        axioms.extend(_atom_axioms(a, atoms))
    axioms.extend(_div_axioms(atoms, _entailed_by(constraints)))
    hyp_ax = [_row(c) for c in constraints + axioms]
    for neg in neg_sets:
        remaining = _gauss_int(hyp_ax + [_row(c) for c in neg])
        if remaining is None:
            continue  # equalities already contradictory: this disjunct unsat
        if not _fm_int(remaining):
            return False
    return True
