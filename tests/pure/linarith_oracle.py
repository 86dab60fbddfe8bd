"""Test-only oracle for linear entailment: rational Gauss + Fourier–Motzkin.

:mod:`repro.pure.linarith` decides ``hyps |= goal`` on integer rows.
This module keeps an independent reference for it: the same refutation
procedure run on ``Fraction``-valued :class:`~repro.pure.linarith.LinExpr`
constraints, with Gaussian elimination by rational substitution and an
explicit integer cut before Fourier–Motzkin.  It shares only the front
end with production (term → constraint translation and the axiom
generators) and no memo table, so ``implies_linear(hyps, goal) ==
oracle_implies_linear(hyps, goal)`` checks the integer kernel — every
"don't know" included.
"""

from __future__ import annotations

from fractions import Fraction
from math import floor, gcd
from typing import Optional

from repro.pure import linarith as L
from repro.pure.linarith import Constraint, LinExpr
from repro.pure.terms import App, Sort, Term


def gauss_eliminate(constraints: list[Constraint]
                    ) -> Optional[list[Constraint]]:
    """Eliminate equalities by substitution; ``None`` on an immediate
    contradiction (e.g. ``2 = 0``)."""
    eqs = [c for c in constraints if c.kind == "eq"]
    les = [c.expr for c in constraints if c.kind == "le"]
    while eqs:
        e = eqs.pop().expr
        if not e.coeffs:
            if e.const != 0:
                return None
            continue
        # Pick a pivot variable and solve for it:  pivot = rest / -coeff
        pivot, coeff = next(iter(e.coeffs.items()))
        rest = LinExpr({k: v for k, v in e.coeffs.items() if k != pivot},
                       e.const)
        sol = rest.scale(Fraction(-1) / coeff)

        def substitute(x: LinExpr) -> LinExpr:
            if pivot not in x.coeffs:
                return x
            c0 = x.coeffs[pivot]
            trimmed = LinExpr({k: v for k, v in x.coeffs.items()
                               if k != pivot}, x.const)
            return trimmed + sol.scale(c0)

        eqs = [Constraint(substitute(q.expr), "eq") for q in eqs]
        les = [substitute(x) for x in les]
    return [Constraint(e, "le") for e in les]


def normalise_int(e: LinExpr) -> LinExpr:
    """Integer cut: scale ``e ≤ 0`` to integral coefficients, divide by
    their gcd, and floor the constant."""
    if not e.coeffs:
        return e
    denom_lcm = 1
    for v in list(e.coeffs.values()) + [e.const]:
        denom_lcm = denom_lcm * v.denominator // gcd(denom_lcm, v.denominator)
    scaled = e.scale(Fraction(denom_lcm))
    g = 0
    for v in scaled.coeffs.values():
        g = gcd(g, abs(int(v)))
    if g <= 1:
        return scaled
    coeffs = {k: v / g for k, v in scaled.coeffs.items()}
    # sum(c_i x_i) ≤ -const  ⇒  sum ≤ floor(-const / g) for integral sums.
    return LinExpr(coeffs, -Fraction(floor(-scaled.const / g)))


def fourier_motzkin(ineqs: list[LinExpr]) -> bool:
    """True iff ``{e <= 0}`` is unsatisfiable, with the production
    round/size limits (so the give-ups agree too)."""
    work = [normalise_int(e) for e in ineqs]
    for _round in range(L._FM_VAR_LIMIT):
        if any(e.const > 0 for e in work if not e.coeffs):
            return True
        work = [e for e in work if e.coeffs]
        if not work:
            return False
        occurrence: dict[Term, tuple[int, int]] = {}
        for e in work:
            for k, v in e.coeffs.items():
                p, n = occurrence.get(k, (0, 0))
                occurrence[k] = (p + (v > 0), n + (v < 0))
        pivot = min(occurrence,
                    key=lambda k: occurrence[k][0] * occurrence[k][1])
        with_pos = [e for e in work if e.coeffs.get(pivot, 0) > 0]
        with_neg = [e for e in work if e.coeffs.get(pivot, 0) < 0]
        new = [e for e in work if pivot not in e.coeffs]
        for p in with_pos:
            for n in with_neg:
                # p/c_p - n/c_n eliminates the pivot.
                combined = (p.scale(Fraction(1) / p.coeffs[pivot])
                            + n.scale(Fraction(-1) / n.coeffs[pivot]))
                new.append(normalise_int(combined))
        if len(new) > L._FM_SIZE_LIMIT:
            return False
        work = new
    return False


def _entailed_by(hyp_constraints: list[Constraint]):
    def entailed(e: LinExpr) -> bool:
        neg = Constraint(e.scale(Fraction(-1)) + LinExpr({}, Fraction(1)),
                         "le")
        system = gauss_eliminate(hyp_constraints + [neg])
        return system is None or fourier_motzkin([q.expr for q in system])
    return entailed


def oracle_implies_linear(hyps, goal: Term) -> bool:
    """Reference decision of whether the linear fragment of ``hyps``
    entails ``goal`` (same case splits as production)."""
    hyps = list(hyps)
    if isinstance(goal, App) and goal.op == "and":
        return all(oracle_implies_linear(hyps, g) for g in goal.args)
    if isinstance(goal, App) and goal.op == "implies":
        return oracle_implies_linear(hyps + [goal.args[0]], goal.args[1])
    for i, h in enumerate(hyps):
        if isinstance(h, App) and h.op == "not":
            inner = h.args[0]
            if isinstance(inner, App) and inner.op == "eq" \
                    and inner.args[0].sort is Sort.INT:
                a, b = inner.args
                rest = hyps[:i] + hyps[i + 1:]
                return (oracle_implies_linear(
                            rest + [App("lt", (a, b), Sort.BOOL)], goal)
                        and oracle_implies_linear(
                            rest + [App("lt", (b, a), Sort.BOOL)], goal))
    atoms: set[Term] = set()
    hyp_constraints: list[Constraint] = []
    for h in hyps:
        cs = L._to_constraints(h, atoms)
        if cs is not None:
            hyp_constraints.extend(cs)
    neg_sets = L._negate_to_constraint_sets(goal, atoms)
    if neg_sets is None:
        return False
    axioms: list[Constraint] = []
    for a in list(atoms):
        axioms.extend(L._atom_axioms(a, atoms))
    axioms.extend(L._div_axioms(atoms, _entailed_by(hyp_constraints)))
    for neg in neg_sets:
        remaining = gauss_eliminate(hyp_constraints + axioms + neg)
        if remaining is None:
            continue  # equalities already contradictory: this disjunct unsat
        if not fourier_motzkin([c.expr for c in remaining]):
            return False
    return True
