"""List reasoning — the second half of RefinedC's default solver (§7: the
default solver "currently only targets linear arithmetic and Coq lists").

Handles equalities between list expressions (append/cons normal forms,
rewriting by hypothesis equations) and delegates element-level residual
obligations to the linear-arithmetic backend.
"""

from __future__ import annotations

from typing import Iterable

from . import linarith
from .simplify import _list_parts, simplify
from .terms import App, Lit, Sort, Term, eq


class ListSolver:
    """Decide list goals under a hypothesis set."""

    def __init__(self, hyps: Iterable[Term]) -> None:
        self.rewrites: dict[Term, Term] = {}
        self.facts: list[Term] = []
        for h in (simplify(x) for x in hyps):
            oriented = False
            if isinstance(h, App) and h.op == "eq":
                a, b = h.args
                # Prefer eliminating uninterpreted-function applications
                # (cheap congruence closure by rewriting), then variables.
                for lhs, rhs in ((a, b), (b, a)):
                    if isinstance(lhs, App) and lhs.op.startswith("fn:") \
                            and lhs not in rhs.subterms():
                        self.rewrites[lhs] = rhs
                        oriented = True
                        break
                if not oriented:
                    for lhs, rhs in ((a, b), (b, a)):
                        if not isinstance(lhs, (App, Lit)) \
                                and lhs not in rhs.subterms():
                            self.rewrites[lhs] = rhs
                            oriented = True
                            break
            if not oriented or (isinstance(h, App) and h.op == "eq"
                                and h.args[0].sort is not Sort.LIST):
                self.facts.append(h)

    def normalise(self, t: Term) -> Term:
        for _ in range(32):
            t2 = simplify(self._rewrite(t))
            if t2 == t:
                return t
            t = t2
        return t

    def _rewrite(self, t: Term) -> Term:
        if t in self.rewrites:
            return self.rewrites[t]
        if isinstance(t, App):
            new_args = tuple(self._rewrite(a) for a in t.args)
            if new_args != t.args:
                from .terms import app
                if t.op.startswith("fn:") or t.op == "list_lit":
                    return App(t.op, new_args, t.result_sort)
                return app(t.op, *new_args, sort=t.result_sort)
        return t

    def prove(self, goal: Term, arith_hyps: Iterable[Term] = ()) -> bool:
        arith = list(arith_hyps)
        goal = self.normalise(goal)
        if isinstance(goal, Lit):
            return goal.value is True
        if isinstance(goal, App) and goal.op == "and":
            return all(self.prove(g, arith) for g in goal.args)
        if isinstance(goal, App) and goal.op == "eq" and goal.args[0].sort is Sort.LIST:
            return self._prove_list_eq(goal.args[0], goal.args[1], arith)
        return linarith.implies_linear(arith + self.facts, goal)

    def _prove_list_eq(self, a: Term, b: Term, arith: list[Term]) -> bool:
        a, b = self.normalise(a), self.normalise(b)
        if a == b:
            return True
        pa, pb = _list_parts(a), _list_parts(b)
        # Cancel common prefix and suffix parts.
        while pa and pb and pa[0] == pb[0]:
            pa.pop(0)
            pb.pop(0)
        while pa and pb and pa[-1] == pb[-1]:
            pa.pop()
            pb.pop()
        if not pa and not pb:
            return True
        # Single cons-cells left: compare element-wise.
        if len(pa) == 1 and len(pb) == 1:
            x, y = pa[0], pb[0]
            if isinstance(x, App) and isinstance(y, App) \
                    and x.op == "cons" and y.op == "cons":
                return linarith.implies_linear(arith + self.facts,
                                               eq(x.args[0], y.args[0])) \
                    and self._prove_list_eq(x.args[1], y.args[1], arith)
        fact = eq(self._build(pa), self._build(pb))
        return any(self.normalise(f) == simplify(fact) for f in self.facts)

    @staticmethod
    def _build(parts: list[Term]) -> Term:
        from .terms import app
        if not parts:
            return app("nil")
        out = parts[-1]
        for p in reversed(parts[:-1]):
            out = app("append", p, out)
        return out


def list_solver(hyps: Iterable[Term], goal: Term) -> bool:
    hyps = list(hyps)
    return ListSolver(hyps).prove(simplify(goal), hyps)
