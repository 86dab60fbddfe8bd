"""Multiset / set solver — the analogue of std++'s ``multiset_solver`` and
``set_solver`` (paper §2.2 line 19, §7).

RefinedC counts a side condition as "manually" discharged whenever the user
must name a solver via ``rc::tactics`` (even if that solver then succeeds
automatically).  We reproduce that accounting: this solver is only consulted
when the annotation asks for it, and :mod:`repro.pure.solver` records which
engine closed each side condition.

The algorithm: saturate the hypotheses (rewriting multiset variables by their
defining equations, decomposing ``mall_ge``/membership facts over unions),
normalise both sides of the goal into union-of-parts form, cancel, and
discharge residual element-level obligations with the linear-arithmetic
backend.
"""

from __future__ import annotations

from typing import Iterable, Optional

from . import linarith
from .simplify import _mset_parts, simplify
from .terms import App, Lit, Sort, Term, eq, le

_SATURATION_ROUNDS = 4


class MultisetSolver:
    """Decide multiset goals under a hypothesis set."""

    def __init__(self, hyps: Iterable[Term]) -> None:
        hyps = list(hyps)
        self.rewrites: dict[Term, Term] = {}
        self.facts: list[Term] = []
        # Per-instance normal-form cache.  Only valid once
        # ``rewrites`` is final, i.e. after ``_ingest`` returns.
        self._norm_cache: dict[Term, Term] = {}
        self._frozen = False
        self._ingest(hyps)
        self._frozen = True

    def _ingest(self, hyps: Iterable[Term]) -> None:
        pending = [simplify(h) for h in hyps]
        for _ in range(_SATURATION_ROUNDS):
            next_pending: list[Term] = []
            for h in pending:
                h = self.normalise(h)
                if isinstance(h, App) and h.op == "eq":
                    a, b = h.args
                    # Orient var := expr (or uninterpreted-fn := expr, the
                    # "functional layer" pattern of §7 #3) when the lhs
                    # does not occur in the rhs.
                    oriented = False
                    for lhs, rhs in ((a, b), (b, a)):
                        rewritable = ((not isinstance(lhs, (App, Lit)))
                                      or (isinstance(lhs, App)
                                          and lhs.op.startswith("fn:")))
                        if rewritable and lhs not in rhs.subterms():
                            self.rewrites[lhs] = rhs
                            oriented = True
                            break
                    if not oriented or a.sort is not Sort.MSET:
                        self.facts.append(h)
                    continue
                if isinstance(h, App) and h.op in ("mall_ge", "mall_le"):
                    parts = _mset_parts(self.normalise_mset(h.args[0]))
                    if parts is not None and (len(parts) != 1 or parts[0] is not h.args[0]):
                        for p in parts:
                            next_pending.append(
                                App(h.op, (p, h.args[1]), Sort.BOOL))
                        continue
                    self.facts.append(h)
                    continue
                if isinstance(h, App) and h.op == "and":
                    next_pending.extend(h.args)
                    continue
                self.facts.append(h)
            if not next_pending:
                break
            pending = next_pending

    def normalise(self, t: Term) -> Term:
        """Apply the oriented hypothesis rewrites, then simplify."""
        if self._frozen:
            hit = self._norm_cache.get(t)
            if hit is not None:
                return hit
        t0 = t
        changed = True
        guard = 0
        while changed and guard < 32:
            guard += 1
            t2 = self._rewrite(t)
            t2 = simplify(t2)
            changed = t2 != t
            t = t2
        if self._frozen:
            self._norm_cache[t0] = t
        return t

    def normalise_mset(self, t: Term) -> Term:
        return self.normalise(t)

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

    # ---------------------------------------------------------------
    def _arith_hyps(self) -> list[Term]:
        """Element-level arithmetic facts derivable from the saturated set:
        membership in a bounded part yields the element-level bound
        (k ∈ p ∧ mall_ge(p, b) ⇒ b ≤ k)."""
        out: list[Term] = []
        members: list[tuple[Term, Term]] = []
        bounds: list[tuple[str, Term, Term]] = []
        for f in self.facts:
            if f.sort is Sort.BOOL:
                out.append(f)
            if isinstance(f, App) and f.op == "mmember":
                members.append((f.args[0], self.normalise(f.args[1])))
            if isinstance(f, App) and f.op in ("mall_ge", "mall_le"):
                bounds.append((f.op, self.normalise(f.args[0]), f.args[1]))
        for k, part in members:
            for op, bpart, b in bounds:
                if bpart == part:
                    out.append(le(b, k) if op == "mall_ge" else le(k, b))
        return out

    def prove(self, goal: Term, arith_hyps: Iterable[Term] = ()) -> bool:
        """Try to prove a (multi)set goal."""
        arith_hyps = tuple(arith_hyps)
        arith = list(arith_hyps) + self._arith_hyps()
        goal = self.normalise(goal)
        if isinstance(goal, Lit):
            return goal.value is True
        if linarith.implies_linear(arith, Lit(False)):
            return True  # contradictory hypotheses (e.g. after a case split)
        if isinstance(goal, App) and goal.op == "and":
            return all(self.prove(g, arith_hyps) for g in goal.args)
        if isinstance(goal, App) and goal.op == "or":
            if any(self.prove(g, arith_hyps) for g in goal.args):
                return True
            return self._prove_by_member_split(goal, arith)
        if isinstance(goal, App) and goal.op == "implies":
            return MultisetSolver(list(self.facts) + [goal.args[0]]).prove(
                goal.args[1], arith + [goal.args[0]])
        if isinstance(goal, App) and goal.op == "eq" \
                and goal.args[0].sort is Sort.BOOL:
            from .terms import implies
            a, b = goal.args
            return self.prove(implies(a, b), arith_hyps) \
                and self.prove(implies(b, a), arith_hyps)
        if isinstance(goal, App) and goal.op == "eq" and goal.args[0].sort is Sort.MSET:
            return self._prove_mset_eq(goal.args[0], goal.args[1], arith) \
                or self._prove_by_member_split(goal, arith)
        if isinstance(goal, App) and goal.op == "not":
            inner = goal.args[0]
            if isinstance(inner, App) and inner.op == "eq" \
                    and inner.args[0].sort is Sort.MSET:
                return self._prove_mset_ne(inner.args[0], inner.args[1],
                                           arith) \
                    or self._prove_by_member_split(goal, arith)
        if isinstance(goal, App) and goal.op in ("mall_ge", "mall_le"):
            return self._prove_all_bound(goal.op, goal.args[0], goal.args[1],
                                         arith) \
                or self._prove_by_member_split(goal, arith)
        if isinstance(goal, App) and goal.op == "mmember":
            return self._prove_member(goal.args[0], goal.args[1], arith) \
                or self._prove_by_member_split(goal, arith)
        # Residual arithmetic goal; if it fails, try a case split on a
        # membership hypothesis (k ∈ {[a]} ⊎ rest  ⇒  k = a ∨ k ∈ rest).
        if linarith.implies_linear(arith, goal):
            return True
        return self._prove_by_member_split(goal, arith)

    def _prove_mset_eq(self, a: Term, b: Term, arith: list[Term]) -> bool:
        pa = _mset_parts(self.normalise(a)) or []
        pb = _mset_parts(self.normalise(b)) or []
        rb = list(pb)
        residual_a: list[Term] = []
        for x in pa:
            if x in rb:
                rb.remove(x)
            else:
                residual_a.append(x)
        # Try matching residual singletons by provable equality of elements.
        for x in list(residual_a):
            if not (isinstance(x, App) and x.op == "msingle"):
                continue
            for y in list(rb):
                if isinstance(y, App) and y.op == "msingle" and \
                        linarith.implies_linear(arith, eq(x.args[0], y.args[0])):
                    residual_a.remove(x)
                    rb.remove(y)
                    break
        if not residual_a and not rb:
            return True
        # Residual opaque parts equal as known facts?
        fact = eq(self._build(residual_a), self._build(rb))
        return any(self.normalise(f) == simplify(fact) for f in self.facts)

    @staticmethod
    def _build(parts: list[Term]) -> Term:
        from .terms import app
        if not parts:
            return app("mempty")
        if len(parts) == 1:
            return parts[0]
        return app("munion", *parts)

    def _prove_mset_ne(self, a: Term, b: Term, arith: list[Term]) -> bool:
        pa = _mset_parts(self.normalise(a)) or [self.normalise(a)]
        pb = _mset_parts(self.normalise(b)) or [self.normalise(b)]
        # s ≠ ∅ holds when s contains a singleton part.
        if not pb:
            return any(isinstance(p, App) and p.op == "msingle" for p in pa)
        if not pa:
            return any(isinstance(p, App) and p.op == "msingle" for p in pb)
        return False

    def _prove_all_bound(self, op: str, s: Term, n: Term,
                         arith: list[Term]) -> bool:
        """Prove ``mall_ge(s, n)`` (every element ≥ n) or ``mall_le(s, n)``
        (every element ≤ n)."""
        parts = _mset_parts(self.normalise(s))
        if parts is None:
            parts = [self.normalise(s)]
        for p in parts:
            if isinstance(p, App) and p.op == "msingle":
                elem_goal = le(n, p.args[0]) if op == "mall_ge" \
                    else le(p.args[0], n)
                if not linarith.implies_linear(arith, elem_goal):
                    return False
                continue
            if isinstance(p, App) and p.op == "mempty":
                continue
            if not self._all_bound_from_facts(op, p, n, arith):
                return False
        return True

    def _all_bound_from_facts(self, op: str, part: Term, n: Term,
                              arith: list[Term]) -> bool:
        for f in self.facts:
            if isinstance(f, App) and f.op == op \
                    and self.normalise(f.args[0]) == part:
                side = le(n, f.args[1]) if op == "mall_ge" \
                    else le(f.args[1], n)
                if linarith.implies_linear(arith, side):
                    return True
        return False

    _SPLIT_DEPTH = 3

    def _prove_by_member_split(self, goal: Term, arith: list[Term],
                               depth: int = 0) -> bool:
        """Case-split over a membership hypothesis: from ``k ∈ s`` with
        ``s = {[a]} ⊎ rest``, prove the goal under ``k = a`` and under
        ``k ∈ rest``.  This is what std++'s set_solver does for the
        BST/member-style conditions (§7 #3)."""
        if depth >= self._SPLIT_DEPTH:
            return False
        for f in list(self.facts):
            cases: Optional[list[Term]] = None
            if isinstance(f, App) and f.op == "or":
                cases = list(f.args)
            elif isinstance(f, App) and f.op == "mmember":
                parts = _mset_parts(self.normalise(f.args[1]))
                if parts is not None and not (len(parts) == 1
                                              and parts[0] == f.args[1]):
                    k = f.args[0]
                    cases = [eq(k, p.args[0])
                             if isinstance(p, App) and p.op == "msingle"
                             else App("mmember", (k, p), Sort.BOOL)
                             for p in parts]
            if cases is None:
                continue
            ok = True
            for case_hyp in cases:
                sub_hyps = [h for h in self.facts if h != f] + [case_hyp]
                sub = MultisetSolver(sub_hyps)
                sub_arith = [h for h in arith if h != f] + [case_hyp]
                if sub.prove(goal, sub_arith):
                    continue
                if sub._prove_by_member_split(goal, sub_arith, depth + 1):
                    continue
                ok = False
                break
            if ok:
                return True
        return False

    def _prove_member(self, k: Term, s: Term, arith: list[Term]) -> bool:
        parts = _mset_parts(self.normalise(s)) or [self.normalise(s)]
        for p in parts:
            if isinstance(p, App) and p.op == "msingle" and \
                    linarith.implies_linear(arith, eq(k, p.args[0])):
                return True
            for f in self.facts:
                if isinstance(f, App) and f.op == "mmember" and \
                        self.normalise(f.args[1]) == p and \
                        linarith.implies_linear(arith, eq(k, f.args[0])):
                    return True
        return False


def multiset_solver(hyps: Iterable[Term], goal: Term) -> bool:
    """Entry point matching std++'s ``multiset_solver`` tactic."""
    hyps = list(hyps)
    return MultisetSolver(hyps).prove(simplify(goal), hyps)


def set_solver(hyps: Iterable[Term], goal: Term) -> bool:
    """Entry point matching std++'s ``set_solver`` tactic.

    Sets are modelled as multisets here (the case studies use them for
    membership and union reasoning, where the semantics agree as long as
    idempotence is not needed; duplicates never arise in the generated
    conditions because keys are fresh on insertion).
    """
    return multiset_solver(hyps, goal)
