"""The pure side-condition solver front door (step (C) of Figure 2).

Lithium emits *pure* verification conditions (plain propositions about the
refinements).  These are discharged by:

1. the **default solver** — simplification + linear arithmetic + lists
   (mirroring the paper's default solver that "currently only targets linear
   arithmetic and Coq lists"),
2. **named solvers** requested via ``rc::tactics`` annotations
   (``multiset_solver``, ``set_solver``), and
3. **assumed lemmas** registered by the user (the analogue of manual Coq
   proofs; these are recorded so the reporting layer can count the "Pure"
   column of Figure 7).

Mirroring §7's accounting, any side condition not closed by the default
solver counts as *manually* discharged, even if a named solver then closes
it fully automatically.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from ..trace import tracer as _trace
from . import linarith
from .lists import ListSolver
from .memo import register_cache, trim_cache
from .sets import multiset_solver, set_solver
from .simplify import simplify, simplify_hyp
from .terms import App, Lit, Sort, Subst, Term, Var, app, fresh_evar, subst_vars
from .unify import unify


def _app_subterms(t: Term) -> tuple[App, ...]:
    """The proper ``App`` subterms of ``t`` (``t`` itself excluded),
    pre-order, duplicates included.

    The tuple is cached on the (interned) node so repeated
    forward-chaining passes over the same hypotheses skip the generator
    walk.  It leaves ``t`` out so the slot never refers back to its own
    node: that would be a reference cycle.
    """
    if isinstance(t, App):
        subs = getattr(t, "_subs", None)
        if subs is None:
            subs = tuple(s for a in t.args for s in a.subterms()
                         if isinstance(s, App))
            object.__setattr__(t, "_subs", subs)
        return subs
    return ()


def _instantiate(idx: int, subst, evmap: dict, budget: list[int],
                 patterns, pool, heads):
    """The search of :meth:`PureSolver._instantiations` from pattern
    ``idx`` on.  A module-level generator, not a closure: a recursive
    closure refers to itself through its cell, a reference cycle that
    would keep the pool's terms alive until the cyclic collector ran."""
    if budget[0] <= 0:
        return
    if idx == len(patterns):
        inst = {}
        for p, ev in evmap.items():
            bound = subst.resolve(ev)
            if bound.has_evars():
                return
            inst[p] = bound
        budget[0] -= 1
        yield inst
        return
    pat = subst_vars(patterns[idx], evmap)
    cands = pool
    if heads is not None:
        # What unify compares first: the pattern under ``subst``.
        head = subst.resolve(pat)
        if isinstance(head, App):
            cands = heads.get((head.op, len(head.args)), ())
    for cand in cands:
        trial = subst.copy()
        if unify(pat, cand, trial):
            yield from _instantiate(idx + 1, trial, evmap, budget, patterns,
                                    pool, heads)


def _head_index(pool: Sequence[App]) -> Optional[dict]:
    """The pool's terms by ``(op, arity)``, in pool order within each
    bucket — or ``None`` when a pool term holds an evar: unification may
    bind it and so change what the term resolves to."""
    heads: dict = {}
    for t in pool:
        if t.has_evars():
            return None
        heads.setdefault((t.op, len(t.args)), []).append(t)
    return heads


def _find_ite(t: Term) -> Optional[App]:
    """Return the first ``ite`` subterm of ``t``, if any."""
    for s in t.subterms():
        if isinstance(s, App) and s.op == "ite":
            return s
    return None


def _replace(t: Term, target: Term, replacement: Term) -> Term:
    """Replace every occurrence of the subterm ``target`` in ``t``."""
    if t == target:
        return replacement
    if isinstance(t, App):
        new_args = tuple(_replace(a, target, replacement) for a in t.args)
        if new_args != t.args:
            if t.op.startswith("fn:") or t.op == "list_lit":
                return App(t.op, new_args, t.result_sort)
            return app(t.op, *new_args, sort=t.result_sort)
    return t


class Outcome(enum.Enum):
    """How a side condition was discharged."""

    DEFAULT = "default"      # default solver: counted as automatic
    NAMED = "named"          # rc::tactics solver: counted as manual (§7)
    LEMMA = "lemma"          # user-assumed lemma: counted as manual
    FAILED = "failed"


@dataclass
class ProveResult:
    outcome: Outcome
    solver: str = "default"


@dataclass(frozen=True)
class Lemma:
    """A user-provided pure fact, the analogue of a manual Coq proof.

    ``params`` are universally quantified variables; the lemma states
    ``hyps -> conclusion``.  Lemmas are applied two ways: by unifying the
    conclusion against the goal (backward), and by *forward chaining* —
    instantiating the ``triggers`` (by default, the uninterpreted-function
    and list-access subterms of the lemma) against subterms of the proof
    context, discharging the hypotheses, and adding the conclusion as an
    extra fact.
    """

    name: str
    params: tuple[Var, ...]
    hyps: tuple[Term, ...]
    conclusion: Term
    triggers: tuple[Term, ...] = ()

    def trigger_patterns(self) -> tuple[Term, ...]:
        if self.triggers:
            return self.triggers
        out = []
        for t in (self.conclusion,) + self.hyps:
            for s in t.subterms():
                if isinstance(s, App) and (s.op.startswith("fn:")
                                           or s.op in ("index", "sorted")):
                    if s not in out:
                        out.append(s)
        return tuple(out)


_NAMED_SOLVERS = {
    "multiset_solver": multiset_solver,
    "set_solver": set_solver,
}

# The default solver uses no per-function state (no lemmas, no tactics),
# so its memo lives at module level and persists across function checks.
_DEFAULT_CACHE: dict = register_cache({})
# Full prove() results are likewise module-level: a query's answer is
# determined by (tactics, lemmas, hyps, goal) — Lemma is a frozen
# dataclass of terms, so the configuration is hashable — and the
# functions of a unit share many side conditions verbatim.
_PROVE_CACHE: dict = register_cache({})


class PureSolver:
    """Solve pure side conditions; records per-proof statistics.

    ``prove`` results are memoized on the *resolved, expanded*
    ``(tactics, lemmas, frozenset(hyps), goal)`` query (evar instantiation
    changes the resolved terms and hence the key, so entries can never go
    stale); hypothesis expansion reads each fact's decomposition from its
    node (``simplify_hyp``).  ``cache_hits`` counts prove-cache hits
    observed by *this* instance; the Lithium search layer surfaces it as
    the ``solver_cache_hits`` metric (deliberately *not* a ``Stats`` counter —
    those stay byte-identical whether the caches start cold or warm).
    """

    def __init__(self, tactics: Sequence[str] = (), lemmas: Sequence[Lemma] = ()) -> None:
        self.tactics = [t for t in tactics if t]
        self.lemmas = list(lemmas)
        unknown = [t for t in self.tactics if t not in _NAMED_SOLVERS]
        if unknown:
            raise ValueError(f"unknown solver tactic(s): {unknown}")
        self._config_key = (tuple(self.tactics), tuple(self.lemmas))
        self.cache_hits = 0

    # -----------------------------------------------------------------
    def prove(self, hyps: Iterable[Term], goal: Term) -> ProveResult:
        hyps = self._expand_hyps(hyps)
        goal = simplify(goal)
        tr = _trace.CURRENT
        if tr is None:
            return self._prove_memo(hyps, goal, None)
        # Traced path: one span per prove call, closed with the outcome
        # and the solver (tactic) that discharged the goal.
        tr.begin("solver", "prove", goal=repr(goal))
        late: dict = {}
        try:
            result = self._prove_memo(hyps, goal, tr)
            late = {"outcome": result.outcome.value, "solver": result.solver}
            return result
        finally:
            tr.end(**late)

    def _prove_memo(self, hyps: list[Term], goal: Term,
                    tr) -> ProveResult:
        key = (self._config_key, frozenset(hyps), goal)
        hit = _PROVE_CACHE.get(key)
        if hit is not None:
            self.cache_hits += 1
            if tr is not None:
                tr.instant("memo", "hit", cache="prove")
            return hit
        if tr is not None:
            tr.instant("memo", "miss", cache="prove")
        result = self._prove(hyps, goal)
        trim_cache(_PROVE_CACHE)
        _PROVE_CACHE[key] = result
        return result

    def _prove(self, hyps: list[Term], goal: Term) -> ProveResult:
        if self._default(hyps, goal):
            return ProveResult(Outcome.DEFAULT)
        for name in self.tactics:
            if _NAMED_SOLVERS[name](hyps, goal):
                return ProveResult(Outcome.NAMED, name)
        if self._by_lemma(hyps, goal):
            return ProveResult(Outcome.LEMMA, "lemma")
        if self.lemmas and self._forward_lemmas(hyps, goal):
            return ProveResult(Outcome.LEMMA, "lemma")
        return ProveResult(Outcome.FAILED)

    # -----------------------------------------------------------------
    def _expand_hyps(self, hyps: Iterable[Term]) -> list[Term]:
        out: list[Term] = []
        seen: set[Term] = set()
        for h in hyps:
            for s in simplify_hyp(h):
                # Γ routinely re-introduces the same fact (loop invariants,
                # unfolded owned types); duplicates only bloat every
                # downstream linarith call.
                if s not in seen:
                    seen.add(s)
                    out.append(s)
        return out

    def _default(self, hyps: list[Term], goal: Term) -> bool:
        """The default solver: recursive goal decomposition over
        simplification + linarith + lists.  Memoized per (hyps, goal)
        subproblem — the decomposition revisits the same subgoals across
        lemma-hypothesis discharge and case splits."""
        key = (tuple(hyps), goal)
        hit = _DEFAULT_CACHE.get(key)
        if hit is None:
            hit = self._default_impl(hyps, goal)
            trim_cache(_DEFAULT_CACHE)
            _DEFAULT_CACHE[key] = hit
        return hit

    def _default_impl(self, hyps: list[Term], goal: Term) -> bool:
        goal = simplify(goal)
        # A hypothesis is literally False, or a pair of contradictory
        # hypotheses exists: anything follows.
        if any(isinstance(h, Lit) and h.value is False for h in hyps):
            return True
        hypset = set(hyps)
        if any(isinstance(h, App) and h.op == "not" and h.args[0] in hypset
               for h in hyps):
            return True
        if isinstance(goal, Lit) and goal.value is True:
            return True
        if goal in hypset:
            return True
        if isinstance(goal, App):
            if goal.op == "and":
                return all(self._default(hyps, g) for g in goal.args)
            if goal.op == "implies":
                return self._default(hyps + simplify_hyp(goal.args[0]), goal.args[1])
            if goal.op == "or":
                if any(self._default(hyps, g) for g in goal.args):
                    return True
            if goal.op == "eq" and goal.args[0].sort is Sort.BOOL:
                a, b = goal.args
                return (self._default(hyps + simplify_hyp(a), b)
                        and self._default(hyps + simplify_hyp(b), a))
            if goal.op == "eq" and goal.args[0].sort is Sort.LIST:
                return ListSolver(hyps).prove(goal, hyps)
            if goal.op == "ite":
                c, t, e = goal.args
                return (self._default(hyps + simplify_hyp(c), t)
                        and self._default(hyps + simplify_hyp(simplify(App("not", (c,), Sort.BOOL))), e))
        if linarith.implies_linear(hyps, goal):
            return True
        # Normalise with the list theory (rewriting by list equations in
        # the hypotheses) and retry — the default solver covers "linear
        # arithmetic and Coq lists" (§7).  ListSolver orients rewrites only
        # from (simplified) equality hypotheses; with none present its
        # normalise() degenerates to simplify(), so skip building it.
        simplified = [simplify(h) for h in hyps]
        if any(isinstance(h, App) and h.op == "eq" for h in simplified):
            ls = ListSolver(hyps)
            goal2 = ls.normalise(goal)
            hyps2 = [ls.normalise(h) for h in hyps]
        else:
            goal2 = goal  # already simplified above
            hyps2 = simplified
        if goal2 != goal or hyps2 != hyps:
            if self._default(hyps2, goal2):
                return True
        # Case-split on an integer disequality hypothesis (a ≠ b becomes
        # a < b ∨ b < a; linarith cannot use disequalities directly).
        for h in hyps:
            if isinstance(h, App) and h.op == "not":
                inner = h.args[0]
                if isinstance(inner, App) and inner.op == "eq" \
                        and inner.args[0].sort is Sort.INT:
                    a, b = inner.args
                    rest = [x for x in hyps if x != h]
                    return (self._default(rest + [App("lt", (a, b),
                                                      Sort.BOOL)], goal)
                            and self._default(rest + [App("lt", (b, a),
                                                          Sort.BOOL)], goal))
        # Case-split on an if-then-else occurring in the goal or hypotheses
        # (the ensures clause of Figure 1 produces `n ≤ a ? a - n : a`).
        split = self._split_ite(hyps, goal)
        if split is not None:
            return all(self._default(h, g) for h, g in split)
        # Try contradiction in the hypotheses (e.g. n <= 0 and 1 <= n).
        return linarith.implies_linear(hyps, Lit(False)) if hyps else False

    def _split_ite(self, hyps: list[Term],
                   goal: Term) -> Optional[list[tuple[list[Term], Term]]]:
        """Find an ``ite`` subterm and return the two case-split subproblems,
        or ``None`` if there is nothing to split on."""
        ite_term = _find_ite(goal)
        if ite_term is None:
            for h in hyps:
                ite_term = _find_ite(h)
                if ite_term is not None:
                    break
        if ite_term is None:
            return None
        cond, then_b, else_b = ite_term.args
        cases = []
        for guard, branch in ((cond, then_b),
                              (simplify(App("not", (cond,), Sort.BOOL)), else_b)):
            new_hyps = [simplify(_replace(h, ite_term, branch)) for h in hyps]
            new_goal = simplify(_replace(goal, ite_term, branch))
            cases.append((new_hyps + simplify_hyp(guard), new_goal))
        return cases

    # -----------------------------------------------------------------
    _FORWARD_ATTEMPTS = 64

    def _forward_lemmas(self, hyps: list[Term], goal: Term) -> bool:
        """Forward chaining: instantiate lemma triggers against subterms of
        the context/goal, discharge the lemma hypotheses, add the
        conclusions, and retry the default solver."""
        triggered = [(lemma, lemma.trigger_patterns())
                     for lemma in self.lemmas]
        triggered = [(lemma, pats) for lemma, pats in triggered if pats]
        if not triggered:
            return False
        pool: list[Term] = []
        seen: set[Term] = set()
        for t in hyps + [goal]:
            subs = _app_subterms(t)
            for s in (t, *subs) if isinstance(t, App) else subs:
                if s not in seen:
                    seen.add(s)
                    pool.append(s)
        heads = _head_index(pool)
        derived: list[Term] = []
        for lemma, patterns in triggered:
            for inst in self._instantiations(lemma, patterns, pool, heads):
                inst_hyps = [subst_vars(h, inst) for h in lemma.hyps]
                if any(h.has_evars() for h in inst_hyps):
                    continue
                if all(self._default(hyps + derived, h) or
                       any(_NAMED_SOLVERS[t](hyps + derived, h)
                           for t in self.tactics)
                       for h in inst_hyps):
                    concl = subst_vars(lemma.conclusion, inst)
                    for part in simplify_hyp(concl):
                        if part not in derived and part not in hyps:
                            derived.append(part)
        if not derived:
            return False
        if self._default(hyps + derived, goal):
            return True
        return any(_NAMED_SOLVERS[t](hyps + derived, goal)
                   for t in self.tactics)

    def _instantiations(self, lemma: Lemma, patterns, pool, heads):
        """Enumerate (boundedly many) full instantiations of the lemma
        parameters by unifying trigger patterns with pool terms.

        ``heads`` is ``_head_index(pool)``: a pattern that resolves to an
        ``App`` is tried only against the pool terms of its ``(op,
        arity)``, in pool order; any other pattern, and every pattern
        when ``heads`` is ``None``, scans the whole pool.  The rest of
        the pool could never unify, so the instantiations and their
        order are those of the full scan."""
        evmap = {p: fresh_evar(p.sort, p.name) for p in lemma.params}
        budget = [self._FORWARD_ATTEMPTS]
        yield from _instantiate(0, Subst(), evmap, budget, patterns, pool,
                                heads)

    def _by_lemma(self, hyps: list[Term], goal: Term) -> bool:
        for lemma in self.lemmas:
            subst = Subst()
            evars = {p: fresh_evar(p.sort, p.name) for p in lemma.params}
            concl = subst_vars(lemma.conclusion, evars)
            if not unify(concl, goal, subst):
                continue
            inst_hyps = [subst.resolve(subst_vars(h, evars)) for h in lemma.hyps]
            if any(h.has_evars() for h in inst_hyps):
                continue
            if all(self._default(hyps, h)
                   or any(_NAMED_SOLVERS[t](hyps, h) for t in self.tactics)
                   for h in inst_hyps):
                return True
        return False
