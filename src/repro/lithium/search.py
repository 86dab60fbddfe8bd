"""The Lithium proof-search interpreter (§5).

Implements the seven-case, goal-directed, **non-backtracking** search::

    1. G = True                — succeed
    2. G = G₁ ∧ G₂             — fork (contexts copied, evar store shared)
    3. G = ∀x. G'(x)           — introduce a fresh universal variable
    4. G = ∃x. G'(x)           — introduce a fresh *sealed* evar
    5. G = F                   — select the unique typing rule for F
    6. G = H ∗ G'              — reduce H in place:
       a. (H₁ ∗ H₂) ∗ G'       — reassociate
       b. (∃x. H) ∗ G'         — hoist to case 4
       c. ⌜φ⌝ ∗ G'             — discharge the pure side condition
       d. A ∗ G'               — consume the related context atom, emitting
                                  a subsumption judgment
    7. G = H −∗ G'             — introduce H:
       a./b. reassociate/hoist to case 3
       c. ⌜φ⌝ −∗ G'            — normalise φ and add it to Γ
       d. A −∗ G'              — add the atom to Δ

No case ever tries more than one alternative — the absence of backtracking
is *structural*.  The ``Stats`` object records enough to verify this claim
(and to regenerate the Rules/∃/⌜φ⌝ columns of Figure 7).

Evar handling follows the paper: evars created by case 4 are *sealed*;
they are only instantiated when a side condition is an equality (unseal and
unify) or via user-extensible simplification rules (e.g. ``?xs ≠ []``
becomes ``?xs := ?y :: ?ys``).
"""

from __future__ import annotations

import itertools as _itertools
import sys
import time
from dataclasses import dataclass, field, fields as _dc_fields
from typing import Callable, Optional, Sequence

from ..pure.simplify import simplify, simplify_hyp
from ..pure.solver import Outcome, PureSolver
from ..pure.terms import (App, EVar, Lit, Sort, Subst, Term, Var, cons,
                          fresh_evar, msingle, munion)
from ..pure.unify import unify
from ..trace import tracer as _trace
from ..trace.stuck import build_stuck_report
from .context import ContextError, Delta, Gamma
from .derivation import DerivationBuilder, DNode
from .goals import (Atom, BasicGoal, GBasic, GConj, GExists, GForall, Goal,
                    GSep, GTrue, GWand, HAtom, HExists, HPure, HSep)
from .rules import RuleError, RuleRegistry

_RECURSION_LIMIT = 100_000

_FRESH_VAR_COUNTER = _itertools.count(1)


class VerificationError(Exception):
    """A failed verification, with RefinedC-style diagnostics (§2.1)."""

    def __init__(self, reason: str, location: Sequence[str] = (),
                 side_condition: Optional[Term] = None,
                 context_facts: Sequence[Term] = (),
                 function: str = "") -> None:
        self.reason = reason
        self.location = list(location)
        self.side_condition = side_condition
        self.context_facts = list(context_facts)
        self.function = function
        # Stuck-goal report (repro.trace.stuck.StuckGoalReport), attached
        # at the failure site when tracing is enabled.  Rendered by
        # ``VerificationOutcome.report()``, never by ``format()`` — the
        # formatted error text must stay byte-identical with and without
        # tracing (it feeds the determinism fingerprints).
        self.stuck = None
        super().__init__(self.format())

    def __reduce__(self):
        # Default exception pickling would round-trip only ``self.args``
        # (the formatted string) and mis-reconstruct it as ``reason``.
        # Rebuild from the structured fields so errors survive the process
        # pool of the parallel verification driver byte-identically.  The
        # third element restores extra state (the stuck-goal report).
        return (VerificationError,
                (self.reason, self.location, self.side_condition,
                 self.context_facts, self.function),
                {"stuck": self.stuck})

    def format(self) -> str:
        lines = []
        where = f' in function "{self.function}"' if self.function else ""
        if self.side_condition is not None:
            lines.append(f"Cannot prove side condition "
                         f"\"{self.side_condition!r}\"{where}.")
        else:
            lines.append(f"Verification failed{where}: {self.reason}")
        if self.location:
            lines.append(f"Location: {self.location[-1]}")
        if len(self.location) > 1:
            lines.append("up to: " + "; ".join(self.location[:-1]))
        if self.side_condition is not None and self.reason:
            lines.append(self.reason)
        return "\n".join(lines)


# An evar simplification rule: given a side condition containing evars,
# either make progress (bind evars through state.bind_evar / return a
# replacement proposition) or return None.
EvarRule = Callable[[Term, "SearchState"], Optional[Term]]


#: The cache/engine telemetry fields of :class:`Stats` — the single
#: source of truth for what ``counters()`` excludes.  Telemetry values
#: vary with pure-cache warmth and the schedule, while
#: ``counters()`` must stay byte-identical across all of them (it feeds
#: the fuzz-corpus fingerprints and the driver's on-disk result cache).
#: The driver metrics, the observability ledger and the tests all import
#: this tuple instead of repeating the field names.
TELEMETRY_KEYS = ("solver_cache_hits", "terms_interned",
                  "dispatch_table_hits", "terms_compiled")

#: Wall-clock fields of :class:`Stats` — excluded from ``counters()``
#: for the same reason the trace exporters strip timestamps.
WALL_CLOCK_KEYS = ("solver_time",)


@dataclass
class Stats:
    """Search statistics — the raw material for Figure 7's columns."""

    rule_applications: int = 0
    rules_used: set = field(default_factory=set)
    evars_created: int = 0
    evars_instantiated: int = 0
    side_conditions_auto: int = 0
    side_conditions_manual: int = 0
    manual_conditions: list = field(default_factory=list)
    atom_matches: int = 0
    conj_forks: int = 0
    backtracks: int = 0   # must stay 0 — asserted by the benchmarks
    solver_calls: int = 0
    solver_time: float = 0.0   # wall seconds spent inside PureSolver.prove
    # Cache/engine telemetry (see TELEMETRY_KEYS above).  Deliberately
    # NOT part of counters().
    solver_cache_hits: int = 0
    terms_interned: int = 0
    dispatch_table_hits: int = 0
    terms_compiled: int = 0

    def counters(self) -> dict:
        """The deterministic portion of the statistics: every counter, but
        no wall-clock measurement (:data:`WALL_CLOCK_KEYS`) and no engine
        telemetry (:data:`TELEMETRY_KEYS`).  Two verifications of the same
        function must produce equal ``counters()`` regardless of machine
        load, process, scheduling, or pure-cache warmth — the
        determinism tests assert exactly this.  Keys follow
        :data:`COUNTER_KEYS`."""
        out = {name: getattr(self, name) for name in COUNTER_KEYS}
        out["rules_used"] = sorted(self.rules_used)
        out["manual_conditions"] = [list(m) for m in self.manual_conditions]
        return out


#: The keys of :meth:`Stats.counters`, in field order: every field but
#: :data:`WALL_CLOCK_KEYS` and :data:`TELEMETRY_KEYS`.  The fuzz and
#: golden fingerprints depend on this order, and the driver's result
#: cache persists the plain integer ones.
COUNTER_KEYS = tuple(f.name for f in _dc_fields(Stats)
                     if f.name not in TELEMETRY_KEYS + WALL_CLOCK_KEYS)


class SearchState:
    """All mutable state of one Lithium proof search."""

    def __init__(self, registry: RuleRegistry, solver: PureSolver,
                 make_subsume: Callable[[Atom, Atom, Goal], BasicGoal],
                 function: str = "", stats: Optional[Stats] = None,
                 subst: Optional[Subst] = None) -> None:
        self.registry = registry
        self.solver = solver
        self.make_subsume = make_subsume
        self.function = function
        self.gamma = Gamma()
        self.delta = Delta()
        self.subst = subst if subst is not None else Subst()
        self.sealed: set[int] = set()
        self.stats = stats if stats is not None else Stats()
        self.derivation = DerivationBuilder()
        self.location: list[str] = []
        self.evar_rules: list[EvarRule] = list(_DEFAULT_EVAR_RULES)
        # Side conditions whose evars were not determined yet; re-checked
        # once the search completes (sound: nothing is assumed meanwhile).
        self.deferred: list[tuple] = []

    # ------------------------------------------------------------
    # Naming and context helpers.
    # ------------------------------------------------------------
    def fresh_var(self, sort: Sort, hint: str = "x") -> Var:
        # The counter is global so that skolem names stay unique across the
        # several sub-proofs of one function (entry + loop-invariant blocks).
        v = Var(f"{hint}${next(_FRESH_VAR_COUNTER)}", sort)
        self.gamma.add_var(v)
        return v

    def fresh_sealed_evar(self, sort: Sort, hint: str = "") -> EVar:
        ev = fresh_evar(sort, hint)
        self.sealed.add(ev.eid)
        self.stats.evars_created += 1
        tr = _trace.CURRENT
        if tr is not None:
            tr.instant("evar", "seal", evar=repr(ev))
        return ev

    def push_location(self, desc: str) -> None:
        self.location.append(desc)

    def pop_location(self) -> None:
        self.location.pop()

    def fail(self, reason: str, side_condition: Optional[Term] = None) -> None:
        raise self._error(reason, list(self.location), side_condition,
                          self.gamma.resolved_facts(self.subst))

    def _error(self, reason: str, location: list,
               side_condition: Optional[Term],
               facts: Sequence[Term]) -> VerificationError:
        """Build a VerificationError; with tracing on, attach the
        stuck-goal report (§2.1): the failing goal, the Γ/Δ snapshot and
        the last trace events leading here."""
        err = VerificationError(reason, location, side_condition,
                                facts, self.function)
        tr = _trace.CURRENT
        if tr is not None:
            tr.instant("search", "fail", reason=reason,
                       side_condition=(repr(side_condition)
                                       if side_condition is not None
                                       else None))
            err.stuck = build_stuck_report(
                tr, function=self.function, reason=reason,
                location=location,
                side_condition=(repr(side_condition)
                                if side_condition is not None else None),
                gamma=[repr(f) for f in facts],
                delta=[repr(a.resolve(self.subst)) for a in self.delta])
        return err

    def _prove_timed(self, facts, phi):
        """Call the pure solver, attributing its wall time to the solver
        phase of the driver metrics (the search/solver split of §7)."""
        t0 = time.perf_counter()
        hits0 = getattr(self.solver, "cache_hits", 0)
        try:
            return self.solver.prove(facts, phi)
        finally:
            self.stats.solver_time += time.perf_counter() - t0
            self.stats.solver_calls += 1
            self.stats.solver_cache_hits += \
                getattr(self.solver, "cache_hits", 0) - hits0

    # ------------------------------------------------------------
    # The interpreter.
    # ------------------------------------------------------------
    def run(self, goal: Goal) -> DNode:
        """Execute proof search for ``goal``; returns the derivation root.

        Raises :class:`VerificationError` on failure.  Never backtracks.
        """
        old_limit = sys.getrecursionlimit()
        sys.setrecursionlimit(max(old_limit, _RECURSION_LIMIT))
        try:
            self._run(goal)
            self._check_deferred()
        finally:
            sys.setrecursionlimit(old_limit)
        return self.derivation.root

    def _check_deferred(self) -> None:
        """Re-check the side conditions deferred while their evars were
        undetermined.  By now everything must be resolved and provable."""
        pending = self.deferred
        self.deferred = []
        for phi, origin, location, gamma in pending:
            phi = simplify(self.subst.resolve(phi))
            if isinstance(phi, Lit) and phi.value is True:
                self.stats.side_conditions_auto += 1
                continue
            facts = gamma.resolved_facts(self.subst)
            if phi.has_evars():
                raise self._error(
                    f"side condition contains evars that were never "
                    f"instantiated" + (f" (from {origin})" if origin else ""),
                    location, phi, facts)
            result = self._prove_timed(facts, phi)
            if result.outcome is Outcome.FAILED:
                raise self._error(
                    "the default solver and the registered tactics cannot "
                    f"discharge it" + (f" (from {origin})" if origin else ""),
                    location, phi, facts)
            self.derivation.leaf("side_condition", phi,
                                 solver=result.solver, origin=origin,
                                 hypotheses=tuple(facts),
                                 outcome=result.outcome.value)
            if result.outcome is Outcome.DEFAULT:
                self.stats.side_conditions_auto += 1
            else:
                self.stats.side_conditions_manual += 1
                self.stats.manual_conditions.append(
                    (repr(phi), result.solver, origin))

    def _run(self, goal: Goal) -> None:
        tr = _trace.CURRENT
        if tr is not None:
            # The per-SearchState step event: one instant per interpreter
            # dispatch, carrying the goal kind (the case of §5 taken).
            tr.instant("search", "step", goal=type(goal).__name__)
        # Case 1: True.
        if isinstance(goal, GTrue):
            self.derivation.leaf("true")
            return
        # Case 2: conjunction — fork with copied contexts (evars shared,
        # exactly like Coq evars across conjuncts).
        if isinstance(goal, GConj):
            self.stats.conj_forks += 1
            saved_gamma, saved_delta = self.gamma, self.delta
            for i, sub in enumerate(goal.goals):
                label = goal.labels[i] if i < len(goal.labels) else f"case {i+1}"
                self.gamma = saved_gamma.copy()
                self.delta = saved_delta.copy()
                self.derivation.push("conj_branch", label)
                self.push_location(label)
                if tr is not None:
                    tr.begin("search", "conj_branch", label=label)
                try:
                    self._run(sub)
                finally:
                    if tr is not None:
                        tr.end()
                    self.pop_location()
                    self.derivation.pop()
            self.gamma, self.delta = saved_gamma, saved_delta
            return
        # Case 3: universal quantification.
        if isinstance(goal, GForall):
            v = self.fresh_var(goal.sort, goal.hint or "x")
            self.derivation.leaf("forall_intro", v)
            self._run(goal.body(v))
            return
        # Case 4: existential quantification — fresh sealed evar.
        if isinstance(goal, GExists):
            ev = self.fresh_sealed_evar(goal.sort, goal.hint)
            self.derivation.leaf("exists_intro", ev)
            self._run(goal.body(ev))
            return
        # Case 5: basic goal — unique rule selection.
        if isinstance(goal, GBasic):
            f = goal.f.resolve(self.subst)
            try:
                rule = self.registry.lookup(f)
            except RuleError as exc:
                self.fail(str(exc))
                raise AssertionError  # unreachable
            self.stats.rule_applications += 1
            self.stats.rules_used.add(rule.name)
            loc_label = f.location_label()
            if loc_label is not None:
                self.push_location(loc_label)
            self.derivation.push("rule", rule.name)
            if tr is not None:
                # Rule spans live in the "rule" category and are *named*
                # after the typing rule, so the Chrome view and the
                # per-rule profile read directly in paper vocabulary.
                # ``key`` is the goal's full dispatch key — the (judgment,
                # type-constructor) pair coverage signatures are built on.
                tr.begin("rule", rule.name, judgment=f.describe(),
                         goal=type(f).__name__,
                         key=":".join(str(c) for c in f.dispatch_key()))
            try:
                premise = rule.apply(f, self)
                self._run(premise)
            finally:
                if tr is not None:
                    tr.end()
                self.derivation.pop()
                if loc_label is not None:
                    self.pop_location()
            return
        # Case 6: H ∗ G.
        if isinstance(goal, GSep):
            h, g = goal.h, goal.g
            if isinstance(h, HSep):                              # 6a
                self._run(GSep(h.h1, GSep(h.h2, g)))
                return
            if isinstance(h, HExists):                           # 6b
                self._run(GExists(h.sort, h.hint,
                                  lambda x: GSep(h.body(x), g)))
                return
            if isinstance(h, HPure):                             # 6c
                self._solve_side_condition(h.phi, h.origin)
                self._run(g)
                return
            if isinstance(h, HAtom):                             # 6d
                self._consume_atom(h.a, g)
                return
            raise TypeError(f"unknown left-goal {h!r}")
        # Case 7: H −∗ G.
        if isinstance(goal, GWand):
            h, g = goal.h, goal.g
            if isinstance(h, HSep):                              # 7a
                self._run(GWand(h.h1, GWand(h.h2, g)))
                return
            if isinstance(h, HExists):                           # 7b
                self._run(GForall(h.sort, h.hint,
                                  lambda x: GWand(h.body(x), g)))
                return
            if isinstance(h, HPure):                             # 7c
                facts = simplify_hyp(self.subst.resolve(h.phi))
                for fact in facts:
                    if isinstance(fact, Lit) and fact.value is False:
                        # Vacuously true branch (e.g. the dead arm of
                        # IF-BOOL after an optional case split).
                        self.derivation.leaf("vacuous", "False hypothesis")
                        return
                    self.gamma.add_fact(fact)
                    self.derivation.leaf("assume", fact)
                self._run(g)
                return
            if isinstance(h, HAtom):                             # 7d
                atom = h.a.resolve(self.subst)
                try:
                    self.delta.add(atom, self.subst)
                except ContextError as exc:
                    self.fail(str(exc))
                self.derivation.leaf("intro_atom", repr(atom))
                self._run(g)
                return
            raise TypeError(f"unknown left-goal {h!r}")
        raise TypeError(f"unknown goal {goal!r}")

    # ------------------------------------------------------------
    # Case 6d: atom consumption via subsumption.
    # ------------------------------------------------------------
    def _consume_atom(self, want: Atom, cont: Goal) -> None:
        want = want.resolve(self.subst)
        subject = self.subst.resolve(want.subject)
        have = self.delta.find_related(subject, self.subst)
        if have is None:
            self.fail(
                f"no ownership available for {subject!r} "
                f"(required: {want!r}); the context owns: "
                f"{[repr(a) for a in self.delta]}")
            raise AssertionError  # unreachable
        if not have.persistent:
            self.delta.remove(have)
        self.stats.atom_matches += 1
        self.derivation.push("atom_match", repr(subject))
        tr = _trace.CURRENT
        if tr is not None:
            tr.begin("search", "atom_match", subject=repr(subject),
                     have=repr(have), want=repr(want))
        try:
            self._run(GBasic(self.make_subsume(have, want, cont)))
        finally:
            if tr is not None:
                tr.end()
            self.derivation.pop()

    # ------------------------------------------------------------
    # Case 6c: pure side conditions and evar instantiation.
    # ------------------------------------------------------------
    def _solve_side_condition(self, phi: Term, origin: str = "") -> None:
        phi = simplify(self.subst.resolve(phi))
        guard = 0
        while phi.has_evars() and guard < 8:
            guard += 1
            progressed = self._try_instantiate_evars(phi)
            new_phi = simplify(self.subst.resolve(phi))
            if not progressed and new_phi == phi:
                # The heuristics cannot determine the evars now; defer the
                # condition — a later condition (processed left-to-right,
                # §5) may instantiate them, and the deferred queue is
                # re-checked at the end of the search.
                self.deferred.append(
                    (phi, origin, list(self.location),
                     self.gamma))
                self.derivation.leaf("side_condition_deferred", phi,
                                     origin=origin)
                tr = _trace.CURRENT
                if tr is not None:
                    tr.instant("search", "side_condition_deferred",
                               phi=repr(phi), origin=origin)
                return
            phi = new_phi
        if isinstance(phi, Lit) and phi.value is True:
            self.derivation.leaf("side_condition", phi,
                                 solver="trivial", origin=origin,
                                 hypotheses=())
            self.stats.side_conditions_auto += 1
            return
        facts = self.gamma.resolved_facts(self.subst)
        result = self._prove_timed(facts, phi)
        if result.outcome is Outcome.FAILED:
            self.fail(
                f"the default solver and the registered tactics cannot "
                f"discharge it" + (f" (from {origin})" if origin else ""),
                side_condition=phi)
        self.derivation.leaf("side_condition", phi,
                             solver=result.solver, origin=origin,
                             hypotheses=tuple(facts),
                             outcome=result.outcome.value)
        if result.outcome is Outcome.DEFAULT:
            self.stats.side_conditions_auto += 1
        else:
            self.stats.side_conditions_manual += 1
            self.stats.manual_conditions.append(
                (repr(phi), result.solver, origin))

    def _try_instantiate_evars(self, phi: Term) -> bool:
        """The two heuristics of §5: (1) unseal-and-unify equalities;
        (2) user-extensible simplification rules."""
        before = len(self.subst.snapshot())
        tr = _trace.CURRENT
        if isinstance(phi, App) and phi.op == "eq":
            if unify(phi.args[0], phi.args[1], self.subst):
                gained = len(self.subst.snapshot()) - before
                self.stats.evars_instantiated += gained
                self.derivation.leaf("evar_unify", repr(phi), count=gained)
                if tr is not None:
                    tr.instant("evar", "instantiate", via="unify",
                               phi=repr(phi), count=gained)
                return True
        if isinstance(phi, App) and phi.op == "and":
            # Solve evar-free conjuncts later; try unification on the
            # equality conjuncts first (left-to-right, as Lithium does).
            progressed = False
            for part in phi.args:
                part = self.subst.resolve(part)
                if part.has_evars() and isinstance(part, App) and part.op == "eq":
                    if unify(part.args[0], part.args[1], self.subst):
                        progressed = True
            if progressed:
                gained = len(self.subst.snapshot()) - before
                self.stats.evars_instantiated += gained
                if tr is not None:
                    tr.instant("evar", "instantiate", via="unify-conj",
                               phi=repr(phi), count=gained)
                return True
        if isinstance(phi, App) and phi.op == "eq" \
                and phi.args[0].sort is Sort.INT:
            if self._solve_linear_evar(phi):
                gained = len(self.subst.snapshot()) - before
                self.stats.evars_instantiated += gained
                self.derivation.leaf("evar_linear_solve", repr(phi))
                if tr is not None:
                    tr.instant("evar", "instantiate", via="linear-solve",
                               phi=repr(phi), count=gained)
                return True
        for rule in self.evar_rules:
            replacement = rule(phi, self)
            if replacement is not None:
                gained = len(self.subst.snapshot()) - before
                self.stats.evars_instantiated += gained
                self.derivation.leaf("evar_simplify", repr(phi))
                if tr is not None:
                    tr.instant("evar", "instantiate", via="simplify-rule",
                               phi=repr(phi), count=gained)
                return True
        return False

    def _solve_linear_evar(self, phi: Term) -> bool:
        """Solve a linear integer equality for a single evar (sound: the
        binding is the unique solution), e.g. ``?n - 1 = m`` gives
        ``?n := m + 1``."""
        from ..pure.linarith import linearise
        from ..pure.terms import add, intlit, mul, neg
        atoms: set[Term] = set()
        try:
            diff = linearise(phi.args[0], atoms) - linearise(phi.args[1],
                                                             atoms)
        except Exception:
            return False
        evar_keys = [k for k in diff.coeffs if isinstance(k, EVar)]
        if len(evar_keys) != 1:
            return False
        ev = evar_keys[0]
        coeff = diff.coeffs[ev]
        if abs(coeff) != 1:
            return False
        # The evar must not occur inside any other (opaque) atom.
        for k in diff.coeffs:
            if k is not ev and any(s == ev for s in k.subterms()):
                return False
        # ev = -(rest + const) / coeff, and 1 / coeff = coeff for ±1.
        # Exact arithmetic throughout: C constants exceed float precision.
        parts = []
        for k, v in diff.coeffs.items():
            if k is ev:
                continue
            c = -v * coeff
            if c != int(c):
                return False
            c = int(c)
            parts.append(mul(intlit(c), k) if c != 1 else k)
        const = -diff.const * coeff
        if const != int(const):
            return False
        if int(const) != 0 or not parts:
            parts.append(intlit(int(const)))
        solution = add(*parts) if len(parts) > 1 else parts[0]
        if solution.sort is not Sort.INT or ev in solution.evars():
            return False
        try:
            self.subst.bind_evar(ev, solution)
        except Exception:
            return False
        return True


# ---------------------------------------------------------------------
# Default evar simplification rules (§5's examples).
# ---------------------------------------------------------------------

def _evar_rule_nonempty_list(phi: Term, state: SearchState) -> Optional[Term]:
    """``?xs ≠ []``  ~~>  ``?xs := ?y :: ?ys`` (the paper's example)."""
    if not (isinstance(phi, App) and phi.op == "not"):
        return None
    inner = phi.args[0]
    if not (isinstance(inner, App) and inner.op == "eq"):
        return None
    a, b = inner.args
    for x, y in ((a, b), (b, a)):
        if isinstance(x, EVar) and x.sort is Sort.LIST \
                and isinstance(y, App) and y.op == "nil":
            h = fresh_evar(Sort.INT, "y")
            t = fresh_evar(Sort.LIST, "ys")
            state.sealed.update({h.eid, t.eid})
            state.subst.bind_evar(x, cons(h, t))
            return phi
    return None


def _evar_rule_nonempty_mset(phi: Term, state: SearchState) -> Optional[Term]:
    """``?s ≠ ∅``  ~~>  ``?s := {[?k]} ⊎ ?rest`` (multiset analogue)."""
    if not (isinstance(phi, App) and phi.op == "not"):
        return None
    inner = phi.args[0]
    if not (isinstance(inner, App) and inner.op == "eq"):
        return None
    a, b = inner.args
    for x, y in ((a, b), (b, a)):
        if isinstance(x, EVar) and x.sort is Sort.MSET \
                and isinstance(y, App) and y.op == "mempty":
            k = fresh_evar(Sort.INT, "k")
            rest = fresh_evar(Sort.MSET, "rest")
            state.sealed.update({k.eid, rest.eid})
            state.subst.bind_evar(x, munion(msingle(k), rest))
            return phi
    return None


def _evar_rule_bool_decision(phi: Term, state: SearchState) -> Optional[Term]:
    """A side condition that is a bare boolean evar (or its negation) —
    e.g. an existentially quantified optional condition — is decided by
    the branch that generated it: commit to True (resp. False)."""
    if isinstance(phi, EVar) and phi.sort is Sort.BOOL:
        state.subst.bind_evar(phi, Lit(True))
        return phi
    if isinstance(phi, App) and phi.op == "not" \
            and isinstance(phi.args[0], EVar) \
            and phi.args[0].sort is Sort.BOOL:
        state.subst.bind_evar(phi.args[0], Lit(False))
        return phi
    return None


_DEFAULT_EVAR_RULES: list[EvarRule] = [
    _evar_rule_nonempty_list,
    _evar_rule_nonempty_mset,
    _evar_rule_bool_decision,
]
