"""The RefinedC checker: drives Lithium over Caesium functions (step (B)
of Figure 2).

For every annotated function we set up the initial Lithium judgment — the
argument slots typed at the spec's argument types, the ``rc::requires``
resources, the local slots as uninitialised blocks — and run the goal
``⊢stmt`` on the entry block.  Loop-head blocks carrying invariant
annotations are verified once each, under the invariant (plus the *frame*
of untouched variables recorded at the loop's first entry).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional

from ..caesium.layout import Layout
from ..caesium.syntax import Function, LoopAnnotation, Program
from ..lithium.goals import (Atom, BasicGoal, GBasic, GExists, Goal, GSep,
                             GTrue, GWand, HAtom, HPure)
from ..lithium.search import SearchState, Stats, VerificationError
from ..pure.solver import PureSolver
from ..pure.terms import Sort, Subst, Term, Var, eq, intlit, var
from .judgments import (CASJ, HookJ, LocType, StmtsJ, SubsumeLocJ, SubsumeValJ,
                        TokenAtom, ValType)
from .ownership import intro_loc_goal, locate
from .rules import REGISTRY
from .spec import FunctionSpec, SpecContext, parse_type
from .types import RType, TypeTable, UninitT


@dataclass
class GlobalSpec:
    """An annotated global variable.  Only *shared* (invariant-governed)
    globals are supported: their ownership is duplicable, so every function
    may assume it (the pattern used by the thread-safe allocator, §7 #2)."""

    name: str
    layout: Layout
    type_text: Optional[str] = None


@dataclass
class TypedProgram:
    """A Caesium program together with its RefinedC specifications."""

    program: Program
    ctx: SpecContext
    specs: dict[str, FunctionSpec] = field(default_factory=dict)
    globals: dict[str, GlobalSpec] = field(default_factory=dict)
    source_lines: dict[str, int] = field(default_factory=dict)  # impl LoC
    # Raw annotation text, kept for the driver's content-addressed result
    # cache: per-function spec text plus the shared unit context (struct
    # annotations, globals) every verification depends on.
    spec_texts: dict[str, str] = field(default_factory=dict)
    context_text: str = ""
    # The same context, itemised per struct / global for the incremental
    # driver's dependency graph (repro.driver.depgraph): each entry is one
    # fingerprintable input node instead of one monolithic blob.
    struct_texts: dict[str, str] = field(default_factory=dict)
    global_texts: dict[str, str] = field(default_factory=dict)


@dataclass
class FunctionResult:
    """The outcome of verifying one function."""

    name: str
    ok: bool
    stats: Stats
    error: Optional[VerificationError] = None
    derivations: list = field(default_factory=list)

    def format_error(self) -> str:
        return self.error.format() if self.error else ""


@dataclass
class ProgramResult:
    functions: dict[str, FunctionResult] = field(default_factory=dict)
    # Merged proof-search trace (repro.trace.tracer.UnitTrace), attached
    # by the driver when tracing is enabled; None otherwise.
    trace: Optional[object] = None

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.functions.values())

    def failures(self) -> list[FunctionResult]:
        return [r for r in self.functions.values() if not r.ok]


class FnCtx:
    """The function state Σ: everything typing rules need to know about the
    function being verified and the program around it."""

    _slot_counter = itertools.count(1)

    def __init__(self, tp: TypedProgram, fn: Function,
                 spec: FunctionSpec) -> None:
        self.tp = tp
        self.fn = fn
        self.spec = spec
        self.types: TypeTable = tp.ctx.types
        self.visits: dict[str, int] = {}
        self.max_inline_visits = 64
        self.frames: dict[str, list[Atom]] = {}
        self.frame_facts: dict[str, list[Term]] = {}
        self.pending_blocks: list[str] = []
        self.scheduled: set[str] = set()
        uid = next(FnCtx._slot_counter)
        self.slots: dict[str, Var] = {}
        for name, _layout in list(fn.params) + list(fn.locals):
            self.slots[name] = var(f"l_{fn.name}{uid}_{name}", Sort.LOC)
        self.global_locs: dict[str, Var] = {
            g: var(f"g_{g}", Sort.LOC) for g in tp.globals}

    # ------------------------------------------------------------
    def slot(self, name: str) -> Var:
        if name not in self.slots:
            raise KeyError(f"{self.fn.name}: unknown variable {name!r}")
        return self.slots[name]

    def global_loc(self, name: str) -> Var:
        if name not in self.global_locs:
            raise KeyError(f"unknown global {name!r}")
        return self.global_locs[name]

    def fn_spec(self, name: str) -> Optional[FunctionSpec]:
        return self.tp.specs.get(name)

    def spec_env(self) -> dict[str, Term]:
        env: dict[str, Term] = {p.name: p for p in self.spec.params}
        env.update(self.global_locs)
        return env

    # ------------------------------------------------------------
    def consume_assertion_goal(self, assertion, goal_after: Goal,
                               origin: str = "") -> Goal:
        """The goal consuming one requires/ensures assertion."""
        if isinstance(assertion, LocType) and not assertion.shared:
            from .judgments import ProvePlaceJ
            return GBasic(ProvePlaceJ(self, assertion.loc, assertion.ty,
                                      goal_after))
        if isinstance(assertion, (LocType, ValType, TokenAtom)):
            return GSep(HAtom(assertion), goal_after)
        return GSep(HPure(assertion, origin=origin), goal_after)

    def intro_assertion_goal(self, state: SearchState, assertion,
                             goal_after: Goal) -> Goal:
        """The goal introducing one requires/ensures assertion."""
        if isinstance(assertion, LocType):
            return intro_loc_goal(self, state, assertion.loc, assertion.ty,
                                  goal_after, shared=assertion.shared)
        if isinstance(assertion, (ValType, TokenAtom)):
            return GWand(HAtom(assertion), goal_after)
        return GWand(HPure(assertion), goal_after)

    # ------------------------------------------------------------
    def make_cas(self, state: SearchState, atom_loc: Term, exp_loc: Term,
                 v_des: Term, t_des: RType, layout, cont) -> Goal:
        found_atom = locate(self, state, atom_loc, intlit(layout.size))
        if found_atom is None:
            state.fail(f"CAS target {atom_loc!r} is not owned")
        found_exp = locate(self, state, exp_loc, intlit(layout.size))
        if found_exp is None:
            state.fail(f"CAS expected operand {exp_loc!r} is not owned")
        return GBasic(CASJ(self, atom_loc, found_atom[0].ty, exp_loc,
                           found_exp[0].ty, v_des, t_des, layout, cont))

    # ------------------------------------------------------------
    # Loop invariants (§2.2).
    # ------------------------------------------------------------
    def invariant_entry_goal(self, state: SearchState, target: str) -> Goal:
        """The goal proved at each jump *to* an invariant-annotated block:
        consume the invariant (instantiating its rc::exists with evars),
        prove its constraints, and subsume the frame."""
        ann = self.fn.block(target).annot
        assert ann is not None
        if target not in self.scheduled:
            self.scheduled.add(target)
            self.pending_blocks.append(target)
        env0 = self.spec_env()

        def bind(idx: int, env: dict[str, Term]) -> Goal:
            if idx < len(ann.exists):
                name, sort_text = _parse_inv_binder(ann.exists[idx])
                from ..pure.parser import parse_sort
                sort, _is_nat = parse_sort(sort_text)
                return GExists(sort, name,
                               lambda ev: bind(idx + 1, {**env, name: ev}))
            return body(env)

        def body(env: dict[str, Term]) -> Goal:
            goal: Goal = GBasic(HookJ(f"frame:{target}",
                                      lambda st: self._frame_goal(st, target,
                                                                  ann)))
            from ..pure.parser import parse_term
            for c in reversed(ann.constraints):
                goal = GSep(HPure(parse_term(c, env, self.tp.ctx.constants),
                                  origin="rc::constraints (loop)"), goal)
            for vname, ty_text in reversed(ann.inv_vars):
                want = parse_type(ty_text, env, self.tp.ctx)
                goal = GSep(HAtom(LocType(self.slot(vname), want)), goal)
            return goal

        return bind(0, env0)

    def _frame_goal(self, state: SearchState, target: str,
                    ann: LoopAnnotation) -> Goal:
        """Record (first entry) or subsume (later entries) the loop frame:
        the atoms for everything the invariant does not mention."""
        remaining = [a.resolve(state.subst) for a in state.delta
                     if not a.persistent]
        if target not in self.frames:
            self.frames[target] = remaining
            self.frame_facts[target] = list(
                state.gamma.resolved_facts(state.subst))
            return GTrue()
        goal: Goal = GTrue()
        for atom in reversed(self.frames[target]):
            goal = GSep(HAtom(atom), goal)
        return goal

    def invariant_block_goal(self, state: SearchState, target: str) -> Goal:
        """The goal checking the invariant-annotated block itself, under a
        skolemised copy of the invariant plus the recorded frame."""
        block = self.fn.block(target)
        ann = block.annot
        assert ann is not None
        env = self.spec_env()
        skolems: dict[str, Term] = {}
        for decl in ann.exists:
            name, sort_text = _parse_inv_binder(decl)
            from ..pure.parser import parse_sort
            sort, is_nat = parse_sort(sort_text)
            skolems[name] = state.fresh_var(sort, name)
        env.update(skolems)
        goal: Goal = GBasic(StmtsJ(self, tuple(block.stmts), block.term))
        for atom in reversed(self.frames.get(target, [])):
            goal = GWand(HAtom(atom), goal)
        from ..pure.parser import parse_term
        for c in reversed(ann.constraints):
            goal = GWand(HPure(parse_term(c, env, self.tp.ctx.constants)),
                         goal)
        for vname, ty_text in reversed(ann.inv_vars):
            want = parse_type(ty_text, env, self.tp.ctx)
            goal = intro_loc_goal(self, state, self.slot(vname), want, goal)
        for phi in reversed(self.frame_facts.get(target, [])):
            goal = GWand(HPure(phi), goal)
        # nat binders in the invariant are non-negative.
        from ..pure.terms import le
        for decl in ann.exists:
            name, sort_text = _parse_inv_binder(decl)
            if "nat" in sort_text and skolems[name].sort is Sort.INT:
                goal = GWand(HPure(le(intlit(0), skolems[name])), goal)
        return goal


def _parse_inv_binder(decl) -> tuple[str, str]:
    if isinstance(decl, tuple):
        return decl
    name, _, sort_text = decl.partition(":")
    return name.strip(), sort_text.strip()


# ---------------------------------------------------------------------
# Subsumption dispatch for atom consumption (Lithium case 6d).
# ---------------------------------------------------------------------

@dataclass(frozen=True)
class SubsumeTokJ(BasicGoal):
    have: TokenAtom
    want: TokenAtom
    cont: Goal

    def dispatch_key(self) -> tuple:
        return ("subsume_tok",)

    def describe(self) -> str:
        return f"{self.have!r} <: {self.want!r}"


@REGISTRY.rule("S-TOK", ("subsume_tok",))
def rule_subsume_tok(f: SubsumeTokJ, state) -> Goal:
    """Ghost tokens subsume when names match and indices are equal."""
    if f.have.name != f.want.name or f.have.dup != f.want.dup:
        state.fail(f"token mismatch: {f.have!r} vs {f.want!r}")
    return GSep(HPure(eq(f.have.index, f.want.index), origin="ghost token"),
                f.cont)


def _make_subsume_factory(sigma: FnCtx):
    def make_subsume(have: Atom, want: Atom, cont: Goal) -> BasicGoal:
        if isinstance(have, LocType) and isinstance(want, LocType):
            return SubsumeLocJ(sigma, want.loc, have.ty, want.ty, cont)
        if isinstance(have, ValType) and isinstance(want, ValType):
            return SubsumeValJ(sigma, want.val, have.ty, want.ty, cont)
        if isinstance(have, TokenAtom) and isinstance(want, TokenAtom):
            return SubsumeTokJ(have, want, cont)
        raise VerificationError(
            f"cannot relate resources {have!r} and {want!r}",
            function=sigma.fn.name)
    return make_subsume


# ---------------------------------------------------------------------
# Top-level checking.
# ---------------------------------------------------------------------

def check_function(tp: TypedProgram, name: str) -> FunctionResult:
    """Verify one function against its spec.  Returns statistics and the
    derivations (one per sub-proof: entry + each invariant block)."""
    fn = tp.program.functions[name]
    spec = tp.specs[name]
    sigma = FnCtx(tp, fn, spec)
    stats = Stats()
    subst = Subst()
    solver = PureSolver(tactics=spec.tactics, lemmas=spec.lemmas)
    derivations = []

    def new_state() -> SearchState:
        return SearchState(REGISTRY, solver, _make_subsume_factory(sigma),
                           function=name, stats=stats, subst=subst)

    dispatch0 = REGISTRY.dispatch_hits
    try:
        state = new_state()
        goal = _entry_goal(tp, sigma, state)
        derivations.append(state.run(goal))
        while sigma.pending_blocks:
            target = sigma.pending_blocks.pop(0)
            st2 = new_state()
            goal2 = _with_globals(tp, sigma, st2,
                                  sigma.invariant_block_goal(st2, target))
            goal2 = _with_param_facts(sigma, goal2)
            derivations.append(st2.run(goal2))
    except VerificationError as exc:
        _record_cache_stats(stats, solver, dispatch0)
        return FunctionResult(name, False, stats, _detached(exc),
                              derivations)
    _record_cache_stats(stats, solver, dispatch0)
    return FunctionResult(name, True, stats, None, derivations)


def _detached(exc: VerificationError) -> VerificationError:
    """``exc`` with its traceback (and that of every exception in its
    ``__context__`` chain) cleared.  A kept result must not hold the
    failed search's frames — its state, Γ and partial derivations —
    alive; the diagnostics live in the error's own fields.  A pooled
    result arrives this way already: pickling drops the traceback."""
    link: Optional[BaseException] = exc
    while link is not None:
        link.__traceback__ = None
        link = link.__context__
    return exc


def _record_cache_stats(stats: Stats, solver: PureSolver,
                        dispatch0: int) -> None:
    """Engine telemetry (not Stats counters — see Stats.counters()).

    The solver instance lives for the whole function, so its cache_hits
    total also covers prove calls made outside ``_prove_timed`` (e.g. the
    ownership layer's direct side-condition checks).
    ``dispatch_table_hits`` is the delta of the process-wide dispatch
    counter over this check."""
    stats.solver_cache_hits = solver.cache_hits
    stats.dispatch_table_hits = REGISTRY.dispatch_hits - dispatch0


def _entry_goal(tp: TypedProgram, sigma: FnCtx, state: SearchState) -> Goal:
    fn, spec = sigma.fn, sigma.spec
    entry = fn.block(fn.entry)
    goal: Goal = GBasic(StmtsJ(sigma, tuple(entry.stmts), entry.term))
    for name, layout in reversed(fn.locals):
        goal = GWand(HAtom(LocType(sigma.slot(name),
                                   UninitT(intlit(layout.size)))), goal)
    for a in reversed(spec.requires):
        goal = sigma.intro_assertion_goal(state, a, goal)
    if len(spec.arg_types) != len(fn.params):
        raise VerificationError(
            f"spec declares {len(spec.arg_types)} arguments but the "
            f"function has {len(fn.params)}", function=fn.name)
    for (pname, _layout), ty in reversed(list(zip(fn.params,
                                                  spec.arg_types))):
        goal = intro_loc_goal(sigma, state, sigma.slot(pname), ty, goal)
    goal = _with_globals(tp, sigma, state, goal)
    goal = _with_param_facts(sigma, goal)
    return goal


def _with_param_facts(sigma: FnCtx, goal: Goal) -> Goal:
    for phi in reversed(sigma.spec.param_facts):
        goal = GWand(HPure(phi), goal)
    return goal


def _with_globals(tp: TypedProgram, sigma: FnCtx, state: SearchState,
                  goal: Goal) -> Goal:
    """Introduce the (shared, hence duplicable) global resources."""
    env = {g: loc for g, loc in sigma.global_locs.items()}
    for gname, gspec in tp.globals.items():
        if gspec.type_text is None:
            continue
        ty = parse_type(gspec.type_text, env, tp.ctx)
        goal = intro_loc_goal(sigma, state, sigma.global_loc(gname), ty,
                              goal, shared=True)
    return goal


def verification_targets(tp: TypedProgram) -> tuple[list[str], list[str]]:
    """Split the spec'd functions into work items, in spec order.

    Returns ``(to_check, missing_body)``: functions with a spec and a body
    to verify, and functions with a spec but *no* body that are not marked
    ``rc::trusted``.  The latter are verification failures — silently
    skipping them would let an unproved spec be assumed by every caller.
    Trusted specs (axiomatised externals) belong to neither list."""
    to_check: list[str] = []
    missing: list[str] = []
    for name, spec in tp.specs.items():
        if spec.trusted:
            continue
        if name in tp.program.functions:
            to_check.append(name)
        else:
            missing.append(name)
    return to_check, missing


# ---------------------------------------------------------------------
# Verification-input recording (for the incremental driver).
# ---------------------------------------------------------------------

def _layout_structs(layout, out: set) -> None:
    from ..caesium.layout import ArrayLayout, StructLayout
    if isinstance(layout, StructLayout):
        out.add(("struct", layout.name))
        for _fname, flayout in layout.fields:
            _layout_structs(flayout, out)
    elif isinstance(layout, ArrayLayout):
        _layout_structs(layout.elem, out)


def _expr_inputs(e, tp: TypedProgram, deps: set) -> None:
    from ..caesium import syntax as cae
    if isinstance(e, cae.FnPtrE):
        if e.name in tp.specs:
            deps.add(("fnspec", e.name))
        return
    if isinstance(e, cae.GlobalAddr):
        deps.add(("global", e.name))
        return
    if isinstance(e, cae.FieldOffset):
        _layout_structs(e.struct, deps)
        _expr_inputs(e.e, tp, deps)
        return
    if isinstance(e, cae.SizeOfE):
        _layout_structs(e.layout, deps)
        return
    if isinstance(e, cae.Use):
        _layout_structs(e.layout, deps)
        _expr_inputs(e.e, tp, deps)
        return
    if isinstance(e, cae.UnOpE):
        _expr_inputs(e.e, tp, deps)
        return
    if isinstance(e, cae.CastE):
        _expr_inputs(e.e, tp, deps)
        return
    if isinstance(e, cae.BinOpE):
        _expr_inputs(e.e1, tp, deps)
        _expr_inputs(e.e2, tp, deps)
        return
    if isinstance(e, cae.CallE):
        _expr_inputs(e.fn, tp, deps)
        for a in e.args:
            _expr_inputs(a, tp, deps)
        return
    if isinstance(e, cae.CASE):
        _layout_structs(e.layout, deps)
        for sub in (e.atom, e.expected, e.desired):
            _expr_inputs(sub, tp, deps)
        return
    # Leaves (IntConst, NullE, VarAddr, ValE) consume no shared inputs.


def function_inputs(tp: TypedProgram, name: str
                    ) -> tuple[set, list[str]]:
    """The verification inputs function ``name`` actually consumes.

    Returns ``(deps, texts)``:

    * ``deps`` — ``(kind, name)`` pairs with kind in {"fnspec", "struct",
      "global"}: the callee specs its body calls (directly or as function
      pointers), the struct layouts its body and locals touch, and the
      globals it addresses.  Every check also introduces *every* shared
      global resource (see :func:`_with_globals`), so all globals are
      included unconditionally.  The spec-side inputs recorded during
      elaboration (``FunctionSpec.spec_deps``) are merged in.
    * ``texts`` — annotation strings attached to the function (its raw
      spec text plus loop-invariant annotations) whose free identifiers
      the dependency graph additionally resolves against the unit's named
      types / functions / globals, as a conservative over-approximation.
    """
    deps: set = set()
    texts: list[str] = [tp.spec_texts.get(name, "")]
    spec = tp.specs.get(name)
    if spec is not None:
        deps |= set(spec.spec_deps)
    for g in tp.globals:
        deps.add(("global", g))
    fn = tp.program.functions.get(name)
    if fn is None:
        return deps, texts
    from ..caesium import syntax as cae
    for _pname, layout in list(fn.params) + list(fn.locals):
        _layout_structs(layout, deps)
    if fn.ret_layout is not None:
        _layout_structs(fn.ret_layout, deps)
    for block in fn.blocks.values():
        for stmt in block.stmts:
            if isinstance(stmt, cae.Assign):
                _layout_structs(stmt.layout, deps)
                _expr_inputs(stmt.lhs, tp, deps)
                _expr_inputs(stmt.rhs, tp, deps)
            elif isinstance(stmt, cae.ExprS):
                _expr_inputs(stmt.e, tp, deps)
        term = block.term
        if isinstance(term, cae.CondGoto):
            _expr_inputs(term.cond, tp, deps)
        elif isinstance(term, cae.Switch):
            _expr_inputs(term.scrutinee, tp, deps)
        elif isinstance(term, cae.Ret) and term.value is not None:
            _expr_inputs(term.value, tp, deps)
        if block.annot is not None:
            ann = block.annot
            texts.extend(s for _n, s in ann.exists)
            texts.extend(t for _v, t in ann.inv_vars)
            texts.extend(ann.constraints)
    return deps, texts


def missing_body_result(name: str) -> FunctionResult:
    """The explicit failure reported for a spec'd function without a body
    (and without ``rc::trusted``)."""
    error = VerificationError(
        f"function has a specification but no body; its spec would be "
        f"assumed unproven by every caller.  Provide a definition or mark "
        f"it [[rc::trusted]] to axiomatise it",
        function=name)
    return FunctionResult(name, False, Stats(), error)

