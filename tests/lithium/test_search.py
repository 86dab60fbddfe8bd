"""Lithium engine tests, using a small toy judgment set independent of the
RefinedC type system (the engine is generic, §8)."""

import dataclasses
from dataclasses import dataclass

import pytest

from repro.driver.cache import _COUNTER_FIELDS
from repro.lithium import (Atom, BasicGoal, GBasic, GExists, GForall, GSep,
                           GTrue, GWand, HAtom, HExists, HPure, HSep, Rule,
                           RuleRegistry, SearchState, VerificationError, conj)
from repro.lithium.search import (COUNTER_KEYS, TELEMETRY_KEYS,
                                  WALL_CLOCK_KEYS, Stats)
from repro.pure import PureSolver, Sort, Subst, terms as T


@dataclass(frozen=True)
class PointsTo(Atom):
    """Toy atom: location `loc` holds integer term `value`."""

    loc: T.Term
    value: T.Term

    @property
    def subject(self) -> T.Term:
        return self.loc

    def resolve(self, subst: Subst) -> "PointsTo":
        return PointsTo(subst.resolve(self.loc), subst.resolve(self.value))


@dataclass(frozen=True)
class SubsumePT(BasicGoal):
    have: PointsTo
    want: PointsTo
    cont: object

    def dispatch_key(self):
        return ("subsume_pt",)

    def describe(self):
        return f"{self.have!r} <: {self.want!r}"


def make_state(extra_rules=()):
    registry = RuleRegistry()

    def subsume_rule(f, state):
        # values must be equal; then continue
        return GSep(HPure(T.eq(f.have.value, f.want.value)), f.cont)

    registry.register(Rule("subsume_pt", ("subsume_pt",), subsume_rule))
    for r in extra_rules:
        registry.register(r)

    def make_subsume(have, want, cont):
        return SubsumePT(have, want, cont)

    return SearchState(registry, PureSolver(), make_subsume, function="toy")


l1 = T.var("l1", Sort.LOC)
l2 = T.var("l2", Sort.LOC)
n = T.var("n")


class TestBasicCases:
    def test_true_succeeds(self):
        make_state().run(GTrue())

    def test_conj_forks(self):
        st = make_state()
        branch = GSep(HPure(T.TRUE), GTrue())
        st.run(conj(branch, branch))
        assert st.stats.conj_forks == 1

    def test_conj_collapses_trivial_goals(self):
        # the conj() builder drops True conjuncts entirely
        st = make_state()
        st.run(conj(GTrue(), GTrue()))
        assert st.stats.conj_forks == 0

    def test_forall_introduces_fresh_var(self):
        st = make_state()
        seen = []
        st.run(GForall(Sort.INT, "k", lambda x: (seen.append(x), GTrue())[1]))
        assert len(seen) == 1 and seen[0] in st.gamma.variables

    def test_exists_introduces_sealed_evar(self):
        st = make_state()
        seen = []
        st.run(GExists(Sort.INT, "k", lambda x: (seen.append(x), GTrue())[1]))
        assert seen[0].eid in st.sealed
        assert st.stats.evars_created == 1

    def test_pure_side_condition_proved(self):
        st = make_state()
        st.run(GSep(HPure(T.le(T.intlit(1), T.intlit(2))), GTrue()))
        assert st.stats.side_conditions_auto == 1

    def test_pure_side_condition_fails(self):
        st = make_state()
        with pytest.raises(VerificationError) as exc:
            st.run(GSep(HPure(T.le(n, T.intlit(0))), GTrue()))
        assert "side condition" in str(exc.value)

    def test_wand_pure_adds_hypothesis(self):
        st = make_state()
        goal = GWand(HPure(T.le(n, T.intlit(5))),
                     GSep(HPure(T.le(n, T.intlit(10))), GTrue()))
        st.run(goal)
        assert st.stats.side_conditions_auto == 1

    def test_wand_false_hypothesis_vacuous(self):
        st = make_state()
        # an unprovable goal under a False hypothesis must succeed
        st.run(GWand(HPure(T.FALSE), GSep(HPure(T.le(n, T.intlit(0))), GTrue())))

    def test_hsep_reassociation(self):
        st = make_state()
        h = HSep(HPure(T.TRUE), HPure(T.le(T.intlit(0), T.intlit(1))))
        st.run(GSep(h, GTrue()))

    def test_hexists_in_sep_creates_evar(self):
        st = make_state()
        goal = GSep(HExists(Sort.INT, "m",
                            lambda m: HPure(T.eq(m, T.intlit(3)))), GTrue())
        st.run(goal)
        assert st.stats.evars_created == 1
        assert st.stats.evars_instantiated == 1

    def test_hexists_in_wand_universalises(self):
        st = make_state()
        goal = GWand(
            HExists(Sort.INT, "m", lambda m: HPure(T.le(T.intlit(0), m))),
            GSep(HPure(T.TRUE), GTrue()))
        st.run(goal)
        # the ∃ in a hypothesis becomes a ∀: a rigid variable, not an evar
        assert st.stats.evars_created == 0
        assert any(v.name.startswith("m$") for v in st.gamma.variables)


class TestAtoms:
    def test_intro_then_consume(self):
        st = make_state()
        atom = PointsTo(l1, n)
        goal = GWand(HAtom(atom), GSep(HAtom(PointsTo(l1, n)), GTrue()))
        st.run(goal)
        assert st.stats.atom_matches == 1
        assert len(st.delta) == 0  # resource consumed

    def test_consume_requires_matching_value(self):
        st = make_state()
        goal = GWand(HAtom(PointsTo(l1, T.intlit(1))),
                     GSep(HAtom(PointsTo(l1, T.intlit(2))), GTrue()))
        with pytest.raises(VerificationError):
            st.run(goal)

    def test_missing_resource(self):
        st = make_state()
        with pytest.raises(VerificationError) as exc:
            st.run(GSep(HAtom(PointsTo(l1, n)), GTrue()))
        assert "no ownership" in str(exc.value)

    def test_unrelated_subject_not_matched(self):
        st = make_state()
        goal = GWand(HAtom(PointsTo(l2, n)),
                     GSep(HAtom(PointsTo(l1, n)), GTrue()))
        with pytest.raises(VerificationError):
            st.run(goal)

    def test_duplicate_subject_rejected(self):
        st = make_state()
        goal = GWand(HAtom(PointsTo(l1, n)),
                     GWand(HAtom(PointsTo(l1, T.intlit(0))), GTrue()))
        with pytest.raises(VerificationError):
            st.run(goal)

    def test_conj_branches_have_separate_resources(self):
        st = make_state()
        # both branches may consume the same atom: contexts are forked
        consume = GSep(HAtom(PointsTo(l1, n)), GTrue())
        goal = GWand(HAtom(PointsTo(l1, n)), conj(consume, consume))
        st.run(goal)
        assert st.stats.atom_matches == 2

    def test_evar_value_instantiated_by_subsumption(self):
        st = make_state()
        goal = GWand(
            HAtom(PointsTo(l1, T.intlit(7))),
            GExists(Sort.INT, "v", lambda v:
                    GSep(HAtom(PointsTo(l1, v)), GTrue())))
        st.run(goal)
        # ?v must have been unified with 7 by the equality side condition
        assert st.stats.evars_instantiated == 1


class TestRuleDispatch:
    def test_no_rule_error(self):
        @dataclass(frozen=True)
        class Odd(BasicGoal):
            def dispatch_key(self):
                return ("odd",)

        st = make_state()
        with pytest.raises(VerificationError) as exc:
            st.run(GBasic(Odd()))
        assert "no typing rule" in str(exc.value)

    def test_priority_breaks_ties(self):
        @dataclass(frozen=True)
        class J(BasicGoal):
            def dispatch_key(self):
                return ("j",)

        applied = []
        r_low = Rule("low", ("j",), lambda f, s: (applied.append("low"), GTrue())[1], priority=0)
        r_high = Rule("high", ("j",), lambda f, s: (applied.append("high"), GTrue())[1], priority=10)
        st = make_state(extra_rules=[r_low, r_high])
        st.run(GBasic(J()))
        assert applied == ["high"]

    def test_ambiguous_rules_rejected(self):
        @dataclass(frozen=True)
        class J(BasicGoal):
            def dispatch_key(self):
                return ("j2",)

        r1 = Rule("r1", ("j2",), lambda f, s: GTrue())
        r2 = Rule("r2", ("j2",), lambda f, s: GTrue())
        st = make_state(extra_rules=[r1, r2])
        with pytest.raises(VerificationError) as exc:
            st.run(GBasic(J()))
        assert "ambiguous" in str(exc.value)

    def test_prefix_key_fallback(self):
        @dataclass(frozen=True)
        class J(BasicGoal):
            def dispatch_key(self):
                return ("j3", "int", "bool")

        st = make_state(extra_rules=[Rule("generic", ("j3",),
                                          lambda f, s: GTrue())])
        st.run(GBasic(J()))
        assert "generic" in st.stats.rules_used

    def test_stats_track_rules(self):
        st = make_state()
        goal = GWand(HAtom(PointsTo(l1, n)),
                     GSep(HAtom(PointsTo(l1, n)), GTrue()))
        st.run(goal)
        assert st.stats.rule_applications == 1
        assert st.stats.rules_used == {"subsume_pt"}


class TestEvarHandling:
    def test_equality_unification(self):
        st = make_state()
        goal = GExists(Sort.INT, "v", lambda v:
                       GSep(HPure(T.eq(v, T.add(n, T.intlit(1)))), GTrue()))
        st.run(goal)
        assert st.stats.evars_instantiated == 1

    def test_sealed_evar_not_instantiated_by_plain_goal(self):
        st = make_state()
        # a non-equality side condition with an uninstantiable evar fails
        goal = GExists(Sort.INT, "v", lambda v:
                       GSep(HPure(T.le(v, T.intlit(3))), GTrue()))
        with pytest.raises(VerificationError) as exc:
            st.run(goal)
        assert "evars" in str(exc.value)

    def test_nonempty_list_simplification_rule(self):
        # the paper's example: ?xs ≠ [] instantiates ?xs := ?y :: ?ys
        st = make_state()
        goal = GExists(Sort.LIST, "xs", lambda xs:
                       GSep(HPure(T.ne(xs, T.nil())), GTrue()))
        st.run(goal)
        resolved = [t for t in st.subst.snapshot().values()]
        assert any(isinstance(t, T.App) and t.op == "cons" for t in resolved)

    def test_nonempty_mset_simplification_rule(self):
        st = make_state()
        goal = GExists(Sort.MSET, "s", lambda s:
                       GSep(HPure(T.ne(s, T.mempty())), GTrue()))
        st.run(goal)

    def test_left_to_right_ordering(self):
        """Evars determined by an earlier condition are available to a
        later one (the paper's args-before-requires discipline)."""
        st = make_state()
        goal = GExists(Sort.INT, "v", lambda v:
                       GSep(HPure(T.eq(v, T.intlit(4))),
                            GSep(HPure(T.le(v, T.intlit(10))), GTrue())))
        st.run(goal)
        assert st.stats.side_conditions_auto == 2

    def test_wrong_order_defers(self):
        """If the constraining equality comes second, the earlier condition
        is *deferred* (no backtracking!) and re-checked once the evar has
        been determined."""
        st = make_state()
        goal = GExists(Sort.INT, "v", lambda v:
                       GSep(HPure(T.le(v, T.intlit(10))),
                            GSep(HPure(T.eq(v, T.intlit(4))), GTrue())))
        root = st.run(goal)
        assert root.count("side_condition_deferred") == 1

    def test_never_determined_evar_fails(self):
        """An evar no condition ever determines is reported at the end."""
        st = make_state()
        goal = GExists(Sort.INT, "v", lambda v:
                       GSep(HPure(T.le(v, T.intlit(10))), GTrue()))
        with pytest.raises(VerificationError) as exc:
            st.run(goal)
        assert "never" in str(exc.value)

    def test_deferred_condition_still_checked(self):
        """A deferred condition that turns out false still fails."""
        st = make_state()
        goal = GExists(Sort.INT, "v", lambda v:
                       GSep(HPure(T.le(v, T.intlit(1))),
                            GSep(HPure(T.eq(v, T.intlit(4))), GTrue())))
        with pytest.raises(VerificationError):
            st.run(goal)

    def test_linear_evar_isolation(self):
        """``?n - 1 = 6`` binds ``?n := 7`` (sound unique solution)."""
        st = make_state()
        goal = GExists(Sort.INT, "v", lambda v:
                       GSep(HPure(T.eq(T.sub(v, T.intlit(1)), T.intlit(6))),
                            GSep(HPure(T.eq(v, T.intlit(7))), GTrue())))
        st.run(goal)


class TestDerivation:
    def test_derivation_records_rule_applications(self):
        st = make_state()
        goal = GWand(HAtom(PointsTo(l1, n)),
                     GSep(HAtom(PointsTo(l1, n)), GTrue()))
        root = st.run(goal)
        assert root.count("rule") == 1
        assert root.count("atom_match") == 1
        assert root.count("side_condition") == 1

    def test_error_mentions_function(self):
        st = make_state()
        with pytest.raises(VerificationError) as exc:
            st.run(GSep(HPure(T.le(n, T.intlit(0))), GTrue()))
        assert 'in function "toy"' in str(exc.value)

    def test_location_stack_in_error(self):
        st = make_state()
        st.push_location("if branch: else")
        st.push_location("return statement")
        with pytest.raises(VerificationError) as exc:
            st.run(GSep(HPure(T.le(n, T.intlit(0))), GTrue()))
        msg = str(exc.value)
        assert "return statement" in msg and "if branch: else" in msg


class TestCounters:
    @staticmethod
    def populated():
        """A Stats with every field set to a distinct non-default value."""
        stats = Stats()
        for i, f in enumerate(dataclasses.fields(Stats), start=1):
            if f.name == "rules_used":
                stats.rules_used = {"zeta", "alpha", "mid"}
            elif f.name == "manual_conditions":
                stats.manual_conditions = [("f", "cond b"), ("f", "cond a")]
            elif f.name in WALL_CLOCK_KEYS:
                setattr(stats, f.name, 0.25 * i)
            else:
                setattr(stats, f.name, 10 * i)
        return stats

    @staticmethod
    def by_field_scan(stats):
        """counters() as a scan of the dataclass fields on every call."""
        out = {}
        for f in dataclasses.fields(stats):
            if f.name in TELEMETRY_KEYS or f.name in WALL_CLOCK_KEYS:
                continue
            value = getattr(stats, f.name)
            if f.name == "rules_used":
                value = sorted(value)
            elif f.name == "manual_conditions":
                value = [list(m) for m in value]
            out[f.name] = value
        return out

    def test_keys_order_and_values_match_the_field_scan(self):
        stats = self.populated()
        got = stats.counters()
        assert list(got.items()) == list(self.by_field_scan(stats).items())
        assert list(got) == list(COUNTER_KEYS) == [
            "rule_applications", "rules_used", "evars_created",
            "evars_instantiated", "side_conditions_auto",
            "side_conditions_manual", "manual_conditions", "atom_matches",
            "conj_forks", "backtracks", "solver_calls"]
        assert got["rules_used"] == ["alpha", "mid", "zeta"]
        assert got["manual_conditions"] == [["f", "cond b"],
                                            ["f", "cond a"]]

    def test_cache_persists_the_plain_counter_keys(self):
        assert _COUNTER_FIELDS == tuple(
            k for k in COUNTER_KEYS
            if k not in ("rules_used", "manual_conditions"))
