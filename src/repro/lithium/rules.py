"""The Lithium rule registry.

RefinedC typing rules are "an open set of Lithium rules" (§1): each rule has
the form ``G / F`` — premise goal over conclusion basic-goal — and is
selected purely syntactically by the *dispatch key* of ``F`` ("types and
code inside F uniquely determine the applicable typing rule", §5).  The
registry is the analogue of the paper's use of Coq typeclasses for rule
lookup.

Rules carry a ``priority`` because "Lithium also offers a way to specify
priority among RefinedC rules in case [uniqueness] fails to hold.  But once
a rule is chosen, RefinedC does not backtrack on the choice" (§5, fn. 5).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from typing import TYPE_CHECKING, Callable, Optional

from .goals import BasicGoal, Goal

if TYPE_CHECKING:  # pragma: no cover
    from .search import SearchState

RuleFn = Callable[[BasicGoal, "SearchState"], Goal]


@lru_cache(maxsize=None)
def _wildcard_masks(arity: int) -> tuple[tuple[bool, ...], ...]:
    """The wildcard substitution masks for a key of ``arity`` trailing
    components, in precedence order: fewer wildcards first, later
    positions generalised first.  There are only a handful of arities
    across all dispatch keys, so the sorted product is computed once
    per arity instead of on every lookup."""
    return tuple(sorted(product((False, True), repeat=arity),
                        key=lambda m: (sum(m), tuple(reversed(m)))))


class RuleError(Exception):
    """Raised when rule lookup fails or is ambiguous at equal priority."""


@dataclass(frozen=True)
class Rule:
    """A certified typing rule: premise-producing function + metadata.

    In the paper each rule is a lemma proven sound in Iris; here the
    semantic counterpart is checked by :mod:`repro.proofs` (the executable
    model + adequacy testing).
    """

    name: str
    key: tuple
    apply: RuleFn
    priority: int = 0
    doc: str = ""


class RuleRegistry:
    """Maps dispatch keys to rules.  User-extensible (§5, "Extensibility")."""

    def __init__(self) -> None:
        self._rules: dict[tuple, list[Rule]] = {}
        # Flat dispatch table: concrete dispatch key ->
        # selected rule, lazily filled through the slow path so the
        # precedence order is _candidates' by construction.  Registering
        # a rule bumps the generation, which invalidates the table.
        self._generation = 0
        self._dispatch: dict[tuple, Rule] = {}
        self._dispatch_generation = -1
        self.dispatch_hits = 0  # telemetry only; never in counters()

    def register(self, rule: Rule) -> None:
        bucket = self._rules.setdefault(rule.key, [])
        if any(r.name == rule.name for r in bucket):
            raise RuleError(f"duplicate rule name {rule.name!r} for {rule.key}")
        bucket.append(rule)
        bucket.sort(key=lambda r: -r.priority)
        self._generation += 1

    def rule(self, name: str, key: tuple, priority: int = 0,
             doc: str = "") -> Callable[[RuleFn], RuleFn]:
        """Decorator form of :meth:`register`."""
        def deco(fn: RuleFn) -> RuleFn:
            self.register(Rule(name, key, fn, priority, doc or (fn.__doc__ or "")))
            return fn
        return deco

    @staticmethod
    def _candidates(key: tuple) -> list[tuple]:
        """Lookup order for a dispatch key: the exact key first, then keys
        with components generalised to the wildcard ``"*"`` (fewer wildcards
        preferred; later positions generalised first), then prefixes.

        This gives rules like "unfold a named type wherever it appears" a
        home (e.g. ``("subsume_loc", "*", "named")``) while keeping lookup
        deterministic — the cornerstone of no-backtracking search.
        """
        head, rest = key[0], key[1:]
        out = []
        for mask in _wildcard_masks(len(rest)):
            out.append((head,) + tuple("*" if star else comp
                                       for comp, star in zip(rest, mask)))
        for klen in range(len(key) - 1, 0, -1):
            out.append(key[:klen])
        return out

    def _dispatch_table(self) -> dict[tuple, Rule]:
        """The flat table for the current generation, dropped whenever a
        rule registration changes what any key could resolve to."""
        if self._dispatch_generation != self._generation:
            self._dispatch = {}
            self._dispatch_generation = self._generation
        return self._dispatch

    def lookup(self, f: BasicGoal) -> Rule:
        """Select the unique applicable rule for ``F`` — case (5) of proof
        search.  No backtracking: exactly one rule is chosen.

        Resolved keys are remembered in a flat per-generation table so
        the steady-state lookup is one dict hit; misses (including every
        erroring key) take the wildcard cascade in :meth:`_lookup_slow`,
        which keeps rule choice and error text identical by construction.
        """
        key = f.dispatch_key()
        table = self._dispatch_table()
        rule = table.get(key)
        if rule is not None:
            self.dispatch_hits += 1
            return rule
        rule = self._lookup_slow(key, f)
        table[key] = rule
        return rule

    def _lookup_slow(self, key: tuple, f: BasicGoal) -> Rule:
        bucket: Optional[list[Rule]] = None
        for candidate in self._candidates(key):
            bucket = self._rules.get(candidate)
            if bucket:
                break
        if not bucket:
            raise RuleError(
                f"no typing rule applies to {f.describe()} "
                f"(dispatch key {key})")
        top = [r for r in bucket if r.priority == bucket[0].priority]
        if len(top) > 1:
            raise RuleError(
                f"ambiguous typing rules for {key}: "
                f"{[r.name for r in top]} (assign priorities)")
        return bucket[0]

    def all_rules(self) -> list[Rule]:
        return [r for bucket in self._rules.values() for r in bucket]

    def __len__(self) -> int:
        return len(self.all_rules())
