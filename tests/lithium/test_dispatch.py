"""Flat dispatch-table tests.

``RuleRegistry.lookup`` remembers resolved dispatch keys in a
per-generation flat table so the steady-state lookup is a single dict
hit.  These tests pin the properties dispatch relies on: the table
always agrees with the wildcard cascade of ``_lookup_slow``, the
oracle (the table is filled *through* the slow path, so this holds by
construction — but a refactor could break it), registering a rule
invalidates it, and the hit counter is telemetry only.
"""

from dataclasses import dataclass

import pytest

from repro.lithium.goals import BasicGoal, GTrue
from repro.lithium.rules import Rule, RuleError, RuleRegistry


@dataclass(frozen=True)
class J(BasicGoal):
    key: tuple

    def dispatch_key(self):
        return self.key


def r(name, key, priority=0):
    return Rule(name, key, lambda f, s: GTrue(), priority)


def test_table_agrees_with_interpreted_lookup():
    """Every key resolvable by the slow path (the wildcard cascade)
    resolves to the same rule through the table, on both the filling
    and the hitting lookup."""
    reg = RuleRegistry()
    reg.register(r("exact", ("j", "a", "b")))
    reg.register(r("late", ("j", "a", "*")))
    reg.register(r("early", ("j", "*", "b")))
    reg.register(r("anyany", ("j", "*", "*")))
    reg.register(r("prefix", ("j",)))
    reg.register(r("high", ("k",), priority=5))
    reg.register(r("low", ("k",), priority=0))

    keys = [("j", "a", "b"), ("j", "a", "z"), ("j", "z", "b"),
            ("j", "z", "z"), ("j",), ("j", "q", "r", "s"), ("k",),
            ("k", "x")]
    want = [reg._lookup_slow(k, J(k)).name for k in keys]
    assert reg.dispatch_hits == 0 and not reg._dispatch
    fill = [reg.lookup(J(k)).name for k in keys]   # fills the table
    hit = [reg.lookup(J(k)).name for k in keys]    # pure table hits
    assert fill == want
    assert hit == want


def test_dispatch_hits_count_only_table_hits():
    reg = RuleRegistry()
    reg.register(r("only", ("j",)))
    assert reg.dispatch_hits == 0
    reg.lookup(J(("j", "x")))        # miss: fills the table
    assert reg.dispatch_hits == 0
    reg.lookup(J(("j", "x")))
    reg.lookup(J(("j", "x")))
    assert reg.dispatch_hits == 2


def test_register_invalidates_table():
    """A newly registered, more specific rule must win immediately even
    though the old resolution is sitting in the table."""
    reg = RuleRegistry()
    reg.register(r("wild", ("j", "*")))
    assert reg.lookup(J(("j", "a"))).name == "wild"
    assert reg.lookup(J(("j", "a"))).name == "wild"   # now cached
    reg.register(r("exact", ("j", "a"), priority=1))
    assert reg.lookup(J(("j", "a"))).name == "exact"


def test_erroring_keys_stay_on_slow_path():
    """Unresolvable keys raise the interpreted error text every time —
    they are never cached as table entries."""
    reg = RuleRegistry()
    reg.register(r("only", ("j",)))
    for _ in range(2):
        with pytest.raises(RuleError) as e:
            reg.lookup(J(("nothing",)))
        assert "dispatch key ('nothing',)" in str(e.value)
    assert reg.dispatch_hits == 0


def test_library_dispatch_agrees_with_slow_path():
    """Sanity over the shipped library: a handful of real dispatch keys
    resolve through the table to the rule the wildcard cascade picks."""
    from repro.refinedc.rules import REGISTRY

    sample = [rule.key for rule in REGISTRY.all_rules()
              if "*" not in rule.key][:20]
    assert sample
    want = [REGISTRY._lookup_slow(k, J(k)).name for k in sample]
    got = [REGISTRY.lookup(J(k)).name for k in sample]
    assert got == want
