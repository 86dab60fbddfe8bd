"""End-to-end observational purity of the pure-stack caches.

The driver must produce byte-identical results — per-function outcome,
``Stats.counters()`` and exact error text — whether the memoization
caches (and the compiled forms stamped on interned nodes) start cold,
right after ``clear_pure_caches()``, or warm from unrelated studies;
the caches may only surface in the (non-counter) telemetry fields
``solver_cache_hits`` / ``dispatch_table_hits``.

Interned terms outlive a function check: the driver resets only the
fresh-name counters, so a later check that builds a term again gets the
node an earlier one built, with its compiled forms."""

import importlib

import pytest

from repro.driver import reset_fresh_counters
from repro.frontend import verify_file, verify_source
from repro.pure import linarith, memo, terms
from repro.pure.memo import clear_pure_caches
from repro.pure.terms import App, clear_term_caches

from .conftest import fingerprint, study_path

# ``repro.pure.simplify`` the attribute is the function; this is the module.
simplify_mod = importlib.import_module("repro.pure.simplify")

STUDIES = ["alloc", "mpool", "binary_search", "hashmap"]


def _warm_up(skip: str) -> None:
    """Fill the caches with every other study of the sample."""
    for other in STUDIES:
        if other != skip:
            verify_file(study_path(other))


@pytest.mark.parametrize("study", STUDIES)
def test_cached_equals_uncached(study):
    path = study_path(study)
    clear_pure_caches()
    cold = verify_file(path)
    _warm_up(study)
    warm = verify_file(path)
    assert warm.ok == cold.ok
    assert fingerprint(warm) == fingerprint(cold)


def test_cached_equals_uncached_on_failure():
    src = study_path("alloc").read_text().replace(
        "{n <= a} @ optional", "{n < a} @ optional")
    clear_pure_caches()
    cold = verify_source(src)
    _warm_up("")
    warm = verify_source(src)
    assert not cold.ok and not warm.ok
    assert fingerprint(warm) == fingerprint(cold)


def test_cache_telemetry_is_populated():
    clear_pure_caches()
    out = verify_file(study_path("mpool"))
    m = out.metrics
    assert m.solver_cache_hits > 0
    assert m.solver_cache_hits == sum(f.solver_cache_hits
                                      for f in m.functions)


def test_compile_telemetry_is_populated():
    clear_pure_caches()
    out = verify_file(study_path("mpool"))
    m = out.metrics
    assert m.dispatch_table_hits > 0
    assert m.dispatch_table_hits == sum(f.dispatch_table_hits
                                        for f in m.functions)


def _side_conditions(outcome) -> list:
    return [node for fr in outcome.result.functions.values()
            for d in fr.derivations for node in d.walk()
            if node.kind == "side_condition"]


def _side_condition_goals(outcome) -> list:
    return [node.label for node in _side_conditions(outcome)]


class _CountingRules(dict):
    """Stands in for ``simplify._NODE_RULES``: counts the lookups, which
    happen only when a normal form is computed, not read from a slot."""

    def __init__(self, rules):
        super().__init__(rules)
        self.lookups = 0

    def get(self, key, default=None):
        self.lookups += 1
        return super().get(key, default)


def test_terms_outlive_function_checks(monkeypatch):
    """A side condition a later check builds again, after
    ``reset_fresh_counters()``, is the very node the earlier check built,
    and ``simplify`` answers it from the node's slot; so does constraint
    extraction for the facts of its context."""
    clear_pure_caches()
    first = verify_file(study_path("alloc"))
    reset_fresh_counters()
    rules = _CountingRules(simplify_mod._NODE_RULES)
    monkeypatch.setattr(simplify_mod, "_NODE_RULES", rules)
    second = verify_file(study_path("alloc"))
    before, after = _side_condition_goals(first), _side_condition_goals(second)
    assert before and len(before) == len(after)
    assert all(a is b for a, b in zip(before, after))
    assert fingerprint(second) == fingerprint(first)
    for goal in after:
        if isinstance(goal, App):
            slot = getattr(goal, "_simp", None)
            assert slot is not None
            # A node that is its own normal form records a marker.
            assert simplify_mod.simplify(goal) is \
                (goal if slot is simplify_mod._NORMAL else slot)
    assert rules.lookups == 0
    facts = {s for node in _side_conditions(second)
             for h in node.detail["hypotheses"]
             for s in simplify_mod.simplify_hyp(h)}
    stamped = [f for f in facts if getattr(f, "_lcon", None) is not None]
    assert stamped
    computed = []
    monkeypatch.setattr(linarith, "_to_constraints_impl",
                        lambda prop, atoms: computed.append(prop))
    for fact in stamped:
        atoms = set()
        cs = linarith._to_constraints(fact, atoms)
        assert cs == (None if fact._lcon[0] is None else list(fact._lcon[0]))
        assert atoms == fact._lcon[1] and fact not in atoms
    assert not computed


@pytest.mark.parametrize("study", ["mpool", "hashmap"])
def test_small_intern_cap_keeps_results(monkeypatch, study):
    """Bounded intern tables: past the cap every table is dropped (the
    singletons re-seeded), and neither verdicts nor fingerprints move."""
    path = study_path(study)
    clear_pure_caches()
    reference = verify_file(path)
    clears = []

    def counting_clear():
        clears.append(len(terms._APP_TABLE))
        clear_term_caches()

    cap = 64
    monkeypatch.setattr(memo, "DEFAULT_CACHE_CAP", cap)
    monkeypatch.setattr(terms, "clear_term_caches", counting_clear)
    clear_pure_caches()
    small = verify_file(path)
    assert clears and max(clears) <= cap + 1
    assert len(terms._APP_TABLE) <= cap + 1
    assert terms.Lit(True) is terms.TRUE and terms.Lit(0) is terms.ZERO
    assert small.ok == reference.ok
    assert fingerprint(small) == fingerprint(reference)
