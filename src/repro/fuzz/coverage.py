"""Campaign coverage: the cumulative map and the steering policy.

:mod:`repro.trace.signature` distills one check into a signature (a set
of behaviour keys); this module accumulates signatures over a campaign
and turns the accumulated picture into *steering* — the greybox loop
that makes corpus-scale fuzzing beat blind sampling:

* :class:`CoverageMap` — per-key hit counts plus the program index that
  first exercised each key.  Maps serialise into the schema-versioned
  ``coverage`` block of the campaign stats JSON.
* :func:`template_weights` — the deterministic steering policy: boost
  generator templates that are under-sampled or recently produced *new*
  coverage keys, damp templates whose signatures have been saturated
  for several rounds.  Weights are a pure function of the coverage
  history of *completed* rounds, which keeps a campaign's program
  stream deterministic.

Beyond the trace-derived keys, campaigns record two oracle-side
dimensions in the same vocabulary: ``exec:<status>`` for the
differential-execution outcomes and ``ub:<class>`` for the UB classes
the Caesium machine actually demonstrated (via findings or mutant
witnesses) — "how much of the rule set and the UB taxonomy have we ever
exercised?" becomes one number per key.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Optional

from ..trace.signature import RULE_PREFIX, SIGNATURE_SCHEMA_VERSION

COVERAGE_SCHEMA_VERSION = SIGNATURE_SCHEMA_VERSION

#: steering knobs (documented in DESIGN.md; changing them changes the
#: steered program stream, like changing a generator template does)
EXPLORE_BONUS = 4.0      # extra weight for an unexplored template decays ~1/runs
NOVELTY_BOOST = 2.0      # multiplier while a template keeps finding new keys
SATURATION_DAMP = 0.25   # multiplier once a template has gone stale
STALE_ROUNDS = 2         # rounds without new keys before a template is stale
SATURATED_MIN_RUNS = 8   # never damp a template sampled fewer times than this


@dataclass
class CoverageMap:
    """Cumulative coverage over a campaign."""

    counts: dict[str, int] = field(default_factory=dict)
    first_seen: dict[str, int] = field(default_factory=dict)

    def observe(self, keys: Iterable[str], index: int) -> list[str]:
        """Fold one signature in; returns the keys that are new to the
        map (the novelty signal steering feeds on)."""
        new: list[str] = []
        for key in keys:
            if key in self.counts:
                self.counts[key] += 1
                if index < self.first_seen[key]:
                    self.first_seen[key] = index
            else:
                self.counts[key] = 1
                self.first_seen[key] = index
                new.append(key)
        return new

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.counts)

    def __contains__(self, key: str) -> bool:
        return key in self.counts

    def rule_keys(self) -> list[str]:
        return sorted(k for k in self.counts if k.startswith(RULE_PREFIX))

    def category_counts(self) -> dict[str, int]:
        """Distinct keys per category prefix (``rule``, ``step``, …)."""
        out: dict[str, int] = {}
        for key in self.counts:
            cat = key.split(":", 1)[0]
            out[cat] = out.get(cat, 0) + 1
        return dict(sorted(out.items()))

    def missing(self, baseline_keys: Iterable[str]) -> list[str]:
        """Baseline keys this map never exercised — the coverage-floor
        regression diff."""
        return sorted(k for k in baseline_keys if k not in self.counts)

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "coverage_schema_version": COVERAGE_SCHEMA_VERSION,
            "keys": {k: {"count": self.counts[k],
                         "first_seen": self.first_seen[k]}
                     for k in sorted(self.counts)},
        }

    @classmethod
    def from_dict(cls, d: Mapping) -> "CoverageMap":
        got = d.get("coverage_schema_version")
        if got != COVERAGE_SCHEMA_VERSION:
            raise ValueError(
                f"coverage schema mismatch: file has {got!r}, "
                f"this build speaks {COVERAGE_SCHEMA_VERSION}")
        m = cls()
        for key, rec in d.get("keys", {}).items():
            m.counts[key] = int(rec["count"])
            m.first_seen[key] = int(rec["first_seen"])
        return m


# ---------------------------------------------------------------------
# Steering.
# ---------------------------------------------------------------------

@dataclass
class SteeringState:
    """Per-template novelty history, updated at round barriers only.

    ``programs`` counts how often each template was generated;
    ``last_new`` records the last round in which a template's programs
    (or their mutants) contributed at least one new coverage key."""

    programs: dict[str, int] = field(default_factory=dict)
    new_keys: dict[str, int] = field(default_factory=dict)
    last_new: dict[str, int] = field(default_factory=dict)

    def observe(self, template: str, n_new: int, round_no: int) -> None:
        self.programs[template] = self.programs.get(template, 0) + 1
        if n_new:
            self.new_keys[template] = self.new_keys.get(template, 0) + n_new
            self.last_new[template] = round_no


def template_weights(names: list[str], state: SteeringState,
                     round_no: int) -> dict[str, float]:
    """The steering policy, a pure function of the steering history.

    * never-sampled templates get the full exploration bonus;
    * templates that found new keys within :data:`STALE_ROUNDS` rounds
      keep a :data:`NOVELTY_BOOST`;
    * templates sampled at least :data:`SATURATED_MIN_RUNS` times with
      no new key for more than :data:`STALE_ROUNDS` rounds are damped to
      :data:`SATURATION_DAMP` — never to zero: a saturated template can
      still catch a regression, it just stops dominating the budget.
    """
    weights: dict[str, float] = {}
    for name in names:
        runs = state.programs.get(name, 0)
        weight = 1.0 + EXPLORE_BONUS / (1.0 + runs)
        last = state.last_new.get(name)
        if runs == 0 or (last is not None
                         and round_no - last <= STALE_ROUNDS):
            weight *= NOVELTY_BOOST
        elif runs >= SATURATED_MIN_RUNS:
            weight *= SATURATION_DAMP
        weights[name] = weight
    return weights


def oracle_keys(exec_status: Optional[str] = None,
                ub_class: Optional[str] = None) -> list[str]:
    """Coverage keys for the oracle-side dimensions (execution outcomes
    and demonstrated UB classes), in the shared key vocabulary."""
    keys = []
    if exec_status:
        keys.append(f"exec:{exec_status}")
    if ub_class:
        keys.append(f"ub:{ub_class}")
    return keys
