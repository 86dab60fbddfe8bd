"""Lithium proof contexts: the unrestricted context Γ and the resource
context Δ (§5).

Γ holds universally quantified variables and pure facts — duplicable.
Δ holds atoms — non-duplicable, used at most once.  By construction Δ never
contains two typing assumptions for the same location/value subject, which
is what makes atom lookup (case 6d) deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..pure.terms import Subst, Term, Var
from ..trace import tracer as _trace
from .goals import Atom


class ContextError(Exception):
    """Raised on context-discipline violations (e.g. duplicate subjects)."""


@dataclass
class Gamma:
    """The unrestricted context: parameters and pure facts."""

    variables: list[Var] = field(default_factory=list)
    facts: list[Term] = field(default_factory=list)
    # Incremental resolved_facts cache: (subst, subst.generation,
    # resolved list, number of facts resolved).  ``facts`` is append-only
    # (see add_fact) and a Subst's resolutions only change when its
    # generation bumps, so the cached prefix stays valid and only the
    # tail of new facts needs resolving.
    _rf_state: Optional[tuple] = field(default=None, init=False,
                                       repr=False, compare=False)

    def copy(self) -> "Gamma":
        return Gamma(list(self.variables), list(self.facts))

    def add_var(self, v: Var) -> None:
        self.variables.append(v)

    def add_fact(self, phi: Term) -> None:
        if phi not in self.facts:
            self.facts.append(phi)
            tr = _trace.CURRENT
            if tr is not None:
                tr.instant("context", "fact_add", fact=repr(phi))

    def resolved_facts(self, subst: Subst) -> list[Term]:
        state = self._rf_state
        if state is not None and state[0] is subst \
                and state[1] == subst.generation:
            resolved, n = state[2], state[3]
            if n < len(self.facts):
                resolved.extend(subst.resolve(f) for f in self.facts[n:])
                self._rf_state = (subst, subst.generation, resolved,
                                  len(self.facts))
        else:
            resolved = [subst.resolve(f) for f in self.facts]
            self._rf_state = (subst, subst.generation, resolved,
                              len(self.facts))
        return list(resolved)


@dataclass
class Delta:
    """The resource context: a list of atoms, each usable at most once."""

    atoms: list[Atom] = field(default_factory=list)

    def copy(self) -> "Delta":
        return Delta(list(self.atoms))

    def add(self, a: Atom, subst: Subst) -> None:
        """Add an atom.  Two typing atoms for the same subject would make
        lookup ambiguous — the RefinedC discipline prevents this, so we
        check it.  Persistent atoms are deduplicated instead (they are
        duplicable, so a second copy is simply dropped)."""
        subj = subst.resolve(a.subject)
        for existing in self.atoms:
            if subst.resolve(existing.subject) == subj and not subj.has_evars():
                if a.persistent and existing.persistent:
                    return  # duplicable: keep the one we have
                raise ContextError(
                    f"duplicate resource for subject {subj!r}: "
                    f"{existing!r} and {a!r}")
        self.atoms.append(a)
        tr = _trace.CURRENT
        if tr is not None:
            tr.instant("context", "atom_add", atom=repr(a),
                       persistent=a.persistent)

    def find_related(self, subject: Term, subst: Subst) -> Optional[Atom]:
        """Find the unique atom whose subject matches ``subject``
        syntactically (after evar resolution)."""
        subject = subst.resolve(subject)
        for a in self.atoms:
            if subst.resolve(a.subject) == subject:
                return a
        return None

    def remove(self, a: Atom) -> None:
        self.atoms.remove(a)
        tr = _trace.CURRENT
        if tr is not None:
            tr.instant("context", "atom_consume", atom=repr(a))

    def __iter__(self):
        return iter(self.atoms)

    def __len__(self) -> int:
        return len(self.atoms)
