"""Derivation trees: the proof objects produced by Lithium search.

In the paper, Lithium runs inside Coq and the "proof object" is a genuine
Coq term checked by the Coq kernel.  Our foundational substitute (see
DESIGN.md) is an explicit *derivation tree*: every step of proof search is
recorded — which rule was applied to which judgment, which context atom was
consumed for which goal atom, which side condition was discharged by which
solver under which hypotheses, which evar was instantiated with what.

The independent checker in :mod:`repro.proofs.certcheck` re-validates a
derivation without trusting the search engine, which keeps the engine out
of the TCB exactly as in the paper ("the Lithium interpreter ... need not
be trusted since it generates proofs", §3).

Leaves keep the hash-consed :class:`~repro.pure.terms.Term` objects search
worked with, not their ``repr``: a ``side_condition`` is labelled with its
goal and carries ``hypotheses``, the tuple of resolved Γ facts the solver
was given; ``side_condition_deferred``, ``assume``, ``forall_intro`` and
``exists_intro`` are labelled with their term.  Rule and atom-match nodes
are labelled with the rule name and the matched subject's ``repr``.
Terms re-intern on unpickling, so a derivation that crosses the pool
boundary is read back as the same terms.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterator

from ..pure.terms import Term


@dataclass
class DNode:
    """A node of the derivation tree."""

    kind: str                      # e.g. "rule", "side_condition", "atom_match"
    label: str | Term = ""
    detail: dict[str, Any] = field(default_factory=dict)
    children: list["DNode"] = field(default_factory=list)

    def walk(self) -> Iterator["DNode"]:
        yield self
        for c in self.children:
            yield from c.walk()

    def count(self, kind: str) -> int:
        return sum(1 for n in self.walk() if n.kind == kind)

    def pretty(self, indent: int = 0) -> str:
        pad = "  " * indent
        head = f"{pad}{self.kind}" + (f": {self.label}" if self.label else "")
        lines = [head]
        for c in self.children:
            lines.append(c.pretty(indent + 1))
        return "\n".join(lines)


class DerivationBuilder:
    """Builds the derivation tree as search progresses (no backtracking, so
    the tree only ever grows)."""

    def __init__(self) -> None:
        self.root = DNode("proof")
        self._stack: list[DNode] = [self.root]

    def leaf(self, kind: str, label: str | Term = "", **detail: Any) -> DNode:
        node = DNode(kind, label, detail)
        self._stack[-1].children.append(node)
        return node

    def push(self, kind: str, label: str | Term = "", **detail: Any) -> DNode:
        node = self.leaf(kind, label, **detail)
        self._stack.append(node)
        return node

    def pop(self) -> None:
        if len(self._stack) == 1:
            raise RuntimeError("derivation stack underflow")
        self._stack.pop()
