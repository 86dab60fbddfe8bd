"""Evaluation reporting: the columns of Figure 7.

For each case study this computes the same columns the paper reports:

* **Types used** — salient RefinedC type constructors in the annotations;
* **Rules** — distinct typing rules used / number of rule applications;
* **∃** — automatically instantiated existential quantifiers (evars);
* **⌜φ⌝** — side conditions proved automatically / needing manual help
  (named ``rc::tactics`` solvers or ``rc::lemmas``, per §7's accounting);
* **Impl / Spec / Annot** — lines of C, of function specification, and of
  other annotations (with the paper's breakdown: data-structure
  invariants / loop annotations / other);
* **Pure** — lines of manual mathematical reasoning (lemma statements);
* **Ovh** — (Annot + Pure) / Impl.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from .frontend import VerificationOutcome, verify_file, verify_files
from .lang.parser import parse
from .proofs.manual import pure_line_count

_SPEC_ATTRS = {"parameters", "args", "returns", "ensures", "requires",
               "exists"}
_OTHER_ATTRS = {"tactics", "lemmas", "trusted", "global"}

_SALIENT_TYPES = [
    ("wand<", "wand"), ("rc::size", "padded"), ("atomicbool", "atomic bool"),
    ("array<", "arrays"), ("fn<", "func. ptr."), ("&shr<", "lock"),
    ("optional<", "optional"), ("uninit<", "uninit"),
]


@dataclass
class StudyReport:
    study: str
    verified: bool
    types_used: list[str] = field(default_factory=list)
    rules_distinct: int = 0
    rule_applications: int = 0
    evars_instantiated: int = 0
    side_auto: int = 0
    side_manual: int = 0
    impl_lines: int = 0
    spec_lines: int = 0
    annot_lines: int = 0
    annot_struct: int = 0
    annot_loop: int = 0
    annot_other: int = 0
    pure_lines: int = 0
    # Driver metrics (new columns next to the paper's):
    wall_s: float = 0.0           # checking wall time for the unit
    counts: dict = field(default_factory=dict)   # DriverMetrics.counts()

    @property
    def overhead(self) -> float:
        if self.impl_lines == 0:
            return 0.0
        return (self.annot_lines + self.pure_lines) / self.impl_lines

    def row(self) -> dict:
        return {
            "study": self.study,
            "verified": self.verified,
            "types": ", ".join(self.types_used),
            "rules": f"{self.rules_distinct}/{self.rule_applications}",
            "exists": self.evars_instantiated,
            "side_conditions": f"{self.side_auto}/{self.side_manual}",
            "impl": self.impl_lines,
            "spec": self.spec_lines,
            "annot": (f"{self.annot_lines} ({self.annot_struct}/"
                      f"{self.annot_loop}/{self.annot_other})"),
            "pure": self.pure_lines,
            "ovh": round(self.overhead, 1),
            "time": f"{self.wall_s * 1e3:.0f}ms",
            "cache": (f"{self.counts['clean']}c/{self.counts['dirty']}d"
                      if self.counts.get("clean") or self.counts.get("dirty")
                      else "-"),
        }


def _count_annotations(source: str) -> tuple[int, int, int, int]:
    """(spec, struct, loop, other) annotation counts, paper-style."""
    unit = parse(source)
    spec = struct = loop = other = 0
    for sd in unit.structs:
        struct += len(sd.attrs.items) + len(sd.field_attrs)
    for g in unit.globals:
        other += len(g.attrs.items)
    for fd in unit.functions:
        for name, _args in fd.attrs.items:
            if name in _SPEC_ATTRS:
                spec += 1
            else:
                other += 1
        if fd.body is not None:
            loop += _count_loop_annots(fd.body)
    return spec, struct, loop, other


def _count_loop_annots(stmts) -> int:
    from .lang import cst
    count = 0
    for s in stmts:
        if isinstance(s, cst.SWhile):
            count += (len(s.annots.exists) + len(s.annots.inv_vars)
                      + len(s.annots.constraints))
            count += _count_loop_annots(s.body)
        elif isinstance(s, cst.SIf):
            count += _count_loop_annots(s.then) + _count_loop_annots(s.els)
    return count


def study_report(path, outcome: Optional[VerificationOutcome] = None, *,
                 jobs: int = 1, cache_dir=None,
                 trace: Optional[bool] = None) -> StudyReport:
    """Compute the Figure 7 row for one case-study file."""
    path = Path(path)
    source = path.read_text()
    if outcome is None:
        outcome = verify_file(path, jobs=jobs, cache_dir=cache_dir,
                              trace=trace)
    report = StudyReport(path.stem, outcome.ok)
    report.types_used = [label for needle, label in _SALIENT_TYPES
                         if needle in source]
    rules: set[str] = set()
    for fr in outcome.result.functions.values():
        rules |= fr.stats.rules_used
        report.rule_applications += fr.stats.rule_applications
        report.evars_instantiated += fr.stats.evars_instantiated
        report.side_auto += fr.stats.side_conditions_auto
        report.side_manual += fr.stats.side_conditions_manual
    report.rules_distinct = len(rules)
    report.impl_lines = outcome.typed_program.source_lines.get("total", 0)
    spec, struct, loop, other = _count_annotations(source)
    report.spec_lines = spec
    report.annot_struct = struct
    report.annot_loop = loop
    report.annot_other = other
    report.annot_lines = struct + loop + other
    report.pure_lines = pure_line_count(path.stem)
    if outcome.metrics is not None:
        m = outcome.metrics
        report.wall_s = m.wall_s
        report.counts = m.counts()
    return report


FIGURE7_STUDIES = [
    # (file stem, paper class) — rows of Figure 7 plus the two Figure 1/§6
    # allocators the evaluation builds on.
    ("linked_list", "#1"),
    ("queue", "#1"),
    ("binary_search", "#1"),
    ("threadsafe_alloc", "#2"),
    ("page_alloc", "#2"),
    ("bst_layered", "#3"),
    ("bst_direct", "#3"),
    ("hashmap", "#4"),
    ("mpool", "#5"),
    ("spinlock", "#6"),
    ("barrier", "#6"),
]

EXTRA_STUDIES = [("alloc", "Fig.1"), ("alloc_from_start", "§6"),
                 ("free_list", "Fig.3")]


def casestudies_dir() -> Path:
    return Path(__file__).resolve().parents[2] / "examples" / "casestudies"


def figure7_table(include_extra: bool = True, *, jobs: int = 1,
                  cache_dir=None, trace: Optional[bool] = None
                  ) -> list[StudyReport]:
    """Regenerate the Figure 7 table over all case studies.

    With ``jobs>1`` every (study, function) pair is scheduled on one
    shared process pool; with a ``cache_dir`` functions whose inputs are
    unchanged reuse their cached outcomes (see :mod:`repro.driver`)."""
    base = casestudies_dir()
    studies = FIGURE7_STUDIES + (EXTRA_STUDIES if include_extra else [])
    paths = [base / f"{stem}.c" for stem, _cls in studies]
    outcomes = verify_files(paths, jobs=jobs, cache_dir=cache_dir,
                            trace=trace)
    return [study_report(path, outcomes[path.stem]) for path in paths]


def format_table(rows: list[StudyReport]) -> str:
    header = (f"{'Test':<18} {'Rules':>9} {'∃':>4} {'⌜φ⌝':>8} {'Impl':>5} "
              f"{'Spec':>5} {'Annot':>14} {'Pure':>5} {'Ovh':>5} "
              f"{'Time':>7} {'Cache':>6}  Types")
    lines = [header, "-" * len(header)]
    for r in rows:
        d = r.row()
        mark = "" if r.verified else "  [FAILED]"
        lines.append(
            f"{d['study']:<18} {d['rules']:>9} {d['exists']:>4} "
            f"{d['side_conditions']:>8} {d['impl']:>5} {d['spec']:>5} "
            f"{d['annot']:>14} {d['pure']:>5} {d['ovh']:>5} "
            f"{d['time']:>7} {d['cache']:>6}  {d['types']}{mark}")
    return "\n".join(lines)
