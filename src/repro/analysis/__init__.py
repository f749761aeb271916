"""repro.analysis — AST-based invariant checker for the engine contracts.

The paper's correctness claims (out-of-order results observably
identical to in-order ones; purge never drops live state) plus the
repo's operational contracts (exactly-once replay, a responsive event
loop) are enforced mechanically by six rules over the parsed source
tree — per-class pattern rules (R002, R003, R005) plus flow-sensitive
and async rules (R006–R008) built on the CFG layer in
:mod:`repro.analysis.dataflow`.  Snapshot/restore completeness is
checked by running the round trip (``tests/core/test_snapshot.py``),
not here.  See ``docs/analysis.md`` for the rule catalogue and
suppression syntax.

Programmatic entry point::

    from repro.analysis import run_analysis
    report = run_analysis(["src/repro"])
    assert not report.findings

Command line::

    python -m repro.analysis [--format text|json] [paths...]
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.findings import (
    DeadSuppression,
    Finding,
    Severity,
    render_json,
    render_text,
)
from repro.analysis.model import Project, build_project
from repro.analysis.rules import Rule, all_rules

__all__ = [
    "AnalysisReport",
    "DeadSuppression",
    "Finding",
    "Severity",
    "Rule",
    "all_rules",
    "build_project",
    "run_analysis",
    "render_text",
    "render_json",
]


@dataclass
class AnalysisReport:
    """Outcome of one analysis run."""

    findings: List[Finding]
    checked_files: int
    suppressed: int
    parse_errors: List[Tuple[str, str]] = field(default_factory=list)
    #: suppression comments (path, comment line, rule) that silenced
    #: nothing this run — warnings, not failures.
    dead_suppressions: List[DeadSuppression] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when nothing failed: no findings, no unparsable files.

        Dead suppressions are warnings and do not flip this — the
        burn-down is enforced separately by the tree-clean test.
        """
        return not self.findings and not self.parse_errors

    def render(self, fmt: str = "text") -> str:
        if fmt == "json":
            return render_json(
                self.findings,
                self.checked_files,
                self.suppressed,
                self.dead_suppressions,
            )
        return render_text(
            self.findings,
            self.checked_files,
            self.suppressed,
            self.dead_suppressions,
        )


def run_analysis(
    paths: Sequence[str],
    rules: Optional[Sequence[Rule]] = None,
) -> AnalysisReport:
    """Run *rules* (default: all registered) over the tree at *paths*."""
    project = build_project(paths)
    active = list(rules) if rules is not None else all_rules()
    active_ids = {rule.rule_id for rule in active}
    module_by_path: Dict[str, object] = {
        module.path: module for module in project.modules
    }
    kept: List[Finding] = []
    suppressed = 0
    #: (path, comment line, rule) credited with at least one finding.
    used: set = set()
    raw = sorted(
        {finding for rule in active for finding in rule.check(project)}
    )
    for finding in raw:
        module = module_by_path.get(finding.path)
        if module is not None and module.is_suppressed(finding.line, finding.rule):  # type: ignore[attr-defined]
            suppressed += 1
            for decl_line in module.matching_decl_lines(  # type: ignore[attr-defined]
                finding.line, finding.rule
            ):
                used.add((finding.path, decl_line, finding.rule))
        else:
            kept.append(finding)
    dead: List[DeadSuppression] = []
    for module in project.modules:
        for decl in module.suppress_decls:
            for rule_id in sorted(decl.rules):
                if rule_id not in active_ids:
                    continue  # only judge rules that actually ran
                if (module.path, decl.line, rule_id) not in used:
                    dead.append((module.path, decl.line, rule_id))
    return AnalysisReport(
        findings=kept,
        checked_files=len(project.modules),
        suppressed=suppressed,
        parse_errors=list(project.parse_errors),
        dead_suppressions=sorted(dead),
    )
