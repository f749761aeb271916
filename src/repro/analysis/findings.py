"""Findings: what a rule reports, and how it is rendered.

A :class:`Finding` is one violated invariant, anchored to a file and
line so editors and CI annotations can jump to it.  Findings are value
objects — rules yield them, the analyzer filters suppressed ones, the
CLI renders the survivors as text or JSON.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

#: A suppression comment that silenced nothing: ``(path, line, rule)``.
DeadSuppression = Tuple[str, int, str]


class Severity(enum.Enum):
    """How bad a finding is; ERROR findings fail the build."""

    ERROR = "error"
    WARNING = "warning"


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation, anchored to ``path:line``.

    Attributes
    ----------
    path:
        File the finding lives in (as given to the analyzer).
    line:
        1-indexed line the finding anchors to.
    rule:
        Rule identifier (``R002`` … ``R008``).
    symbol:
        Dotted name of the offending symbol (``Class.attr`` or
        ``Class.method``) — what a reader greps for.
    message:
        One-sentence statement of the violated contract.
    severity:
        :class:`Severity`; the CLI exits non-zero when any ERROR
        finding survives suppression filtering.
    """

    path: str
    line: int
    rule: str
    symbol: str
    message: str
    severity: Severity = Severity.ERROR

    def as_dict(self) -> Dict[str, object]:
        return {
            "rule": self.rule,
            "severity": self.severity.value,
            "path": self.path,
            "line": self.line,
            "symbol": self.symbol,
            "message": self.message,
        }

    def render(self) -> str:
        return (
            f"{self.path}:{self.line}: {self.rule} "
            f"[{self.severity.value}] {self.symbol}: {self.message}"
        )


def render_text(
    findings: List[Finding],
    checked: int,
    suppressed: int,
    dead: Optional[Sequence[DeadSuppression]] = None,
) -> str:
    """Human-readable report (the committed baseline uses this format).

    Dead suppressions render as warning lines above the summary: they
    never fail the run, but leaving them in-tree means a future real
    finding at that site would be silently masked.
    """
    lines = [finding.render() for finding in sorted(findings)]
    for path, line, rule in sorted(dead or ()):
        lines.append(
            f"{path}:{line}: {rule} [warning] suppression matches no "
            f"finding — dead comment, remove it"
        )
    noun = "finding" if len(findings) == 1 else "findings"
    summary = (
        f"{len(findings)} {noun} ({suppressed} suppressed) "
        f"in {checked} files"
    )
    if dead:
        summary += f", {len(dead)} dead suppression" + (
            "s" if len(dead) != 1 else ""
        )
    lines.append(summary)
    return "\n".join(lines)


def render_json(
    findings: List[Finding],
    checked: int,
    suppressed: int,
    dead: Optional[Sequence[DeadSuppression]] = None,
) -> str:
    """Machine-readable report for the CI gate."""
    return json.dumps(
        {
            "version": 1,
            "checked_files": checked,
            "suppressed": suppressed,
            "dead_suppressions": [
                {"path": path, "line": line, "rule": rule}
                for path, line, rule in sorted(dead or ())
            ],
            "findings": [finding.as_dict() for finding in sorted(findings)],
        },
        indent=2,
        sort_keys=True,
    )
