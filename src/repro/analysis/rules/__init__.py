"""Rule framework and registry.

A rule is a class with an ``rule_id``, a one-line ``summary``, and a
``check(project)`` generator yielding
:class:`~repro.analysis.findings.Finding` objects.  Rules see the whole
:class:`~repro.analysis.model.Project` so they can reason across
modules (inheritance, call graphs); they must not read files or mutate
the model.

Adding a rule: subclass :class:`Rule` in a new module under
``repro/analysis/rules/``, give it the next free ``R0xx`` id, and list
it in :data:`ALL_RULES` below.  ``docs/analysis.md`` documents the
conventions a rule should follow (anchor findings at the declaration
the developer must edit, name the attribute/method in the message).
"""

from __future__ import annotations

from typing import Iterator, List

from repro.analysis.findings import Finding
from repro.analysis.model import Project


class Rule:
    """Base class for analysis rules."""

    rule_id: str = ""
    summary: str = ""

    def check(self, project: Project) -> Iterator[Finding]:
        raise NotImplementedError


def all_rules() -> List[Rule]:
    """Fresh instances of every registered rule, id-ordered."""
    from repro.analysis.rules.snapshot_completeness import SnapshotCompleteness
    from repro.analysis.rules.hot_path_purity import HotPathPurity
    from repro.analysis.rules.determinism import Determinism
    from repro.analysis.rules.purge_safety import PurgeSafety
    from repro.analysis.rules.await_atomicity import AwaitAtomicity
    from repro.analysis.rules.blocking_async import BlockingInCoroutine
    from repro.analysis.rules.task_hygiene import TaskHygiene
    from repro.analysis.rules.snapshot_dataflow import SnapshotDataflow

    rules: List[Rule] = [
        SnapshotCompleteness(),
        HotPathPurity(),
        Determinism(),
        PurgeSafety(),
        AwaitAtomicity(),
        BlockingInCoroutine(),
        TaskHygiene(),
        SnapshotDataflow(),
    ]
    return sorted(rules, key=lambda rule: rule.rule_id)
