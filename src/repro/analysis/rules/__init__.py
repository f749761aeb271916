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

from typing import Callable, FrozenSet, Iterator, List, NamedTuple, Optional, Set, Tuple

from repro.analysis.callgraph import Reachability
from repro.analysis.findings import Finding
from repro.analysis.model import CallSite, ModuleInfo, Project


class Rule:
    """Base class for analysis rules."""

    rule_id: str = ""
    summary: str = ""

    def check(self, project: Project) -> Iterator[Finding]:
        raise NotImplementedError


class Vocabulary(NamedTuple):
    """The calls a path rule (R002, R007) forbids in what it reaches."""

    #: fully-resolved dotted names
    exact: FrozenSet[str]
    #: dotted prefixes that are wholesale forbidden
    prefixes: Tuple[str, ...]
    #: method names matched on the name alone, at these call-site kinds
    methods: FrozenSet[str]
    method_kinds: Tuple[str, ...]
    #: receiver label when a matched method's receiver is unknown
    unknown_receiver: str


def _resolve_dotted(module: ModuleInfo, call: CallSite) -> Optional[str]:
    """Fully-qualified dotted name of a call, or None if not name-like."""
    if call.kind == "name":
        return module.imports.get(call.target, call.target)
    if call.kind == "dotted" and call.dotted:
        root, _, rest = call.dotted.partition(".")
        resolved_root = module.imports.get(root, root)
        return f"{resolved_root}.{rest}" if rest else resolved_root
    return None


def _label(vocabulary: Vocabulary, module: ModuleInfo, call: CallSite) -> Optional[str]:
    dotted = _resolve_dotted(module, call)
    if dotted is not None and (
        dotted in vocabulary.exact or dotted.startswith(vocabulary.prefixes)
    ):
        return dotted
    if call.target in vocabulary.methods and call.kind in vocabulary.method_kinds:
        receiver = call.receiver_attr or call.receiver_type or vocabulary.unknown_receiver
        return f"{receiver}.{call.target}"
    return None


def vocabulary_findings(
    rule: Rule,
    reach: Reachability,
    vocabulary: Vocabulary,
    message: Callable[[str, str], str],
) -> Iterator[Finding]:
    """One finding per distinct ``(file, line, label)`` call that *reach*
    contains and *vocabulary* names; ``message(label, chain)`` words it."""
    seen: Set[Tuple[str, int, str]] = set()
    for fn in reach.functions():
        for call in fn.calls:
            label = _label(vocabulary, fn.module, call)
            if label is None or (fn.module.path, call.line, label) in seen:
                continue
            seen.add((fn.module.path, call.line, label))
            yield Finding(
                path=fn.module.path,
                line=call.line,
                rule=rule.rule_id,
                symbol=fn.qualname,
                message=message(label, reach.describe_chain(fn.qualname)),
            )


def all_rules() -> List[Rule]:
    """Fresh instances of every registered rule, id-ordered."""
    from repro.analysis.rules.hot_path_purity import HotPathPurity
    from repro.analysis.rules.determinism import Determinism
    from repro.analysis.rules.purge_safety import PurgeSafety
    from repro.analysis.rules.await_atomicity import AwaitAtomicity
    from repro.analysis.rules.blocking_async import BlockingInCoroutine
    from repro.analysis.rules.task_hygiene import TaskHygiene

    rules: List[Rule] = [
        HotPathPurity(),
        Determinism(),
        PurgeSafety(),
        AwaitAtomicity(),
        BlockingInCoroutine(),
        TaskHygiene(),
    ]
    return sorted(rules, key=lambda rule: rule.rule_id)
