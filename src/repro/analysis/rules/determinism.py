"""R003 — output determinism.

The recovery layer verifies exactly-once delivery by replaying the WAL
and comparing emissions, position by position, against the delivery
log.  That comparison — and the paper's out-of-order-equals-in-order
equivalence check — assumes the engine emits matches in a reproducible
order.  Iterating a ``set`` anywhere on an output-producing path
breaks that: Python's set order depends on insertion history and hash
seeding, so two runs over identical input can emit identical matches
in different orders and fail verification.

The rule walks functions reachable from output-producing roots
(``feed``/``feed_batch``/``feed_colbatch``/``feed_many``/``close``/
``run``/``_flush``/``_run``/``_process_event``/``_on_punctuation``/
``_deliver``/``_emit`` methods of any analyzed class) and flags ``for``-loops and comprehensions whose
iterable is set-typed: a set literal/constructor/comprehension, a
``self`` attribute declared or annotated as ``set``/``frozenset``
(including via a local alias), or a set-producing binary operation.
Wrapping the iterable in ``sorted(...)`` fixes the finding — that is
the repair the engines use (e.g. revoked-key emission).

Plain ``dict`` iteration is *not* flagged: insertion order is a
language guarantee since Python 3.7, and the engines' dicts are keyed
by arrival order, which is exactly the reproducible order replay needs.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Set

from repro.analysis.callgraph import Reachability
from repro.analysis.findings import Finding
from repro.analysis.model import ClassInfo, FunctionInfo, Project
from repro.analysis.rules import Rule

_ROOT_METHODS = frozenset(
    {
        "feed",
        "feed_batch",
        "feed_colbatch",
        "feed_many",
        "close",
        "run",
        "flush",
        "_flush",
        "_run",
        "_process_event",
        "_on_punctuation",
        "_deliver",
        "_emit",
    }
)


def _set_typed_attrs(project: Project, fn: FunctionInfo) -> Set[str]:
    attrs: Set[str] = set()
    if fn.class_name is None:
        return attrs
    for cls in project.class_index.get(fn.class_name, ()):
        if fn.name not in cls.methods or cls.methods[fn.name] is not fn:
            continue
        for klass in project.mro(cls):
            attrs |= klass.set_typed_attrs
    return attrs


def _expr_is_set(node: ast.AST, set_attrs: Set[str], aliases: Set[str]) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        if node.func.id in ("set", "frozenset"):
            return True
    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
        if node.value.id == "self" and node.attr in set_attrs:
            return True
    if isinstance(node, ast.Name) and node.id in aliases:
        return True
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
    ):
        return _expr_is_set(node.left, set_attrs, aliases) or _expr_is_set(
            node.right, set_attrs, aliases
        )
    return False


def _set_aliases(fn: FunctionInfo, set_attrs: Set[str]) -> Set[str]:
    """Locals bound (flow-insensitively) to a set-typed expression."""
    aliases: Set[str] = set()
    # Two passes so ``a = self._keys; b = a`` resolves.
    for _ in range(2):
        for node in ast.walk(fn.node):
            if not isinstance(node, ast.Assign) or len(node.targets) != 1:
                continue
            target = node.targets[0]
            if not isinstance(target, ast.Name):
                continue
            if _expr_is_set(node.value, set_attrs, aliases):
                aliases.add(target.id)
    return aliases


def _iterables(fn: FunctionInfo) -> List[ast.expr]:
    """Every expression the function iterates (for-loops, comprehensions)."""
    exprs: List[ast.expr] = []
    for node in ast.walk(fn.node):
        if isinstance(node, ast.For):
            exprs.append(node.iter)
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
            exprs.extend(gen.iter for gen in node.generators)
    return exprs


class Determinism(Rule):
    rule_id = "R003"
    summary = (
        "output-producing paths must not iterate sets; wrap the "
        "iterable in sorted()"
    )

    def check(self, project: Project) -> Iterator[Finding]:
        roots: List[FunctionInfo] = []
        for module in project.modules:
            for cls in module.classes.values():
                for name in _ROOT_METHODS:
                    fn = cls.methods.get(name)
                    if fn is not None and not fn.is_stub:
                        roots.append(fn)
        reach = Reachability(project, roots)
        seen = set()
        for fn in reach.functions():
            set_attrs = _set_typed_attrs(project, fn)
            aliases = _set_aliases(fn, set_attrs)
            for expr in _iterables(fn):
                if not _expr_is_set(expr, set_attrs, aliases):
                    continue
                key = (fn.module.path, expr.lineno)
                if key in seen:
                    continue
                seen.add(key)
                yield Finding(
                    path=fn.module.path,
                    line=expr.lineno,
                    rule=self.rule_id,
                    symbol=fn.qualname,
                    message=(
                        "iterates a set on an output-producing path "
                        f"({reach.describe_chain(fn.qualname)}); set order "
                        "is not reproducible across runs — iterate "
                        "sorted(...) instead"
                    ),
                )
