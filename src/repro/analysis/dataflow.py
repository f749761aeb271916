"""Flow-sensitive intra-function dataflow: CFG and await segments.

The per-class rules (R002, R003, R005) read the flow-*insensitive*
summaries in :mod:`repro.analysis.model`: which calls a method makes,
which attributes it hoists into locals.  The async rules added for the
ingestion gateway need more — *order* matters ("was this attribute read
**before** the await and written **after** it?").  This module provides
it, still over nothing but :mod:`ast`:

* :func:`build_cfg` — a basic-block control-flow graph of one function
  body.  Each block carries an ordered stream of :class:`AttrEvent`\\ s:
  ``self`` attribute reads, writes, in-place mutations (directly or
  through hoisted local aliases), and **await points** (``await``
  expressions, ``async for`` iteration, ``async with`` enter/exit).
  Branches, loops (with back edges), ``try``/``except``/``finally``
  (with approximate exceptional edges into handlers) and ``break``/
  ``continue``/``return`` are wired explicitly; nested ``def``/
  ``lambda`` bodies are separate scopes and contribute no events.
* :func:`stale_attr_writes` — the R006 engine: a worklist fixpoint over
  the CFG that reports writes clobbering a value read *before* an
  intervening await.  A re-read after the await refreshes ("validate
  then write" is the blessed pattern), a write consumes pending reads
  ("read-modify-write completed before suspending" is safe), and reads
  guarded by an ``async with <...lock...>`` held across the await are
  exempt.

Everything here is deliberately approximate in the *safe* direction for
each client rule and is calibrated (like the rest of the analyzer)
toward zero false positives on this tree; ``docs/analysis.md`` records
the approximations.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterator, List, Optional, Set, Tuple

from repro.analysis.model import HEAP_FUNCTIONS, MUTATOR_METHODS, _root_and_path

#: Event kinds.
READ = "read"
WRITE = "write"
MUTATE = "mutate"
AWAIT = "await"

#: Receiver-name fragments that make an ``async with`` a lock region.
_LOCK_HINTS = ("lock", "mutex", "semaphore", "sem_", "cond")

#: Scope boundaries: their bodies are separate functions/namespaces.
_SCOPE_NODES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)


def walk_scope(node: ast.AST) -> Iterator[ast.AST]:
    """``ast.walk`` that does not descend into nested scopes.

    The bodies of nested ``def``/``async def``/``lambda``/``class``
    belong to other functions: their reads and awaits must not be
    attributed to the enclosing function's flow.
    """
    stack: List[ast.AST] = [node]
    while stack:
        current = stack.pop()
        yield current
        for child in ast.iter_child_nodes(current):
            if isinstance(child, _SCOPE_NODES):
                continue
            stack.append(child)


@dataclass(frozen=True)
class AttrEvent:
    """One ordered effect inside a basic block."""

    kind: str  # READ | WRITE | MUTATE | AWAIT
    attr: Optional[str]  # None for AWAIT
    line: int
    guarded: bool = False  # inside an async-with lock region


@dataclass
class Block:
    """A basic block: an event stream plus successor indices."""

    index: int
    events: List[AttrEvent] = field(default_factory=list)
    successors: List[int] = field(default_factory=list)


@dataclass
class ControlFlowGraph:
    """Blocks of one function body; ``entry``/``exit`` are block indices."""

    blocks: List[Block]
    entry: int
    exit: int


def _collect_aliases(fn_node: ast.AST) -> Dict[str, Set[str]]:
    """Flow-insensitive local -> self-attribute alias map.

    ``clock = self.clock`` lets a later ``clock._max_ts = ts`` count as
    a mutation of ``self.clock``.  Call results never alias (a call
    returns a new object); two passes resolve one level of re-aliasing.
    """
    aliases: Dict[str, Set[str]] = {}
    for _ in range(2):
        for node in walk_scope(fn_node):
            if not isinstance(node, ast.Assign) or len(node.targets) != 1:
                continue
            target = node.targets[0]
            if not isinstance(target, ast.Name):
                continue
            attrs: Set[str] = set()
            stack: List[ast.AST] = [node.value]
            while stack:
                sub = stack.pop()
                if isinstance(sub, ast.Call):
                    continue
                if isinstance(sub, ast.Attribute) and isinstance(
                    sub.value, ast.Name
                ):
                    if sub.value.id == "self":
                        attrs.add(sub.attr)
                elif isinstance(sub, ast.Name):
                    attrs.update(aliases.get(sub.id, ()))
                stack.extend(ast.iter_child_nodes(sub))
            if attrs:
                aliases[target.id] = attrs
    return aliases


def _is_lockish(expr: ast.AST) -> bool:
    """True when an ``async with`` context expression looks like a lock."""
    for node in ast.walk(expr):
        name: Optional[str] = None
        if isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.Name):
            name = node.id
        if name is not None and any(h in name.lower() for h in _LOCK_HINTS):
            return True
    return False


class _CFGBuilder:
    """One pass over a function body building blocks and edges."""

    def __init__(self, fn_node: ast.AST):
        self.aliases = _collect_aliases(fn_node)
        self.blocks: List[Block] = []
        self.entry = self._new_block()
        self.exit = self._new_block()
        #: (loop head index, loop exit index) for break/continue.
        self._loops: List[Tuple[int, int]] = []
        #: active handler-entry indices, innermost try last.
        self._handlers: List[List[int]] = []
        self._guard_depth = 0

    # -- graph plumbing ---------------------------------------------------------

    def _new_block(self) -> int:
        self.blocks.append(Block(index=len(self.blocks)))
        return len(self.blocks) - 1

    def _edge(self, src: int, dst: int) -> None:
        if dst not in self.blocks[src].successors:
            self.blocks[src].successors.append(dst)

    def _emit(self, block: int, kind: str, attr: Optional[str], line: int) -> None:
        self.blocks[block].events.append(
            AttrEvent(kind, attr, line, guarded=self._guard_depth > 0)
        )

    # -- expression events ------------------------------------------------------

    def _receiver_attrs(self, expr: ast.AST) -> Set[str]:
        """Self-attributes a receiver expression denotes (attr or alias)."""
        root, path = _root_and_path(expr)
        if root == "self" and path:
            return {path[0]}
        if root is not None:
            return set(self.aliases.get(root, set()))
        return set()

    def _expr(self, block: int, node: Optional[ast.AST]) -> None:
        """Append *node*'s events in approximate evaluation order."""
        if node is None:
            return
        if isinstance(node, ast.Await):
            self._expr(block, node.value)
            self._emit(block, AWAIT, None, node.lineno)
            return
        if isinstance(node, ast.Lambda):
            return  # deferred body: separate scope
        if isinstance(node, ast.Call):
            self._call(block, node)
            return
        if isinstance(node, ast.Attribute):
            if (
                isinstance(node.value, ast.Name)
                and node.value.id == "self"
                and isinstance(node.ctx, ast.Load)
            ):
                self._emit(block, READ, node.attr, node.lineno)
                return
            self._expr(block, node.value)
            return
        if isinstance(node, ast.Name):
            return  # alias *uses* re-read nothing; the read happened at bind
        for child in ast.iter_child_nodes(node):
            if isinstance(child, _SCOPE_NODES):
                continue
            if isinstance(child, (ast.expr, ast.comprehension, ast.keyword)):
                self._expr(block, child)
            elif isinstance(child, ast.AST) and not isinstance(
                child, (ast.expr_context, ast.operator, ast.boolop, ast.cmpop, ast.unaryop)
            ):
                self._expr(block, child)

    def _call(self, block: int, node: ast.Call) -> None:
        func = node.func
        deferred_mutate: Set[str] = set()
        if isinstance(func, ast.Attribute):
            receivers = self._receiver_attrs(func.value)
            if receivers and func.attr in MUTATOR_METHODS:
                deferred_mutate = receivers
            else:
                self._expr(block, func.value)
        elif not isinstance(func, ast.Name):
            self._expr(block, func)
        for arg in node.args:
            self._expr(block, arg)
        for kw in node.keywords:
            self._expr(block, kw.value)
        if isinstance(func, ast.Name) and func.id in HEAP_FUNCTIONS and node.args:
            deferred_mutate |= self._receiver_attrs(node.args[0])
        for attr in sorted(deferred_mutate):
            self._emit(block, MUTATE, attr, node.lineno)

    def _target(self, block: int, target: ast.AST, line: int) -> None:
        if isinstance(target, ast.Name):
            return
        if isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._target(block, element, line)
            return
        if isinstance(target, ast.Starred):
            self._target(block, target.value, line)
            return
        if isinstance(target, ast.Subscript):
            self._expr(block, target.slice)
        root, path = _root_and_path(target)
        if root == "self" and len(path) == 1 and isinstance(target, ast.Attribute):
            self._emit(block, WRITE, path[0], line)
        elif root == "self" and path:
            self._emit(block, MUTATE, path[0], line)
        elif root is not None:
            for attr in sorted(self.aliases.get(root, set())):
                self._emit(block, MUTATE, attr, line)

    # -- statements -------------------------------------------------------------

    def build(self, body: List[ast.stmt]) -> ControlFlowGraph:
        end = self._stmts(body, self.entry)
        self._edge(end, self.exit)
        return ControlFlowGraph(blocks=self.blocks, entry=self.entry, exit=self.exit)

    def _stmts(self, body: List[ast.stmt], current: int) -> int:
        for stmt in body:
            current = self._stmt(stmt, current)
        return current

    def _abrupt(self, current: int, targets: List[int]) -> int:
        """Wire an abrupt jump and continue building in a dead block."""
        for target in targets:
            self._edge(current, target)
        return self._new_block()

    def _stmt(self, node: ast.stmt, current: int) -> int:
        if isinstance(node, _SCOPE_NODES):
            return current
        if isinstance(node, ast.Expr):
            self._expr(current, node.value)
            return current
        if isinstance(node, ast.Assign):
            self._expr(current, node.value)
            for target in node.targets:
                self._target(current, target, node.lineno)
            return current
        if isinstance(node, ast.AnnAssign):
            self._expr(current, node.value)
            self._target(current, node.target, node.lineno)
            return current
        if isinstance(node, ast.AugAssign):
            # Load-op-store: the target is read, then the value, then
            # the store — `self.n += await f()` is a genuine lost update.
            if isinstance(node.target, ast.Attribute) and isinstance(
                node.target.value, ast.Name
            ) and node.target.value.id == "self":
                self._emit(current, READ, node.target.attr, node.lineno)
            self._expr(current, node.value)
            self._target(current, node.target, node.lineno)
            return current
        if isinstance(node, ast.Return):
            self._expr(current, node.value)
            return self._abrupt(current, [self.exit])
        if isinstance(node, ast.Raise):
            self._expr(current, node.exc)
            targets = [self.exit]
            if self._handlers:
                targets = list(self._handlers[-1]) + targets
            return self._abrupt(current, targets)
        if isinstance(node, ast.Break):
            if self._loops:
                return self._abrupt(current, [self._loops[-1][1]])
            return current
        if isinstance(node, ast.Continue):
            if self._loops:
                return self._abrupt(current, [self._loops[-1][0]])
            return current
        if isinstance(node, ast.Delete):
            for target in node.targets:
                if isinstance(target, ast.Subscript):
                    self._expr(current, target.slice)
                    for attr in sorted(self._receiver_attrs(target.value)):
                        self._emit(current, MUTATE, attr, node.lineno)
            return current
        if isinstance(node, ast.Assert):
            self._expr(current, node.test)
            self._expr(current, node.msg)
            return current
        if isinstance(node, ast.If):
            return self._if(node, current)
        if isinstance(node, (ast.While,)):
            return self._while(node, current)
        if isinstance(node, (ast.For, ast.AsyncFor)):
            return self._for(node, current)
        if isinstance(node, (ast.With, ast.AsyncWith)):
            return self._with(node, current)
        if isinstance(node, ast.Try):
            return self._try(node, current)
        trystar = getattr(ast, "TryStar", None)
        if trystar is not None and isinstance(node, trystar):
            return self._try(node, current)  # same shape as Try
        # Fallback (Match, future nodes): sequential over-approximation.
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.expr):
                self._expr(current, child)
            elif isinstance(child, ast.stmt):
                current = self._stmt(child, current)
        return current

    def _if(self, node: ast.If, current: int) -> int:
        self._expr(current, node.test)
        join = self._new_block()
        then_entry = self._new_block()
        self._edge(current, then_entry)
        self._edge(self._stmts(node.body, then_entry), join)
        if node.orelse:
            else_entry = self._new_block()
            self._edge(current, else_entry)
            self._edge(self._stmts(node.orelse, else_entry), join)
        else:
            self._edge(current, join)
        return join

    def _while(self, node: ast.While, current: int) -> int:
        head = self._new_block()
        self._edge(current, head)
        self._expr(head, node.test)
        exit_block = self._new_block()
        self._edge(head, exit_block)
        body_entry = self._new_block()
        self._edge(head, body_entry)
        self._loops.append((head, exit_block))
        self._edge(self._stmts(node.body, body_entry), head)
        self._loops.pop()
        if node.orelse:
            else_entry = self._new_block()
            self._edge(head, else_entry)
            self._edge(self._stmts(node.orelse, else_entry), exit_block)
        return exit_block

    def _for(self, node: ast.stmt, current: int) -> int:
        iter_expr = node.iter  # type: ignore[attr-defined]
        self._expr(current, iter_expr)
        head = self._new_block()
        self._edge(current, head)
        if isinstance(node, ast.AsyncFor):
            # Every iteration resumes through ``__anext__``.
            self._emit(head, AWAIT, None, node.lineno)
        self._target(head, node.target, node.lineno)  # type: ignore[attr-defined]
        exit_block = self._new_block()
        self._edge(head, exit_block)
        body_entry = self._new_block()
        self._edge(head, body_entry)
        self._loops.append((head, exit_block))
        self._edge(self._stmts(node.body, body_entry), head)  # type: ignore[attr-defined]
        self._loops.pop()
        orelse = node.orelse  # type: ignore[attr-defined]
        if orelse:
            else_entry = self._new_block()
            self._edge(head, else_entry)
            self._edge(self._stmts(orelse, else_entry), exit_block)
        return exit_block

    def _with(self, node: ast.stmt, current: int) -> int:
        is_async = isinstance(node, ast.AsyncWith)
        lockish = False
        for item in node.items:  # type: ignore[attr-defined]
            self._expr(current, item.context_expr)
            if is_async:
                lockish = lockish or _is_lockish(item.context_expr)
                # ``__aenter__`` may suspend; reads made before entering
                # the region go stale here, not inside it.
                self._emit(current, AWAIT, None, node.lineno)
        if is_async and lockish:
            self._guard_depth += 1
        current = self._stmts(node.body, current)  # type: ignore[attr-defined]
        if is_async and lockish:
            self._guard_depth -= 1
        if is_async:
            # ``__aexit__`` is an await point *after* the lock releases.
            end_line = getattr(node, "end_lineno", None) or node.lineno
            self._emit(current, AWAIT, None, end_line)
        return current

    def _try(self, node: ast.stmt, current: int) -> int:
        handlers = node.handlers  # type: ignore[attr-defined]
        handler_entries = [self._new_block() for _ in handlers]
        if handler_entries:
            self._handlers.append(handler_entries)
        body_current = current
        for stmt in node.body:  # type: ignore[attr-defined]
            for entry in handler_entries:
                self._edge(body_current, entry)
            body_current = self._stmt(stmt, body_current)
            for entry in handler_entries:
                self._edge(body_current, entry)
        if handler_entries:
            self._handlers.pop()
        body_current = self._stmts(node.orelse, body_current)  # type: ignore[attr-defined]
        ends = [body_current]
        for handler, entry in zip(handlers, handler_entries):
            ends.append(self._stmts(handler.body, entry))
        finalbody = node.finalbody  # type: ignore[attr-defined]
        if finalbody:
            final_entry = self._new_block()
            for end in ends:
                self._edge(end, final_entry)
            return self._stmts(finalbody, final_entry)
        join = self._new_block()
        for end in ends:
            self._edge(end, join)
        return join


def build_cfg(fn_node: ast.AST) -> ControlFlowGraph:
    """CFG of one ``FunctionDef``/``AsyncFunctionDef`` body."""
    builder = _CFGBuilder(fn_node)
    return builder.build(list(getattr(fn_node, "body", [])))


# -- R006 engine: stale reads across awaits --------------------------------------


@dataclass(frozen=True, order=True)
class StaleWrite:
    """A write clobbering a value read before an intervening await."""

    attr: str
    read_line: int
    await_line: int
    write_line: int


#: Abstract value states: ('fresh', read line, guarded) before any await,
#: ('stale', read line, await line) once one suspends past it.
_State = Dict[str, FrozenSet[Tuple[str, int, int, bool]]]


def _transfer(
    state: _State, events: List[AttrEvent], out: Set[StaleWrite]
) -> _State:
    new: _State = {attr: entries for attr, entries in state.items()}
    for event in events:
        if event.kind == READ and event.attr is not None:
            # A (re-)read refreshes: validate-after-await is the fix.
            new[event.attr] = frozenset({("fresh", event.line, 0, event.guarded)})
        elif event.kind in (WRITE, MUTATE) and event.attr is not None:
            for tag, read_line, await_line, _guarded in new.get(
                event.attr, frozenset()
            ):
                if tag == "stale":
                    out.add(
                        StaleWrite(event.attr, read_line, await_line, event.line)
                    )
            # The write consumes pending reads: RMW completed before the
            # next suspension is atomic on a single loop.
            new[event.attr] = frozenset()
        elif event.kind == AWAIT:
            for attr, entries in list(new.items()):
                moved = set()
                for tag, read_line, await_line, guarded in entries:
                    if tag == "fresh":
                        if guarded and event.guarded:
                            # Read and suspension both under the lock.
                            moved.add((tag, read_line, await_line, guarded))
                        else:
                            moved.add(("stale", read_line, event.line, False))
                    else:
                        moved.add((tag, read_line, await_line, guarded))
                new[attr] = frozenset(moved)
    return new


def _merge(into: Optional[_State], other: _State) -> Tuple[_State, bool]:
    if into is None:
        return {attr: entries for attr, entries in other.items()}, True
    changed = False
    for attr, entries in other.items():
        merged = into.get(attr, frozenset()) | entries
        if merged != into.get(attr, frozenset()):
            into[attr] = merged
            changed = True
    return into, changed


def stale_attr_writes(fn_node: ast.AST) -> List[StaleWrite]:
    """R006: writes to ``self`` state whose basis predates an await.

    Reports every ``(attr, read, await, write)`` where some CFG path
    reads ``self.attr``, suspends at an await, then writes or mutates
    ``self.attr`` — the interleaving window in which another task may
    have changed the attribute, making the write a lost update (or the
    earlier read a stale guard).  Reads and suspensions both inside an
    ``async with <...lock...>`` region are exempt.
    """
    cfg = build_cfg(fn_node)
    violations: Set[StaleWrite] = set()
    in_states: Dict[int, Optional[_State]] = {
        block.index: None for block in cfg.blocks
    }
    in_states[cfg.entry] = {}
    worklist: List[int] = [cfg.entry]
    while worklist:
        index = worklist.pop(0)
        state = in_states[index]
        if state is None:
            continue
        out_state = _transfer(dict(state), cfg.blocks[index].events, violations)
        for successor in cfg.blocks[index].successors:
            merged, changed = _merge(in_states[successor], out_state)
            in_states[successor] = merged
            if changed and successor not in worklist:
                worklist.append(successor)
    return sorted(violations)
