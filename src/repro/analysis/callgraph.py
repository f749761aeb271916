"""Reachability over an approximate, type-assisted call graph.

Rules R002 (hot-path purity) and R003 (determinism) are *path*
properties: "nothing reachable from ``feed`` reads the wall clock",
"no output-producing path iterates a set".  This module turns the
per-function :class:`~repro.analysis.model.CallSite` summaries into
edges and walks them breadth-first, remembering one predecessor per
function so findings can print the offending call chain.

Edge resolution, in decreasing precision:

* ``self.m(...)`` from a method of class C — resolves through C's MRO
  *and* through analyzed subclasses of C (a base-class hot path calls
  overridden hooks: ``Engine.feed`` → ``OutOfOrderEngine._run``).
* ``self.attr.m(...)`` — when ``attr``'s class is known (constructor
  assignment in ``__init__``), resolve ``m`` in that class's MRO and
  subclasses.
* ``local.m(...)`` with a typed local (``x = ClassName(...)``) —
  resolve in ``ClassName``.
* ``fn(...)`` — module-level functions of the same module, then any
  analyzed module function of that name; bare names passed as call
  arguments (callback registration) are treated as potential calls.

Unresolvable receivers simply contribute no edge — the graph is an
under-approximation there, which the rules accept: the alternative
(matching every same-named method anywhere) drowned real findings in
cross-class noise during calibration.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.analysis.model import ClassInfo, FunctionInfo, Project


def _method_candidates(
    project: Project, cls: ClassInfo, name: str
) -> List[FunctionInfo]:
    """Definitions of *name* visible from *cls*: MRO hit plus overrides."""
    found: List[FunctionInfo] = []
    resolved = project.resolve_method(cls, name)
    if resolved is not None:
        found.append(resolved)
    for sub in project.subclasses(cls):
        if name in sub.methods:
            found.append(sub.methods[name])
    return found


def _classes_declaring_attr(
    project: Project, cls: ClassInfo, attr: str
) -> List[ClassInfo]:
    """Classes whose ``__init__`` typed ``self.<attr>`` — cls's MRO first."""
    hits: List[ClassInfo] = []
    for klass in project.mro(cls):
        if attr in klass.attr_types:
            hits.append(klass)
    return hits


def resolve_call_targets(
    project: Project,
    fn: FunctionInfo,
    include_name_refs: bool = True,
) -> List[Tuple[FunctionInfo, int]]:
    """Every analyzed function *fn* may call, with the call line.

    ``include_name_refs=False`` drops the callback-pattern edges (bare
    function names passed as arguments).  Async-context propagation uses
    that: a callable *handed to* ``run_in_executor``/``Thread(target=)``
    runs off the event loop, so treating argument references as calls
    would wrongly mark executor-dispatched helpers async-reachable.
    """
    targets: List[Tuple[FunctionInfo, int]] = []
    owner = _owning_class(project, fn)
    for call in fn.calls:
        if call.kind == "self_method" and owner is not None:
            for candidate in _method_candidates(project, owner, call.target):
                targets.append((candidate, call.line))
        elif call.kind == "attr_method" and owner is not None:
            for decl in _classes_declaring_attr(project, owner, call.receiver_attr or ""):
                type_name = decl.attr_types[call.receiver_attr or ""]
                for attr_cls in project.class_index.get(type_name, ()):
                    for candidate in _method_candidates(
                        project, attr_cls, call.target
                    ):
                        targets.append((candidate, call.line))
        elif call.kind == "typed_method":
            for attr_cls in project.class_index.get(call.receiver_type or "", ()):
                for candidate in _method_candidates(project, attr_cls, call.target):
                    targets.append((candidate, call.line))
        elif call.kind == "name":
            local = fn.module.functions.get(call.target)
            if local is not None:
                targets.append((local, call.line))
            else:
                for candidate in project.function_index.get(call.target, ()):
                    targets.append((candidate, call.line))
            # ``ClassName(...)`` runs that class's __init__.
            for cls in project.class_index.get(call.target, ()):
                init = cls.methods.get("__init__")
                if init is not None:
                    targets.append((init, call.line))
    # Callback pattern: a bare function name passed as an argument may be
    # invoked downstream; treat it as an edge.
    if include_name_refs:
        for name in fn.name_refs:
            local = fn.module.functions.get(name)
            if local is not None:
                targets.append((local, fn.line))
    return targets


def _owning_class(project: Project, fn: FunctionInfo) -> Optional[ClassInfo]:
    if fn.class_name is None:
        return None
    for cls in project.class_index.get(fn.class_name, ()):
        if fn.name in cls.methods and cls.methods[fn.name] is fn:
            return cls
    return None


class Reachability:
    """BFS closure from a set of root functions, with call chains."""

    def __init__(
        self,
        project: Project,
        roots: Iterable[FunctionInfo],
        include_name_refs: bool = True,
    ):
        self.project = project
        #: qualname -> (function, predecessor qualname or None, call line)
        self.visited: Dict[str, Tuple[FunctionInfo, Optional[str], int]] = {}
        frontier: List[FunctionInfo] = []
        for root in roots:
            if root.qualname not in self.visited:
                self.visited[root.qualname] = (root, None, root.line)
                frontier.append(root)
        while frontier:
            fn = frontier.pop(0)
            for target, line in resolve_call_targets(
                project, fn, include_name_refs=include_name_refs
            ):
                if target.qualname in self.visited:
                    continue
                self.visited[target.qualname] = (target, fn.qualname, line)
                frontier.append(target)

    def functions(self) -> List[FunctionInfo]:
        return [entry[0] for entry in self.visited.values()]

    def chain(self, qualname: str) -> List[str]:
        """Root-first qualname chain leading to *qualname*."""
        names: List[str] = []
        cursor: Optional[str] = qualname
        seen: Set[str] = set()
        while cursor is not None and cursor not in seen:
            seen.add(cursor)
            names.append(cursor)
            entry = self.visited.get(cursor)
            cursor = entry[1] if entry else None
        return list(reversed(names))

    def describe_chain(self, qualname: str) -> str:
        """Short arrow-free chain for messages: ``a, called from b``."""
        chain = self.chain(qualname)
        if len(chain) <= 1:
            return chain[0] if chain else qualname
        return f"{chain[-1]} (reached from {chain[0]} via {len(chain) - 1} calls)"


def coroutine_roots(project: Project) -> List[FunctionInfo]:
    """Every ``async def`` in the project — module functions and methods."""
    roots: List[FunctionInfo] = []
    for module in project.modules:
        roots.extend(fn for fn in module.functions.values() if fn.is_async)
        for cls in module.classes.values():
            roots.extend(fn for fn in cls.methods.values() if fn.is_async)
    return roots


def async_reachability(project: Project) -> Reachability:
    """Functions that may run on an event loop: the async-context closure.

    A function is *async-reachable* when a coroutine transitively calls
    it — whether with ``await`` or as a plain synchronous call — because
    either way its body executes on the loop thread and anything
    blocking in it stalls every other task.  Propagation deliberately
    excludes callback-argument edges (``include_name_refs=False``):
    a callable handed to ``run_in_executor`` / ``Thread(target=...)``
    is the sanctioned escape hatch and runs off the loop.
    """
    return Reachability(project, coroutine_roots(project), include_name_refs=False)
