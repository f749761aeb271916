"""Semantic model the rules run against.

:func:`build_project` parses every ``.py`` file under the given paths
into a :class:`Project`: modules, classes (with resolved ancestry),
and per-function summaries of every call site in a resolution-friendly
form.

The summaries are deliberately *approximate* — Python cannot be
soundly call-resolved statically — but the approximations are chosen so
the engine contracts stay checkable:

* **alias tracking** — ``clock = self.clock; clock.observe(ts)`` (the
  batched hot paths hoist attributes into locals) is resolved as a call
  on the ``clock`` attribute.  Aliases over-approximate: a local
  assigned from an expression mentioning several attributes aliases all
  of them.
* **attribute typing** — ``self.clock = StreamClock(k)`` records the
  attribute's class when the constructor resolves to an analyzed
  class, which lets rules resolve ``self.clock.observe(...)`` calls
  precisely.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.analysis.suppressions import SuppressionDecl, parse_suppressions

#: Method names treated as mutating their receiver.  Generic container
#: vocabulary plus this codebase's stateful-component verbs (the stream
#: clock's ``observe``, the purge schedule's ``due``, store maintenance
#: like ``purge_through``).
MUTATOR_METHODS = frozenset(
    {
        "append", "appendleft", "extend", "insert", "add", "update",
        "setdefault", "pop", "popleft", "popitem", "remove", "discard",
        "clear", "push", "drain", "release", "observe",
        "observe_punctuation", "due", "purge_through", "drop_oldest",
        "reset", "sort", "reverse",
    }
)

#: ``heapq`` functions whose first argument is mutated.
HEAP_FUNCTIONS = frozenset(
    {"heappush", "heappop", "heapify", "heappushpop", "heapreplace"}
)


@dataclass
class CallSite:
    """One call expression, summarised for later resolution.

    ``kind`` is one of:

    * ``"name"`` — ``foo(...)``; ``target`` is the bare name.
    * ``"self_method"`` — ``self.m(...)``; ``target`` is ``m``.
    * ``"attr_method"`` — ``self.attr.m(...)`` (directly or through a
      local alias); ``target`` is ``m``, ``receiver_attr`` the attr.
    * ``"typed_method"`` — ``local.m(...)`` where the local's class is
      known; ``target`` is ``m``, ``receiver_type`` the class name.
    * ``"dotted"`` — ``mod.path.fn(...)``; ``dotted`` carries the full
      dotted string for forbidden-call matching.
    * ``"expr_method"`` — ``<expr>.m(...)`` on a receiver too complex to
      resolve (``(self.dir / NAME).open(...)``); ``target`` is ``m``.
      Contributes no call-graph edge, but method-vocabulary rules
      (blocking I/O, file verbs) still match on the name.
    """

    kind: str
    target: str
    line: int
    receiver_attr: Optional[str] = None
    receiver_type: Optional[str] = None
    dotted: Optional[str] = None


@dataclass
class FunctionInfo:
    """Per-function summary of call sites."""

    name: str
    qualname: str
    module: "ModuleInfo"
    node: ast.AST
    class_name: Optional[str] = None
    calls: List[CallSite] = field(default_factory=list)
    #: bare-name references passed as arguments (callback pattern).
    name_refs: Set[str] = field(default_factory=set)
    is_stub: bool = False
    #: True for ``async def`` — the roots of async-context propagation.
    is_async: bool = False

    @property
    def line(self) -> int:
        return self.node.lineno


@dataclass
class ClassInfo:
    """One class definition plus derived attribute facts."""

    name: str
    module: "ModuleInfo"
    node: ast.ClassDef
    base_names: List[str] = field(default_factory=list)
    methods: Dict[str, FunctionInfo] = field(default_factory=dict)
    #: attr -> resolved class name (``self.x = ClassName(...)`` in __init__).
    attr_types: Dict[str, str] = field(default_factory=dict)
    #: attrs whose initialiser or annotation is set-like.
    set_typed_attrs: Set[str] = field(default_factory=set)

    @property
    def line(self) -> int:
        return self.node.lineno


@dataclass
class ModuleInfo:
    """One parsed source file."""

    path: str
    modname: str
    tree: ast.Module
    classes: Dict[str, ClassInfo] = field(default_factory=dict)
    functions: Dict[str, FunctionInfo] = field(default_factory=dict)
    #: imported name -> dotted module path (``import time`` -> ``time``;
    #: ``from time import time`` -> ``time.time``).
    imports: Dict[str, str] = field(default_factory=dict)
    suppress_lines: Dict[int, Set[str]] = field(default_factory=dict)
    suppress_file: Set[str] = field(default_factory=set)
    #: (first line, last line, rules, declaring comment line) ranges
    #: derived from ``def``/``class`` header comments.
    suppress_ranges: List[Tuple[int, int, Set[str], int]] = field(
        default_factory=list
    )
    #: every suppression comment as written, for the burn-down pass.
    suppress_decls: List[SuppressionDecl] = field(default_factory=list)

    def is_suppressed(self, line: int, rule: str) -> bool:
        if rule in self.suppress_file:
            return True
        if rule in self.suppress_lines.get(line, ()):
            return True
        return any(
            lo <= line <= hi and rule in rules
            for lo, hi, rules, _decl in self.suppress_ranges
        )

    def matching_decl_lines(self, line: int, rule: str) -> List[int]:
        """Comment lines of every declaration suppressing (*line*, *rule*).

        Feeds the dead-suppression burn-down: each returned comment line
        is credited with one real finding.
        """
        lines: List[int] = []
        for decl in self.suppress_decls:
            if rule not in decl.rules:
                continue
            if decl.scope == "file" or decl.line == line:
                lines.append(decl.line)
        for lo, hi, rules, decl_line in self.suppress_ranges:
            if lo <= line <= hi and rule in rules and decl_line not in lines:
                lines.append(decl_line)
        return lines


@dataclass
class Project:
    """Everything the rules see: modules plus cross-module resolution."""

    modules: List[ModuleInfo]
    #: class name -> definitions (names are unique in this repo, but a
    #: list keeps resolution honest if that ever changes).
    class_index: Dict[str, List[ClassInfo]] = field(default_factory=dict)
    #: module function qualname index: bare name -> definitions.
    function_index: Dict[str, List[FunctionInfo]] = field(
        default_factory=dict
    )
    parse_errors: List[Tuple[str, str]] = field(default_factory=list)

    # -- hierarchy ------------------------------------------------------------

    def ancestors(self, cls: ClassInfo) -> List[ClassInfo]:
        """All resolved base classes, nearest first (duplicates removed)."""
        seen: Set[int] = {id(cls)}
        order: List[ClassInfo] = []
        frontier = list(cls.base_names)
        while frontier:
            base_name = frontier.pop(0)
            for candidate in self.class_index.get(base_name, ()):
                if id(candidate) in seen:
                    continue
                seen.add(id(candidate))
                order.append(candidate)
                frontier.extend(candidate.base_names)
        return order

    def mro(self, cls: ClassInfo) -> List[ClassInfo]:
        """The class followed by its resolved ancestors."""
        return [cls] + self.ancestors(cls)

    def subclasses(self, cls: ClassInfo) -> List[ClassInfo]:
        """Every analyzed class whose ancestry includes *cls*."""
        found = []
        for module in self.modules:
            for candidate in module.classes.values():
                if candidate is cls:
                    continue
                if any(a is cls for a in self.ancestors(candidate)):
                    found.append(candidate)
        return found

    def resolve_method(self, cls: ClassInfo, name: str) -> Optional[FunctionInfo]:
        """Nearest definition of method *name* in *cls*'s MRO."""
        for klass in self.mro(cls):
            if name in klass.methods:
                return klass.methods[name]
        return None

    def is_engine_class(self, cls: ClassInfo) -> bool:
        """True for classes speaking the engine protocol.

        Either the resolved ancestry reaches a class named ``Engine``,
        or the class (or an ancestor) defines the step loop ``_run`` or
        its per-event hook ``_process_event`` — what only engines
        implement.  Wrappers that merely *drive* an engine (recovery
        runner, query registry, output adapter) define none of these
        and are out of scope.
        """
        for klass in self.mro(cls):
            if klass.name == "Engine" or _ENGINE_HOOKS & klass.methods.keys():
                return True
        return "Engine" in _transitive_base_names(self, cls)


_ENGINE_HOOKS = frozenset({"_run", "_process_event"})


def _transitive_base_names(project: Project, cls: ClassInfo) -> Set[str]:
    """Base names reachable through the registry, plus unresolved ones."""
    names: Set[str] = set(cls.base_names)
    for ancestor in project.ancestors(cls):
        names.update(ancestor.base_names)
        names.add(ancestor.name)
    return names


# -- per-function extraction -----------------------------------------------------


def _root_and_path(expr: ast.AST) -> Tuple[Optional[str], List[str]]:
    """Root ``Name`` id and attribute path of an Attribute/Subscript chain.

    ``self.stacks[i].insert`` -> ("self", ["stacks", "insert"]);
    subscripts are transparent.  Returns (None, []) for anything that
    is not a simple chain.
    """
    path: List[str] = []
    node = expr
    while True:
        if isinstance(node, ast.Attribute):
            path.append(node.attr)
            node = node.value
        elif isinstance(node, ast.Subscript):
            node = node.value
        elif isinstance(node, ast.Name):
            return node.id, list(reversed(path))
        else:
            return None, []


class _FunctionScanner(ast.NodeVisitor):
    """Single pass over one function body; fills a :class:`FunctionInfo`."""

    def __init__(self, info: FunctionInfo):
        self.info = info
        #: local name -> self-attributes it may alias (over-approximate).
        self.aliases: Dict[str, Set[str]] = {}
        #: local name -> class name (``x = ClassName(...)``).
        self.local_types: Dict[str, str] = {}

    # -- helpers ---------------------------------------------------------------

    def _attrs_of(self, expr: ast.AST) -> Set[str]:
        """Self-attributes an expression may *alias* (directly or via alias).

        Call subtrees are skipped: a call returns a new object (or an
        immutable view), so ``out = self._process_event(ev)`` must not
        alias ``out`` to the ``_process_event`` attribute — only plain
        attribute/subscript access propagates aliasing.
        """
        attrs: Set[str] = set()
        stack = [expr]
        while stack:
            node = stack.pop()
            if isinstance(node, ast.Call):
                continue
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                if node.value.id == "self":
                    attrs.add(node.attr)
            elif isinstance(node, ast.Name):
                attrs.update(self.aliases.get(node.id, ()))
            stack.extend(ast.iter_child_nodes(node))
        return attrs

    def _bind_aliases(self, targets: Sequence[ast.AST], value: ast.AST) -> None:
        attrs = self._attrs_of(value)
        rhs_type = self._type_of(value)
        names: List[ast.Name] = []
        for target in targets:
            if isinstance(target, ast.Name):
                names.append(target)
            elif isinstance(target, (ast.Tuple, ast.List)):
                names.extend(
                    el for el in target.elts if isinstance(el, ast.Name)
                )
        for name in names:
            if attrs:
                self.aliases[name.id] = set(attrs)
            else:
                self.aliases.pop(name.id, None)
            if rhs_type is not None:
                self.local_types[name.id] = rhs_type
            else:
                self.local_types.pop(name.id, None)

    def _type_of(self, expr: ast.AST) -> Optional[str]:
        """Class name of an expression when statically evident."""
        if isinstance(expr, ast.Call):
            root, path = _root_and_path(expr.func)
            if root is not None and root != "self" and not path:
                return root  # ``ClassName(...)`` — resolved later
            if root is not None and path:
                return path[-1]  # ``mod.ClassName(...)`` — last segment
        return None

    # -- statements -------------------------------------------------------------

    def visit_Assign(self, node: ast.Assign) -> None:
        self._bind_aliases(node.targets, node.value)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            self._bind_aliases([node.target], node.value)
        self.generic_visit(node)

    def visit_For(self, node: ast.For) -> None:
        self._bind_aliases([node.target], node.iter)
        self.generic_visit(node)

    def visit_With(self, node: ast.With) -> None:
        for item in node.items:
            if item.optional_vars is not None:
                self._bind_aliases([item.optional_vars], item.context_expr)
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        self._record_call(node)
        for arg in node.args:
            if isinstance(arg, ast.Name):
                self.info.name_refs.add(arg.id)
        self.generic_visit(node)

    # -- call classification -----------------------------------------------------

    def _record_call(self, node: ast.Call) -> None:
        line = node.lineno
        func = node.func
        if isinstance(func, ast.Name):
            self.info.calls.append(CallSite("name", func.id, line))
            return
        root, path = _root_and_path(func)
        if root is None or not path:
            # Method call on an unresolvable receiver expression, e.g.
            # ``(self.directory / NAME).open(...)``.  No call-graph edge,
            # but the method name still matters to vocabulary rules.
            if isinstance(func, ast.Attribute):
                self.info.calls.append(CallSite("expr_method", func.attr, line))
            return
        method = path[-1]
        if root == "self" and len(path) == 1:
            self.info.calls.append(CallSite("self_method", method, line))
            return
        if root == "self":
            # ``self.attr.m(...)``, or deeper: the call resolves on the
            # base attribute.
            self.info.calls.append(
                CallSite("attr_method", method, line, receiver_attr=path[0])
            )
            return
        # Non-self root: module call, alias call, or typed local.
        dotted = ".".join([root] + path)
        aliased = self.aliases.get(root)
        if aliased:
            for attr in aliased:
                self.info.calls.append(
                    CallSite("attr_method", method, line, receiver_attr=attr)
                )
            return
        local_type = self.local_types.get(root)
        if local_type is not None and len(path) == 1:
            self.info.calls.append(
                CallSite("typed_method", method, line, receiver_type=local_type)
            )
            return
        self.info.calls.append(CallSite("dotted", method, line, dotted=dotted))


def _is_stub(node: ast.AST) -> bool:
    """True when a function body is only a docstring and/or a raise/pass.

    ``Engine._process_event`` raising ``NotImplementedError`` is a
    contract placeholder, not an implementation — rules that look for
    an override's body must not count it.
    """
    body = list(getattr(node, "body", []))
    if body and isinstance(body[0], ast.Expr) and isinstance(
        body[0].value, ast.Constant
    ):
        body = body[1:]
    if not body:
        return True
    return all(isinstance(stmt, (ast.Raise, ast.Pass)) for stmt in body)


def _annotation_is_setlike(annotation: Optional[ast.AST]) -> bool:
    if annotation is None:
        return False
    text = ast.dump(annotation)
    return any(token in text for token in ("'Set'", "'FrozenSet'", "'set'", "'frozenset'"))


def _value_is_setlike(value: Optional[ast.AST]) -> bool:
    if value is None:
        return False
    if isinstance(value, (ast.Set, ast.SetComp)):
        return True
    if isinstance(value, ast.Call) and isinstance(value.func, ast.Name):
        return value.func.id in ("set", "frozenset")
    if isinstance(value, ast.BinOp):
        return _value_is_setlike(value.left) or _value_is_setlike(value.right)
    return False


# -- module / project construction ---------------------------------------------


def _scan_function(
    node: ast.AST,
    module: ModuleInfo,
    class_info: Optional[ClassInfo],
) -> FunctionInfo:
    name = node.name  # type: ignore[attr-defined]
    qual = f"{class_info.name}.{name}" if class_info else name
    info = FunctionInfo(
        name=name,
        qualname=f"{module.modname}.{qual}",
        module=module,
        node=node,
        class_name=class_info.name if class_info else None,
        is_stub=_is_stub(node),
        is_async=isinstance(node, ast.AsyncFunctionDef),
    )
    scanner = _FunctionScanner(info)
    for stmt in node.body:  # type: ignore[attr-defined]
        scanner.visit(stmt)
    return info


def _finish_class(project_classes: Dict[str, List[ClassInfo]], cls: ClassInfo) -> None:
    """Derive attribute facts once every method has been scanned."""
    init = cls.methods.get("__init__")
    # Attribute types and set-likeness come from __init__ assignments
    # (annotated or constructor calls) plus annotated class-body fields.
    if init is not None:
        for stmt in ast.walk(init.node):
            target: Optional[ast.AST] = None
            value: Optional[ast.AST] = None
            annotation: Optional[ast.AST] = None
            if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
                target, value = stmt.targets[0], stmt.value
            elif isinstance(stmt, ast.AnnAssign):
                target, value, annotation = stmt.target, stmt.value, stmt.annotation
            if target is None:
                continue
            root, path = _root_and_path(target)
            if root != "self" or len(path) != 1:
                continue
            attr = path[0]
            scanner = _FunctionScanner(init)
            rhs_type = scanner._type_of(value) if value is not None else None
            if rhs_type is not None and rhs_type in project_classes:
                cls.attr_types.setdefault(attr, rhs_type)
            if _value_is_setlike(value) or _annotation_is_setlike(annotation):
                cls.set_typed_attrs.add(attr)
    for stmt in cls.node.body:
        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            if _annotation_is_setlike(stmt.annotation):
                cls.set_typed_attrs.add(stmt.target.id)


def _collect_imports(tree: ast.Module) -> Dict[str, str]:
    imports: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                imports[local] = alias.name
        elif isinstance(node, ast.ImportFrom) and node.module:
            for alias in node.names:
                local = alias.asname or alias.name
                imports[local] = f"{node.module}.{alias.name}"
    return imports


def _module_name(path: Path) -> str:
    parts = list(path.with_suffix("").parts)
    for anchor in ("repro", "src"):
        if anchor in parts:
            index = parts.index(anchor)
            if anchor == "src":
                index += 1
            return ".".join(parts[index:])
    return ".".join(parts[-2:])


def parse_module(path: Path, source: str) -> ModuleInfo:
    """Parse one file into a :class:`ModuleInfo` (raises SyntaxError)."""
    tree = ast.parse(source, filename=str(path))
    module = ModuleInfo(path=str(path), modname=_module_name(path), tree=tree)
    module.imports = _collect_imports(tree)
    per_line, per_file, decls = parse_suppressions(source)
    module.suppress_lines = per_line
    module.suppress_file = per_file
    module.suppress_decls = decls
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            info = _scan_function(node, module, None)
            module.functions[info.name] = info
        elif isinstance(node, ast.ClassDef):
            cls = ClassInfo(name=node.name, module=module, node=node)
            cls.base_names = [
                _root_and_path(base)[1][-1]
                if _root_and_path(base)[1]
                else (base.id if isinstance(base, ast.Name) else "")
                for base in node.bases
            ]
            cls.base_names = [name for name in cls.base_names if name]
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    cls.methods[item.name] = _scan_function(item, module, cls)
            module.classes[node.name] = cls
    _collect_symbol_suppressions(module)
    return module


def _collect_symbol_suppressions(module: ModuleInfo) -> None:
    """Header-line ``ignore`` comments suppress for the whole symbol."""
    nodes: List[ast.AST] = []
    for node in ast.walk(module.tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            nodes.append(node)
    for node in nodes:
        header_end = node.body[0].lineno - 1 if node.body else node.lineno
        for line in range(node.lineno, max(header_end, node.lineno) + 1):
            rules = module.suppress_lines.get(line, set())
            if rules:
                end = getattr(node, "end_lineno", None) or node.lineno
                module.suppress_ranges.append((node.lineno, end, set(rules), line))


def iter_python_files(paths: Sequence[str]) -> List[Path]:
    """Every ``.py`` file under *paths* (files pass through), sorted."""
    found: List[Path] = []
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            found.extend(sorted(path.rglob("*.py")))
        elif path.suffix == ".py":
            found.append(path)
    unique: List[Path] = []
    seen: Set[str] = set()
    for path in found:
        key = str(path.resolve())
        if key not in seen:
            seen.add(key)
            unique.append(path)
    return unique


def build_project(paths: Sequence[str]) -> Project:
    """Parse *paths* into a :class:`Project`; parse failures are recorded."""
    project = Project(modules=[])
    for path in iter_python_files(paths):
        try:
            source = path.read_text(encoding="utf-8")
            module = parse_module(path, source)
        except (OSError, SyntaxError, ValueError) as exc:
            project.parse_errors.append((str(path), str(exc)))
            continue
        project.modules.append(module)
    for module in project.modules:
        for cls in module.classes.values():
            project.class_index.setdefault(cls.name, []).append(cls)
        for fn in module.functions.values():
            project.function_index.setdefault(fn.name, []).append(fn)
    for module in project.modules:
        for cls in module.classes.values():
            _finish_class(project.class_index, cls)
    return project
