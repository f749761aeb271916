"""R002 — hot-path purity.

``feed``/``feed_batch``/``feed_colbatch`` and the step loop ``_run``
they drive are the per-event hot paths and, through the recovery layer,
the *replay* paths: after a crash the WAL re-feeds the
same events and the delivery log is diffed against what the engine
emits.  Anything environment-dependent on that path — wall-clock
reads, unseeded randomness, console or file I/O — makes replay diverge
from the original run and breaks both exactly-once delivery and the
benchmark's reproducibility.

The rule walks the call graph reachable from every engine-protocol
class's feeding surfaces and step loop (see
:mod:`repro.analysis.callgraph`) and reports calls matching the
forbidden vocabulary below.  A deliberate I/O component would opt
out with ``# repro: ignore-file[R002]`` and a justification; none on
the engine path does.
"""

from __future__ import annotations

from typing import Iterator, List, Optional

from repro.analysis.callgraph import Reachability
from repro.analysis.findings import Finding
from repro.analysis.model import CallSite, FunctionInfo, ModuleInfo, Project
from repro.analysis.rules import Rule

#: Fully-resolved dotted names that read the environment.
_FORBIDDEN_EXACT = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.process_time",
        "time.sleep",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
        "os.urandom",
        "uuid.uuid1",
        "uuid.uuid4",
        "print",
        "open",
        "input",
    }
)

#: Dotted prefixes that are wholesale forbidden (module-level RNG state
#: is process-global and unseeded by default; sockets are I/O).
_FORBIDDEN_PREFIXES = (
    "random.",
    "secrets.",
    "socket.",
    "urllib.",
    "http.",
    "requests.",
    "tempfile.",
)

#: Method names that are file I/O regardless of receiver — the
#: ``pathlib.Path`` verbs this codebase uses for its WALs and logs.
#: Receiver types for Path objects are rarely statically known, so
#: these match on the method name alone.
_FORBIDDEN_METHODS = frozenset(
    {
        "open",
        "unlink",
        "mkdir",
        "rmdir",
        "touch",
        "rename",
        "replace",
        "write_text",
        "read_text",
        "write_bytes",
        "read_bytes",
    }
)


def _resolve_dotted(module: ModuleInfo, call: CallSite) -> Optional[str]:
    """Fully-qualified dotted name of a call, or None if not name-like."""
    if call.kind == "name":
        return module.imports.get(call.target, call.target)
    if call.kind == "dotted" and call.dotted:
        root, _, rest = call.dotted.partition(".")
        resolved_root = module.imports.get(root, root)
        return f"{resolved_root}.{rest}" if rest else resolved_root
    return None


def _violation(dotted: str) -> bool:
    if dotted in _FORBIDDEN_EXACT:
        return True
    return any(dotted.startswith(prefix) for prefix in _FORBIDDEN_PREFIXES)


class HotPathPurity(Rule):
    rule_id = "R002"
    summary = (
        "code reachable from feed/feed_batch/feed_colbatch must not read "
        "the clock or RNG, perform I/O, or print"
    )

    def check(self, project: Project) -> Iterator[Finding]:
        roots: List[FunctionInfo] = []
        for module in project.modules:
            for cls in module.classes.values():
                if not project.is_engine_class(cls):
                    continue
                for name in ("feed", "feed_batch", "feed_colbatch", "_run"):
                    fn = cls.methods.get(name)
                    if fn is not None and not fn.is_stub:
                        roots.append(fn)
        reach = Reachability(project, roots)
        seen = set()
        for fn in reach.functions():
            for call in fn.calls:
                dotted = _resolve_dotted(fn.module, call)
                if dotted is None or not _violation(dotted):
                    if call.target not in _FORBIDDEN_METHODS:
                        continue
                    if call.kind not in ("attr_method", "typed_method", "dotted"):
                        continue
                    receiver = call.receiver_attr or call.receiver_type or "?"
                    dotted = f"{receiver}.{call.target}"
                key = (fn.module.path, call.line, dotted)
                if key in seen:
                    continue
                seen.add(key)
                yield Finding(
                    path=fn.module.path,
                    line=call.line,
                    rule=self.rule_id,
                    symbol=fn.qualname,
                    message=(
                        f"call to '{dotted}' on the hot path: "
                        f"{reach.describe_chain(fn.qualname)}"
                    ),
                )
