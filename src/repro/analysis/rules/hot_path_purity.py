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

from typing import Iterator, List

from repro.analysis.callgraph import Reachability
from repro.analysis.findings import Finding
from repro.analysis.model import FunctionInfo, Project
from repro.analysis.rules import Rule, Vocabulary, vocabulary_findings

_VOCABULARY = Vocabulary(
    # Fully-resolved dotted names that read the environment.
    exact=frozenset(
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
    ),
    # Wholesale forbidden (module-level RNG state is process-global and
    # unseeded by default; sockets are I/O).
    prefixes=(
        "random.",
        "secrets.",
        "socket.",
        "urllib.",
        "http.",
        "requests.",
        "tempfile.",
    ),
    # File I/O regardless of receiver — the ``pathlib.Path`` verbs this
    # codebase uses for its WALs and logs.  Receiver types for Path
    # objects are rarely statically known, so these match on the method
    # name alone.
    methods=frozenset(
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
    ),
    method_kinds=("attr_method", "typed_method", "dotted"),
    unknown_receiver="?",
)


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
        yield from vocabulary_findings(
            self,
            Reachability(project, roots),
            _VOCABULARY,
            lambda label, chain: f"call to '{label}' on the hot path: {chain}",
        )
