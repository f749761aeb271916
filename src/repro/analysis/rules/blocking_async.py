"""R007 — blocking calls in async-reachable code.

One thread drives the whole gateway: liveness ticks, watermark
publication, every client connection.  A synchronous ``open``/``write``
or ``time.sleep`` anywhere a coroutine can reach does not slow one
request — it freezes *all* of them, which is how a journal append on a
slow disk turns into spurious liveness expiries for perfectly healthy
sources.

The rule computes the async-context closure
(:func:`repro.analysis.callgraph.async_reachability`): every function a
coroutine transitively calls — awaited or plain — runs on the loop
thread.  Calls matching the blocking vocabulary below are findings,
annotated with the coroutine chain that reaches them.  The sanctioned
escape hatches produce no edge by construction: callables handed to
``loop.run_in_executor`` or ``threading.Thread(target=...)`` run off
the loop, so the closure excludes callback-argument references.

Not in the vocabulary, deliberately: ``print`` (diagnostics are cheap
and line-buffered), ``StreamWriter.write``/``drain`` (the async API is
sync-write-then-await-drain by design), and in-memory ``io`` objects.
Deliberately synchronous durability (the recovery WAL's group-commit
fsync) opts out with ``# repro: ignore-file[R007]`` and a recorded
justification.
"""

from __future__ import annotations

from typing import Iterator

from repro.analysis.callgraph import async_reachability
from repro.analysis.findings import Finding
from repro.analysis.model import Project
from repro.analysis.rules import Rule, Vocabulary, vocabulary_findings

_VOCABULARY = Vocabulary(
    # Fully-resolved dotted names that block the calling thread.
    exact=frozenset(
        {
            "time.sleep",
            "os.system",
            "os.popen",
            "os.wait",
            "os.waitpid",
            "os.fsync",
            "socket.create_connection",
            "socket.getaddrinfo",
            "open",
            "input",
        }
    ),
    # Dotted prefixes that are wholesale blocking.
    prefixes=(
        "subprocess.",
        "urllib.request.",
        "requests.",
    ),
    # Blocking I/O regardless of receiver: the ``pathlib.Path`` file
    # verbs this codebase uses (receiver types for Path objects are
    # rarely statically known) plus blocking socket ops.
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
            # raw-socket verbs
            "recv",
            "recv_into",
            "sendall",
            "accept",
            "makefile",
        }
    ),
    # ``expr_method`` is what catches ``(self.directory / NAME).open("a")``.
    method_kinds=("attr_method", "typed_method", "dotted", "expr_method"),
    unknown_receiver="<expr>",
)


class BlockingInCoroutine(Rule):
    rule_id = "R007"
    summary = (
        "code async-reachable from a coroutine must not perform blocking "
        "I/O, sleep, or spawn subprocesses on the event loop"
    )

    def check(self, project: Project) -> Iterator[Finding]:
        yield from vocabulary_findings(
            self,
            async_reachability(project),
            _VOCABULARY,
            lambda label, chain: (
                f"blocking call to '{label}' stalls the event loop: {chain} "
                f"(move it to loop.run_in_executor, a worker thread, or an "
                f"async equivalent)"
            ),
        )
