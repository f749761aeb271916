"""R004 — engine protocol surface.

The feeding surfaces (``feed``, ``feed_batch``, ``feed_colbatch``) and
the checkpoint pair (``snapshot``/``restore``) are *protocol*: the
partitioned fan-out batches per partition, the pipelined fan-out ships
``EventBatch`` payloads to whatever sub-engine class a partition holds,
and the recovery runner checkpoints whatever engine it wraps.  The
``Engine`` base provides all of them — the three feeding surfaces as
thin drivers of the engine's one step loop — so an engine that derives
from it cannot lack any.  Defining ``feed`` while dodging the base
class is the hazard: such an engine crashes those drivers at the first
batch, columnar payload or checkpoint.

The rule fires on every engine-protocol class (one that derives from
``Engine`` or defines ``_run`` / ``_process_event``) that defines a
concrete ``feed`` but does not define *or inherit* a concrete
``feed_batch``, ``feed_colbatch``, ``snapshot``, or ``restore``.
Non-engine wrappers that happen to have a ``feed`` method (drivers,
adapters, registries) are out of scope by design: they forward to an
engine rather than implement the protocol.
"""

from __future__ import annotations

from typing import Iterator

from repro.analysis.findings import Finding
from repro.analysis.model import Project
from repro.analysis.rules import Rule

_REQUIRED = ("feed_batch", "feed_colbatch", "snapshot", "restore")


class BatchParity(Rule):
    rule_id = "R004"
    summary = (
        "an engine defining feed must define or inherit feed_batch, "
        "feed_colbatch, snapshot, and restore"
    )

    def check(self, project: Project) -> Iterator[Finding]:
        for module in project.modules:
            for cls in module.classes.values():
                if not project.is_engine_class(cls):
                    continue
                feed = cls.methods.get("feed")
                if feed is None or feed.is_stub:
                    continue
                for required in _REQUIRED:
                    resolved = project.resolve_method(cls, required)
                    if resolved is not None and not resolved.is_stub:
                        continue
                    yield Finding(
                        path=module.path,
                        line=feed.line,
                        rule=self.rule_id,
                        symbol=f"{cls.name}.{required}",
                        message=(
                            f"engine defines feed but neither defines nor "
                            f"inherits a concrete '{required}'"
                        ),
                    )
