"""Unit tests for the intra-function dataflow engine.

These exercise :mod:`repro.analysis.dataflow` directly — CFG shape
and the R006 stale-write fixpoint — on small inline sources,
independent of the rule layer.
"""

from __future__ import annotations

import ast
import textwrap

from repro.analysis.dataflow import (
    AWAIT,
    READ,
    WRITE,
    build_cfg,
    stale_attr_writes,
    walk_scope,
)


def fn(source: str, name: str = None):
    tree = ast.parse(textwrap.dedent(source))
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if name is None or node.name == name:
                return node
    raise AssertionError(f"no function {name!r} in source")


def events(cfg, kind=None):
    out = []
    for block in cfg.blocks:
        for event in block.events:
            if kind is None or event.kind == kind:
                out.append(event)
    return out


# -- CFG construction -------------------------------------------------------------


def test_walk_scope_skips_nested_functions():
    node = fn(
        """
        def outer(self):
            x = self.a
            def inner():
                return self.b
            return x
        """,
        "outer",
    )
    attrs = {
        sub.attr
        for sub in walk_scope(node)
        if isinstance(sub, ast.Attribute)
    }
    assert "a" in attrs
    assert "b" not in attrs


def test_branch_produces_two_successors():
    cfg = build_cfg(
        fn(
            """
            async def f(self):
                if self.flag:
                    self.a = 1
                else:
                    self.b = 2
                self.c = 3
            """
        )
    )
    branching = [b for b in cfg.blocks if len(b.successors) >= 2]
    assert branching, "if/else should fork the CFG"
    # Both arms eventually reach the join writing self.c.
    writes = {e.attr for e in events(cfg, WRITE)}
    assert writes == {"a", "b", "c"}


def test_loop_has_back_edge():
    cfg = build_cfg(
        fn(
            """
            async def f(self):
                while self.more:
                    self.n = self.n + 1
            """
        )
    )
    assert any(
        succ <= block.index
        for block in cfg.blocks
        for succ in block.successors
    ), "while loop should produce a back edge"


def test_await_emits_suspension_event():
    cfg = build_cfg(
        fn(
            """
            async def f(self):
                await self.other()
            """
        )
    )
    assert len(events(cfg, AWAIT)) == 1


def test_async_with_lock_marks_events_guarded():
    cfg = build_cfg(
        fn(
            """
            async def f(self):
                async with self._lock:
                    seen = self.total
                    await self.pause()
                self.done = True
            """
        )
    )
    by_attr = {e.attr: e for e in events(cfg, READ) if e.attr == "total"}
    assert by_attr["total"].guarded
    done = [e for e in events(cfg, WRITE) if e.attr == "done"]
    assert not done[0].guarded


# -- R006: stale writes across awaits ----------------------------------------------


def stale(source: str, name: str = None):
    return stale_attr_writes(fn(source, name))


def test_read_await_write_fires():
    found = stale(
        """
        async def f(self):
            seen = self.total
            await self.pause()
            self.total = seen + 1
        """
    )
    # Line 1 is the leading blank of the triple-quoted source.
    assert [(v.attr, v.read_line, v.await_line, v.write_line) for v in found] == [
        ("total", 3, 4, 5)
    ]


def test_reread_after_await_is_clean():
    assert (
        stale(
            """
            async def f(self):
                seen = self.total
                await self.pause()
                seen = self.total
                self.total = seen + 1
            """
        )
        == []
    )


def test_write_before_await_is_clean():
    assert (
        stale(
            """
            async def f(self):
                self.total = self.total + 1
                await self.pause()
            """
        )
        == []
    )


def test_lock_guarded_section_is_clean():
    assert (
        stale(
            """
            async def f(self):
                async with self._lock:
                    seen = self.total
                    await self.pause()
                    self.total = seen + 1
            """
        )
        == []
    )


def test_await_on_only_one_branch_still_fires():
    found = stale(
        """
        async def f(self):
            seen = self.total
            if self.slow:
                await self.pause()
            self.total = seen + 1
        """
    )
    assert [v.attr for v in found] == ["total"]


def test_await_inside_loop_reaches_write_after_it():
    found = stale(
        """
        async def f(self):
            seen = self.total
            for item in self.items:
                await self.push(item)
            self.total = seen + 1
        """
    )
    assert [v.attr for v in found] == ["total"]


def test_write_in_finally_sees_await_in_try():
    found = stale(
        """
        async def f(self):
            seen = self.total
            try:
                await self.pause()
            finally:
                self.total = seen + 1
        """
    )
    assert [v.attr for v in found] == ["total"]


def test_augassign_with_await_operand_fires():
    found = stale(
        """
        async def f(self):
            self.hits += await self.cost()
        """
    )
    assert [v.attr for v in found] == ["hits"]


def test_mutation_of_stale_collection_fires():
    found = stale(
        """
        async def f(self, item):
            if item in self.pending:
                await self.pause()
                self.pending.remove(item)
        """
    )
    assert [v.attr for v in found] == ["pending"]


def test_nested_function_body_is_opaque():
    assert (
        stale(
            """
            async def f(self):
                def callback():
                    self.total = self.total + 1
                await self.pause()
            """,
            "f",
        )
        == []
    )


def test_swap_before_await_is_clean():
    # The shutdown idiom used throughout repro.ingest.server.stop().
    assert (
        stale(
            """
            async def f(self):
                task, self._task = self._task, None
                if task is not None:
                    task.cancel()
                    await task
            """
        )
        == []
    )
