"""Hot-path purity: an engine's feed surfaces touch nothing but engine state.

``feed_batch``, ``feed`` and ``close`` must be functions of the stream
alone — no wall clock, no randomness, no console, file or socket I/O —
or replay after a crash stops reproducing the run it recovers.  Each
engine kind of the snapshot suite is fed its stream under a profile
hook, which sees every call whatever name the callee was imported
under.
"""

from __future__ import annotations

import gc
import random
import sys

import pytest

from test_snapshot import ENGINE_KINDS, build, stream_for

#: Modules whose functions read the clock, draw random numbers or do I/O.
IMPURE_MODULES = frozenset(
    {"time", "random", "_random", "os", "posix", "io", "_io", "socket", "_socket"}
)
IMPURE_BUILTINS = frozenset({"print", "open", "input"})


def _impure(event, frame, arg):
    """The name of the impure callee of this profile event, or None."""
    if event == "call":
        module = frame.f_globals.get("__name__")
        if module in IMPURE_MODULES:
            return f"{module}.{frame.f_code.co_name}"
        return None
    if event != "c_call":
        return None
    owner = getattr(arg, "__self__", None)
    if isinstance(owner, random.Random):
        return f"random.Random.{arg.__name__}"
    module = getattr(arg, "__module__", None)
    if module is None and owner is not None:
        module = type(owner).__module__
    if module in IMPURE_MODULES or (
        module == "builtins" and arg.__name__ in IMPURE_BUILTINS
    ):
        return f"{module}.{arg.__name__}"
    return None


def impure_calls(run):
    """Run *run()* under a profile hook; the impure calls it made, in order."""
    calls = []

    def profile(frame, event, arg):
        name = _impure(event, frame, arg)
        if name is not None:
            calls.append(f"{name} from {frame.f_globals.get('__name__')}:{frame.f_lineno}")

    collecting = gc.isenabled()
    gc.disable()  # a collection would run other libraries' gc callbacks here
    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(None)
        if collecting:
            gc.enable()
    return calls


@pytest.mark.parametrize("kind", ENGINE_KINDS)
def test_feed_surfaces_are_pure(kind):
    engine = build(kind)
    stream = stream_for(kind)
    half = len(stream) // 2

    def run():
        engine.feed_batch(stream[:half])
        for element in stream[half:]:
            engine.feed(element)
        engine.close()

    assert impure_calls(run) == []


def test_the_hook_sees_impure_calls_under_any_name():
    from time import monotonic as clock

    rng = random.Random(3)

    def run():
        clock()
        rng.random()
        random.choice("ab")
        print(end="")

    seen = {call.split(" from ")[0] for call in impure_calls(run)}
    assert {"time.monotonic", "random.Random.random", "random.choice", "builtins.print"} <= seen
