"""Shared test helpers (importable from every test module).

``tests/conftest.py`` puts this directory on ``sys.path``, so tests do
``from helpers import make_events`` regardless of their subdirectory.
"""

from __future__ import annotations

import json
import random
from collections import Counter
from pathlib import Path
from typing import Any, List, Optional, Set

from repro import (
    Event,
    OfflineOracle,
    OutOfOrderEngine,
    Pattern,
    ReorderingEngine,
)
from repro.core.recovery import DELIVERED_NAME, _hashable, delivered_keys


def make_events(spec: str, attr: str = "x") -> List[Event]:
    """Compact trace literal: ``"A1:0 B3:1 C5:0"`` → events.

    Each token is ``TYPE<ts>`` optionally followed by ``:<attr value>``
    (integer).  Types are words, timestamps integers.
    """
    events = []
    for token in spec.split():
        if ":" in token:
            head, value = token.split(":")
            attrs = {attr: int(value)}
        else:
            head, attrs = token, {}
        index = 0
        while index < len(head) and not head[index].isdigit():
            index += 1
        events.append(Event(head[:index], int(head[index:]), attrs))
    return events


def engine_vs_oracle(
    pattern: Pattern,
    arrival: List[Event],
    k: Optional[int] = None,
    **engine_kwargs,
) -> OutOfOrderEngine:
    """Run the OOO engine on *arrival* and assert it matches the oracle."""
    truth = OfflineOracle(pattern).evaluate_set(arrival)
    engine = OutOfOrderEngine(pattern, k=k, **engine_kwargs)
    engine.run(arrival)
    assert engine.result_set() == truth, (
        f"engine {sorted(engine.result_set())} != oracle {sorted(truth)}"
    )
    return engine


def bounded_shuffle(events: List[Event], k: int, seed: int = 0) -> List[Event]:
    """An arrival permutation guaranteed to respect disorder bound *k*.

    Sorts by ``ts + uniform(0, k)``: an event's delay past the max-ts
    prefix is at most k, so an engine with bound k never sees a late
    event.
    """
    rng = random.Random(seed)
    keyed = [(e.ts + rng.randint(0, k), i, e) for i, e in enumerate(events)]
    keyed.sort()
    return [e for __, __, e in keyed]


def _match_key(match):
    return json.loads(json.dumps(match.key()))


def observe_engine(engine, history=True):
    """JSON-ready record of everything externally observable about *engine*.

    Shared by the golden trajectories and the batch property suite;
    *history* adds the full emission and speculation logs.
    """
    out = {
        "matches": len(engine.results),
        "stats": engine.stats.as_dict(),
        "state_size": engine.state_size(),
        "clock": [engine.clock.now, engine.clock.horizon(), engine.clock.observations],
        "k": engine.clock.k,
        "arrival_index": engine.arrival_index,
    }
    if isinstance(engine, ReorderingEngine):
        out["inner_stats"] = engine.inner.stats.as_dict()
        out["buffer_peak"] = engine.buffer_peak
        out["buffer_size"] = engine.buffer_size()
    if not history:
        return out
    out["keys"] = [_match_key(m) for m in engine.results]
    out["emissions"] = [[r.emitted_seq, r.emitted_clock] for r in engine.emissions]
    log = getattr(engine, "speculation", None)
    if log is not None:
        out["speculation"] = {
            "emissions": [
                [r.seq, r.epoch, _match_key(r.match), r.emitted_seq, r.emitted_clock]
                for r in log.emissions
            ],
            "retractions": [
                [
                    r.seq, r.ref_seq, r.epoch, _match_key(r.match), r.cause,
                    r.retracted_arrival, r.retracted_clock,
                ]
                for r in log.retractions
            ],
            "epoch": log.epoch,
            "enabled": log.enabled,
        }
    controller = getattr(engine, "_controller", None)
    if controller is not None:
        out["controller"] = [list(decision) for decision in controller.history]
    return out


class MatchTap:
    """A test-owned receiver between a gateway and its runner.

    The gateway keeps no match it has handed on; an in-process consumer
    collects what ``runner.feed`` / ``close`` return, as the E24
    launcher's tap does.  ``tap.matches`` is every match delivered
    through the gateway since the tap was installed, in delivery order.
    """

    def __init__(self, gateway: Any):
        self.matches: List[Any] = []
        self._runner = gateway.runner
        gateway.runner = self

    def feed(self, elements: Any) -> List[Any]:
        out = self._runner.feed(elements)
        self.matches.extend(out)
        return out

    def close(self) -> List[Any]:
        out = self._runner.close()
        self.matches.extend(out)
        return out

    def __getattr__(self, name: str) -> Any:
        return getattr(self._runner, name)


def delivery_log(directory: Any) -> List[Any]:
    """Match keys in ``delivered.jsonl`` order — a list, so a match
    delivered twice shows (``delivered_keys`` is the set)."""
    lines = (Path(directory) / DELIVERED_NAME).read_text(encoding="utf-8")
    return [_hashable(json.loads(line)["key"]) for line in lines.splitlines()]


def delivered_once(directory: Any) -> Set[Any]:
    """The key set of ``delivered.jsonl``, after asserting that no key
    in it repeats: compared with an oracle, a set alone cannot show a
    match delivered twice."""
    keys = delivered_keys(directory)
    repeated = [key for key, lines in Counter(delivery_log(directory)).items() if lines > 1]
    assert not repeated, f"delivered more than once: {repeated}"
    return keys
