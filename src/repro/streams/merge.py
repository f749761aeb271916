"""Stream merging: combining multiple arrival streams into one.

A CEP engine typically consumes the union of many source streams.
:func:`interleave_by_arrival` is the physical merge: streams arrive
over independent paths and the engine sees whatever order the
transport produced.  Disorder of the merge can exceed the disorder of
every input (a perfectly ordered slow stream still arrives late
relative to a fast one) — the reason multi-source deployments need
out-of-order processing even with reliable, ordered links.
"""

from __future__ import annotations

import random
from typing import Iterator, List, Optional, Sequence

from repro.core.errors import ConfigurationError
from repro.core.event import Event


def interleave_by_arrival(
    streams: Sequence[Sequence[Event]],
    seed: int = 0,
    burstiness: int = 1,
) -> List[Event]:
    """Randomly interleave arrival streams, preserving each stream's order.

    With *burstiness* > 1, each scheduling decision drains up to that
    many consecutive events from the chosen stream, modelling batched
    transport (e.g. TCP segments).  Deterministic under *seed*.
    """
    if burstiness < 1:
        raise ConfigurationError(f"burstiness must be >= 1, got {burstiness}")
    rng = random.Random(seed)
    iterators: List[Iterator[Event]] = [iter(s) for s in streams]
    heads: List[Optional[Event]] = []
    for iterator in iterators:
        heads.append(next(iterator, None))
    merged: List[Event] = []
    live = [i for i, head in enumerate(heads) if head is not None]
    while live:
        choice = rng.choice(live)
        for __ in range(rng.randint(1, burstiness)):
            head = heads[choice]
            if head is None:
                break
            merged.append(head)
            heads[choice] = next(iterators[choice], None)
        if heads[choice] is None:
            live.remove(choice)
    return merged
