"""Stock-tick workload: selectivity-controlled pattern matching.

A synthetic equities feed with per-symbol random-walk prices.  Its
role in the experiment suite is *selectivity control*: pattern queries
over price relations (``a.price < b.price``) have a tunable match
probability, which drives the optimisation experiments (E6) — the
benefit of construction probes and staged predicates depends directly
on predicate selectivity.

Canned query: **accumulation** — a same-symbol rise with all trades
in between collected (Kleene ``+``).
"""

from __future__ import annotations

import random
from typing import List, Sequence

from repro.core.errors import ConfigurationError
from repro.core.event import Event
from repro.core.parser import parse
from repro.core.pattern import Pattern

TICK = "TICK"
TRADE = "TRADE"


def accumulation_query(within: int = 50, name: str = "accumulation") -> Pattern:
    """A same-symbol rise with *all* trades in between collected (Kleene).

    The collected trade set supports downstream aggregation (e.g. total
    accumulated volume during the rise) — the SASE+-style use of ``+``.
    """
    return parse(
        f"PATTERN SEQ({TICK} a, {TRADE}+ ts, {TICK} c) "
        "WHERE a.sym == c.sym AND a.price < c.price AND ts.sym == a.sym "
        f"WITHIN {within}",
        name=name,
    )


class StockFeedGenerator:
    """Per-symbol random-walk ticks plus occasional trades.

    Parameters
    ----------
    symbols:
        Ticker alphabet, e.g. ``("IBM", "ORCL")``.
    count:
        Total tick events generated.
    trade_rate:
        Fraction of slots that also emit a TRADE event.
    volatility:
        Max per-step price move (uniform in ``[-volatility, volatility]``).
    seed:
        Determinism.
    """

    def __init__(
        self,
        symbols: Sequence[str] = ("IBM", "ORCL", "MSFT", "DELL"),
        count: int = 10_000,
        trade_rate: float = 0.1,
        volatility: int = 3,
        seed: int = 0,
    ):
        if not symbols:
            raise ConfigurationError("need at least one symbol")
        if count < 0:
            raise ConfigurationError(f"count must be >= 0, got {count}")
        if not 0.0 <= trade_rate <= 1.0:
            raise ConfigurationError(f"trade_rate must be in [0, 1], got {trade_rate}")
        if volatility < 1:
            raise ConfigurationError(f"volatility must be >= 1, got {volatility}")
        self.symbols = list(symbols)
        self.count = count
        self.trade_rate = trade_rate
        self.volatility = volatility
        self.seed = seed

    def generate(self) -> List[Event]:
        rng = random.Random(self.seed)
        prices = {symbol: 100 + 10 * index for index, symbol in enumerate(self.symbols)}
        events: List[Event] = []
        ts = 0
        for __ in range(self.count):
            ts += 1
            symbol = rng.choice(self.symbols)
            move = rng.randint(-self.volatility, self.volatility)
            prices[symbol] = max(1, prices[symbol] + move)
            events.append(Event(TICK, ts, {"sym": symbol, "price": prices[symbol]}))
            if rng.random() < self.trade_rate:
                events.append(
                    Event(
                        TRADE,
                        ts,
                        {
                            "sym": rng.choice(self.symbols),
                            "volume": int(rng.expovariate(1 / 2000.0)) + 1,
                        },
                    )
                )
        return events
