"""Pattern queries: the ``SEQ`` AST evaluated by every engine.

A pattern query has three parts, mirroring the SASE-style language the
paper builds on::

    PATTERN SEQ(A a, !B b, C c)     -- ordered steps, ! marks negation
    WHERE   a.id == c.id AND ...    -- conjunction over step variables
    WITHIN  100                     -- window over occurrence time

Semantics (normative; the offline oracle in ``repro.core.oracle``
implements them literally, every engine must agree with it):

* a match binds one event per **positive** step, with strictly
  increasing occurrence timestamps in step order;
* ``last.ts - first.ts <= within`` over the positive bindings;
* all ``WHERE`` predicates that mention only positive variables hold;
* for each **negated** step placed between positive steps ``p`` and
  ``q``, there is *no* event of the negated type with
  ``p.ts < n.ts < q.ts`` satisfying the predicates that mention the
  negated variable.  A leading negation is bounded below by
  ``last.ts - within``; a trailing negation is bounded above by
  ``first.ts + within``.
* match selection is *skip-till-any-match*: every qualifying
  combination is reported exactly once.

The compiled form (:class:`Pattern`) pre-computes everything the
engines need: staged predicates, negation brackets, and equality-join
keys.
"""

from __future__ import annotations

from typing import Any, Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from repro.core.errors import QueryError
from repro.core.event import Event
from repro.core.predicates import (
    And,
    Predicate,
    stage_predicates,
)


class Step:
    """One component of a ``SEQ`` pattern.

    >>> Step("A", "a")            # positive step
    Step(A a)
    >>> Step("B", "b", negated=True)
    Step(!B b)
    >>> Step("B", "bs", kleene=True)  # one-or-more collection
    Step(B+ bs)
    """

    __slots__ = ("etype", "var", "negated", "kleene")

    def __init__(self, etype: str, var: str, negated: bool = False, kleene: bool = False):
        if not etype or not isinstance(etype, str):
            raise QueryError(f"step event type must be a non-empty string, got {etype!r}")
        if not var or not isinstance(var, str) or not var.isidentifier():
            raise QueryError(f"step variable must be an identifier, got {var!r}")
        if negated and kleene:
            raise QueryError(
                f"step {etype} {var}: negated Kleene is meaningless — negating "
                "one-or-more equals negating a single occurrence"
            )
        self.etype = etype
        self.var = var
        self.negated = bool(negated)
        self.kleene = bool(kleene)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Step)
            and (self.etype, self.var, self.negated, self.kleene)
            == (other.etype, other.var, other.negated, other.kleene)
        )

    def __hash__(self) -> int:
        return hash((self.etype, self.var, self.negated, self.kleene))

    def __repr__(self) -> str:
        bang = "!" if self.negated else ""
        plus = "+" if self.kleene else ""
        return f"Step({bang}{self.etype}{plus} {self.var})"


class NegationBracket:
    """A compiled negated step with its enclosing positive positions.

    ``lower``/``upper`` are indices into the pattern's *positive* step
    list; ``None`` means the bracket is open on that side (leading or
    trailing negation) and is bounded by the window instead.
    """

    __slots__ = ("step", "lower", "upper", "predicates", "_positive_vars")

    def __init__(
        self,
        step: Step,
        lower: Optional[int],
        upper: Optional[int],
        predicates: Tuple[Predicate, ...],
    ):
        self.step = step
        self.lower = lower
        self.upper = upper
        self.predicates = predicates
        # populated by Pattern._compile; kept on the bracket so `admits`
        # needs no back-reference to the pattern
        self._positive_vars: Tuple[str, ...] = ()

    def bounds(self, positives: Sequence[Event], within: int) -> Tuple[int, int]:
        """Open interval ``(lo, hi)`` of occurrence time this bracket forbids.

        Events of the negated type strictly inside ``(lo, hi)`` that
        satisfy the bracket predicates invalidate the match.
        """
        if self.lower is not None:
            lo = positives[self.lower].ts
        else:
            lo = positives[-1].ts - within - 1  # leading negation: window edge
        if self.upper is not None:
            hi = positives[self.upper].ts
        else:
            hi = positives[0].ts + within + 1  # trailing negation: window edge
        return lo, hi

    def admits(self, candidate: Event, positives: Sequence[Event], within: int) -> bool:
        """True when *candidate* falls in the forbidden interval and passes predicates."""
        lo, hi = self.bounds(positives, within)
        if not (lo < candidate.ts < hi):
            return False
        if not self.predicates:
            return True
        bindings = {self.step.var: candidate}
        # Bind the positive variables too: bracket predicates may relate
        # the negated event to positive ones (e.g. same tag id).
        return self._evaluate_with_positives(bindings, positives)

    def _evaluate_with_positives(
        self, bindings: Dict[str, Event], positives: Sequence[Event]
    ) -> bool:
        full = dict(bindings)
        full.update(dict(zip(self._positive_vars, positives)))
        return all(p.evaluate(full) for p in self.predicates)

    def __repr__(self) -> str:
        return (
            f"NegationBracket({self.step!r}, between positive "
            f"[{self.lower}, {self.upper}])"
        )


class KleeneBracket(NegationBracket):
    """A compiled ``E+`` step: collect-all between its two anchors.

    Shares the interval/predicate machinery with negation brackets
    (``bounds`` and ``admits`` mean "falls in the interval and passes
    the predicates"), but with opposite polarity: admitted events are
    *collected* into the match (sorted by occurrence time), and the
    match is valid only if the collection is **non-empty** (the ``+``).
    Kleene steps must sit strictly between two positive anchors, so
    ``lower``/``upper`` are never None.
    """

    def collect(self, positives: Sequence[Event], within: int, pool: Sequence[Event]):
        """All qualifying events from *pool*, in (ts, eid) order."""
        collected = [
            candidate
            for candidate in pool
            if self.admits(candidate, positives, within)
        ]
        collected.sort(key=lambda e: (e.ts, e.eid))
        return tuple(collected)

    def __repr__(self) -> str:
        return (
            f"KleeneBracket({self.step!r}, between positive "
            f"[{self.lower}, {self.upper}])"
        )


class Pattern:
    """A compiled ``SEQ`` pattern query.

    Parameters
    ----------
    steps:
        Ordered steps; at least one must be positive, negated steps may
        not be adjacent to each other (the bracket between two positive
        steps would be ambiguous).
    where:
        Iterable of predicates (a conjunction), or ``None``.
    within:
        Window width over occurrence time; must be a positive integer.
    name:
        Optional label used in reports.
    """

    def __init__(
        self,
        steps: Sequence[Step],
        where: Optional[Iterable[Predicate]] = None,
        within: int = 0,
        name: str = "",
    ):
        if not steps:
            raise QueryError("pattern needs at least one step")
        if not isinstance(within, int) or isinstance(within, bool) or within <= 0:
            raise QueryError(f"WITHIN window must be a positive integer, got {within!r}")
        self.steps: Tuple[Step, ...] = tuple(steps)
        self.within = within
        self.name = name or "q"

        seen_vars = set()
        for step in self.steps:
            if step.var in seen_vars:
                raise QueryError(f"duplicate step variable {step.var!r}")
            seen_vars.add(step.var)

        # Anchors: steps that bind exactly one event and hold a stack.
        self.positive_steps: Tuple[Step, ...] = tuple(
            s for s in self.steps if not s.negated and not s.kleene
        )
        if not self.positive_steps:
            raise QueryError("pattern needs at least one positive (non-Kleene) step")
        for left, right in zip(self.steps, self.steps[1:]):
            if left.negated and right.negated:
                raise QueryError(
                    f"adjacent negated steps {left!r}, {right!r} are ambiguous"
                )

        if isinstance(where, Predicate):
            where = [where]
        # Flatten top-level conjunctions: each conjunct is staged and
        # partitioned (positive vs negation) independently, which both
        # tightens pruning and keeps positive conjuncts out of negation
        # brackets when another conjunct mentions a negated variable.
        flattened: List[Predicate] = []
        for predicate in where or ():
            if not isinstance(predicate, Predicate):
                raise QueryError(f"WHERE expects predicates, got {predicate!r}")
            if isinstance(predicate, And):
                flattened.extend(predicate.children)
            else:
                flattened.append(predicate)
        self.where: Tuple[Predicate, ...] = tuple(flattened)

        self._compile()

    # -- compiled artefacts -------------------------------------------------

    def _compile(self) -> None:
        positive_vars = [s.var for s in self.positive_steps]
        negated_vars = {s.var for s in self.steps if s.negated}
        kleene_vars = {s.var for s in self.steps if s.kleene}

        positive_preds: List[Predicate] = []
        negation_preds: Dict[str, List[Predicate]] = {v: [] for v in negated_vars}
        kleene_preds: Dict[str, List[Predicate]] = {v: [] for v in kleene_vars}
        special_vars = negated_vars | kleene_vars
        for predicate in self.where:
            mentioned = predicate.variables()
            special_mentioned = mentioned & special_vars
            if len(special_mentioned) > 1:
                raise QueryError(
                    f"predicate {predicate!r} relates two negated/Kleene "
                    "variables; unsupported"
                )
            if special_mentioned:
                var = next(iter(special_mentioned))
                if var in negated_vars:
                    negation_preds[var].append(predicate)
                else:
                    kleene_preds[var].append(predicate)
            else:
                positive_preds.append(predicate)

        # Staging validates that every variable exists.
        all_vars = positive_vars + sorted(special_vars)
        stage_predicates(self.where, all_vars)
        self.staged: Dict[str, List[Predicate]] = stage_predicates(
            positive_preds, positive_vars
        )
        self.positive_predicates: Tuple[Predicate, ...] = tuple(positive_preds)

        neg_brackets: List[NegationBracket] = []
        kln_brackets: List[KleeneBracket] = []
        positive_index = -1
        for step in self.steps:
            if not step.negated and not step.kleene:
                positive_index += 1
                continue
            lower = positive_index if positive_index >= 0 else None
            upper = (
                positive_index + 1
                if positive_index + 1 < len(self.positive_steps)
                else None
            )
            if step.kleene:
                if lower is None or upper is None:
                    raise QueryError(
                        f"Kleene step {step!r} must sit strictly between two "
                        "positive steps (leading/trailing Kleene has no anchor)"
                    )
                bracket: NegationBracket = KleeneBracket(
                    step, lower, upper, tuple(kleene_preds[step.var])
                )
                bracket._positive_vars = tuple(positive_vars)
                kln_brackets.append(bracket)  # type: ignore[arg-type]
            else:
                bracket = NegationBracket(
                    step, lower, upper, tuple(negation_preds[step.var])
                )
                bracket._positive_vars = tuple(positive_vars)
                neg_brackets.append(bracket)
        self.negations: Tuple[NegationBracket, ...] = tuple(neg_brackets)
        self.kleene: Tuple[KleeneBracket, ...] = tuple(kln_brackets)

        self.positive_types: Tuple[str, ...] = tuple(s.etype for s in self.positive_steps)
        self.negated_types: FrozenSet[str] = frozenset(
            s.etype for s in self.steps if s.negated
        )
        self.kleene_types: FrozenSet[str] = frozenset(
            s.etype for s in self.steps if s.kleene
        )
        self.relevant_types: FrozenSet[str] = (
            frozenset(self.positive_types) | self.negated_types | self.kleene_types
        )
        # steps of each positive type (a type may appear at several steps)
        self.steps_of_type: Dict[str, List[int]] = {}
        for index, step in enumerate(self.positive_steps):
            self.steps_of_type.setdefault(step.etype, []).append(index)
        self.negation_brackets_of_type: Dict[str, List[NegationBracket]] = {}
        for bracket in self.negations:
            self.negation_brackets_of_type.setdefault(bracket.step.etype, []).append(bracket)
        self.kleene_brackets_of_type: Dict[str, List[KleeneBracket]] = {}
        for kleene_bracket in self.kleene:
            self.kleene_brackets_of_type.setdefault(
                kleene_bracket.step.etype, []
            ).append(kleene_bracket)

        eq_pairs = []
        for predicate in self.positive_predicates:
            eq_pairs.extend(predicate.equality_pairs())
        self.equality_pairs = tuple(eq_pairs)

    # -- public helpers -----------------------------------------------------

    @property
    def length(self) -> int:
        """Number of positive steps (the arity of a match)."""
        return len(self.positive_steps)

    @property
    def has_kleene(self) -> bool:
        """True when the pattern contains at least one Kleene step."""
        return bool(self.kleene)

    def bindings_for(self, events: Sequence[Event]) -> Dict[str, Event]:
        """Zip *events* (one per positive step, in order) into a binding map."""
        if len(events) != self.length:
            raise QueryError(
                f"expected {self.length} events for pattern {self.name!r}, got {len(events)}"
            )
        return dict(zip((s.var for s in self.positive_steps), events))

    def __repr__(self) -> str:
        inner = ", ".join(
            f"{'!' if s.negated else ''}{s.etype}{'+' if s.kleene else ''} {s.var}"
            for s in self.steps
        )
        where = f" WHERE {And(self.where)!r}" if self.where else ""
        return f"PATTERN SEQ({inner}){where} WITHIN {self.within}"


def seq(*components: str, where: Optional[Iterable[Predicate]] = None,
        within: int = 0, name: str = "") -> Pattern:
    """Convenience pattern builder from ``"TYPE var"`` strings.

    >>> q = seq("A a", "!B b", "C c", within=50)
    >>> q.length, len(q.negations)
    (2, 1)
    """
    steps = []
    for component in components:
        text = component.strip()
        negated = text.startswith("!")
        if negated:
            text = text[1:].strip()
        parts = text.split()
        if len(parts) != 2:
            raise QueryError(
                f"step spec must be 'TYPE var' (optionally prefixed '!', "
                f"optionally suffixed '+'), got {component!r}"
            )
        etype, var = parts
        kleene = etype.endswith("+")
        if kleene:
            etype = etype[:-1]
        steps.append(Step(etype, var, negated=negated, kleene=kleene))
    return Pattern(steps, where=where, within=within, name=name)


class Match:
    """One query result: the tuple of positive events plus its bindings.

    Matches compare equal by pattern name, event identities and — for
    Kleene patterns — the collected-element identities, so result sets
    from different engines (or the oracle) can be compared directly.

    For patterns with Kleene steps, *collections* maps each Kleene
    variable to the tuple of collected events (in occurrence order);
    engines attach it at seal time via :meth:`with_collections`.
    """

    __slots__ = ("pattern", "events", "_key", "detected_at", "collections")

    def __init__(
        self,
        pattern: Pattern,
        events: Sequence[Event],
        detected_at: int = -1,
        collections: Optional[Dict[str, Tuple[Event, ...]]] = None,
    ):
        self.pattern = pattern
        self.events: Tuple[Event, ...] = tuple(events)
        self.collections: Optional[Dict[str, Tuple[Event, ...]]] = collections
        collection_key: Tuple = ()
        if collections:
            collection_key = tuple(
                (var, tuple(e.eid for e in elements))
                for var, elements in sorted(collections.items())
            )
        self._key = (
            pattern.name,
            tuple([e.eid for e in self.events]),
            collection_key,
        )
        # arrival sequence number at which the engine emitted the match;
        # -1 for oracle results where arrival order is not meaningful
        self.detected_at = detected_at

    def with_collections(
        self, collections: Dict[str, Tuple[Event, ...]]
    ) -> "Match":
        """A copy of this match with Kleene collections attached."""
        return Match(
            self.pattern, self.events, detected_at=self.detected_at,
            collections=collections,
        )

    @property
    def start_ts(self) -> int:
        """Occurrence time of the first positive event."""
        return self.events[0].ts

    @property
    def end_ts(self) -> int:
        """Occurrence time of the last positive event."""
        return self.events[-1].ts

    def bindings(self) -> Dict[str, Any]:
        """Variable → event map over the positive steps.

        For Kleene patterns the Kleene variables map to tuples of
        collected events (when collections have been attached).
        """
        full: Dict[str, Any] = dict(self.pattern.bindings_for(self.events))
        if self.collections:
            full.update(self.collections)
        return full

    def key(self) -> Tuple:
        """Identity used for set comparison across engines."""
        return self._key

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Match) and self._key == other._key

    def __hash__(self) -> int:
        return hash(self._key)

    def __repr__(self) -> str:
        inner = ", ".join(f"{e.etype}@{e.ts}#{e.eid}" for e in self.events)
        extra = ""
        if self.collections:
            parts = []
            for var, elements in sorted(self.collections.items()):
                parts.append(f"{var}=[{', '.join(f'{e.etype}@{e.ts}' for e in elements)}]")
            extra = " {" + ", ".join(parts) + "}"
        return f"Match[{self.pattern.name}]({inner}){extra}"
