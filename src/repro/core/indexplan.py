"""Equality-index planning and predicate compilation for construction.

Sequence construction extends a trigger binding one step at a time,
fetching candidates for each unbound step from that step's ts-sorted
stack.  Two per-pattern artefacts, both computed once at constructor
build time, cut the per-candidate cost of that loop:

* **Index plan** — for each (trigger step, depth) in the construction
  order, pick an attribute-equality predicate ``x.a == y.b`` whose one
  side is the step being extended and whose other side is already
  bound.  The stack's equality index (``SortedStack`` posting lists)
  can then serve exactly the candidates with the matching attribute
  value, clamped to the timestamp window by bisect — replacing the
  range scan whose candidates would mostly fail that very predicate.
  Steps with no such key fall back to ``range_after`` unchanged.

* **Compiled predicate pipelines** — each staged predicate list is
  folded into one closure specialising ``Attr`` access (direct
  ``_attrs`` reads, ``ts`` special-cased) and the comparison operator,
  removing the interpretive dispatch of ``Predicate.evaluate`` chains.
  Two pipelines are kept per stage: the *full* one for range-scanned
  candidates, and a *reduced* one — minus the predicate the index
  lookup already guarantees — for index-served candidates.

Both artefacts are semantics-preserving: an index-served candidate set
is exactly the subset of the range scan that satisfies the chosen
equality (hash buckets group by ``==``, the same relation the predicate
tests), and compiled pipelines evaluate the same predicates in the same
order with the same ``predicate_evaluations`` accounting.  The
``index=False`` ablation flag on :class:`SequenceConstructor` disables
the plan (alongside the E6 ``optimize`` flag) so identity is testable.

Planning is conservative: only plain-attribute equalities between two
positive step variables are index-eligible (``ts`` references and
constant comparisons are not), and a stack that ever stores an
instance whose indexed attribute is missing or unhashable disables its
index (lookups return ``None`` and construction falls back to the
range scan), so exotic attribute values never change results.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.event import Event
from repro.core.pattern import Pattern
from repro.core.predicates import Attr, Comparison, Const, Predicate, Term
from repro.core.stats import EngineStats

Bindings = Dict[str, Event]
#: ``(candidate attribute name, bound-side value getter)`` — at lookup
#: time the getter reads the already-bound event's attribute and the
#: stack is probed for candidates equal to it.
LookupSpec = Tuple[str, Callable[[Bindings], Any]]
#: One construction stage: full pipeline (range-scanned candidates),
#: reduced pipeline (index-served candidates), optional lookup spec.
StagePlan = Tuple[
    Optional[Callable[[Bindings, Optional[EngineStats]], bool]],
    Optional[Callable[[Bindings, Optional[EngineStats]], bool]],
    Optional[LookupSpec],
]


def compile_term(term: Term) -> Callable[[Bindings], Any]:
    """A closure evaluating *term*, specialised per term shape.

    Mirrors ``Term.evaluate`` exactly — including the ``ts`` special
    case and the descriptive missing-attribute error re-raised through
    the event's public accessor.
    """
    if isinstance(term, Const):
        value = term.value
        return lambda bindings: value
    if isinstance(term, Attr):
        var = term.var
        name = term.name
        if name == "ts":
            return lambda bindings: bindings[var].ts

        def read_attr(bindings: Bindings) -> Any:
            event = bindings[var]
            try:
                return event._attrs[name]
            except KeyError:
                return event[name]  # re-enter for the descriptive error

        return read_attr
    return term.evaluate


def compile_predicate(predicate: Predicate) -> Callable[[Bindings], bool]:
    """A closure evaluating *predicate* under full bindings.

    Comparisons are specialised (operand getters + bound operator
    function, ``TypeError`` → False exactly like the interpreted path);
    every other predicate shape falls back to its ``evaluate`` method.
    """
    if isinstance(predicate, Comparison):
        left = compile_term(predicate.left)
        right = compile_term(predicate.right)
        fn = predicate._fn

        def run(bindings: Bindings) -> bool:
            try:
                return bool(fn(left(bindings), right(bindings)))
            except TypeError:
                # Heterogeneous attribute types never match.
                return False

        return run
    return predicate.evaluate


def compile_stage(
    predicates: Sequence[Predicate],
) -> Optional[Callable[[Bindings, Optional[EngineStats]], bool]]:
    """Fold a staged predicate list into one conjunction closure.

    Returns ``None`` for an empty stage (callers skip the call
    entirely).  Accounting matches the interpreted ``_staged_ok``:
    one ``predicate_evaluations`` tick per predicate actually
    evaluated, short-circuiting on the first failure.
    """
    if not predicates:
        return None
    compiled = tuple(compile_predicate(p) for p in predicates)
    if len(compiled) == 1:
        single = compiled[0]

        def check_one(bindings: Bindings, stats: Optional[EngineStats]) -> bool:
            if stats is not None:
                stats.predicate_evaluations += 1
            return single(bindings)

        return check_one

    def check_all(bindings: Bindings, stats: Optional[EngineStats]) -> bool:
        for predicate in compiled:
            if stats is not None:
                stats.predicate_evaluations += 1
            if not predicate(bindings):
                return False
        return True

    return check_all


class ConstructionPlan:
    """Compiled pipelines plus the index plan for one pattern.

    ``stages[t][d]`` is the :data:`StagePlan` for construction order
    ``t`` (trigger at positive step ``t``) at binding depth ``d``;
    ``indexed_attrs[s]`` names the attributes step ``s``'s stack must
    index (``None`` when no lookup was planned anywhere, so engines can
    skip index maintenance entirely).
    """

    __slots__ = ("stages", "indexed_attrs")

    def __init__(
        self,
        stages: List[List[StagePlan]],
        indexed_attrs: Optional[List[Tuple[str, ...]]],
    ):
        self.stages = stages
        self.indexed_attrs = indexed_attrs


def build_plan(
    pattern: Pattern,
    variables: Sequence[str],
    orders: Sequence[Sequence[int]],
    staged: Sequence[Sequence[Sequence[Predicate]]],
    use_index: bool,
) -> ConstructionPlan:
    """Plan every (trigger, depth) stage of construction for *pattern*.

    *variables*, *orders* and *staged* are the constructor's own
    artefacts (variable per positive step, trigger-anchored binding
    orders, per-order staged predicate lists).  With ``use_index``
    False only the compiled pipelines are produced.
    """
    stages: List[List[StagePlan]] = []
    attrs_by_step: Dict[int, set] = {}
    for order, order_staged in zip(orders, staged):
        plans: List[StagePlan] = [(compile_stage(order_staged[0]), None, None)]
        for depth in range(1, len(order)):
            step = order[depth]
            predicates = list(order_staged[depth])
            full = compile_stage(predicates)
            spec: Optional[LookupSpec] = None
            reduced = full
            if use_index:
                chosen = _choose_equality(predicates, variables[step])
                if chosen is not None:
                    predicate, candidate_attr, bound_attr = chosen
                    spec = (candidate_attr.name, compile_term(bound_attr))
                    remaining = list(predicates)
                    remaining.remove(predicate)
                    reduced = compile_stage(remaining)
                    attrs_by_step.setdefault(step, set()).add(candidate_attr.name)
            plans.append((full, reduced, spec))
        stages.append(plans)
    indexed_attrs: Optional[List[Tuple[str, ...]]] = None
    if attrs_by_step:
        indexed_attrs = [
            tuple(sorted(attrs_by_step.get(step, ())))
            for step in range(pattern.length)
        ]
    return ConstructionPlan(stages, indexed_attrs)


def _choose_equality(
    predicates: Sequence[Predicate], candidate_var: str
) -> Optional[Tuple[Predicate, Attr, Attr]]:
    """First index-eligible equality in this stage, deterministically.

    A pair qualifies when its predicate is a bare comparison (so the
    lookup satisfies the *whole* predicate, which the reduced pipeline
    then omits), one side references the step being extended
    (*candidate_var*) by a plain attribute — ``ts`` lives outside the
    attribute map, and the timestamp window already narrows on it — and
    the other side references any other variable.  Predicates staged at
    this depth mention only bound variables plus *candidate_var*, so
    the other side is guaranteed bound.
    """
    for predicate in predicates:
        if not isinstance(predicate, Comparison):
            continue
        for left, right in predicate.equality_pairs():
            if left.var == candidate_var:
                candidate_attr, bound_attr = left, right
            elif right.var == candidate_var:
                candidate_attr, bound_attr = right, left
            else:
                continue
            if candidate_attr.name == "ts":
                continue
            return predicate, candidate_attr, bound_attr
    return None
