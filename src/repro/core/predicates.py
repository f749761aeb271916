"""Predicate expressions for ``WHERE`` clauses of pattern queries.

A ``WHERE`` clause is a conjunction of predicates over the variables
bound by the pattern steps, e.g. for ``SEQ(A a, B b)``::

    where=[Eq(Attr("a", "tag"), Attr("b", "tag")),
           Gt(Attr("b", "price"), Const(100))]

The engine needs two things from a predicate beyond evaluation:

* ``variables()`` — which step variables it mentions, so predicates can
  be *staged*: a predicate is checked as early as all of its variables
  are bound, pruning partial matches before full enumeration (one of
  the paper's CPU optimisations).
* equality-join structure (``equality_pairs``) — attribute-equality
  predicates between two variables, which construction can exploit with
  hash lookups instead of scans.

Predicates are immutable and hashable so queries can be deduplicated
and used as dict keys by the bench harness.
"""

from __future__ import annotations

import operator
from typing import Any, Callable, Dict, FrozenSet, Iterable, List, Mapping, Optional, Tuple

from repro.core.errors import QueryError
from repro.core.event import Event

Bindings = Mapping[str, Event]


class Term:
    """Base class for predicate operands (attribute refs and constants)."""

    def variables(self) -> FrozenSet[str]:
        raise NotImplementedError

    def evaluate(self, bindings: Bindings) -> Any:
        raise NotImplementedError


class Attr(Term):
    """Reference to an attribute of a bound step variable: ``var.name``."""

    __slots__ = ("var", "name")

    def __init__(self, var: str, name: str):
        if not var or not isinstance(var, str):
            raise QueryError(f"attribute reference needs a variable name, got {var!r}")
        if not name or not isinstance(name, str):
            raise QueryError(f"attribute reference needs an attribute name, got {name!r}")
        self.var = var
        self.name = name

    def variables(self) -> FrozenSet[str]:
        return frozenset((self.var,))

    def evaluate(self, bindings: Bindings) -> Any:
        try:
            event = bindings[self.var]
        except KeyError:
            raise QueryError(f"variable {self.var!r} is not bound") from None
        if self.name == "ts":
            return event.ts
        try:
            return event._attrs[self.name]
        except KeyError:
            # Re-enter the public accessor for its descriptive error.
            return event[self.name]

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Attr) and (self.var, self.name) == (other.var, other.name)

    def __hash__(self) -> int:
        return hash(("attr", self.var, self.name))

    def __repr__(self) -> str:
        return f"{self.var}.{self.name}"


class Const(Term):
    """A literal constant operand."""

    __slots__ = ("value",)

    def __init__(self, value: Any):
        self.value = value

    def variables(self) -> FrozenSet[str]:
        return frozenset()

    def evaluate(self, bindings: Bindings) -> Any:
        return self.value

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Const) and self.value == other.value

    def __hash__(self) -> int:
        return hash(("const", repr(self.value)))

    def __repr__(self) -> str:
        return repr(self.value)


class Predicate:
    """Base class: a boolean condition over bound step variables."""

    def variables(self) -> FrozenSet[str]:
        """Step variables this predicate mentions."""
        raise NotImplementedError

    def evaluate(self, bindings: Bindings) -> bool:
        """Evaluate under *bindings*; all mentioned variables must be bound."""
        raise NotImplementedError

    def equality_pairs(self) -> List[Tuple[Attr, Attr]]:
        """``(left, right)`` attr pairs for var-to-var equality predicates."""
        return []


_OPS: Dict[str, Callable[[Any, Any], bool]] = {
    "==": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


class Comparison(Predicate):
    """Binary comparison between two terms: ``left op right``."""

    __slots__ = ("left", "op", "right", "_fn", "_vars")

    def __init__(self, left: Term, op: str, right: Term):
        if op not in _OPS:
            raise QueryError(f"unknown comparison operator {op!r}; expected one of {sorted(_OPS)}")
        if not isinstance(left, Term) or not isinstance(right, Term):
            raise QueryError("comparison operands must be Attr or Const terms")
        self.left = left
        self.op = op
        self.right = right
        self._fn = _OPS[op]
        self._vars = left.variables() | right.variables()

    def variables(self) -> FrozenSet[str]:
        return self._vars

    def evaluate(self, bindings: Bindings) -> bool:
        try:
            return bool(self._fn(self.left.evaluate(bindings), self.right.evaluate(bindings)))
        except TypeError:
            # Heterogeneous attribute types (e.g. str vs int) never match.
            return False

    def equality_pairs(self) -> List[Tuple[Attr, Attr]]:
        if self.op == "==" and isinstance(self.left, Attr) and isinstance(self.right, Attr):
            if self.left.var != self.right.var:
                return [(self.left, self.right)]
        return []

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Comparison)
            and (self.left, self.op, self.right) == (other.left, other.op, other.right)
        )

    def __hash__(self) -> int:
        return hash(("cmp", self.left, self.op, self.right))

    def __repr__(self) -> str:
        return f"({self.left} {self.op} {self.right})"


def Eq(left: Term, right: Term) -> Comparison:
    """Equality comparison, ``left == right``."""
    return Comparison(left, "==", right)


def Ne(left: Term, right: Term) -> Comparison:
    """Inequality comparison, ``left != right``."""
    return Comparison(left, "!=", right)


def Lt(left: Term, right: Term) -> Comparison:
    """Strict less-than comparison."""
    return Comparison(left, "<", right)


def Le(left: Term, right: Term) -> Comparison:
    """Less-or-equal comparison."""
    return Comparison(left, "<=", right)


def Gt(left: Term, right: Term) -> Comparison:
    """Strict greater-than comparison."""
    return Comparison(left, ">", right)


def Ge(left: Term, right: Term) -> Comparison:
    """Greater-or-equal comparison."""
    return Comparison(left, ">=", right)


class And(Predicate):
    """Conjunction of predicates; flattens nested conjunctions."""

    __slots__ = ("children", "_vars")

    def __init__(self, children: Iterable[Predicate]):
        flat: List[Predicate] = []
        for child in children:
            if not isinstance(child, Predicate):
                raise QueryError(f"And expects predicates, got {child!r}")
            if isinstance(child, And):
                flat.extend(child.children)
            else:
                flat.append(child)
        if not flat:
            raise QueryError("And requires at least one child predicate")
        self.children = tuple(flat)
        vars_: FrozenSet[str] = frozenset()
        for child in self.children:
            vars_ = vars_ | child.variables()
        self._vars = vars_

    def variables(self) -> FrozenSet[str]:
        return self._vars

    def evaluate(self, bindings: Bindings) -> bool:
        return all(child.evaluate(bindings) for child in self.children)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, And) and self.children == other.children

    def __hash__(self) -> int:
        return hash(("and", self.children))

    def __repr__(self) -> str:
        return " AND ".join(repr(child) for child in self.children)


class Or(Predicate):
    """Disjunction of predicates.

    Not part of the paper's core language but cheap to support; staged
    evaluation treats the whole disjunction as ready once all mentioned
    variables are bound.
    """

    __slots__ = ("children", "_vars")

    def __init__(self, children: Iterable[Predicate]):
        self.children = tuple(children)
        if not self.children:
            raise QueryError("Or requires at least one child predicate")
        vars_: FrozenSet[str] = frozenset()
        for child in self.children:
            if not isinstance(child, Predicate):
                raise QueryError(f"Or expects predicates, got {child!r}")
            vars_ = vars_ | child.variables()
        self._vars = vars_

    def variables(self) -> FrozenSet[str]:
        return self._vars

    def evaluate(self, bindings: Bindings) -> bool:
        return any(child.evaluate(bindings) for child in self.children)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Or) and self.children == other.children

    def __hash__(self) -> int:
        return hash(("or", self.children))

    def __repr__(self) -> str:
        return "(" + " OR ".join(repr(child) for child in self.children) + ")"


class Not(Predicate):
    """Negation of a predicate (predicate-level, distinct from step negation)."""

    __slots__ = ("child",)

    def __init__(self, child: Predicate):
        if not isinstance(child, Predicate):
            raise QueryError(f"Not expects a predicate, got {child!r}")
        self.child = child

    def variables(self) -> FrozenSet[str]:
        return self.child.variables()

    def evaluate(self, bindings: Bindings) -> bool:
        return not self.child.evaluate(bindings)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Not) and self.child == other.child

    def __hash__(self) -> int:
        return hash(("not", self.child))

    def __repr__(self) -> str:
        return f"NOT {self.child!r}"


TRUE: Optional[Predicate] = None  # a WHERE clause of None means "no condition"


def stage_predicates(
    predicates: Iterable[Predicate],
    binding_order: List[str],
) -> Dict[str, List[Predicate]]:
    """Assign each predicate to the latest variable (in *binding_order*) it mentions.

    The returned mapping lets an engine check each predicate the moment
    its last variable becomes bound, pruning the search space as early
    as possible.  Predicates mentioning variables outside
    *binding_order* raise :class:`QueryError` — the query builder calls
    this as its validation pass.
    """
    position = {var: i for i, var in enumerate(binding_order)}
    staged: Dict[str, List[Predicate]] = {var: [] for var in binding_order}
    for predicate in predicates:
        mentioned = predicate.variables()
        unknown = mentioned - set(position)
        if unknown:
            raise QueryError(
                f"predicate {predicate!r} mentions unknown variable(s) {sorted(unknown)}; "
                f"pattern binds {binding_order}"
            )
        latest = max(mentioned, key=lambda v: position[v])
        staged[latest].append(predicate)
    return staged
