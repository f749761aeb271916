"""Unit tests for predicate expressions (repro.core.predicates)."""

import pytest

from repro import (
    And,
    Attr,
    Comparison,
    Const,
    Eq,
    Event,
    Ge,
    Gt,
    Le,
    Lt,
    Ne,
    Not,
    Or,
    QueryError,
)
from repro.core.predicates import stage_predicates


@pytest.fixture
def bindings():
    return {
        "a": Event("A", 1, {"x": 5, "name": "foo"}),
        "b": Event("B", 2, {"x": 5, "name": "bar"}),
        "c": Event("C", 9, {"x": 7}),
    }


class TestTerms:
    def test_attr_evaluates_attribute(self, bindings):
        assert Attr("a", "x").evaluate(bindings) == 5

    def test_attr_ts_is_builtin(self, bindings):
        assert Attr("c", "ts").evaluate(bindings) == 9

    def test_attr_unbound_variable_raises(self, bindings):
        with pytest.raises(QueryError):
            Attr("zz", "x").evaluate(bindings)

    def test_attr_validation(self):
        with pytest.raises(QueryError):
            Attr("", "x")
        with pytest.raises(QueryError):
            Attr("a", "")

    def test_const_evaluates_to_value(self, bindings):
        assert Const(42).evaluate(bindings) == 42

    def test_const_has_no_variables(self):
        assert Const(1).variables() == frozenset()

    def test_attr_variables(self):
        assert Attr("a", "x").variables() == frozenset({"a"})


class TestComparison:
    @pytest.mark.parametrize(
        "op,expected",
        [("==", True), ("!=", False), ("<", False), ("<=", True), (">", False), (">=", True)],
    )
    def test_all_operators_on_equal_values(self, bindings, op, expected):
        predicate = Comparison(Attr("a", "x"), op, Attr("b", "x"))
        assert predicate.evaluate(bindings) is expected

    def test_constant_comparison(self, bindings):
        assert Gt(Attr("c", "x"), Const(6)).evaluate(bindings)
        assert not Gt(Attr("c", "x"), Const(7)).evaluate(bindings)

    def test_unknown_operator_rejected(self):
        with pytest.raises(QueryError):
            Comparison(Const(1), "~=", Const(2))

    def test_non_term_operand_rejected(self):
        with pytest.raises(QueryError):
            Comparison(1, "==", Const(2))

    def test_type_mismatch_evaluates_false(self, bindings):
        # str vs int comparisons do not raise, they just never match
        assert not Lt(Attr("a", "name"), Const(3)).evaluate(bindings)

    def test_variables_union(self):
        predicate = Eq(Attr("a", "x"), Attr("b", "x"))
        assert predicate.variables() == frozenset({"a", "b"})

    def test_equality_pairs_only_for_var_var_eq(self):
        assert Eq(Attr("a", "x"), Attr("b", "x")).equality_pairs()
        assert not Eq(Attr("a", "x"), Const(1)).equality_pairs()
        assert not Ne(Attr("a", "x"), Attr("b", "x")).equality_pairs()
        assert not Eq(Attr("a", "x"), Attr("a", "y")).equality_pairs()

    def test_shortcut_constructors(self, bindings):
        assert Ne(Attr("a", "x"), Attr("c", "x")).evaluate(bindings)
        assert Le(Attr("a", "x"), Attr("b", "x")).evaluate(bindings)
        assert Ge(Attr("c", "x"), Attr("a", "x")).evaluate(bindings)

    def test_hash_and_eq(self):
        assert Eq(Attr("a", "x"), Const(1)) == Eq(Attr("a", "x"), Const(1))
        assert hash(Eq(Attr("a", "x"), Const(1))) == hash(Eq(Attr("a", "x"), Const(1)))
        assert Eq(Attr("a", "x"), Const(1)) != Eq(Attr("a", "x"), Const(2))


class TestBooleanCombinators:
    def test_and_requires_all(self, bindings):
        predicate = And([Eq(Attr("a", "x"), Attr("b", "x")), Gt(Attr("c", "x"), Const(6))])
        assert predicate.evaluate(bindings)

    def test_and_fails_when_any_fails(self, bindings):
        predicate = And([Eq(Attr("a", "x"), Attr("b", "x")), Gt(Attr("c", "x"), Const(100))])
        assert not predicate.evaluate(bindings)

    def test_and_flattens_nested(self):
        inner = And([Eq(Attr("a", "x"), Const(1)), Eq(Attr("b", "x"), Const(2))])
        outer = And([inner, Eq(Attr("c", "x"), Const(3))])
        assert len(outer.children) == 3

    def test_and_empty_rejected(self):
        with pytest.raises(QueryError):
            And([])

    def test_or_any_suffices(self, bindings):
        predicate = Or([Eq(Attr("a", "x"), Const(999)), Eq(Attr("b", "x"), Const(5))])
        assert predicate.evaluate(bindings)

    def test_or_all_fail(self, bindings):
        predicate = Or([Eq(Attr("a", "x"), Const(999)), Eq(Attr("b", "x"), Const(999))])
        assert not predicate.evaluate(bindings)

    def test_not_inverts(self, bindings):
        assert Not(Eq(Attr("a", "x"), Const(999))).evaluate(bindings)

    def test_variables_aggregate(self):
        predicate = Or([Eq(Attr("a", "x"), Const(1)), Eq(Attr("b", "x"), Const(1))])
        assert predicate.variables() == frozenset({"a", "b"})


class TestStaging:
    def test_predicates_staged_at_latest_variable(self):
        predicates = [
            Eq(Attr("a", "x"), Const(1)),
            Eq(Attr("a", "x"), Attr("b", "x")),
            Eq(Attr("b", "x"), Attr("c", "x")),
        ]
        staged = stage_predicates(predicates, ["a", "b", "c"])
        assert len(staged["a"]) == 1
        assert len(staged["b"]) == 1
        assert len(staged["c"]) == 1

    def test_unknown_variable_raises(self):
        with pytest.raises(QueryError, match="unknown"):
            stage_predicates([Eq(Attr("zz", "x"), Const(1))], ["a", "b"])

    def test_empty_stage_lists_for_unmentioned_vars(self):
        staged = stage_predicates([Eq(Attr("a", "x"), Const(1))], ["a", "b"])
        assert staged["b"] == []
