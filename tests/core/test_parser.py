"""Unit tests for the query-language parser (repro.core.parser)."""

import pytest

from repro import And, Attr, Comparison, Const, Event, Not, Or, ParseError, parse


class TestBasicParsing:
    def test_minimal_query(self):
        pattern = parse("PATTERN SEQ(A a) WITHIN 10")
        assert pattern.length == 1
        assert pattern.within == 10
        assert not pattern.where

    def test_multi_step_with_negation(self):
        pattern = parse("PATTERN SEQ(A a, !B b, C c) WITHIN 100")
        assert pattern.length == 2
        assert pattern.negations
        assert pattern.negated_types == {"B"}

    def test_where_clause(self):
        pattern = parse("PATTERN SEQ(A a, B b) WHERE a.x == b.x WITHIN 10")
        assert len(pattern.where) == 1

    def test_name_passed_through(self):
        pattern = parse("PATTERN SEQ(A a) WITHIN 10", name="myquery")
        assert pattern.name == "myquery"

    def test_default_name(self):
        assert parse("PATTERN SEQ(A a) WITHIN 10").name == "q"

    def test_keywords_case_insensitive(self):
        pattern = parse("pattern seq(A a, B b) where a.x == b.x within 10")
        assert pattern.length == 2


class TestOperandsAndOperators:
    def test_single_equals_is_equality(self):
        pattern = parse("PATTERN SEQ(A a, B b) WHERE a.x = b.x WITHIN 10")
        comparison = pattern.where[0]
        assert isinstance(comparison, Comparison)
        assert comparison.op == "=="

    @pytest.mark.parametrize("op", ["==", "!=", "<", "<=", ">", ">="])
    def test_all_comparison_operators(self, op):
        pattern = parse(f"PATTERN SEQ(A a) WHERE a.x {op} 5 WITHIN 10")
        assert pattern.where[0].op == op

    def test_integer_literal(self):
        pattern = parse("PATTERN SEQ(A a) WHERE a.x > 42 WITHIN 10")
        assert pattern.where[0].right == Const(42)

    def test_negative_integer_literal(self):
        pattern = parse("PATTERN SEQ(A a) WHERE a.x > -5 WITHIN 10")
        assert pattern.where[0].right == Const(-5)

    def test_float_literal(self):
        pattern = parse("PATTERN SEQ(A a) WHERE a.x > 2.5 WITHIN 10")
        assert pattern.where[0].right == Const(2.5)

    def test_string_literals_both_quotes(self):
        for quoted in ("'IBM'", '"IBM"'):
            pattern = parse(f"PATTERN SEQ(A a) WHERE a.sym == {quoted} WITHIN 10")
            assert pattern.where[0].right == Const("IBM")

    def test_boolean_literals(self):
        pattern = parse("PATTERN SEQ(A a) WHERE a.flag == true WITHIN 10")
        assert pattern.where[0].right == Const(True)
        pattern = parse("PATTERN SEQ(A a) WHERE a.flag == false WITHIN 10")
        assert pattern.where[0].right == Const(False)

    def test_attr_reference(self):
        pattern = parse("PATTERN SEQ(A a) WHERE a.price > 0 WITHIN 10")
        assert pattern.where[0].left == Attr("a", "price")


class TestBooleanStructure:
    def test_and_chain(self):
        pattern = parse(
            "PATTERN SEQ(A a, B b, C c) "
            "WHERE a.x == b.x AND b.x == c.x AND a.y > 0 WITHIN 10"
        )
        assert len(pattern.where) == 3  # flattened conjunction

    def test_or_grouping(self):
        pattern = parse("PATTERN SEQ(A a) WHERE a.x == 1 OR a.x == 2 WITHIN 10")
        assert isinstance(pattern.where[0], Or)

    def test_parentheses(self):
        pattern = parse(
            "PATTERN SEQ(A a, B b) WHERE (a.x == 1 OR a.x == 2) AND b.x == 3 WITHIN 10"
        )
        assert len(pattern.where) == 2
        assert isinstance(pattern.where[0], Or)

    def test_not(self):
        pattern = parse("PATTERN SEQ(A a) WHERE NOT a.x == 1 WITHIN 10")
        assert isinstance(pattern.where[0], Not)

    def test_and_binds_tighter_than_or(self):
        pattern = parse(
            "PATTERN SEQ(A a) WHERE a.x == 1 OR a.x == 2 AND a.y == 3 WITHIN 10"
        )
        disjunction = pattern.where[0]
        assert isinstance(disjunction, Or)
        assert isinstance(disjunction.children[1], And)


class TestParseErrors:
    @pytest.mark.parametrize(
        "text",
        [
            "SEQ(A a) WITHIN 10",  # missing PATTERN
            "PATTERN SEQ(A a)",  # missing WITHIN
            "PATTERN SEQ() WITHIN 10",  # no steps
            "PATTERN SEQ(A a WITHIN 10",  # missing paren
            "PATTERN SEQ(A a) WITHIN ten",  # non-integer window
            "PATTERN SEQ(A a) WHERE a.x WITHIN 10",  # incomplete comparison
            "PATTERN SEQ(A a) WHERE == 1 WITHIN 10",  # missing operand
            "PATTERN SEQ(A a) WITHIN 10 trailing",  # trailing garbage
            "PATTERN SEQ(A a) WHERE a WITHIN 10",  # attr without dot
        ],
    )
    def test_syntax_errors_raise_parse_error(self, text):
        with pytest.raises(ParseError):
            parse(text)

    def test_unrecognised_character(self):
        with pytest.raises(ParseError, match="unrecognised"):
            parse("PATTERN SEQ(A a) WITHIN 10 $")

    def test_error_carries_position(self):
        try:
            parse("PATTERN SEQ(A a) WITHIN ten")
        except ParseError as exc:
            assert exc.position >= 0
        else:
            pytest.fail("expected ParseError")


class TestParsedSemantics:
    def test_parsed_query_evaluates_like_built_query(self):
        from repro import OfflineOracle, Pattern, Step, Eq

        parsed = parse("PATTERN SEQ(A a, B b) WHERE a.x == b.x WITHIN 10")
        built = Pattern(
            [Step("A", "a"), Step("B", "b")],
            where=[Eq(Attr("a", "x"), Attr("b", "x"))],
            within=10,
            name=parsed.name,
        )
        events = [
            Event("A", 1, {"x": 1}),
            Event("B", 3, {"x": 1}),
            Event("B", 4, {"x": 2}),
        ]
        assert (
            OfflineOracle(parsed).evaluate_set(events)
            == OfflineOracle(built).evaluate_set(events)
        )

    def test_ts_pseudo_attribute_usable_in_where(self):
        from repro import OfflineOracle

        pattern = parse("PATTERN SEQ(A a, B b) WHERE b.ts > 5 WITHIN 10")
        events = [Event("A", 1), Event("B", 3), Event("B", 7)]
        matches = OfflineOracle(pattern).evaluate(events)
        assert len(matches) == 1
        assert matches[0].events[1].ts == 7
