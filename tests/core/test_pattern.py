"""Unit tests for the pattern AST and compilation (repro.core.pattern)."""

import pytest

from repro import (
    And,
    Attr,
    Const,
    Eq,
    Event,
    Gt,
    Match,
    Pattern,
    QueryError,
    Step,
    seq,
)


class TestStep:
    def test_positive_step(self):
        step = Step("A", "a")
        assert not step.negated
        assert step.etype == "A" and step.var == "a"

    def test_negated_step_repr(self):
        assert "!B" in repr(Step("B", "b", negated=True))

    def test_invalid_var(self):
        with pytest.raises(QueryError):
            Step("A", "not an identifier")
        with pytest.raises(QueryError):
            Step("A", "")

    def test_invalid_type(self):
        with pytest.raises(QueryError):
            Step("", "a")

    def test_equality(self):
        assert Step("A", "a") == Step("A", "a")
        assert Step("A", "a") != Step("A", "a", negated=True)


class TestPatternValidation:
    def test_needs_steps(self):
        with pytest.raises(QueryError):
            Pattern([], within=10)

    def test_needs_positive_step(self):
        with pytest.raises(QueryError):
            Pattern([Step("A", "a", negated=True)], within=10)

    def test_rejects_adjacent_negation(self):
        with pytest.raises(QueryError, match="adjacent"):
            Pattern(
                [
                    Step("A", "a"),
                    Step("B", "b", negated=True),
                    Step("C", "c", negated=True),
                    Step("D", "d"),
                ],
                within=10,
            )

    def test_rejects_duplicate_variables(self):
        with pytest.raises(QueryError, match="duplicate"):
            Pattern([Step("A", "a"), Step("B", "a")], within=10)

    def test_rejects_nonpositive_window(self):
        with pytest.raises(QueryError):
            Pattern([Step("A", "a")], within=0)
        with pytest.raises(QueryError):
            Pattern([Step("A", "a")], within=-5)
        with pytest.raises(QueryError):
            Pattern([Step("A", "a")], within=True)

    def test_rejects_unknown_predicate_variable(self):
        with pytest.raises(QueryError, match="unknown"):
            Pattern(
                [Step("A", "a")],
                where=[Eq(Attr("zz", "x"), Const(1))],
                within=10,
            )

    def test_rejects_predicate_relating_two_negated_vars(self):
        with pytest.raises(QueryError, match="two negated"):
            Pattern(
                [
                    Step("A", "a"),
                    Step("B", "b", negated=True),
                    Step("C", "c"),
                    Step("D", "d", negated=True),
                    Step("E", "e"),
                ],
                where=[Eq(Attr("b", "x"), Attr("d", "x"))],
                within=10,
            )

    def test_rejects_non_predicate_where(self):
        with pytest.raises(QueryError):
            Pattern([Step("A", "a")], where=["a.x == 1"], within=10)


class TestPatternCompilation:
    def test_length_counts_positive_steps_only(self):
        pattern = seq("A a", "!B b", "C c", within=10)
        assert pattern.length == 2
        assert pattern.negations

    def test_flattens_top_level_and(self):
        pattern = Pattern(
            [Step("A", "a"), Step("B", "b")],
            where=[And([Eq(Attr("a", "x"), Attr("b", "x")), Gt(Attr("a", "x"), Const(0))])],
            within=10,
        )
        assert len(pattern.where) == 2

    def test_negation_predicates_partitioned(self):
        pattern = Pattern(
            [Step("A", "a"), Step("B", "b", negated=True), Step("C", "c")],
            where=[
                Eq(Attr("a", "x"), Attr("c", "x")),
                Eq(Attr("b", "x"), Attr("a", "x")),
            ],
            within=10,
        )
        assert len(pattern.positive_predicates) == 1
        assert len(pattern.negations) == 1
        assert len(pattern.negations[0].predicates) == 1

    def test_negation_bracket_positions(self):
        pattern = seq("!N0 n0", "A a", "!N1 n1", "B b", "!N2 n2", within=10)
        brackets = {b.step.var: (b.lower, b.upper) for b in pattern.negations}
        assert brackets == {"n0": (None, 0), "n1": (0, 1), "n2": (1, None)}

    def test_types_indexed(self):
        pattern = seq("A a", "!B b", "C c", within=10)
        assert pattern.positive_types == ("A", "C")
        assert pattern.negated_types == {"B"}
        assert pattern.relevant_types == {"A", "B", "C"}

    def test_repeated_type_at_multiple_steps(self):
        pattern = seq("A first", "A second", within=10)
        assert pattern.steps_of_type["A"] == [0, 1]

    def test_equality_pairs_extracted(self):
        pattern = Pattern(
            [Step("A", "a"), Step("B", "b")],
            where=[Eq(Attr("a", "x"), Attr("b", "x"))],
            within=10,
        )
        assert len(pattern.equality_pairs) == 1


class TestPatternSemanticsHelpers:
    def test_bindings_for_length_checked(self):
        pattern = seq("A a", "B b", within=10)
        with pytest.raises(QueryError):
            pattern.bindings_for([Event("A", 1)])


class TestSeqBuilder:
    def test_builds_steps_from_strings(self):
        pattern = seq("A a", "!B b", "C c", within=5)
        assert [s.negated for s in pattern.steps] == [False, True, False]

    def test_rejects_bad_spec(self):
        with pytest.raises(QueryError):
            seq("A", within=5)
        with pytest.raises(QueryError):
            seq("A a extra", within=5)

    def test_strips_whitespace(self):
        pattern = seq("  A   a ", within=5)
        assert pattern.steps[0] == Step("A", "a")


class TestNegationBracketBounds:
    def test_inner_bracket_bounds_are_neighbour_timestamps(self):
        pattern = seq("A a", "!B b", "C c", within=10)
        positives = [Event("A", 3), Event("C", 9)]
        lo, hi = pattern.negations[0].bounds(positives, pattern.within)
        assert (lo, hi) == (3, 9)

    def test_leading_bracket_bounded_by_window(self):
        pattern = seq("!B b", "A a", "C c", within=10)
        positives = [Event("A", 20), Event("C", 25)]
        lo, hi = pattern.negations[0].bounds(positives, pattern.within)
        assert hi == 20
        assert lo == 25 - 10 - 1  # last.ts - W - 1

    def test_trailing_bracket_bounded_by_window(self):
        pattern = seq("A a", "C c", "!B b", within=10)
        positives = [Event("A", 20), Event("C", 25)]
        lo, hi = pattern.negations[0].bounds(positives, pattern.within)
        assert lo == 25
        assert hi == 20 + 10 + 1  # first.ts + W + 1

    def test_admits_respects_interval_and_predicates(self):
        pattern = Pattern(
            [Step("A", "a"), Step("B", "b", negated=True), Step("C", "c")],
            where=[Eq(Attr("b", "x"), Attr("a", "x"))],
            within=10,
        )
        positives = [Event("A", 3, {"x": 1}), Event("C", 9, {"x": 1})]
        bracket = pattern.negations[0]
        assert bracket.admits(Event("B", 5, {"x": 1}), positives, 10)
        assert not bracket.admits(Event("B", 5, {"x": 2}), positives, 10)  # predicate
        assert not bracket.admits(Event("B", 3, {"x": 1}), positives, 10)  # boundary
        assert not bracket.admits(Event("B", 9, {"x": 1}), positives, 10)  # boundary
        assert not bracket.admits(Event("B", 11, {"x": 1}), positives, 10)  # outside


class TestMatch:
    def test_match_key_identity(self):
        pattern = seq("A a", "B b", within=10)
        a, b = Event("A", 1), Event("B", 2)
        assert Match(pattern, [a, b]) == Match(pattern, [a, b])
        assert hash(Match(pattern, [a, b])) == hash(Match(pattern, [a, b]))

    def test_match_differs_on_events(self):
        pattern = seq("A a", "B b", within=10)
        a, b, b2 = Event("A", 1), Event("B", 2), Event("B", 3)
        assert Match(pattern, [a, b]) != Match(pattern, [a, b2])

    def test_start_end_ts(self):
        pattern = seq("A a", "B b", within=10)
        match = Match(pattern, [Event("A", 1), Event("B", 7)])
        assert match.start_ts == 1 and match.end_ts == 7

    def test_bindings_roundtrip(self):
        pattern = seq("A a", "B b", within=10)
        a, b = Event("A", 1), Event("B", 2)
        match = Match(pattern, [a, b])
        assert match.bindings() == {"a": a, "b": b}
