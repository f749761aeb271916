"""Unit tests for sequence scan (repro.core.scan): the admission table."""

import pytest

from repro import Event, Pattern, Step, Gt, Attr, Const, seq
from repro.core.scan import SequenceScanner


@pytest.fixture
def pattern():
    return seq("A a", "B b", "C c", within=10)


def steps_of(scanner, etype):
    return [index for index, _, _ in scanner.dispatch().get(etype, ())]


class TestAdmission:
    def test_admitted_to_matching_step(self, pattern):
        scanner = SequenceScanner(pattern)
        assert steps_of(scanner, "B") == [1]

    def test_type_at_multiple_steps(self):
        scanner = SequenceScanner(seq("A first", "A second", within=10))
        assert steps_of(scanner, "A") == [0, 1]

    def test_unknown_type_not_admitted(self, pattern):
        scanner = SequenceScanner(pattern)
        assert "Z" not in scanner.dispatch()

    def test_local_predicate_filters_admission(self):
        pattern = Pattern(
            [Step("A", "a"), Step("B", "b")],
            where=[Gt(Attr("a", "x"), Const(5))],
            within=10,
        )
        ((index, var, (local,)),) = SequenceScanner(pattern).dispatch()["A"]
        assert (index, var) == (0, "a")
        assert local.evaluate({"a": Event("A", 1, {"x": 9})})
        assert not local.evaluate({"a": Event("A", 1, {"x": 3})})

    def test_cross_variable_predicate_does_not_block_admission(self):
        pattern = Pattern(
            [Step("A", "a"), Step("B", "b")],
            where=[Gt(Attr("b", "x"), Attr("a", "x"))],
            within=10,
        )
        assert SequenceScanner(pattern).dispatch()["B"] == ((1, "b", ()),)
