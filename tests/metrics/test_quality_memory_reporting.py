"""Quality and reporting metrics (repro.metrics)."""

from repro.metrics import (
    compare_keys,
    format_cell,
    render_series,
    render_table,
)


class TestQualityReport:
    def test_perfect(self):
        truth = {("q", (1, 2)), ("q", (3, 4))}
        report = compare_keys(truth, truth)
        assert report.recall == 1.0
        assert report.precision == 1.0
        assert report.exact

    def test_missed(self):
        truth = {("q", (1,)), ("q", (2,))}
        report = compare_keys(truth, {("q", (1,))})
        assert report.recall == 0.5
        assert report.precision == 1.0
        assert report.missed == 1

    def test_spurious(self):
        truth = {("q", (1,))}
        report = compare_keys(truth, {("q", (1,)), ("q", (9,))})
        assert report.precision == 0.5
        assert report.spurious == 1

    def test_empty_truth_and_empty_produced(self):
        report = compare_keys(set(), set())
        assert report.recall == 1.0 and report.precision == 1.0

    def test_empty_produced_nonempty_truth(self):
        report = compare_keys({("q", (1,))}, set())
        assert report.recall == 0.0
        assert report.precision == 0.0



class TestReporting:
    def test_render_table_alignment(self):
        text = render_table(
            "My Table", ["name", "value"], [["alpha", 1], ["b", 22222]]
        )
        assert "My Table" in text
        assert "alpha" in text and "22,222" in text  # large ints grouped
        lines = text.splitlines()
        assert len(lines) >= 6

    def test_render_table_note(self):
        text = render_table("T", ["a"], [[1]], note="hello")
        assert "note: hello" in text

    def test_render_series_columns(self):
        text = render_series(
            "Figure 1", "k", [1, 2], {"ooo": [10, 20], "reorder": [30, 40]}
        )
        assert "ooo" in text and "reorder" in text
        assert "Figure 1" in text

    def test_format_cell_variants(self):
        assert format_cell(True) == "yes"
        assert format_cell(False) == "no"
        assert format_cell(0.0) == "0"
        assert format_cell(3.14159) == "3.142"
        assert format_cell(12.5) == "12.5"
        assert format_cell(123456.0) == "123,456"
        assert format_cell(1_000_000) == "1,000,000"
        assert format_cell("text") == "text"
        assert format_cell(7) == "7"
