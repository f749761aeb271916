"""Suppression syntax: line, symbol-header, and file scopes."""

from __future__ import annotations

from repro.analysis import run_analysis
from repro.analysis.rules.purge_safety import PurgeSafety
from repro.analysis.suppressions import parse_suppressions

BAD_PURGE = '''\
class Store:
    def __init__(self):
        self._events = []

    def purge_through(self, horizon):
        for event in self._events:
            self._events.remove(event){marker}
'''


def _write(tmp_path, text):
    path = tmp_path / "mod.py"
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_parse_line_and_file_scopes():
    per_line, per_file, decls = parse_suppressions(
        "# repro: ignore-file[R002]\n"
        "x = 1  # repro: ignore[R003,R005] -- justification text\n"
    )
    assert per_file == {"R002"}
    assert per_line == {2: {"R003", "R005"}}
    assert [(d.line, d.scope, d.rules) for d in decls] == [
        (1, "file", frozenset({"R002"})),
        (2, "line", frozenset({"R003", "R005"})),
    ]


def test_unsuppressed_fixture_fires(tmp_path):
    path = _write(tmp_path, BAD_PURGE.format(marker=""))
    report = run_analysis([path], rules=[PurgeSafety()])
    assert len(report.findings) == 1
    assert report.suppressed == 0


def test_line_suppression_silences_finding(tmp_path):
    marker = "  # repro: ignore[R005] -- fixture"
    path = _write(tmp_path, BAD_PURGE.format(marker=marker))
    report = run_analysis([path], rules=[PurgeSafety()])
    assert report.findings == []
    assert report.suppressed == 1


def test_line_suppression_is_rule_specific(tmp_path):
    marker = "  # repro: ignore[R003] -- wrong rule id"
    path = _write(tmp_path, BAD_PURGE.format(marker=marker))
    report = run_analysis([path], rules=[PurgeSafety()])
    assert len(report.findings) == 1
    assert report.suppressed == 0


def test_file_suppression_silences_finding(tmp_path):
    text = "# repro: ignore-file[R005] -- fixture\n" + BAD_PURGE.format(marker="")
    path = _write(tmp_path, text)
    report = run_analysis([path], rules=[PurgeSafety()])
    assert report.findings == []
    assert report.suppressed == 1


def test_symbol_header_suppression_covers_body(tmp_path):
    text = BAD_PURGE.format(marker="").replace(
        "def purge_through(self, horizon):",
        "def purge_through(self, horizon):  # repro: ignore[R005] -- fixture",
    )
    path = _write(tmp_path, text)
    report = run_analysis([path], rules=[PurgeSafety()])
    assert report.findings == []
    assert report.suppressed == 1
