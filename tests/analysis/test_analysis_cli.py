"""CLI behaviour: exit codes, formats, rule listing."""

from __future__ import annotations

import json
from pathlib import Path

from repro.analysis.__main__ import main

FIXTURES = Path(__file__).parent / "fixtures"


def test_clean_path_exits_zero(capsys):
    assert main([str(FIXTURES / "clean_engine.py")]) == 0
    out = capsys.readouterr().out
    assert "0 findings" in out


def test_findings_exit_one_text(capsys):
    assert main([str(FIXTURES / "bad_r003.py")]) == 1
    out = capsys.readouterr().out
    assert "R003" in out
    assert "NondetEngine" in out


def test_json_format_is_machine_readable(capsys):
    assert main(["--format", "json", str(FIXTURES / "bad_r005.py")]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["version"] == 1
    assert payload["checked_files"] == 1
    rules = [finding["rule"] for finding in payload["findings"]]
    assert "R005" in rules
    first = payload["findings"][0]
    assert set(first) == {"rule", "severity", "path", "line", "symbol", "message"}


def test_list_rules(capsys):
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule_id in ("R002", "R003", "R005", "R006", "R007", "R008"):
        assert rule_id in out
    # Snapshot completeness is the round-trip suite's job, not a rule's.
    assert "R001" not in out and "R009" not in out


def test_unparsable_file_exits_two(tmp_path, capsys):
    bad = tmp_path / "broken.py"
    bad.write_text("def broken(:\n", encoding="utf-8")
    assert main([str(bad)]) == 2
    assert "parse error" in capsys.readouterr().err


def test_empty_directory_exits_two(tmp_path, capsys):
    assert main([str(tmp_path)]) == 2
    assert "no python files" in capsys.readouterr().err


# -- dead-suppression warnings ----------------------------------------------------------


BAD_PURGE = (
    "class Store:\n"
    "    def __init__(self):\n"
    "        self._events = []\n"
    "\n"
    "    def purge_through(self, horizon):\n"
    "        for event in self._events:\n"
    "            self._events.remove(event)\n"
)


def test_dead_suppression_warns_but_exits_zero(tmp_path, capsys):
    path = tmp_path / "mod.py"
    path.write_text("X = 1  # repro: ignore[R005] -- stale\n", encoding="utf-8")
    assert main([str(path)]) == 0
    out = capsys.readouterr().out
    assert "dead comment" in out
    assert "1 dead suppression" in out


def test_dead_suppressions_in_json_payload(tmp_path, capsys):
    path = tmp_path / "mod.py"
    path.write_text("X = 1  # repro: ignore[R005] -- stale\n", encoding="utf-8")
    assert main(["--format", "json", str(path)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["findings"] == []
    [entry] = payload["dead_suppressions"]
    assert entry["line"] == 1
    assert entry["rule"] == "R005"


def test_live_suppression_is_not_reported_dead(tmp_path, capsys):
    marked = BAD_PURGE.replace(
        "self._events.remove(event)",
        "self._events.remove(event)  # repro: ignore[R005] -- fixture",
    )
    (tmp_path / "mod.py").write_text(marked, encoding="utf-8")
    assert main([str(tmp_path / "mod.py")]) == 0
    out = capsys.readouterr().out
    assert "dead" not in out
    assert "1 suppressed" in out
