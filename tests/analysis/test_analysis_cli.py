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
    assert main(["--format", "json", str(FIXTURES / "bad_r001.py")]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["version"] == 1
    assert payload["checked_files"] == 1
    rules = [finding["rule"] for finding in payload["findings"]]
    assert "R001" in rules
    first = payload["findings"][0]
    assert set(first) == {"rule", "severity", "path", "line", "symbol", "message"}


def test_list_rules(capsys):
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule_id in ("R001", "R002", "R003", "R005", "R006"):
        assert rule_id in out


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


# -- --changed-only ---------------------------------------------------------------------


def _git_repo(tmp_path):
    import subprocess

    def git(*args):
        subprocess.run(
            ["git", "-c", "user.email=t@t", "-c", "user.name=t", *args],
            cwd=tmp_path,
            check=True,
            capture_output=True,
        )

    git("init", "-q")
    return git


def test_changed_only_filters_unchanged_findings(tmp_path, monkeypatch, capsys):
    git = _git_repo(tmp_path)
    (tmp_path / "old.py").write_text(BAD_PURGE, encoding="utf-8")
    git("add", "old.py")
    git("commit", "-qm", "seed")
    (tmp_path / "new.py").write_text(BAD_PURGE, encoding="utf-8")  # untracked
    monkeypatch.chdir(tmp_path)
    assert main(["--changed-only", "HEAD", str(tmp_path)]) == 1
    out = capsys.readouterr().out
    assert "new.py" in out
    assert "old.py" not in out


def test_changed_only_exits_zero_when_changes_are_clean(tmp_path, monkeypatch, capsys):
    git = _git_repo(tmp_path)
    (tmp_path / "old.py").write_text(BAD_PURGE, encoding="utf-8")
    git("add", "old.py")
    git("commit", "-qm", "seed")
    (tmp_path / "new.py").write_text("X = 1\n", encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    assert main(["--changed-only", "HEAD", str(tmp_path)]) == 0
    assert "0 findings" in capsys.readouterr().out


def test_changed_only_bad_ref_exits_two(tmp_path, monkeypatch, capsys):
    _git_repo(tmp_path)
    (tmp_path / "mod.py").write_text("X = 1\n", encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    assert main(["--changed-only", "no-such-ref", str(tmp_path)]) == 2
    assert "--changed-only" in capsys.readouterr().err
