"""Each rule fires on its bad-engine fixture — exact IDs and lines.

The fixtures under ``fixtures/`` are not collected by pytest (no
``test_`` prefix); they exist to be *analyzed*.  Line numbers asserted
here are pinned by comments inside the fixtures.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.analysis import run_analysis
from repro.analysis.rules import all_rules
from repro.analysis.rules.await_atomicity import AwaitAtomicity
from repro.analysis.rules.blocking_async import BlockingInCoroutine
from repro.analysis.rules.determinism import Determinism
from repro.analysis.rules.hot_path_purity import HotPathPurity
from repro.analysis.rules.purge_safety import PurgeSafety
from repro.analysis.rules.task_hygiene import TaskHygiene

FIXTURES = Path(__file__).parent / "fixtures"


def analyze(fixture: str, rule):
    report = run_analysis([str(FIXTURES / fixture)], rules=[rule])
    assert not report.parse_errors
    return report.findings


def test_rule_catalogue_is_complete():
    assert [rule.rule_id for rule in all_rules()] == [
        "R002",
        "R003",
        "R005",
        "R006",
        "R007",
        "R008",
    ]


def test_r002_flags_clock_and_print_on_feed_path():
    findings = analyze("bad_r002.py", HotPathPurity())
    flagged = sorted((f.rule, f.line) for f in findings)
    assert flagged == [("R002", 14), ("R002", 19)]
    by_line = {f.line: f.message for f in findings}
    assert "time.time" in by_line[14]
    assert "print" in by_line[19]
    # The transitive finding reports how the hot path reaches it.
    assert "feed" in by_line[19]


def test_r003_flags_set_iteration_on_output_path():
    findings = analyze("bad_r003.py", Determinism())
    assert [(f.rule, f.line) for f in findings] == [("R003", 14)]
    assert "sorted" in findings[0].message


def test_r005_flags_mutation_while_iterating():
    findings = analyze("bad_r005.py", PurgeSafety())
    assert [(f.rule, f.line) for f in findings] == [("R005", 11)]
    assert findings[0].symbol.endswith("LeakyStore.purge_through")
    assert "_events" in findings[0].message


def test_r006_flags_stale_writes_across_awaits():
    findings = analyze("bad_r006.py", AwaitAtomicity())
    flagged = sorted((f.line, f.message) for f in findings)
    assert [line for line, _ in flagged] == [15, 18]
    assert "'self.total'" in flagged[0][1]
    assert "read on line 13" in flagged[0][1]
    assert "await on line 14" in flagged[0][1]
    assert "'self.hits'" in flagged[1][1]


def test_r007_flags_blocking_calls_direct_and_transitive():
    findings = analyze("bad_r007.py", BlockingInCoroutine())
    by_line = {f.line: f.message for f in findings}
    assert sorted(by_line) == [14, 18]
    assert ".open" in by_line[14]
    # Transitive finding explains how the coroutine reaches the helper.
    assert "via 1 call" in by_line[14]
    assert "time.sleep" in by_line[18]


def test_r008_flags_discarded_task_and_unawaited_close():
    findings = analyze("bad_r008.py", TaskHygiene())
    by_line = {f.line: f.message for f in findings}
    assert sorted(by_line) == [8, 16]
    assert "create_task" in by_line[8]
    assert "wait_closed" in by_line[16]


@pytest.mark.parametrize("rule", all_rules(), ids=lambda r: r.rule_id)
def test_clean_engine_passes_every_rule(rule):
    assert analyze("clean_engine.py", rule) == []


@pytest.mark.parametrize("rule", all_rules(), ids=lambda r: r.rule_id)
def test_clean_async_passes_every_rule(rule):
    assert analyze("clean_async.py", rule) == []


def test_full_run_over_fixture_dir_counts_every_rule():
    report = run_analysis([str(FIXTURES)])
    rules_seen = {finding.rule for finding in report.findings}
    assert rules_seen == {"R002", "R003", "R005", "R006", "R007", "R008"}
    assert report.checked_files == 8

