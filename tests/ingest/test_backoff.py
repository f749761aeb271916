"""The shared retry/backoff schedule: deterministic, capped, jittered."""

from __future__ import annotations

import pytest

from repro import Event
from repro.cli import main as cli_main
from repro.core.errors import ConfigurationError
from repro.ingest import IngestClient
from repro.ingest.backoff import BackoffPolicy, retry_call, run_resilient
from repro.streams import dump_trace

from helpers import delivered_once


def test_exponential_growth_without_jitter():
    policy = BackoffPolicy(base=0.1, factor=2.0, cap=10.0, jitter=0.0)
    assert [round(policy.delay(n), 3) for n in range(4)] == [0.1, 0.2, 0.4, 0.8]


def test_cap_bounds_every_delay():
    policy = BackoffPolicy(base=0.5, factor=3.0, cap=2.0, jitter=0.0, retries=6)
    assert max(policy.delay(n) for n in range(policy.retries)) == 2.0


def test_jitter_stays_inside_declared_band():
    policy = BackoffPolicy(base=1.0, factor=1.0, cap=1.0, jitter=0.4, seed=7)
    for attempt in range(50):
        delay = policy.delay(attempt)
        assert 0.6 <= delay <= 1.0


def test_schedule_is_a_pure_function_of_seed_and_attempt():
    a = BackoffPolicy(seed=3)
    b = BackoffPolicy(seed=3)
    c = BackoffPolicy(seed=4)
    attempts = range(a.retries)
    assert [a.delay(n) for n in attempts] == [b.delay(n) for n in attempts]
    assert [a.delay(n) for n in attempts] != [c.delay(n) for n in attempts]


def test_reseeded_copies_spread_a_fleet():
    base = BackoffPolicy(jitter=0.5)
    fleet = [base.reseeded(i) for i in range(8)]
    first = [policy.delay(0) for policy in fleet]
    assert len(set(first)) > 1  # clients do not thunder in lockstep


@pytest.mark.parametrize(
    "kwargs",
    [
        {"base": 0.0},
        {"factor": 0.5},
        {"cap": 0.01, "base": 0.1},
        {"retries": -1},
        {"jitter": 1.5},
    ],
)
def test_invalid_parameters_rejected(kwargs):
    with pytest.raises(ConfigurationError):
        BackoffPolicy(**kwargs)


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
@pytest.mark.parametrize("field", ["base", "factor", "cap"])
def test_non_finite_timings_rejected(field, value):
    """``factor=inf`` would make ``delay(1)`` infinite, a retry that
    sleeps forever; NaN passes every ordering test unchecked."""
    with pytest.raises(ConfigurationError, match="must be finite"):
        BackoffPolicy(**{field: value})


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_client_rejects_a_non_finite_timeout(value):
    with pytest.raises(ConfigurationError, match="timeout must be finite and > 0"):
        IngestClient("127.0.0.1", 1, "s1", "orders", timeout=value)


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_send_with_a_non_finite_timeout_exits_2(tmp_path, capsys, value):
    trace = tmp_path / "trace.jsonl"
    dump_trace([Event("A", 1, {"x": 1})], trace)
    code = cli_main([
        "send", "--port", "1", "--source", "s1", "--stream", "orders",
        "--trace", str(trace), "--timeout", value,
    ])
    assert code == 2
    assert "error: timeout must be finite and > 0" in capsys.readouterr().err


def test_retry_call_retries_then_succeeds():
    sleeps = []
    calls = {"n": 0}

    def flaky():
        calls["n"] += 1
        if calls["n"] < 3:
            raise ValueError("transient")
        return "done"

    result = retry_call(
        flaky,
        BackoffPolicy(base=0.1, jitter=0.0, retries=5),
        retry_on=(ValueError,),
        sleep=sleeps.append,
    )
    assert result == "done"
    assert sleeps == [0.1, 0.2]


def test_retry_call_exhausts_budget_and_raises():
    def always_fails():
        raise ValueError("permanent")

    with pytest.raises(ValueError):
        retry_call(
            always_fails,
            BackoffPolicy(retries=2, jitter=0.0),
            retry_on=(ValueError,),
            sleep=lambda _s: None,
        )


def test_retry_call_does_not_catch_other_exceptions():
    def wrong_error():
        raise KeyError("not retryable")

    with pytest.raises(KeyError):
        retry_call(
            wrong_error,
            BackoffPolicy(retries=5),
            retry_on=(ValueError,),
            sleep=lambda _s: None,
        )


def test_run_resilient_supervises_crashes(tmp_path, ab_pattern):
    from repro import OutOfOrderEngine
    from repro.core.oracle import OfflineOracle
    from repro.core.recovery import ResilientRunner
    from repro.faultinject import FaultInjector
    from helpers import make_events

    events = make_events("A1:1 B3:1 A5:2 B7:2 A9:3 B11:3")
    fault = FaultInjector(crash_at=[2, 4])

    def build_runner():
        return ResilientRunner(
            OutOfOrderEngine(ab_pattern, k=2), tmp_path,
            checkpoint_every=2, fault=fault,
        )

    runner, crashes = run_resilient(
        build_runner, events,
        policy=BackoffPolicy(base=0.001, jitter=0.0),
        sleep=lambda _s: None,
    )
    assert crashes == 2
    truth = OfflineOracle(ab_pattern).evaluate_set(events)
    assert delivered_once(tmp_path) == truth
    assert runner.delivered_count == len(truth)
