"""Failure schedules (repro.netsim.failure)."""

import pytest

from repro import ConfigurationError
from repro.netsim import FailureSchedule


class TestOutages:
    def test_available_outside_outage(self):
        schedule = FailureSchedule()
        schedule.add_outage("n", 10, 20)
        assert schedule.available_at("n", 5) == 5
        assert schedule.available_at("n", 20) == 20

    def test_held_until_recovery_inside_outage(self):
        schedule = FailureSchedule()
        schedule.add_outage("n", 10, 20)
        assert schedule.available_at("n", 10) == 20
        assert schedule.available_at("n", 15) == 20
        assert schedule.available_at("n", 19) == 20

    def test_unknown_node_always_up(self):
        assert FailureSchedule().available_at("x", 7) == 7

    def test_multiple_outages_binary_search(self):
        schedule = FailureSchedule()
        for start in range(0, 100, 20):
            schedule.add_outage("n", start, start + 5)
        assert schedule.available_at("n", 41) == 45
        assert schedule.available_at("n", 46) == 46

    def test_empty_outage_rejected(self):
        schedule = FailureSchedule()
        with pytest.raises(ConfigurationError):
            schedule.add_outage("n", 10, 10)

    def test_overlapping_outage_rejected(self):
        schedule = FailureSchedule()
        schedule.add_outage("n", 10, 20)
        with pytest.raises(ConfigurationError):
            schedule.add_outage("n", 15, 25)

    def test_adjacent_outages_allowed(self):
        schedule = FailureSchedule()
        schedule.add_outage("n", 10, 20)
        schedule.add_outage("n", 20, 30)
        assert schedule.available_at("n", 15) == 20  # not merged (held per interval)

    def test_outages_listing(self):
        schedule = FailureSchedule()
        schedule.add_outage("n", 30, 40)
        schedule.add_outage("n", 10, 20)
        assert schedule.outages("n") == [(10, 20), (30, 40)]
        assert schedule.outages("other") == []
