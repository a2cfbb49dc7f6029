"""Unit tests for counters and time series."""

import pytest

from repro.sim import Counter, TimeSeries


class TestCounter:
    def test_bump_and_reset(self):
        c = Counter()
        c.bump()
        c.bump(4)
        assert int(c) == 5
        c.reset()
        assert c.value == 0


class TestTimeSeries:
    def test_stats(self):
        ts = TimeSeries()
        ts.record(0, 1)
        ts.record(10, 5)
        ts.record(20, 3)
        assert ts.max() == 5
        assert ts.min() == 1
        assert ts.mean() == 3

    def test_empty_stats_are_none(self):
        ts = TimeSeries()
        assert ts.max() is None
        assert ts.mean() is None
        assert ts.time_weighted_mean() is None

    def test_time_weighted_mean(self):
        ts = TimeSeries()
        ts.record(0, 0)
        ts.record(10, 100)  # value 0 held for 10ns
        ts.record(20, 0)  # value 100 held for 10ns
        assert ts.time_weighted_mean() == 50.0

    def test_time_weighted_mean_extends_to_end_time(self):
        ts = TimeSeries()
        ts.record(0, 10)
        assert ts.time_weighted_mean(end_time=100) == 10.0

    def test_single_sample_no_duration(self):
        ts = TimeSeries()
        ts.record(5, 7)
        assert ts.time_weighted_mean() == 7.0

    def test_backwards_end_time_raises(self):
        ts = TimeSeries()
        ts.record(0, 1)
        ts.record(10, 2)
        with pytest.raises(ValueError):
            ts.time_weighted_mean(end_time=5)

    def test_backwards_end_time_raises_single_sample(self):
        ts = TimeSeries()
        ts.record(10, 3)
        with pytest.raises(ValueError):
            ts.time_weighted_mean(end_time=9)

    def test_end_time_at_last_sample_is_valid(self):
        ts = TimeSeries()
        ts.record(0, 4)
        ts.record(10, 8)
        # A horizon exactly at the last sample adds no weight to it.
        assert ts.time_weighted_mean(end_time=10) == 4.0
