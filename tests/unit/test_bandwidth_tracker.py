"""Unit tests for the bandwidth tracker."""

import pytest

from repro.metrics.bandwidth import BandwidthTracker


def test_busy_time_and_utilization():
    t = BandwidthTracker()
    t.record(0.0, 10.0, 100)
    t.record(20.0, 30.0, 100)
    assert t.busy_time() == pytest.approx(20.0)
    assert t.utilization(0.0, 40.0) == pytest.approx(0.5)
    assert t.bytes_transferred == 200
    assert t.messages == 2


def test_adjacent_intervals_merge():
    t = BandwidthTracker()
    t.record(0.0, 5.0, 10)
    t.record(5.0, 9.0, 10)
    assert t.intervals == [(0.0, 9.0)]


def test_overlapping_intervals_merge():
    t = BandwidthTracker()
    t.record(0.0, 6.0, 10)
    t.record(4.0, 8.0, 10)
    assert t.intervals == [(0.0, 8.0)]
    assert t.busy_time() == pytest.approx(8.0)


def test_out_of_order_start_rejected():
    t = BandwidthTracker()
    t.record(10.0, 20.0, 1)
    with pytest.raises(ValueError):
        t.record(5.0, 12.0, 1)


def test_invalid_interval_rejected():
    t = BandwidthTracker()
    with pytest.raises(ValueError):
        t.record(5.0, 4.0, 1)


def test_windowed_busy_time_clips():
    t = BandwidthTracker()
    t.record(0.0, 10.0, 1)
    assert t.busy_time(5.0, 8.0) == pytest.approx(3.0)
    assert t.busy_time(20.0, 30.0) == 0.0


def test_activity_bounds():
    t = BandwidthTracker()
    assert t.first_activity() == float("inf")
    assert t.last_activity() == 0.0
    t.record(3.0, 7.0, 1)
    assert t.first_activity() == 3.0
    assert t.last_activity() == 7.0


def test_utilization_rejects_empty_window():
    t = BandwidthTracker()
    with pytest.raises(ValueError):
        t.utilization(5.0, 5.0)
