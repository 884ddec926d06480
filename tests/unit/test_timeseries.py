"""Unit tests for the windowed time-series sink (repro.obs.timeseries)."""

import json
import math

import pytest

from repro.obs.metrics import EmptyDistributionWarning, Histogram
from repro.obs.timeseries import TimeSeriesSink, annotate_windows
from repro.obs.tracer import Tracer


# ---------------------------------------------------------------------------
# Window math
# ---------------------------------------------------------------------------

def test_window_index_and_count():
    ts = TimeSeriesSink(window_ns=100.0)
    assert ts.index(0.0) == 0
    assert ts.index(99.9) == 0
    assert ts.index(100.0) == 1
    assert ts.index(250.0) == 2
    assert ts.window_count(0.0) == 1
    assert ts.window_count(100.0) == 1
    assert ts.window_count(100.1) == 2
    assert ts.window_count(1000.0) == 10


def test_rejects_nonpositive_window():
    with pytest.raises(ValueError, match="window_ns"):
        TimeSeriesSink(window_ns=0.0)


# ---------------------------------------------------------------------------
# Instruments
# ---------------------------------------------------------------------------

def test_counter_accumulates_per_window():
    ts = TimeSeriesSink(window_ns=100.0)
    c = ts.counter("tokens")
    c.add(10.0, 3)
    c.add(50.0, 2)
    c.add(150.0, 1)
    snap = ts.snapshot()
    assert [w["index"] for w in snap["windows"]] == [0, 1]
    assert snap["windows"][0]["counters"]["tokens"] == 5
    assert snap["windows"][1]["counters"]["tokens"] == 1
    assert c.total() == 6


def test_gauge_tracks_last_and_peak_per_window():
    ts = TimeSeriesSink(window_ns=100.0)
    g = ts.gauge("kv")
    g.set(10.0, 5.0)
    g.set(20.0, 9.0)
    g.set(30.0, 2.0)
    snap = ts.snapshot()
    assert snap["windows"][0]["gauges"]["kv"] == {"last": 2.0, "peak": 9.0}


def test_sketch_is_one_histogram_per_window():
    ts = TimeSeriesSink(window_ns=100.0)
    s = ts.sketch("ttft")
    s.record(10.0, 100.0)
    s.record(20.0, 200.0)
    s.record(150.0, 1000.0)
    snap = ts.snapshot()
    h0 = Histogram.from_state(snap["windows"][0]["sketches"]["ttft"])
    h1 = Histogram.from_state(snap["windows"][1]["sketches"]["ttft"])
    assert h0.count == 2 and h0.max == 200.0
    assert h1.count == 1 and h1.quantile(0.95) == 1000.0


def test_instruments_are_get_or_create():
    ts = TimeSeriesSink()
    assert ts.counter("a") is ts.counter("a")
    assert ts.gauge("b") is ts.gauge("b")
    assert ts.sketch("c") is ts.sketch("c")


# ---------------------------------------------------------------------------
# Marks (fault windows)
# ---------------------------------------------------------------------------

def test_marks_sorted_and_window_overlap():
    ts = TimeSeriesSink(window_ns=100.0)
    ts.mark_window(250.0, 350.0, "late")
    ts.mark_window(50.0, 150.0, "early")
    ts.mark_window(120.0, None, "permanent")
    assert [m[2] for m in ts.marks()] == ["early", "permanent", "late"]
    # Window 0 = [0,100): only the early mark overlaps.
    assert ts.window_marked(0, makespan_ns=400.0) == ["early"]
    # Window 1 = [100,200): early tail + open-ended permanent.
    assert ts.window_marked(1, makespan_ns=400.0) == ["early", "permanent"]
    # Window 3 = [300,400): late + permanent (clamped to makespan).
    assert ts.window_marked(3, makespan_ns=400.0) == ["permanent", "late"]
    # Open-ended mark already over by this window when makespan is short.
    assert ts.window_marked(3, makespan_ns=110.0) == ["late"]


# ---------------------------------------------------------------------------
# Snapshot
# ---------------------------------------------------------------------------

def test_snapshot_dense_with_makespan_sparse_without():
    ts = TimeSeriesSink(window_ns=100.0)
    ts.counter("x").add(250.0, 1)
    sparse = ts.snapshot()
    assert [w["index"] for w in sparse["windows"]] == [2]
    dense = ts.snapshot(makespan_ns=500.0)
    assert [w["index"] for w in dense["windows"]] == [0, 1, 2, 3, 4]
    assert "counters" not in dense["windows"][0]
    assert dense["windows"][2]["counters"]["x"] == 1
    assert dense["windows"][2]["start_ns"] == 200.0
    assert dense["windows"][2]["end_ns"] == 300.0


def test_snapshot_is_json_and_deterministic():
    def build():
        ts = TimeSeriesSink(window_ns=100.0)
        ts.counter("b").add(10.0, 1)
        ts.counter("a").add(10.0, 2)
        ts.gauge("g").set(150.0, 3.0)
        ts.sketch("s").record(150.0, 42.0)
        ts.mark_window(0.0, 100.0, "w")
        return json.dumps(ts.snapshot(makespan_ns=200.0), sort_keys=True)

    assert build() == build()
    loaded = json.loads(build())
    assert list(loaded["windows"][0]["counters"]) == ["a", "b"]


# ---------------------------------------------------------------------------
# Perfetto annotation
# ---------------------------------------------------------------------------

def test_annotate_windows_emits_boundaries_and_marks():
    ts = TimeSeriesSink(window_ns=100.0)
    ts.counter("x").add(50.0, 1)
    ts.mark_window(20.0, 120.0, "link_down a->b")
    ts.mark_window(80.0, None, "nvls_fail sw:0")
    tracer = Tracer()
    annotate_windows(tracer, ts, makespan_ns=250.0)
    tracks = dict(enumerate(tracer.tracks()))
    events = tracer.events()
    boundary = [e for e in events if e.get("cat") == "obs-window"]
    # window_count(250) = 3 windows -> 4 boundary instants (0..300ns).
    assert len(boundary) == 4
    assert all(tracks[e["track"]] == ("Obs", "windows") for e in boundary)
    marks = [e for e in events if e.get("cat") == "obs-mark"]
    begins = [e for e in marks if e["ph"] == "b"]
    ends = [e for e in marks if e["ph"] == "e"]
    assert len(begins) == len(ends) == 2
    # The open-ended mark is clamped to the makespan (ts is in us).
    open_end = [e for e in ends if e["name"] == "nvls_fail sw:0"][0]
    assert open_end["ts"] == pytest.approx(250.0 / 1e3)


def test_annotate_windows_noop_for_empty_run():
    tracer = Tracer()
    annotate_windows(tracer, TimeSeriesSink(), makespan_ns=0.0)
    assert tracer.events() == []


# ---------------------------------------------------------------------------
# Satellite: empty-sketch quantile guard at the window level
# ---------------------------------------------------------------------------

def test_window_sketch_quantile_of_untouched_window_is_nan():
    ts = TimeSeriesSink(window_ns=100.0)
    ts.sketch("lat").record(50.0, 10.0)
    snap = ts.snapshot(makespan_ns=300.0)
    # Window 1 never saw a sample: there is no sketch entry, and an
    # explicitly-rebuilt empty histogram answers nan with a warning
    # rather than raising.
    assert "sketches" not in snap["windows"][1]
    from repro.obs import reset_empty_distribution_warnings
    reset_empty_distribution_warnings()  # warn-once is process-global
    empty = Histogram("lat")
    with pytest.warns(EmptyDistributionWarning):
        assert math.isnan(empty.quantile(0.95))
