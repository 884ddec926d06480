"""Unit tests for the observability layer (repro.obs)."""

import json
import time
import types

import pytest

from repro import obs
from repro.common.events import Simulator
from repro.experiments.parallel import _utilization_series
from repro.metrics.timeline import Timeline
from repro.obs.metrics import (Histogram, MetricsRegistry,
                               merge_histogram_states)
from repro.obs.perfetto import (to_chrome_trace, validate_chrome_trace,
                                validate_trace_file, write_chrome_trace)
from repro.obs.profiler import SimProfiler, owner_key
from repro.obs.tracer import Tracer


@pytest.fixture(autouse=True)
def _clean_obs():
    """Never leak installed sinks into other tests."""
    obs.reset()
    yield
    obs.reset()


# ---------------------------------------------------------------------------
# Tracer
# ---------------------------------------------------------------------------

def test_tracer_span_roundtrips_through_chrome_json(tmp_path):
    tr = Tracer()
    t = tr.track("GPU 0", "sm-slot 0")
    h = tr.begin(t, "tb[0]", 100.0, cat="tb", args={"kernel": "gemm"})
    tr.instant(t, "phase", 150.0, cat="tb-phase")
    tr.counter(t, "depth", 160.0, 3)
    tr.async_begin(t, "session", 7, 120.0, cat="merge")
    tr.async_end(t, "session", 7, 180.0, cat="merge")
    tr.end(h, 200.0)

    path = tmp_path / "trace.json"
    write_chrome_trace(tr, str(path))
    assert validate_trace_file(str(path)) == []
    loaded = json.loads(path.read_text())
    events = loaded["traceEvents"]
    span = next(e for e in events if e["ph"] == "X")
    assert span["name"] == "tb[0]"
    assert span["ts"] == pytest.approx(0.1)     # ns -> us
    assert span["dur"] == pytest.approx(0.1)
    meta_names = {e["args"]["name"] for e in events if e["ph"] == "M"}
    assert {"GPU 0", "sm-slot 0"} <= meta_names


def test_tracer_flush_marks_unterminated_spans():
    tr = Tracer()
    t = tr.track("p", "t")
    tr.begin(t, "never-ends", 10.0)
    done = tr.begin(t, "ends", 20.0)
    tr.end(done, 30.0)
    assert tr.open_spans() == 1
    assert tr.flush(100.0) == 1
    assert tr.open_spans() == 0
    spans = [e for e in tr.events() if e["ph"] == "X"]
    flagged = next(s for s in spans if s["name"] == "never-ends")
    assert flagged["args"]["unterminated"] is True
    clean = next(s for s in spans if s["name"] == "ends")
    assert "args" not in clean or "unterminated" not in clean.get("args", {})


def test_tracer_flush_clamps_negative_duration():
    tr = Tracer()
    t = tr.track("p", "t")
    tr.begin(t, "late", 50.0)
    tr.flush(10.0)                       # flush time before span start
    span = next(e for e in tr.events() if e["ph"] == "X")
    assert span["dur"] >= 0


def test_tracer_end_rejects_unknown_handle():
    tr = Tracer()
    t = tr.track("p", "t")
    tr.begin(t, "still-open", 10.0)
    closed = tr.begin(t, "closed", 20.0)
    tr.end(closed, 30.0)
    with pytest.raises(ValueError) as excinfo:
        tr.end(closed, 40.0)             # double close
    msg = str(excinfo.value)
    assert str(closed) in msg            # names the offending handle
    assert "still-open" in msg           # lists what IS open
    with pytest.raises(ValueError):
        tr.end(999, 50.0)                # never-issued handle


def test_validator_rejects_malformed_events():
    assert validate_chrome_trace({"traceEvents": [{"ph": "X"}]})
    assert validate_chrome_trace([1, 2, 3])
    assert validate_chrome_trace(
        {"traceEvents": [{"ph": "??", "pid": 1, "tid": 1, "name": "x"}]})
    ok = {"traceEvents": [{"ph": "i", "pid": 1, "tid": 1, "name": "x",
                           "ts": 1.0, "s": "t"}]}
    assert validate_chrome_trace(ok) == []


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def test_counter_gauge_histogram_basics():
    reg = MetricsRegistry()
    c = reg.counter("c")
    c.inc()
    c.inc(2)
    g = reg.gauge("g")
    g.set(5.0)
    g.set(2.0)
    h = reg.histogram("h")
    for v in (0.5, 1.0, 2.0, 3.0, 1000.0):
        h.record(v)
    snap = reg.snapshot()
    assert snap["counters"]["c"] == 3
    assert snap["gauges"]["g"] == {"value": 2.0, "peak": 5.0}
    hist = snap["histograms"]["h"]
    assert hist["count"] == 5
    assert hist["min"] == 0.5 and hist["max"] == 1000.0
    # 0.5 and 1.0 -> le_2^0; 2.0 -> le_2^1; 3.0 -> le_2^2; 1000 -> le_2^10
    assert hist["buckets"] == {"le_2^0": 2, "le_2^1": 1, "le_2^2": 1,
                               "le_2^10": 1}


def test_registry_get_or_create_returns_same_instrument():
    reg = MetricsRegistry()
    assert reg.counter("x") is reg.counter("x")
    assert reg.gauge("y") is reg.gauge("y")
    assert reg.histogram("z") is reg.histogram("z")
    assert reg.names() == ["x", "y", "z"]


def test_snapshot_json_is_deterministic():
    def build():
        reg = MetricsRegistry()
        # Insert in different orders; serialization must not care.
        for name in ("b", "a", "c"):
            reg.counter(name).inc(ord(name))
        reg.histogram("h").record(42.0)
        reg.gauge("g").set(1.5)
        return reg
    a, b = build(), build()
    assert a.to_json() == b.to_json()
    json.loads(a.to_json())              # valid JSON


# ---------------------------------------------------------------------------
# Profiler
# ---------------------------------------------------------------------------

class _Owner:
    def __init__(self):
        self.calls = 0

    def cb(self):
        self.calls += 1


def test_profiler_attributes_time_per_owner():
    prof = SimProfiler()
    obs.install(profiler=prof)
    sim = Simulator()
    owner = _Owner()
    for i in range(5):
        sim.schedule(float(i), owner.cb)
    sim.schedule(10.0, lambda: None)
    sim.run()
    assert owner.calls == 5
    assert prof.events == 6
    rows = dict((k, c) for k, _, c in prof.top())
    assert rows["_Owner.cb"] == 5
    assert prof.events_per_sec() > 0
    assert "_Owner.cb" in prof.report()
    summary = prof.summary()
    assert summary["events"] == 6 and summary["top"]


def test_owner_key_shapes():
    owner = _Owner()
    assert owner_key(owner.cb) == "_Owner.cb"
    assert "lambda" in owner_key(lambda: None)


# ---------------------------------------------------------------------------
# Simulator integration: auto-compaction and gauges
# ---------------------------------------------------------------------------

def test_simulator_auto_compacts_when_cancelled_dominate():
    sim = Simulator()
    events = [sim.timer(1000.0 + i, lambda: None) for i in range(200)]
    for ev in events[:150]:
        ev.cancel()
    assert sim.cancelled_pending() == 150
    sim.schedule(1.0, lambda: None)      # push triggers the compaction
    assert sim.auto_compactions >= 1
    assert sim.cancelled_pending() == 0
    assert sim.pending() == 51
    sim.run()


def test_simulator_skips_compaction_for_small_queues():
    sim = Simulator()
    events = [sim.timer(10.0 + i, lambda: None) for i in range(10)]
    for ev in events[:8]:
        ev.cancel()
    sim.schedule(1.0, lambda: None)
    assert sim.auto_compactions == 0     # below the size floor
    sim.run()


def test_simulator_publishes_engine_gauges():
    reg = MetricsRegistry()
    obs.install(metrics=reg)
    sim = Simulator()
    for i in range(100):
        sim.schedule(float(i), lambda: None)
    sim.run()
    snap = reg.snapshot()
    assert snap["gauges"]["sim.peak_queue_depth"]["peak"] >= 100
    assert snap["gauges"]["sim.events_processed"]["value"] == 100
    assert snap["gauges"]["sim.cancelled_fraction"]["value"] == 0.0


def test_cancelled_count_tracks_pops():
    sim = Simulator()
    ev = sim.timer(5.0, lambda: None)
    ev.cancel()
    sim.schedule(6.0, lambda: None)
    sim.run()
    assert sim.cancelled_pending() == 0


# ---------------------------------------------------------------------------
# Timeline flush (regression: open spans used to vanish silently)
# ---------------------------------------------------------------------------

def test_timeline_flush_preserves_open_spans():
    tl = Timeline()
    done = tl.begin("finished", 0.0)
    tl.end(done, 50.0)
    tl.begin("abandoned", 10.0)
    assert tl.open_spans() == [("abandoned", 10.0)]
    flushed = tl.flush(100.0)
    assert [s.name for s in flushed] == ["abandoned"]
    assert tl.open_spans() == []
    spans = {s.name: s for s in tl.spans()}
    assert spans["finished"].complete is True
    assert spans["abandoned"].complete is False
    assert spans["abandoned"].end_ns == 100.0


def test_timeline_flush_clamps_end_before_start():
    tl = Timeline()
    tl.begin("late", 80.0)
    (span,) = tl.flush(20.0)
    assert span.end_ns == 80.0           # never negative duration


class _FakeTracker:
    bytes_transferred = 0

    @staticmethod
    def utilization(lo, hi):
        assert hi > lo                   # degenerate window = the old bug
        return 0.5


def test_utilization_series_window_count_is_exact():
    link = types.SimpleNamespace(tracker=_FakeTracker())
    network = types.SimpleNamespace(all_links=lambda: [link])
    # 89,024,501.84 ns in 12 windows: accumulating t += window emitted a
    # 13th sliver window, so a fig16 summary never satisfied its task.
    for makespan, windows in ((0.3, 3), (1.0, 7), (515037.2, 13),
                              (1e9 / 3, 11), (7.0, 70),
                              (89024501.84, 12)):
        series = _utilization_series(network, makespan, windows)
        assert len(series) == windows, (makespan, windows)
        # Centers (us) strictly increase and the last window ends at
        # makespan.
        centers = [t_us for t_us, _ in series]
        assert all(a < b for a, b in zip(centers, centers[1:]))
        width = makespan / windows
        assert centers[-1] == pytest.approx((makespan - width / 2) / 1e3,
                                            rel=1e-6)


# ---------------------------------------------------------------------------
# Disabled-path overhead micro-benchmark
# ---------------------------------------------------------------------------

def test_disabled_observability_overhead_is_negligible():
    """With no sinks installed, firing an event costs microseconds —
    the guard is one identity test.  The bound is deliberately generous
    (50 us/event) so the test never flakes, while still catching a
    pathological regression such as recording while disabled."""
    n = 20_000
    sim = Simulator()

    def tick(left):
        if left:
            sim.schedule(1.0, tick, left - 1)

    sim.schedule(0.0, tick, n)
    t0 = time.perf_counter()
    sim.run()
    elapsed = time.perf_counter() - t0
    assert sim.events_processed == n + 1
    assert elapsed / n < 50e-6


def test_disabled_run_records_nothing():
    sim = Simulator()
    sim.schedule(1.0, lambda: None)
    sim.run()
    assert obs.current() == obs.ObsContext()
    assert all(getattr(obs.current(), f) is None for f in (
        "tracer", "metrics", "profiler", "causality", "timeseries",
        "request_log"))


# ---------------------------------------------------------------------------
# The installed context
# ---------------------------------------------------------------------------


def test_install_sets_only_named_fields_and_returns_previous():
    tracer, reg = Tracer(), MetricsRegistry()
    before = obs.current()
    assert obs.install(tracer=tracer) is before
    after_tracer = obs.current()
    assert obs.install(metrics=reg) is after_tracer
    ctx = obs.current()
    assert ctx.tracer is tracer and ctx.metrics is reg
    assert ctx.profiler is None and ctx.causality is None


def test_install_none_turns_a_sink_off():
    reg = MetricsRegistry()
    obs.install(tracer=Tracer(), metrics=reg)
    obs.install(tracer=None)
    assert obs.current().tracer is None
    assert obs.current().metrics is reg


def test_install_rejects_unknown_sink():
    with pytest.raises(TypeError):
        obs.install(bogus=Tracer())
    assert obs.current() == obs.ObsContext()


def test_installed_restores_on_exit_and_on_exception_and_nests():
    outer_reg = MetricsRegistry()
    obs.install(metrics=outer_reg)
    outer = obs.current()
    tracer, inner_reg = Tracer(), MetricsRegistry()
    with obs.installed(tracer=tracer) as ctx:
        assert ctx is obs.current()
        assert ctx.tracer is tracer and ctx.metrics is outer_reg
        with obs.installed(metrics=inner_reg):
            assert obs.current().tracer is tracer
            assert obs.current().metrics is inner_reg
        assert obs.current() is ctx
    assert obs.current() is outer
    with pytest.raises(RuntimeError):
        with obs.installed(metrics=None):
            assert obs.current().metrics is None
            raise RuntimeError("boom")
    assert obs.current() is outer


def test_reset_turns_every_sink_off():
    obs.install(tracer=Tracer(), metrics=MetricsRegistry(),
                profiler=SimProfiler(),
                causality=obs.CausalityRecorder(),
                timeseries=obs.TimeSeriesSink(), request_log=obs.RequestLog())
    obs.reset()
    assert obs.current() == obs.ObsContext()


# ---------------------------------------------------------------------------
# Histogram state transport (matrix-worker envelopes)
# ---------------------------------------------------------------------------

def _hist(name, values):
    h = Histogram(name)
    for v in values:
        h.record(v)
    return h


def test_histogram_state_roundtrips_losslessly():
    h = _hist("lat", [1.0, 2.0, 1000.0, 0.5])
    state = h.state()
    json.loads(json.dumps(state))  # JSON-serializable as-is
    back = Histogram.from_state(json.loads(json.dumps(state)))
    assert back.state() == state
    assert back.count == h.count
    assert back.quantile(0.5) == h.quantile(0.5)
    assert back.quantile(0.99) == h.quantile(0.99)


def test_empty_histogram_state_roundtrips():
    state = Histogram("empty").state()
    assert state["min"] is None and state["max"] is None
    back = Histogram.from_state(state)
    assert back.count == 0 and back.state() == state


def test_merge_histogram_states_matches_single_stream():
    # Integer-valued samples keep the float `sum` exact, so the merged
    # state must equal recording everything into one histogram.
    a = _hist("lat", [1.0, 4.0, 9.0])
    b = _hist("lat", [2.0, 256.0])
    merged = merge_histogram_states([a.state(), b.state()])
    assert merged == _hist("lat", [1.0, 4.0, 9.0, 2.0, 256.0]).state()


def test_merge_histogram_states_is_associative_and_commutative():
    parts = [_hist("lat", [1.0]).state(),
             _hist("lat", [2.0, 8.0]).state(),
             _hist("lat", [512.0]).state()]
    a, b, c = parts
    left = merge_histogram_states([merge_histogram_states([a, b]), c])
    right = merge_histogram_states([a, merge_histogram_states([b, c])])
    assert left == right
    assert merge_histogram_states([c, a, b]) == left


def test_merge_histogram_states_skips_empty_and_handles_nothing():
    empty = Histogram("").state()
    real = _hist("lat", [3.0]).state()
    assert merge_histogram_states([empty, real]) == real
    out = merge_histogram_states([])
    assert out["count"] == 0 and out["name"] == ""


def test_registry_histogram_states_sorted_by_name():
    mx = MetricsRegistry()
    mx.histogram("z.lat").record(1.0)
    mx.histogram("a.lat").record(2.0)
    states = mx.histogram_states()
    assert [s["name"] for s in states] == ["a.lat", "z.lat"]
