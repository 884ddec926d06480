"""Windowed time-series sink: per-window counters, gauges, and sketches.

End-of-run aggregates (``serving.ttft_p95_ns`` and friends) answer "how
did the run go overall" but hide everything the SLO questions care about:
a burst, an eviction storm, or a fault window is invisible inside one
number.  This sink slices simulated time into fixed windows of
``window_ns`` and accumulates, per window:

* **counters** — monotone event counts (tokens emitted, retransmits);
* **gauges** — last-set value and per-window peak (KV occupancy,
  in-flight batch size);
* **sketches** — streaming log2-bucket distributions
  (:class:`~repro.obs.metrics.Histogram` per window) for quantile
  queries over TTFT/TPOT/iteration latency *inside* each window.

It also records **marks** — labelled ``[start, end)`` intervals such as
injected fault windows — so reports can overlay "what was broken when"
onto the per-window series, and :func:`annotate_windows` mirrors both the
window boundaries and the marks into a Perfetto trace.

Zero-cost contract (same as the rest of :mod:`repro.obs`): when no sink
is installed the context's ``timeseries`` field is ``None`` and
instrumented hot paths guard on ``is not None``.  Recording creates no
simulation events and draws no randomness, so an enabled run is
simulation-identical to a disabled one and the disabled path stays
byte-identical.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Tuple

from .metrics import Histogram


class _TsCounter:
    """Per-window monotone count."""

    __slots__ = ("name", "_sink", "_windows")

    def __init__(self, name: str, sink: "TimeSeriesSink"):
        self.name = name
        self._sink = sink
        self._windows: Dict[int, float] = {}

    def add(self, t_ns: float, n: float = 1.0) -> None:
        w = self._sink.index(t_ns)
        self._windows[w] = self._windows.get(w, 0.0) + n

    def total(self) -> float:
        return sum(self._windows.values())


class _TsGauge:
    """Per-window last-set value with the window peak retained."""

    __slots__ = ("name", "_sink", "_windows")

    def __init__(self, name: str, sink: "TimeSeriesSink"):
        self.name = name
        self._sink = sink
        self._windows: Dict[int, Tuple[float, float]] = {}

    def set(self, t_ns: float, v: float) -> None:
        w = self._sink.index(t_ns)
        prev = self._windows.get(w)
        self._windows[w] = (v, v if prev is None else max(prev[1], v))


class _TsSketch:
    """Per-window streaming distribution (one log2 histogram per window)."""

    __slots__ = ("name", "_sink", "_windows")

    def __init__(self, name: str, sink: "TimeSeriesSink"):
        self.name = name
        self._sink = sink
        self._windows: Dict[int, Histogram] = {}

    def record(self, t_ns: float, v: float) -> None:
        w = self._sink.index(t_ns)
        h = self._windows.get(w)
        if h is None:
            h = self._windows[w] = Histogram(self.name)
        h.record(v)


class TimeSeriesSink:
    """Live windowed sink; see the module docstring for the data model."""

    def __init__(self, window_ns: float = 100_000.0):
        if window_ns <= 0:
            raise ValueError(f"window_ns must be positive, got {window_ns}")
        self.window_ns = float(window_ns)
        self._counters: Dict[str, _TsCounter] = {}
        self._gauges: Dict[str, _TsGauge] = {}
        self._sketches: Dict[str, _TsSketch] = {}
        self._marks: List[Tuple[float, Optional[float], str]] = []

    # -- instruments ----------------------------------------------------
    def counter(self, name: str) -> _TsCounter:
        inst = self._counters.get(name)
        if inst is None:
            inst = self._counters[name] = _TsCounter(name, self)
        return inst

    def gauge(self, name: str) -> _TsGauge:
        inst = self._gauges.get(name)
        if inst is None:
            inst = self._gauges[name] = _TsGauge(name, self)
        return inst

    def sketch(self, name: str) -> _TsSketch:
        inst = self._sketches.get(name)
        if inst is None:
            inst = self._sketches[name] = _TsSketch(name, self)
        return inst

    # -- windows --------------------------------------------------------
    def index(self, t_ns: float) -> int:
        """Window index holding simulated time ``t_ns``."""
        return int(t_ns // self.window_ns)

    def window_count(self, makespan_ns: float) -> int:
        """Windows needed to cover ``[0, makespan_ns]`` (at least one)."""
        if makespan_ns <= 0:
            return 1
        return max(1, int(math.ceil(makespan_ns / self.window_ns)))

    # -- marks ----------------------------------------------------------
    def mark_window(self, start_ns: float, end_ns: Optional[float],
                    label: str) -> None:
        """Record a labelled interval (``end_ns=None`` = open-ended, e.g.
        a permanent fault; reports clamp it to the makespan)."""
        self._marks.append((start_ns, end_ns, label))

    def marks(self) -> List[Tuple[float, Optional[float], str]]:
        return sorted(self._marks,
                      key=lambda m: (m[0], m[2], m[1] if m[1] is not None
                                     else math.inf))

    def window_marked(self, index: int,
                      makespan_ns: Optional[float] = None) -> List[str]:
        """Labels of marks overlapping window ``index`` (sorted)."""
        lo = index * self.window_ns
        hi = lo + self.window_ns
        out = []
        for start, end, label in self.marks():
            if end is None:
                end = makespan_ns if makespan_ns is not None else math.inf
            if start < hi and end > lo:
                out.append(label)
        return out

    # -- export ---------------------------------------------------------
    def snapshot(self, makespan_ns: Optional[float] = None) -> Dict:
        """JSON-serializable window-major view, deterministically ordered.

        With ``makespan_ns`` the series is dense — every window from 0 to
        the last one covering the makespan appears, empty or not — which
        is what report tables want; without it only touched windows
        appear.  Within a window, only instruments that recorded there are
        listed (sorted by name).
        """
        touched = set()
        for inst in self._counters.values():
            touched.update(inst._windows)
        for ginst in self._gauges.values():
            touched.update(ginst._windows)
        for sinst in self._sketches.values():
            touched.update(sinst._windows)
        if makespan_ns is not None:
            indices = list(range(self.window_count(makespan_ns)))
        else:
            indices = sorted(touched)
        windows = []
        for i in indices:
            entry: Dict[str, object] = {
                "index": i,
                "start_ns": i * self.window_ns,
                "end_ns": (i + 1) * self.window_ns,
            }
            counters = {n: c._windows[i]
                        for n, c in sorted(self._counters.items())
                        if i in c._windows}
            gauges = {n: {"last": g._windows[i][0], "peak": g._windows[i][1]}
                      for n, g in sorted(self._gauges.items())
                      if i in g._windows}
            sketches = {n: s._windows[i].state()
                        for n, s in sorted(self._sketches.items())
                        if i in s._windows}
            if counters:
                entry["counters"] = counters
            if gauges:
                entry["gauges"] = gauges
            if sketches:
                entry["sketches"] = sketches
            windows.append(entry)
        return {
            "window_ns": self.window_ns,
            "windows": windows,
            "marks": [{"start_ns": s, "end_ns": e, "label": label}
                      for s, e, label in self.marks()],
        }


def annotate_windows(tracer, sink: TimeSeriesSink,
                     makespan_ns: float) -> None:
    """Mirror window boundaries and marks into a Perfetto trace.

    Boundaries land as instants on an ``Obs/windows`` track; marks (fault
    windows) as async spans on ``Obs/marks``, open-ended ones clamped to
    the makespan.  Called at run teardown so the ids and order are a pure
    function of the recorded data.
    """
    if makespan_ns <= 0:
        return
    track = tracer.track("Obs", "windows")
    for i in range(sink.window_count(makespan_ns) + 1):
        tracer.instant(track, f"window {i}", i * sink.window_ns,
                       cat="obs-window")
    marks = sink.marks()
    if marks:
        mark_track = tracer.track("Obs", "marks")
        for aid, (start, end, label) in enumerate(marks):
            tracer.async_begin(mark_track, label, aid, start, cat="obs-mark")
            tracer.async_end(mark_track, label, aid,
                             end if end is not None else makespan_ns,
                             cat="obs-mark")
