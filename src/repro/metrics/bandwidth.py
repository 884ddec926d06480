"""Link bandwidth accounting.

Every simulated link owns a :class:`BandwidthTracker` that records the time
intervals during which the link was serializing data.  From those intervals
we derive the utilization metrics of the paper's Figures 15 and 16:

* average utilization over the busy span of a run (Fig. 15), and
* a windowed utilization time series (Fig. 16), which
  :func:`repro.experiments.parallel._utilization_series` builds from
  :meth:`BandwidthTracker.utilization` over every link.
"""

from __future__ import annotations

from typing import List, Tuple


class BandwidthTracker:
    """Busy-interval recorder for one link direction.

    Intervals are appended in non-decreasing start order (the link serializes
    messages back to back), and adjacent/overlapping intervals are merged on
    the fly so memory stays proportional to the number of idle gaps.
    """

    def __init__(self) -> None:
        self._intervals: List[Tuple[float, float]] = []
        self.bytes_transferred: int = 0
        self.messages: int = 0

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def record(self, start: float, end: float, nbytes: int) -> None:
        """Record a serialization interval ``[start, end)`` of ``nbytes``."""
        if end < start:
            raise ValueError(f"interval ends before it starts: {start}..{end}")
        self.bytes_transferred += nbytes
        self.messages += 1
        if self._intervals and start <= self._intervals[-1][1]:
            prev_start, prev_end = self._intervals[-1]
            if start < prev_start:
                raise ValueError("busy intervals must be recorded in order")
            self._intervals[-1] = (prev_start, max(prev_end, end))
        else:
            self._intervals.append((start, end))

    # ------------------------------------------------------------------
    # Delta capture / replay (analytic collective bypass, DESIGN.md §11)
    # ------------------------------------------------------------------
    def mark(self) -> Tuple[int, float, int, int]:
        """Opaque watermark for :meth:`delta_since`."""
        last_end = self._intervals[-1][1] if self._intervals else 0.0
        return (len(self._intervals), last_end,
                self.bytes_transferred, self.messages)

    def delta_since(self, mark: Tuple[int, float, int, int],
                    t0: float) -> Tuple[List[Tuple[float, float]], int, int]:
        """What :meth:`record` added since ``mark``, relative to ``t0``.

        Returns ``(intervals, nbytes, messages)`` with interval endpoints
        shifted by ``-t0``.  A merge that extended the pre-mark tail
        interval is captured as its extension piece, so replaying the
        delta reproduces the post-mark busy time exactly.
        """
        n, last_end, prev_bytes, prev_msgs = mark
        rel: List[Tuple[float, float]] = []
        if n and self._intervals[n - 1][1] > last_end:
            rel.append((last_end - t0, self._intervals[n - 1][1] - t0))
        rel.extend((s - t0, e - t0) for s, e in self._intervals[n:])
        return (rel, self.bytes_transferred - prev_bytes,
                self.messages - prev_msgs)

    def replay(self, delta: Tuple[List[Tuple[float, float]], int, int],
               t0: float) -> None:
        """Apply a captured delta as if the traffic had run again at ``t0``.

        Busy intervals land at ``t0 + relative`` (merging with existing
        tail intervals as :meth:`record` would); byte and message counts
        are added wholesale rather than per message.
        """
        rel, nbytes, messages = delta
        for s, e in rel:
            self.record(t0 + s, t0 + e, 0)
        self.bytes_transferred += nbytes
        self.messages += messages - len(rel)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def intervals(self) -> List[Tuple[float, float]]:
        """The merged busy intervals recorded so far."""
        return list(self._intervals)

    def busy_time(self, t0: float = 0.0, t1: float = float("inf")) -> float:
        """Total busy time overlapping the window ``[t0, t1]``."""
        total = 0.0
        for start, end in self._intervals:
            lo = max(start, t0)
            hi = min(end, t1)
            if hi > lo:
                total += hi - lo
        return total

    def utilization(self, t0: float, t1: float) -> float:
        """Fraction of ``[t0, t1]`` the link spent serializing data."""
        if t1 <= t0:
            raise ValueError(f"empty window {t0}..{t1}")
        return self.busy_time(t0, t1) / (t1 - t0)

    def first_activity(self) -> float:
        """Start of the first busy interval (inf if the link never fired)."""
        return self._intervals[0][0] if self._intervals else float("inf")

    def last_activity(self) -> float:
        """End of the last busy interval (0 if the link never fired)."""
        return self._intervals[-1][1] if self._intervals else 0.0
