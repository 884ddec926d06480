"""Named counters, gauges, and log-scale histograms.

A :class:`MetricsRegistry` hands out instrument objects that components
hold onto and update directly (no name lookup on the hot path).  Snapshots
are plain dicts with sorted keys, so two same-seed runs serialize to
byte-identical JSON.

When metrics are off the context's ``metrics`` field is ``None``;
instrumented code guards each update with ``is not None`` (or creates
its instruments only under that guard), so a disabled run does not even
construct the update arguments.
"""

from __future__ import annotations

import json
import math
import warnings
from typing import Dict, Iterable, List, Optional


class EmptyDistributionWarning(RuntimeWarning):
    """A quantile was requested from an empty histogram or sketch.

    The query returns ``nan`` instead of raising so report pipelines keep
    running (an idle window legitimately has no samples); the warning names
    the instrument so a systematically-empty distribution is still visible.
    """


#: Instrument names that already warned about an empty quantile this
#: process.  Keyed by *name*, not instance — merge rollups rebuild fresh
#: ``Histogram`` objects per envelope (``from_state``/``merge``), so an
#: instance-keyed guard would still warn once per merged replica.
_EMPTY_WARNED: set = set()


def reset_empty_distribution_warnings() -> None:
    """Re-arm the one-warning-per-instrument guard (test isolation)."""
    _EMPTY_WARNED.clear()


class Counter:
    """Monotonically increasing count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0

    def inc(self, n: float = 1.0) -> None:
        self.value += n


class Gauge:
    """Last-set value, with the peak retained."""

    __slots__ = ("name", "value", "peak")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0
        self.peak = 0.0

    def set(self, v: float) -> None:
        self.value = v
        if v > self.peak:
            self.peak = v


class Histogram:
    """Power-of-two bucketed distribution (log-scale).

    Bucket ``k`` counts observations with ``2^(k-1) < v <= 2^k`` (bucket 0
    holds ``v <= 1``).  Log-scale buckets span the nanosecond-to-millisecond
    range the simulator produces (merge waits, queueing delays, TB
    latencies) in ~40 buckets.
    """

    __slots__ = ("name", "count", "total", "min", "max", "_buckets")

    def __init__(self, name: str):
        self.name = name
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf
        self._buckets: Dict[int, int] = {}

    def record(self, v: float) -> None:
        self.count += 1
        self.total += v
        if v < self.min:
            self.min = v
        if v > self.max:
            self.max = v
        k = 0 if v <= 1.0 else math.ceil(math.log2(v))
        self._buckets[k] = self._buckets.get(k, 0) + 1

    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Upper bound of the bucket holding the ``q``-quantile.

        Log2-bucket resolution (within 2x of the true value), which is
        enough for the p95-tail reporting the serving experiments do; the
        exact extremes are available as ``min``/``max``.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if not self.count:
            # Warn once per instrument name per process: many-replica
            # fleet rollups legitimately query rebuilt-empty windows by
            # the hundreds, and one line carries the same signal.
            if self.name not in _EMPTY_WARNED:
                _EMPTY_WARNED.add(self.name)
                warnings.warn(
                    f"quantile({q:g}) of empty histogram {self.name!r} "
                    f"is nan (further empty-quantile warnings for this "
                    f"instrument are suppressed)",
                    EmptyDistributionWarning, stacklevel=2)
            return math.nan
        rank = q * self.count
        seen = 0
        for k in sorted(self._buckets):
            seen += self._buckets[k]
            if seen >= rank:
                return min(float(2 ** k), self.max)
        return self.max

    def buckets(self) -> Dict[str, int]:
        """``{"le_2^k": count}`` with keys in ascending bucket order."""
        return {f"le_2^{k}": self._buckets[k]
                for k in sorted(self._buckets)}

    def summary(self) -> Dict[str, object]:
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.min if self.count else 0.0,
            "max": self.max if self.count else 0.0,
            "mean": self.mean(),
            "buckets": self.buckets(),
        }

    def state(self) -> Dict[str, object]:
        """Full mergeable state (raw bucket indices, JSON-serializable).

        Unlike :meth:`summary` — a human-facing projection — the state
        round-trips through :meth:`from_state` losslessly and two states
        combine associatively via :func:`merge_histogram_states`, which is
        what lets matrix workers ship distributions (not just scalar
        summaries) back across the process boundary.
        """
        return {
            "name": self.name,
            "count": self.count,
            "sum": self.total,
            "min": self.min if self.count else None,
            "max": self.max if self.count else None,
            "buckets": {str(k): self._buckets[k]
                        for k in sorted(self._buckets)},
        }

    @classmethod
    def from_state(cls, state: Dict[str, object]) -> "Histogram":
        """Rebuild a live histogram from :meth:`state` output."""
        h = cls(str(state["name"]))
        h.count = int(state["count"])
        h.total = float(state["sum"])
        if h.count:
            h.min = float(state["min"])
            h.max = float(state["max"])
        h._buckets = {int(k): int(n)
                      for k, n in dict(state["buckets"]).items()}
        return h


class MetricsRegistry:
    """Live registry of named instruments (get-or-create semantics)."""

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}
        # Names of wall-clock-dependent gauges (e.g. engine throughput in
        # events per *wall* second): queryable live, but excluded from
        # snapshots so same-seed runs stay byte-identical.
        self._volatile: set = set()

    def counter(self, name: str) -> Counter:
        inst = self._counters.get(name)
        if inst is None:
            inst = self._counters[name] = Counter(name)
        return inst

    def gauge(self, name: str, volatile: bool = False) -> Gauge:
        inst = self._gauges.get(name)
        if inst is None:
            inst = self._gauges[name] = Gauge(name)
        if volatile:
            self._volatile.add(name)
        return inst

    def histogram(self, name: str) -> Histogram:
        inst = self._histograms.get(name)
        if inst is None:
            inst = self._histograms[name] = Histogram(name)
        return inst

    def names(self) -> List[str]:
        return sorted(set(self._counters) | set(self._gauges)
                      | set(self._histograms))

    def histogram_states(self) -> List[Dict[str, object]]:
        """Full state of every histogram, sorted by name (see
        :meth:`Histogram.state`)."""
        return [self._histograms[n].state()
                for n in sorted(self._histograms)]

    def snapshot(self) -> Dict[str, dict]:
        """JSON-serializable state of every instrument, keys sorted.

        Volatile (wall-clock-dependent) gauges are omitted: snapshots are
        part of the byte-identity contract between same-seed runs.
        """
        return {
            "counters": {n: self._counters[n].value
                         for n in sorted(self._counters)},
            "gauges": {n: {"value": g.value, "peak": g.peak}
                       for n, g in sorted(self._gauges.items())
                       if n not in self._volatile},
            "histograms": {n: h.summary()
                           for n, h in sorted(self._histograms.items())},
        }

    def to_json(self, indent: Optional[int] = 2) -> str:
        """Deterministic JSON rendering of :meth:`snapshot`."""
        return json.dumps(self.snapshot(), indent=indent, sort_keys=True)


def merge_histogram_states(states: Iterable[Dict[str, object]]
                           ) -> Dict[str, object]:
    """Combine histogram states (:meth:`Histogram.state`) into one.

    Associative and commutative up to float-summation order on ``sum``
    (counts and buckets are integers, so they merge exactly); merging an
    empty iterable yields an empty unnamed state.  All inputs should
    describe the same logical instrument — the first non-empty name wins.
    """
    name = ""
    count = 0
    total = 0.0
    lo = math.inf
    hi = -math.inf
    buckets: Dict[int, int] = {}
    for state in states:
        if not name:
            name = str(state.get("name", ""))
        n = int(state["count"])
        if not n:
            continue
        count += n
        total += float(state["sum"])
        lo = min(lo, float(state["min"]))
        hi = max(hi, float(state["max"]))
        for k, c in dict(state["buckets"]).items():
            k = int(k)
            buckets[k] = buckets.get(k, 0) + int(c)
    return {
        "name": name,
        "count": count,
        "sum": total,
        "min": lo if count else None,
        "max": hi if count else None,
        "buckets": {str(k): buckets[k] for k in sorted(buckets)},
    }
