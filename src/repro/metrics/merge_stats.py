"""Statistics collected by the CAIS merge unit.

Feeds three of the paper's analyses:

* **Fig. 13(b)** — average *waiting time*: the delay between the earliest and
  latest request targeting the same address, the paper's temporal-locality
  metric (35 us uncoordinated, < 3 us with full coordination).
* **Fig. 13(a)** — *minimal required merge-table size*: the high-water mark
  of table occupancy when capacity is unbounded.
* **Fig. 14** — merged/bypassed/evicted request counts under constrained
  table sizes.
"""

from __future__ import annotations

from typing import Dict, List, Tuple


class MergeStats:
    """Aggregated counters and traces for one run (all ports, all planes).

    ``entry_bytes`` is the size of one capacity unit
    (``SwitchSpec.merge_entry_bytes``), which turns entry counts into
    bytes.
    """

    def __init__(self, entry_bytes: int) -> None:
        self.entry_bytes = entry_bytes
        self.sessions_completed = 0
        self.requests_merged = 0          # requests that hit an open session
        self.requests_started = 0         # requests that opened a session
        self.bypasses = 0                 # forwarded unmerged (table full)
        self.lru_evictions = 0
        self.timeout_evictions = 0
        self.partial_reductions_emitted = 0
        self._session_waits_ns: List[float] = []
        # Occupancy in capacity units, per (plane, port).
        self._occupancy: Dict[Tuple[int, int], int] = {}
        self._peak_entries: Dict[Tuple[int, int], int] = {}
        self._occupancy_trace: List[Tuple[float, int]] = []
        self._total_entries = 0

    # ------------------------------------------------------------------
    # Waiting time (Fig. 13b)
    # ------------------------------------------------------------------
    def record_session_wait(self, first_arrival: float,
                            last_arrival: float) -> None:
        """Record the first-to-last request spread of a completed session."""
        if last_arrival < first_arrival:
            raise ValueError("session completed before it started")
        self._session_waits_ns.append(last_arrival - first_arrival)

    def average_wait_ns(self) -> float:
        """Mean first-to-last request spread (0 if no sessions merged)."""
        if not self._session_waits_ns:
            return 0.0
        return sum(self._session_waits_ns) / len(self._session_waits_ns)

    # ------------------------------------------------------------------
    # Table occupancy (Fig. 13a / Fig. 14)
    # ------------------------------------------------------------------
    def occupancy_change(self, time: float, plane: int, port: int,
                         delta_entries: int) -> None:
        """Adjust the live entry count for one port by ``delta_entries``."""
        key = (plane, port)
        used = self._occupancy.get(key, 0) + delta_entries
        if used < 0:
            raise ValueError(f"occupancy for {key} went negative")
        self._occupancy[key] = used
        if used > self._peak_entries.get(key, 0):
            self._peak_entries[key] = used
        self._total_entries += delta_entries
        self._occupancy_trace.append((time, self._total_entries))

    def peak_entries_per_port(self) -> int:
        """Worst-case live entries on any single port (Fig. 13a metric)."""
        return max(self._peak_entries.values(), default=0)

    def peak_bytes_per_port(self) -> int:
        """Fig. 13a's 'minimal required Merge Table size' in bytes."""
        return self.peak_entries_per_port() * self.entry_bytes

    def occupancy_trace(self) -> List[Tuple[float, int]]:
        """(time, total live entries) transitions, fabric-wide."""
        return list(self._occupancy_trace)

    # ------------------------------------------------------------------
    # Summary
    # ------------------------------------------------------------------
    def merge_rate(self) -> float:
        """Fraction of mergeable requests that actually merged or started a
        session (1.0 means no bypasses)."""
        total = self.requests_merged + self.requests_started + self.bypasses
        if total == 0:
            return 1.0
        return (self.requests_merged + self.requests_started) / total

    def summary(self) -> Dict[str, float]:
        """Flat dict of headline numbers, for reports and tests."""
        return {
            "sessions_completed": self.sessions_completed,
            "requests_merged": self.requests_merged,
            "requests_started": self.requests_started,
            "bypasses": self.bypasses,
            "lru_evictions": self.lru_evictions,
            "timeout_evictions": self.timeout_evictions,
            "partial_reductions_emitted": self.partial_reductions_emitted,
            "average_wait_us": self.average_wait_ns() / 1e3,
            "peak_entries_per_port": self.peak_entries_per_port(),
            "merge_rate": self.merge_rate(),
        }
