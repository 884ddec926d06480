"""Sim-time watchdog: converts silent stalls into diagnosable errors.

Under fault injection a run can wedge in ways the fault-free simulator
never does — e.g. a retransmission budget exhausted on a chunk nobody will
resend again.  The event queue then either drains early (caught by the
executor's existing drained-queue check) or, worse, keeps ticking on
periodic timers while no real work completes.  The watchdog samples
progress every ``watchdog_interval_ns`` and, after ``watchdog_strikes``
consecutive intervals in which nothing but the watchdog itself fired,
raises :class:`DeadlockError` carrying the per-entity outstanding-work
report from :meth:`Simulator.outstanding_report`.
"""

from __future__ import annotations

from typing import Callable, List, Optional, TYPE_CHECKING

from ..common.errors import DeadlockError
from ..common.events import Simulator

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .injector import FaultCounters


class Watchdog:
    """Periodic no-progress detector running inside the simulation."""

    def __init__(self, sim: Simulator, interval_ns: float, strikes: int,
                 counters: "FaultCounters",
                 progress: Optional[Callable[[], int]] = None):
        self.sim = sim
        self.interval_ns = interval_ns
        self.max_strikes = strikes
        self.counters = counters
        # Default progress metric: events fired, minus our own ticks.
        self._progress = progress or (lambda: sim.events_processed)
        self._own_fires = 0
        self._last = None
        self._strikes = 0
        self._timer = None
        self._reporters: List[Callable[[], str]] = []

    def add_reporter(self, reporter: Callable[[], str]) -> None:
        """Extend the trip report beyond the simulator's outstanding-ops
        view.  Serving loops add their request-queue state so a stall
        mid-stream names the wedged *requests*, not just wedged messages.
        Reporters returning an empty string are skipped."""
        self._reporters.append(reporter)

    def arm(self) -> None:
        self._timer = self.sim.timer(self.interval_ns, self._tick)

    def disarm(self) -> None:
        """Stop watching (workload finished; the queue may now drain)."""
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None

    def _tick(self) -> None:
        self._timer = None
        self._own_fires += 1
        if self.sim.pending() == 0:
            # Queue is otherwise empty: let the run drain; the executor's
            # drained-queue check owns that failure mode.
            return
        progress = self._progress() - self._own_fires
        if progress != self._last:
            self._last = progress
            self._strikes = 0
        else:
            self._strikes += 1
            if self._strikes >= self.max_strikes:
                self.counters.bump("watchdog_trips")
                report = list(self.sim.outstanding_report())
                for reporter in self._reporters:
                    line = reporter()
                    if line:
                        report.append(line)
                detail = "; ".join(report) if report else "<no reporters>"
                raise DeadlockError(
                    f"no simulation progress for "
                    f"{self._strikes * self.interval_ns:.0f} ns "
                    f"(t={self.sim.now:.0f} ns) — outstanding work: "
                    f"{detail}")
        self.arm()
