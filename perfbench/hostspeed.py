"""Process CPU of a pass, scaled to a reference host speed.

On a shared host, other tenants slow a process down, in bursts of about a
second and in stretches of minutes, on one vCPU at a time or on both.  The
same pass then costs anywhere from 1x to 1.8x its quiet CPU time, so raw
CPU seconds mostly measure how busy the host was.

A fixed calibration loop measures how slow the host is at the same
moments as the pass.  While a pass runs, a ``SIGPROF`` handler runs the
loop every :data:`CALIBRATE_EVERY` ticks of the process CPU timer, on the
same vCPU, between two bytecodes of the simulator.  The loop's own CPU is
subtracted from the pass, and the rest is scaled by
:data:`REFERENCE_S` / the loop's median time: the CPU the pass would have
taken on a host where the loop takes :data:`REFERENCE_S`.  The loop lives
here, outside ``src/``, so a change to the simulator never changes it.
"""

from __future__ import annotations

import heapq
import os
import signal
import statistics
import time
from contextlib import contextmanager
from typing import Callable, Iterator, List, Sequence, Tuple

#: Process CPU seconds between two ticks of the timer (the kernel rounds
#: it up to its own tick).
TICK_S = 0.002

#: Timer ticks between two runs of the calibration loop.
CALIBRATE_EVERY = 25

#: Time of one calibration loop on the reference host: the loop's usual
#: quiet-host time on a 2-vCPU Xeon VM.
REFERENCE_S = 0.002

#: Nodes the loop reads at random: a working set of about 20 MB, so that
#: contention for shared caches slows the loop as it slows the simulator.
TABLE_SIZE = 200_000

#: Heap operations per calibration loop.
LOOP_STEPS = 2000


class _Node:
    __slots__ = ("key", "value")

    def __init__(self, key: int, value: int) -> None:
        self.key = key
        self.value = value


class HostSpeed:
    """Runs the calibration loop on ``SIGPROF`` while a pass runs."""

    def __init__(self) -> None:
        before = resident_mb()
        self._table = [_Node(i, 3 * i) for i in range(TABLE_SIZE)]
        #: Resident memory the table added, for ``peak_rss_mb`` to leave
        #: out.
        self.table_mb = resident_mb() - before
        self._ticks = 0
        self._samples: List[float] = []

    def calibrate(self) -> float:
        """Run the loop once: a small event queue popping and pushing
        nodes drawn across the table.  Returns its thread CPU seconds
        (the process clock is only as fine as the timer tick while the
        timer runs)."""
        table, size = self._table, TABLE_SIZE
        start = time.thread_time()
        heap = [(i % 13, i, table[i * 7919 % size]) for i in range(64)]
        heapq.heapify(heap)
        seq, acc = 64, 0
        for _ in range(LOOP_STEPS):
            at, key, node = heapq.heappop(heap)
            nxt = table[(node.key * 2654435761 + key) % size]
            acc += nxt.value - node.key
            seq += 1
            heapq.heappush(heap, (at + (acc & 15) + 1, seq, nxt))
        return time.thread_time() - start

    def _tick(self, signum, frame) -> None:
        self._ticks += 1
        if self._ticks % CALIBRATE_EVERY == 0:
            self._samples.append(self.calibrate())

    @contextmanager
    def installed(self) -> Iterator["HostSpeed"]:
        """Own ``SIGPROF`` for the block."""
        previous = signal.signal(signal.SIGPROF, self._tick)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_PROF, 0, 0)
            signal.signal(signal.SIGPROF, previous)

    def measure(self, fn: Callable[[], object]
                ) -> Tuple[object, List[float]]:
        """``fn()`` with the loop run along; returns its result and the
        loop's times."""
        self._ticks = 0
        self._samples = []
        signal.setitimer(signal.ITIMER_PROF, TICK_S, TICK_S)
        try:
            result = fn()
        finally:
            signal.setitimer(signal.ITIMER_PROF, 0, 0)
        samples, self._samples = self._samples, []
        return result, samples


def resident_mb() -> float:
    """Resident memory of this process now, in MB."""
    with open("/proc/self/statm") as fh:
        pages = int(fh.read().split()[1])
    return pages * os.sysconf("SC_PAGE_SIZE") / 2 ** 20


def scale(samples: Sequence[float]) -> float:
    """Factor from measured CPU to reference-host CPU (1 without
    samples)."""
    return REFERENCE_S / statistics.median(samples) if samples else 1.0


def reference_cpu_s(cpu_s: float, samples: Sequence[float]) -> float:
    """``cpu_s`` of a pass without the loops it ran, at reference speed."""
    return (cpu_s - sum(samples)) * scale(samples)
