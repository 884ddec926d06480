"""Discrete-event simulation engine.

The engine is the substrate every hardware model in this repository runs on:
GPUs, links, switches, NVLS engines and the CAIS merge unit all schedule
callbacks on one shared :class:`Simulator`.

Design notes
------------
* Time is a float in nanoseconds (see :mod:`repro.common.units`).
* Events at equal timestamps fire in scheduling order (a monotonically
  increasing sequence number breaks ties), which makes runs fully
  deterministic for a fixed seed.
* Queue entries are plain tuples ``(time, seq, callback, args)``:
  :meth:`Simulator.schedule` and :meth:`Simulator.schedule_at` build no
  object beyond that tuple and return nothing.  Only a cancellable timer
  (:meth:`Simulator.timer`, :meth:`Simulator.timer_at`) gets an
  :class:`Event`, queued as ``(time, seq, None, event)``; the ``None``
  callback marks the entry.  :meth:`Event.cancel` marks the event dead and
  the loops skip it.  The simulator tracks how many cancelled timers still
  sit in the queue (cancelling one that already fired counts nothing) and
  auto-compacts the queue when they outnumber the live entries.  Under
  causal recording every event must carry its cause, so ``schedule`` and
  ``schedule_at`` queue timer entries there.
* The queue is one binary heap, a plain list that every method pushes and
  pops directly.  Events fire in ``(time, seq)`` order: ``seq`` is
  unique, so tuple comparison never reaches the third element and the
  order is total.
* :meth:`Simulator.run` without ``until``/``max_events``, profiler or
  causal recording pops the heap in one fused loop.  Every other case
  takes the general loop; both fire the same events in the same order
  (property-tested in ``tests/properties/test_scheduler_equivalence.py``).
* :attr:`Simulator.now` is a plain attribute that only the run loops
  write.
* :meth:`Simulator.run` pauses Python's cyclic garbage collector for its
  whole length and restores the caller's setting when it returns or
  raises.  That is safe because a run creates no cyclic garbage: every
  model frees by reference counting what it stops using, and a harness
  unwires its node when it renders its result (DESIGN.md §11).  This is
  the only place the simulator touches :mod:`gc`.
"""

from __future__ import annotations

import gc
from heapq import heapify, heappop, heappush
from math import inf
from time import perf_counter
from typing import Any, Callable, List, Optional, Tuple

from ..obs import current_causality, current_metrics, current_profiler
from ..obs.causality import NO_CAUSE
from .errors import SimulationError

#: Queues smaller than this are never auto-compacted — the rebuild would
#: cost more than skipping the handful of dead events.
_AUTO_COMPACT_MIN_QUEUE = 64


class Event:
    """A cancellable timer.

    Instances are created by :meth:`Simulator.timer` and
    :meth:`Simulator.timer_at` (and, under causal recording, by
    :meth:`Simulator.schedule` and :meth:`Simulator.schedule_at`); user
    code only ever cancels them or inspects :attr:`time`.
    """

    __slots__ = ("time", "seq", "callback", "args", "cancelled", "owner",
                 "cause")

    def __init__(self, time: float, seq: int,
                 callback: Callable[..., None], args: tuple,
                 owner: Optional["Simulator"] = None,
                 cause: int = NO_CAUSE):
        self.time = time
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = False
        # The simulator whose queue holds the event; cleared when the
        # event fires, so that a later cancel() counts nothing.
        self.owner = owner
        # Ambient causal-node id captured at schedule time (repro.obs
        # .causality); restored before the callback fires so causality
        # propagates through arbitrary callback cascades.
        self.cause = cause

    def cancel(self) -> None:
        """Prevent the event from firing.  Idempotent, and a no-op on the
        queue's books once the event has fired (including from inside its
        own callback)."""
        if self.cancelled:
            return
        self.cancelled = True
        owner = self.owner
        if owner is not None:
            owner._cancelled_live += 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "armed"
        name = getattr(self.callback, "__qualname__", repr(self.callback))
        return f"Event(t={self.time:.1f}ns, {name}, {state})"


#: Queue entries: ``(time, seq, callback, args)``, or ``(time, seq, None,
#: event)`` for a timer.  Comparison is C-level tuple comparison on
#: ``(time, seq)`` — ``seq`` is unique per simulator, so the third element
#: never compares.
_Entry = Tuple[float, int, Optional[Callable[..., None]], Any]


def _dead(entry: _Entry) -> bool:
    """A cancelled timer's entry."""
    return entry[2] is None and entry[3].cancelled


class Simulator:
    """Priority-queue discrete-event simulator.

    Example
    -------
    >>> sim = Simulator()
    >>> fired = []
    >>> sim.schedule(10.0, fired.append, "a")
    >>> sim.schedule(5.0, fired.append, "b")
    >>> sim.run()
    >>> fired
    ['b', 'a']
    """

    def __init__(self) -> None:
        #: Current simulation time in nanoseconds.  Only the run loops
        #: write it.
        self.now: float = 0.0
        # The event queue: a binary heap of entries.  Its identity never
        # changes (drain_cancelled compacts it in place), so the run loops
        # hold it across callbacks.
        self._heap: List[_Entry] = []
        # Next event sequence number.  A plain int (not itertools.count) so
        # that callers can reserve numbers (seq_allocated + advance_seq)
        # for a timer they queue later with timer_at(..., seq=...).
        self._seq = 0
        self._events_processed = 0
        self._running = False
        self._cancelled_live = 0
        self._auto_compactions = 0
        self._peak_queue_depth = 0
        self._wall_seconds = 0.0
        self._work_reporters: List[Callable[[], Optional[str]]] = []
        # Observability hooks, captured at construction (install first).
        self._profiler = current_profiler()
        self._metrics = current_metrics()
        self._causality = current_causality()
        # Causal recording stamps every event with its cause, which only
        # a timer entry carries (module docstring).
        self._causal = self._causality.enabled

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def events_processed(self) -> int:
        """Number of events fired so far (cancelled events excluded)."""
        return self._events_processed

    def pending(self) -> int:
        """Number of events still in the queue (including cancelled ones)."""
        return len(self._heap)

    def next_time(self) -> Optional[float]:
        """Time of the earliest queued event (cancelled ones included), or
        None when the queue is empty."""
        heap = self._heap
        return heap[0][0] if heap else None

    def cancelled_pending(self) -> int:
        """Cancelled events still occupying queue slots."""
        return self._cancelled_live

    def cancelled_fraction(self) -> float:
        """Fraction of the queue occupied by cancelled events."""
        if not self._heap:
            return 0.0
        return self._cancelled_live / len(self._heap)

    @property
    def auto_compactions(self) -> int:
        """Times the queue was auto-compacted (see :meth:`schedule`)."""
        return self._auto_compactions

    @property
    def peak_queue_depth(self) -> int:
        """High-water mark of the event queue."""
        return self._peak_queue_depth

    def events_per_wall_second(self) -> float:
        """Engine throughput so far (0 before the first :meth:`run`)."""
        if self._wall_seconds <= 0.0:
            return 0.0
        return self._events_processed / self._wall_seconds

    # ------------------------------------------------------------------
    # Outstanding-work diagnostics
    # ------------------------------------------------------------------
    def register_work_reporter(
            self, reporter: Callable[[], Optional[str]]) -> None:
        """Register a callable describing an entity's outstanding work.

        Reporters return a one-line summary (e.g. ``"gpu 3: 5 busy TBs, 2
        sync-pending"``) or ``None``/``""`` when the entity is idle.  They
        are only consulted when a stall is being turned into a
        :class:`DeadlockError`, so they may be arbitrarily slow.
        """
        self._work_reporters.append(reporter)

    def unwire(self) -> None:
        """Drop the registered work reporters.  They are bound to the
        entities of the node that owns this simulator, so keeping them
        would tie that node into a reference cycle once its run is over."""
        self._work_reporters.clear()

    def outstanding_report(self) -> List[str]:
        """One line per entity that still has work outstanding.

        A reporter that itself crashes must not mask the deadlock being
        diagnosed, so its exception is folded into the report instead of
        propagating.
        """
        lines: List[str] = []
        for reporter in self._work_reporters:
            try:
                line = reporter()
            except Exception as exc:  # pragma: no cover - defensive
                line = f"<work reporter {reporter!r} failed: {exc!r}>"
            if line:
                lines.append(line)
        return lines

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    # ``schedule`` and ``schedule_at`` share their body, written out in
    # each: they run once per event, and a shared helper would add a call.
    # The guards are written ``not x >= y`` so that they reject NaN too.

    def schedule(self, delay: float, callback: Callable[..., None],
                 *args: Any) -> None:
        """Schedule ``callback(*args)`` to fire ``delay`` ns from now.

        The event cannot be cancelled; :meth:`timer` queues one that can.
        """
        if not delay >= 0:
            raise SimulationError(
                f"cannot schedule event {delay} ns from now "
                f"(now={self.now}): the delay must be >= 0")
        time = self.now + delay
        if self._causal:
            self._queue_timer(time, None, callback, args)
            return
        seq = self._seq
        self._seq = seq + 1
        heap = self._heap
        heappush(heap, (time, seq, callback, args))
        depth = len(heap)
        if depth > self._peak_queue_depth:
            self._peak_queue_depth = depth
        if (self._cancelled_live * 2 > depth
                and depth >= _AUTO_COMPACT_MIN_QUEUE):
            self._auto_compact()

    def schedule_at(self, time: float, callback: Callable[..., None],
                    *args: Any) -> None:
        """Schedule ``callback(*args)`` at absolute time ``time`` ns.

        The timestamp is used exactly as given — no round-trip through a
        relative delay, which would perturb absolute times by float
        rounding (``now + (time - now) != time`` in general).
        """
        if not time >= self.now:
            raise SimulationError(
                f"cannot schedule event at {time} ns, before now "
                f"(now={self.now})")
        if self._causal:
            self._queue_timer(time, None, callback, args)
            return
        seq = self._seq
        self._seq = seq + 1
        heap = self._heap
        heappush(heap, (time, seq, callback, args))
        depth = len(heap)
        if depth > self._peak_queue_depth:
            self._peak_queue_depth = depth
        if (self._cancelled_live * 2 > depth
                and depth >= _AUTO_COMPACT_MIN_QUEUE):
            self._auto_compact()

    def timer(self, delay: float, callback: Callable[..., None],
              *args: Any) -> Event:
        """Like :meth:`schedule`, but cancellable: returns the
        :class:`Event` to cancel."""
        if not delay >= 0:
            raise SimulationError(
                f"cannot arm a timer {delay} ns from now "
                f"(now={self.now}): the delay must be >= 0")
        return self._queue_timer(self.now + delay, None, callback, args)

    def timer_at(self, time: float, callback: Callable[..., None],
                 *args: Any, seq: Optional[int] = None) -> Event:
        """Like :meth:`schedule_at`, but cancellable: returns the
        :class:`Event` to cancel.

        ``seq`` queues the timer under a sequence number reserved earlier
        with :attr:`seq_allocated` and :meth:`advance_seq`, instead of the
        next one: it then takes the place, among same-instant events, of
        one scheduled at the moment of the reservation.
        """
        if not time >= self.now:
            raise SimulationError(
                f"cannot arm a timer at {time} ns, before now "
                f"(now={self.now})")
        return self._queue_timer(time, seq, callback, args)

    def _queue_timer(self, time: float, seq: Optional[int],
                     callback: Callable[..., None], args: tuple) -> Event:
        if seq is None:
            seq = self._seq
            self._seq = seq + 1
        ev = Event(time, seq, callback, args, self, self._causality.current)
        heap = self._heap
        heappush(heap, (time, seq, None, ev))
        depth = len(heap)
        if depth > self._peak_queue_depth:
            self._peak_queue_depth = depth
        if (self._cancelled_live * 2 > depth
                and depth >= _AUTO_COMPACT_MIN_QUEUE):
            self._auto_compact()
        return ev

    @property
    def seq_allocated(self) -> int:
        """Sequence numbers handed out so far (next event gets this one)."""
        return self._seq

    def advance_seq(self, n: int) -> None:
        """Skip ``n`` sequence numbers, reserving them for
        :meth:`timer_at`."""
        if n < 0:
            raise SimulationError(f"cannot advance seq by {n}")
        self._seq += n

    def _auto_compact(self) -> None:
        """Dead timers dominate the queue: one O(n) rebuild beats
        dragging them through every push and pop."""
        self.drain_cancelled()
        self._auto_compactions += 1
        if self._metrics.enabled:
            self._metrics.counter("sim.auto_compactions").inc()

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _dispatch(self, entry: _Entry) -> None:
        """Advance the clock to ``entry`` and fire it.

        The dispatch path shared by :meth:`step` and the general run loop
        — clock monotonicity check, causality restore, profiler wrap.
        """
        time, _, callback, args = entry
        if not time >= self.now:
            raise SimulationError(
                f"event queue time went backwards: {time} < {self.now}")
        self.now = time
        self._events_processed += 1
        if callback is None:
            ev = args
            ev.owner = None
            if self._causal:
                self._causality.current = ev.cause
            callback, args = ev.callback, ev.args
        profiler = self._profiler
        if profiler is None:
            callback(*args)
        else:
            profiler.timed(callback, args)

    def step(self) -> bool:
        """Fire the next live event.  Returns False when the queue is empty."""
        heap = self._heap
        while heap:
            entry = heappop(heap)
            if _dead(entry):
                self._cancelled_live -= 1
                continue
            self._dispatch(entry)
            self.publish_metrics()
            return True
        return False

    def run(self, until: Optional[float] = None,
            max_events: Optional[int] = None) -> None:
        """Run until the queue drains, ``until`` ns is reached, or
        ``max_events`` events have fired.

        ``until`` is an absolute simulation time, with ``now <= until <
        inf``; when the next event lies beyond it the clock is advanced to
        ``until`` and the loop stops with the event still queued.
        """
        if self._running:
            raise SimulationError("Simulator.run() is not re-entrant")
        # Written so that NaN fails too: a bound behind the clock would
        # move it backwards, and an infinite one would park it at inf.
        if until is not None and not self.now <= until < inf:
            raise SimulationError(
                f"cannot run until {until} ns: the bound must be finite "
                f"and >= now (now={self.now})")
        self._running = True
        # No collection could free anything mid-run (module docstring), so
        # the collector would only traverse live simulation state.
        collecting = gc.isenabled()
        gc.disable()
        wall_start = perf_counter()
        try:
            if (until is None and max_events is None
                    and self._profiler is None and not self._causal):
                # Fused loop: the common case, popping straight off the
                # heap.  ``_events_processed`` stays live per event (the
                # fault watchdog and the analytic collective bypass read
                # it mid-run), and drain_cancelled() compacts the heap list
                # in place, so ``heap`` stays valid across callbacks.
                heap = self._heap
                while heap:
                    time, _, callback, args = heappop(heap)
                    if callback is None:
                        # A timer entry: ``args`` is its Event.
                        if args.cancelled:
                            self._cancelled_live -= 1
                            continue
                        args.owner = None
                        callback, args = args.callback, args.args
                    if not time >= self.now:
                        raise SimulationError(
                            f"event queue time went backwards: "
                            f"{time} < {self.now}")
                    self.now = time
                    self._events_processed += 1
                    callback(*args)
            else:
                self._run_general(until, max_events)
        finally:
            if collecting:
                gc.enable()
            self._running = False
            self._wall_seconds += perf_counter() - wall_start
            self.publish_metrics()

    def _run_general(self, until: Optional[float],
                     max_events: Optional[int]) -> None:
        """The loop for every option: ``until``, ``max_events``, the
        profiler and causal recording."""
        # drain_cancelled() compacts the heap list in place, so the local
        # binding stays valid across callbacks.
        heap = self._heap
        dispatch = self._dispatch
        fired = 0
        while True:
            if max_events is not None and fired >= max_events:
                return
            if not heap:
                break
            entry = heap[0]
            if _dead(entry):
                heappop(heap)
                self._cancelled_live -= 1
                continue
            if until is not None and entry[0] > until:
                self.now = until
                return
            heappop(heap)
            dispatch(entry)
            fired += 1
        if until is not None:
            self.now = until

    def drain_cancelled(self) -> None:
        """Compact the queue by dropping cancelled events.

        Rebuilds the heap list in place: :meth:`run` holds a local
        reference to it across callbacks (which may trigger
        auto-compaction via :meth:`schedule`), so its identity must never
        change.
        """
        heap = self._heap
        heap[:] = [e for e in heap if not _dead(e)]
        heapify(heap)
        self._cancelled_live = 0

    def publish_metrics(self) -> None:
        """Export engine health gauges to the metrics registry (no-op when
        metrics are disabled)."""
        metrics = self._metrics
        if not metrics.enabled:
            return
        metrics.gauge("sim.queue_depth").set(len(self._heap))
        metrics.gauge("sim.peak_queue_depth").set(self._peak_queue_depth)
        metrics.gauge("sim.cancelled_fraction").set(self.cancelled_fraction())
        metrics.gauge("sim.events_processed").set(self._events_processed)
        # Volatile: wall-clock-dependent, excluded from snapshots so
        # same-seed runs keep byte-identical metrics exports.
        metrics.gauge("sim.events_per_wall_second", volatile=True).set(
            self.events_per_wall_second())
