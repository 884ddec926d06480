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
* Events are cancellable: :meth:`Event.cancel` marks the event dead and the
  main loop skips it.  This supports timeout timers that are disarmed
  before they fire.  The simulator tracks how many cancelled events still
  sit in the queue (cancelling an event that already fired counts
  nothing) and auto-compacts the queue when they outnumber the live ones.
* Two interchangeable queue disciplines sit behind one three-method API
  (``push``, which returns the new queue length, ``pop`` and ``peek``):
  the reference binary heap and a calendar queue (bucketed by timestamp).
  Both fire events in *exactly* the same ``(time, seq)`` order — entries
  are ``(time, seq, event)`` tuples and ``seq`` is unique, so the order is
  a total order independent of the container — which keeps every output
  byte-identical across disciplines (property-tested in
  ``tests/properties/test_scheduler_equivalence.py``).  The heap is the
  default; the calendar queue is selected by
  ``FastPathConfig.calendar_queue`` (:mod:`repro.common.fastpath`).
* On the heap, :meth:`Simulator.schedule`/:meth:`Simulator.schedule_at`
  push straight onto the heap list, and :meth:`Simulator.run` without
  ``until``/``max_events``, profiler or causal recording pops straight off
  it in one fused loop.  Every other case takes the general loop; both
  fire the same events in the same order.
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
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..obs import current_causality, current_metrics, current_profiler
from ..obs.causality import NO_CAUSE
from .errors import SimulationError
from . import fastpath

#: Queues smaller than this are never auto-compacted — the rebuild would
#: cost more than skipping the handful of dead events.
_AUTO_COMPACT_MIN_QUEUE = 64


class Event:
    """A scheduled callback.

    Instances are created by :meth:`Simulator.schedule`; user code only ever
    cancels them or inspects :attr:`time`.
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

    def __lt__(self, other: "Event") -> bool:
        if self.time != other.time:
            return self.time < other.time
        return self.seq < other.seq

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "armed"
        name = getattr(self.callback, "__qualname__", repr(self.callback))
        return f"Event(t={self.time:.1f}ns, {name}, {state})"


#: Queue entries: comparison is C-level tuple comparison on (time, seq) —
#: ``seq`` is unique per simulator, so the third element never compares.
_Entry = Tuple[float, int, Event]


class HeapEventQueue:
    """Reference discipline: one binary heap of ``(time, seq, event)``."""

    __slots__ = ("_heap",)

    def __init__(self) -> None:
        self._heap: List[_Entry] = []

    def __len__(self) -> int:
        return len(self._heap)

    def push(self, entry: _Entry) -> int:
        heappush(self._heap, entry)
        return len(self._heap)

    def pop(self) -> _Entry:
        return heappop(self._heap)

    def peek(self) -> Optional[_Entry]:
        heap = self._heap
        return heap[0] if heap else None

    def compact(self) -> None:
        """Drop cancelled events; preserves relative order of the rest."""
        self._heap[:] = [e for e in self._heap if not e[2].cancelled]
        heapify(self._heap)


class CalendarEventQueue:
    """Calendar queue: timestamp-bucketed event store with exact ordering.

    Entries are hashed by ``floor(time / width)`` into buckets.  The
    *current* bucket (every entry at or before the bucket now being
    drained) is kept as a small binary heap; *future* buckets are plain
    append-only lists that get heapified wholesale the moment they become
    current (one O(n) heapify instead of n sifts).  A heap of non-empty
    bucket indices finds the next bucket, so sparse regions of the
    timeline cost nothing.  Push is O(1) amortized; pop is O(log b) in the
    current-bucket occupancy b.

    Ordering is exact by construction: all current-bucket times strictly
    precede all future-bucket times (equal times share a bucket), and
    within a bucket the heap orders ``(time, seq)`` tuples — so the pop
    sequence is identical to the reference heap's for any workload.

    The bucket width adapts: when the population doubles past the last
    resize point (or collapses below a quarter of it), every entry is
    rebucketed with ``width = span / population * target_occupancy``, so
    buckets hold ~:data:`_TARGET_OCCUPANCY` events regardless of the
    workload's time scale.
    """

    #: Events per bucket the resize policy aims for.
    TARGET_OCCUPANCY = 16
    #: Initial bucket width in ns (matches link/TB event spacing at the
    #: default fabric scale; adapted after the first resize anyway).
    INITIAL_WIDTH_NS = 64.0
    #: Population that triggers the first adaptive resize.
    MIN_RESIZE_POPULATION = 1024

    __slots__ = ("width", "_cur", "_cur_idx", "_buckets", "_order", "_size",
                 "_resize_up", "_resize_down", "resizes")

    def __init__(self, width: float = INITIAL_WIDTH_NS) -> None:
        self.width = width
        self._cur: List[_Entry] = []        # heap: bucket index <= _cur_idx
        self._cur_idx = 0
        self._buckets: Dict[int, List[_Entry]] = {}
        self._order: List[int] = []         # heap of future bucket indices
        self._size = 0
        self._resize_up = self.MIN_RESIZE_POPULATION
        self._resize_down = -1
        self.resizes = 0

    def __len__(self) -> int:
        return self._size

    def push(self, entry: _Entry) -> int:
        idx = int(entry[0] / self.width)
        if idx <= self._cur_idx:
            heappush(self._cur, entry)
        else:
            bucket = self._buckets.get(idx)
            if bucket is None:
                self._buckets[idx] = [entry]
                heappush(self._order, idx)
            else:
                bucket.append(entry)
        self._size += 1
        if self._size >= self._resize_up:
            self._resize()
        return self._size

    def _advance(self) -> None:
        """Load the next non-empty future bucket into the current heap."""
        while not self._cur and self._order:
            idx = heappop(self._order)
            bucket = self._buckets.pop(idx, None)
            if bucket is None:      # stale index left behind by compact()
                continue
            heapify(bucket)
            self._cur = bucket
            self._cur_idx = idx

    def pop(self) -> _Entry:
        if not self._cur:
            self._advance()
        self._size -= 1
        if self._size <= self._resize_down:
            entry = heappop(self._cur)
            self._resize()
            return entry
        return heappop(self._cur)

    def peek(self) -> Optional[_Entry]:
        if not self._cur:
            self._advance()
        cur = self._cur
        return cur[0] if cur else None

    def compact(self) -> None:
        """Drop cancelled events; bucket structure is preserved (empty
        future buckets leave a stale index that :meth:`_advance` skips)."""
        cur = [e for e in self._cur if not e[2].cancelled]
        heapify(cur)
        self._cur = cur
        size = len(cur)
        for idx in list(self._buckets):
            bucket = [e for e in self._buckets[idx] if not e[2].cancelled]
            if bucket:
                self._buckets[idx] = bucket
                size += len(bucket)
            else:
                del self._buckets[idx]
        self._size = size

    def _entries(self) -> List[_Entry]:
        entries = list(self._cur)
        for bucket in self._buckets.values():
            entries.extend(bucket)
        return entries

    def _resize(self) -> None:
        """Rebucket everything with a width targeting
        :data:`TARGET_OCCUPANCY` events per bucket."""
        entries = self._entries()
        size = len(entries)
        self._resize_up = max(2 * size, self.MIN_RESIZE_POPULATION)
        self._resize_down = size // 4 if size >= 2 * self.MIN_RESIZE_POPULATION else -1
        if size >= 2:
            lo = min(e[0] for e in entries)
            hi = max(e[0] for e in entries)
            span = hi - lo
            if span > 0.0:
                self.width = span * self.TARGET_OCCUPANCY / size
            lo_idx = int(lo / self.width)
        else:
            lo_idx = int(entries[0][0] / self.width) if entries else 0
        self.resizes += 1
        self._cur = []
        self._cur_idx = lo_idx
        self._buckets = {}
        self._order = []
        width = self.width
        buckets = self._buckets
        cur = self._cur
        for entry in entries:
            idx = int(entry[0] / width)
            if idx <= lo_idx:
                cur.append(entry)
            else:
                bucket = buckets.get(idx)
                if bucket is None:
                    buckets[idx] = [entry]
                else:
                    bucket.append(entry)
        heapify(cur)
        order = list(buckets)
        heapify(order)
        self._order = order


def _make_queue(scheduler: str):
    if scheduler == "calendar":
        return CalendarEventQueue()
    if scheduler == "heap":
        return HeapEventQueue()
    raise SimulationError(
        f"unknown scheduler {scheduler!r}; expected 'calendar' or 'heap'")


class Simulator:
    """Priority-queue discrete-event simulator.

    ``scheduler`` selects the queue discipline (``"heap"`` or
    ``"calendar"``); by default it follows the process-global
    :func:`repro.common.fastpath.config`, whose default is the heap.  Both
    disciplines fire events in identical order (see module docstring), so
    the choice never affects simulation output.

    Example
    -------
    >>> sim = Simulator()
    >>> fired = []
    >>> _ = sim.schedule(10.0, fired.append, "a")
    >>> _ = sim.schedule(5.0, fired.append, "b")
    >>> sim.run()
    >>> fired
    ['b', 'a']
    """

    def __init__(self, scheduler: Optional[str] = None) -> None:
        if scheduler is None:
            scheduler = ("calendar" if fastpath.config().calendar_queue
                         else "heap")
        self.scheduler = scheduler
        self._now: float = 0.0
        self._queue = _make_queue(scheduler)
        # The heap discipline's list, which scheduling and the fused run
        # loop push and pop directly; None on the calendar queue.
        self._heap: Optional[List[_Entry]] = (
            self._queue._heap if scheduler == "heap" else None)
        # Next event sequence number.  A plain int (not itertools.count) so
        # that callers can reserve numbers (seq_allocated + advance_seq)
        # for an event they queue later with schedule_at(..., seq=...).
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

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulation time in nanoseconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Number of events fired so far (cancelled events excluded)."""
        return self._events_processed

    def pending(self) -> int:
        """Number of events still in the queue (including cancelled ones)."""
        return len(self._queue)

    def next_time(self) -> Optional[float]:
        """Time of the earliest queued event (cancelled ones included), or
        None when the queue is empty."""
        entry = self._queue.peek()
        return None if entry is None else entry[0]

    def cancelled_pending(self) -> int:
        """Cancelled events still occupying queue slots."""
        return self._cancelled_live

    def cancelled_fraction(self) -> float:
        """Fraction of the queue occupied by cancelled events."""
        if not len(self._queue):
            return 0.0
        return self._cancelled_live / len(self._queue)

    @property
    def auto_compactions(self) -> int:
        """Times the queue was auto-compacted (see :meth:`schedule`)."""
        return self._auto_compactions

    @property
    def peak_queue_depth(self) -> int:
        """High-water mark of the event queue."""
        return self._peak_queue_depth

    @property
    def wall_seconds(self) -> float:
        """Cumulative wall-clock time spent inside :meth:`run`."""
        return self._wall_seconds

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

    def schedule(self, delay: float, callback: Callable[..., None],
                 *args: Any) -> Event:
        """Schedule ``callback(*args)`` to fire ``delay`` ns from now."""
        if delay < 0:
            raise SimulationError(
                f"cannot schedule event {delay} ns in the past "
                f"(now={self._now})")
        time = self._now + delay
        seq = self._seq
        self._seq = seq + 1
        ev = Event(time, seq, callback, args, self, self._causality.current)
        heap = self._heap
        if heap is None:
            depth = self._queue.push((time, seq, ev))
        else:
            heappush(heap, (time, seq, ev))
            depth = len(heap)
        if depth > self._peak_queue_depth:
            self._peak_queue_depth = depth
        if (self._cancelled_live * 2 > depth
                and depth >= _AUTO_COMPACT_MIN_QUEUE):
            self._auto_compact()
        return ev

    def schedule_at(self, time: float, callback: Callable[..., None],
                    *args: Any, seq: Optional[int] = None) -> Event:
        """Schedule ``callback(*args)`` at absolute time ``time`` ns.

        The timestamp is used exactly as given — no round-trip through a
        relative delay, which would perturb absolute times by float
        rounding (``now + (time - now) != time`` in general).

        ``seq`` queues the event under a sequence number reserved earlier
        with :attr:`seq_allocated` and :meth:`advance_seq`, instead of the
        next one: the event then takes the place, among same-instant
        events, of one scheduled at the moment of the reservation.
        """
        if time < self._now:
            raise SimulationError(
                f"cannot schedule event at {time} ns, in the past "
                f"(now={self._now})")
        if seq is None:
            seq = self._seq
            self._seq = seq + 1
        ev = Event(time, seq, callback, args, self, self._causality.current)
        heap = self._heap
        if heap is None:
            depth = self._queue.push((time, seq, ev))
        else:
            heappush(heap, (time, seq, ev))
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
        :meth:`schedule_at`."""
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
    def _dispatch(self, ev: Event) -> None:
        """Advance the clock to ``ev`` and fire it.

        The dispatch path shared by :meth:`step` and the general run loop
        — clock monotonicity check, causality restore, profiler wrap.
        """
        if ev.time < self._now:
            raise SimulationError(
                f"event queue time went backwards: {ev.time} < {self._now}")
        self._now = ev.time
        self._events_processed += 1
        ev.owner = None
        causality = self._causality
        if causality.enabled:
            causality.current = ev.cause
        profiler = self._profiler
        if profiler is None:
            ev.callback(*ev.args)
        else:
            profiler.timed(ev.callback, ev.args)

    def step(self) -> bool:
        """Fire the next live event.  Returns False when the queue is empty."""
        queue = self._queue
        while len(queue):
            ev = queue.pop()[2]
            if ev.cancelled:
                self._cancelled_live -= 1
                continue
            self._dispatch(ev)
            self.publish_metrics()
            return True
        return False

    def run(self, until: Optional[float] = None,
            max_events: Optional[int] = None) -> None:
        """Run until the queue drains, ``until`` ns is reached, or
        ``max_events`` events have fired.

        ``until`` is an absolute simulation time; when the next event lies
        beyond it the clock is advanced to ``until`` and the loop stops with
        the event still queued.
        """
        if self._running:
            raise SimulationError("Simulator.run() is not re-entrant")
        self._running = True
        # No collection could free anything mid-run (module docstring), so
        # the collector would only traverse live simulation state.
        collecting = gc.isenabled()
        gc.disable()
        wall_start = perf_counter()
        try:
            heap = self._heap
            if (heap is not None and until is None and max_events is None
                    and self._profiler is None
                    and not self._causality.enabled):
                # Fused loop: the common case, popping straight off the
                # heap.  ``_events_processed`` stays live per event (the
                # fault watchdog and the analytic collective bypass read
                # it mid-run), and drain_cancelled() compacts the heap list
                # in place, so ``heap`` stays valid across callbacks.
                while heap:
                    time, _, ev = heappop(heap)
                    if ev.cancelled:
                        self._cancelled_live -= 1
                        continue
                    if time < self._now:
                        raise SimulationError(
                            f"event queue time went backwards: "
                            f"{time} < {self._now}")
                    self._now = time
                    self._events_processed += 1
                    ev.owner = None
                    ev.callback(*ev.args)
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
        """The loop for every discipline and option: ``until``,
        ``max_events``, the profiler and causal recording."""
        # The queue object is mutated in place everywhere (drain_cancelled
        # included), so the local bindings stay valid across callbacks.
        queue = self._queue
        peek = queue.peek
        pop = queue.pop
        dispatch = self._dispatch
        fired = 0
        while True:
            if max_events is not None and fired >= max_events:
                return
            entry = peek()
            if entry is None:
                break
            ev = entry[2]
            if ev.cancelled:
                pop()
                self._cancelled_live -= 1
                continue
            if until is not None and entry[0] > until:
                self._now = until
                return
            pop()
            dispatch(ev)
            fired += 1
        if until is not None and until > self._now:
            self._now = until

    def drain_cancelled(self) -> None:
        """Compact the queue by dropping cancelled events.

        Mutates the queue object and the heap list in place: :meth:`run`
        holds local references to them across callbacks (which may trigger
        auto-compaction via :meth:`schedule`), so their identity must never
        change.
        """
        self._queue.compact()
        self._cancelled_live = 0

    def publish_metrics(self) -> None:
        """Export engine health gauges to the metrics registry (no-op when
        metrics are disabled)."""
        metrics = self._metrics
        if not metrics.enabled:
            return
        metrics.gauge("sim.queue_depth").set(len(self._queue))
        metrics.gauge("sim.peak_queue_depth").set(self._peak_queue_depth)
        metrics.gauge("sim.cancelled_fraction").set(self.cancelled_fraction())
        metrics.gauge("sim.events_processed").set(self._events_processed)
        # Volatile: wall-clock-dependent, excluded from snapshots so
        # same-seed runs keep byte-identical metrics exports.
        metrics.gauge("sim.events_per_wall_second", volatile=True).set(
            self.events_per_wall_second())
