"""Unidirectional NVLink model.

A link is a bandwidth server: messages queue, serialize back to back at the
link rate, then arrive after a fixed propagation latency.  Serialization of
the next message overlaps the propagation of the previous one (wormhole-like
pipelining at message granularity).

Two queueing disciplines are supported, matching the paper's traffic-control
ablation (Section III-C, Figs. 15/16):

* **FIFO** (default): a single queue — a burst of large reduction chunks
  head-of-line blocks small load requests behind it.
* **Virtual channels**: one queue per :class:`TrafficClass` with round-robin
  arbitration, which is CAIS's traffic control.  Queues live in a list
  indexed by VC number (``Op.vc``, resolved once per op in
  :mod:`.message`), so a send or a pick hashes no enum.

Fast path (batched serialization windows)
-----------------------------------------
A FIFO link with no fault state is a *deterministic* bandwidth server: at
``send()`` time the message's whole trajectory is already decided —
``start = max(link_free, now)``, ``end = start + serialization`` — because
no contending traffic class can reorder the queue and no fault can derate
the rate mid-window.  When :mod:`repro.common.fastpath` enables
``link_windows`` the link exploits this: it keeps a running window-end
cursor instead of a queue, performs all per-chunk accounting (bandwidth
tracker, metrics, queue-delay samples) immediately with the *exact* same
timestamps the event path would produce, and schedules only the delivery —
eliding the per-chunk end-of-serialization events that dominate the event
population.  Legality conditions and the demotion protocol are described in
DESIGN.md §11; round-robin (traffic-control) links and links with any fault
state always use the reference event path.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Dict, List, Optional, Tuple

from ..common.config import LinkSpec
from ..common.errors import SimulationError
from ..common.events import Simulator
from ..metrics.bandwidth import BandwidthTracker
from ..obs import current_causality, current_metrics, current_tracer
from ..obs.causality import LINK_SERIALIZATION, NO_CAUSE
from .message import VC_ORDER, Message, TrafficClass


class Link:
    """One direction of a GPU<->switch NVLink connection.

    ``fastpath_windows=True`` opts the link into the batched-window fast
    path (see module docstring); it silently stays on the reference event
    path when tracing or causal recording is active (their outputs are
    sensitive to event interleaving) and demotes itself permanently the
    moment any fault state appears.
    """

    def __init__(self, sim: Simulator, spec: LinkSpec, name: str,
                 traffic_control: bool = False,
                 fastpath_windows: bool = False):
        self.sim = sim
        self.spec = spec
        self.name = name
        self.traffic_control = traffic_control
        self.tracker = BandwidthTracker()
        #: Set at wiring time; invoked with each delivered message.
        self.deliver: Optional[Callable[[Message], None]] = None
        # One queue per VC; a FIFO link uses only queue 0.  ``_depth``
        # counts the messages waiting across all of them.
        self._queues: List[Deque[Message]] = [deque() for _ in VC_ORDER]
        self._depth = 0
        self._rr_index = 0
        self._busy = False
        self.peak_queue_depth = 0
        # Fault-injection state (repro.faults): bandwidth derating, transient
        # outage, and a per-message drop/corrupt hook.  Defaults leave the
        # fault-free fast path bit-identical (factor 1.0 multiplies exactly).
        self._bw_factor = 1.0
        self._down = False
        self._fault_hook: Optional[Callable[[Message], bool]] = None
        # Backpressure waiters: (traffic class, threshold, callback).
        self._room_waiters: Deque = deque()
        #: Deliveries scheduled but not yet consumed (wire in flight);
        #: :meth:`idle` needs this for network-quiescence checks.
        self.inflight_deliveries = 0
        # Observability (captured at wiring time; null objects when off).
        self._tr = current_tracer()
        self._mx = current_metrics()
        self._obs_on = self._tr.enabled or self._mx.enabled
        self._track = (self._tr.track("Fabric", name)
                       if self._tr.enabled else 0)
        if self._mx.enabled:
            self._h_qdelay = self._mx.histogram("link.queue_delay_ns")
            self._c_msgs = self._mx.counter("link.messages")
            self._c_bytes = self._mx.counter("link.bytes")
            self._g_qdepth = self._mx.gauge("link.peak_queue_depth")
            self._c_fp_windows = self._mx.counter("sim.fastpath.link_windows")
            self._c_fp_elided = self._mx.counter("sim.fastpath.events_elided")
        # msg id -> enqueue time, for queueing-delay accounting; entries
        # live only while the message sits in a queue, so ids are stable.
        self._enqueued_at: Dict[int, float] = {}
        self._tx_span = -1
        # Causal recording (repro.obs.causality): the cause ambient at
        # send() is remembered per queued message; serialization becomes a
        # node whose "queue" edge charges HOL wait, and the delivery event
        # inherits that node so receivers see the wire as their cause.
        self._cz = current_causality()
        self._cz_pending: Dict[int, int] = {}
        self._cz_tx = NO_CAUSE
        # Fused downstream hop: (dispatch, port, hop_ns), wired by the
        # Network when the receiver is a switch and fusing is legal.
        self._fused_hop: Optional[Tuple[Callable[..., None], int, float]] = \
            None
        # Batched-window fast-path state.
        self._lazy = (fastpath_windows and not traffic_control
                      and not self._tr.enabled and not self._cz.enabled)
        self._free_at = 0.0             # window-end cursor
        self._pending_starts: Deque[float] = deque()
        self._boundary_armed = False
        #: Fast-path accounting (always-on plain ints, aggregated by the
        #: harness into engine-throughput observability).
        self.fastpath_windows_opened = 0
        self.fastpath_messages = 0
        self.fastpath_events_elided = 0

    # ------------------------------------------------------------------
    # Sending
    # ------------------------------------------------------------------
    def send(self, msg: Message) -> None:
        """Enqueue ``msg`` for transmission."""
        if self._lazy:
            self._send_lazy(msg)
            return
        if self.deliver is None:
            raise SimulationError(f"link {self.name} is not wired")
        self._queues[msg.op.vc if self.traffic_control else 0].append(msg)
        depth = self._depth + 1
        self._depth = depth
        if depth > self.peak_queue_depth:
            self.peak_queue_depth = depth
        if self._obs_on:
            now = self.sim.now
            self._enqueued_at[id(msg)] = now
            if self._tr.enabled:
                self._tr.counter(self._track, "queue_depth", now, depth)
            if self._mx.enabled:
                self._g_qdepth.set(self.peak_queue_depth)
        if self._cz.enabled:
            self._cz_pending[id(msg)] = self._cz.current
        if not self._busy:
            self._start_next()

    def _send_lazy(self, msg: Message) -> None:
        """Fast path: commit the message's serialization window now.

        Produces the exact per-chunk timestamps of the event path — the
        window start is the event path's serialization-start instant, the
        end is ``start + wire_bytes/bandwidth`` with identical float
        arithmetic — but schedules only the delivery event.
        """
        if self.deliver is None:
            raise SimulationError(f"link {self.name} is not wired")
        sim = self.sim
        now = sim.now
        wire = msg.wire_bytes()
        serialization = wire / self.spec.bandwidth_gbps
        start = self._free_at
        if start <= now:
            start = now
            self.fastpath_windows_opened += 1
            if self._mx.enabled:
                self._c_fp_windows.inc()
        end = start + serialization
        self._free_at = end
        self.tracker.record(start, end, wire)
        # Queue-depth accounting mirrors the event path: the new message
        # counts at send time (even when it starts immediately), waiting
        # messages are those whose window hasn't opened yet.
        pending = self._pending_starts
        while pending and pending[0] <= now:
            pending.popleft()
        depth = len(pending) + 1
        if depth > self.peak_queue_depth:
            self.peak_queue_depth = depth
        if start > now:
            pending.append(start)
        if self._mx.enabled:
            # Same values in the same (FIFO = send) order as the event
            # path records them at each service start.
            self._h_qdelay.record(start - now)
            self._c_msgs.inc()
            self._c_bytes.inc(wire)
            self._g_qdepth.set(self.peak_queue_depth)
            self._c_fp_elided.inc()
        self.fastpath_messages += 1
        self.fastpath_events_elided += 1
        self.inflight_deliveries += 1
        # Delivery at end + latency, with the event path's association
        # order: (start + ser) computed first, then + latency [, then
        # + hop].  One event instead of two (or three when fused).
        fused = self._fused_hop
        if fused is not None:
            self.fastpath_events_elided += 1
            if self._mx.enabled:
                self._c_fp_elided.inc()
            arrival = end + self.spec.latency_ns
            sim.schedule_at(arrival + fused[2], self._deliver_fused, msg)
        else:
            sim.schedule_at(end + self.spec.latency_ns,
                            self._deliver_event, msg)

    def queue_depth(self, traffic_class: Optional[TrafficClass] = None) -> int:
        """Messages currently waiting (not including the one serializing)."""
        if self._lazy:
            pending = self._pending_starts
            now = self.sim.now
            while pending and pending[0] <= now:
                pending.popleft()
            return len(pending)
        if traffic_class is not None and self.traffic_control:
            return len(self._queues[traffic_class.vc])
        return self._depth

    def wait_for_room(self, traffic_class: TrafficClass, limit: int,
                      callback: Callable[[], None]) -> None:
        """Run ``callback`` once the class's queue is below ``limit``.

        This is the finite-virtual-channel backpressure that CAIS's
        TB-aware request throttling rides on: an issuing TB stalls while
        its reduction VC is full, so no GPU's request stream runs ahead of
        its peers by more than the VC depth.
        """
        if limit < 1:
            raise SimulationError(
                f"link {self.name}: backpressure limit must be >= 1, "
                f"got {limit}")
        if self.queue_depth(traffic_class) < limit:
            callback()
        else:
            self._room_waiters.append((traffic_class, limit, callback))
            if self._lazy:
                self._arm_boundary()

    def _admit_waiters(self) -> None:
        while self._room_waiters:
            traffic_class, limit, callback = self._room_waiters[0]
            if self.queue_depth(traffic_class) >= limit:
                return
            self._room_waiters.popleft()
            callback()

    def _arm_boundary(self) -> None:
        """Schedule a waiter re-check at the next window-open instant.

        Window opens are exactly the instants the event path pops the next
        message off the queue (end of the previous serialization), so
        admission times match the event path.
        """
        if self._boundary_armed or not self._pending_starts:
            return
        self._boundary_armed = True
        self.sim.schedule_at(self._pending_starts[0], self._on_boundary)

    def _on_boundary(self) -> None:
        self._boundary_armed = False
        self._admit_waiters()
        if self._room_waiters:
            self._arm_boundary()

    # ------------------------------------------------------------------
    # Fault injection
    # ------------------------------------------------------------------
    def set_bandwidth_factor(self, factor: float) -> None:
        """Derate (or restore) the link rate; applies to future messages."""
        if factor <= 0.0:
            raise SimulationError(
                f"link {self.name}: bandwidth factor must be > 0, "
                f"got {factor}")
        self._demote()
        self._bw_factor = factor

    def set_down(self, down: bool) -> None:
        """Take the link out of (or back into) service.

        A message already serializing finishes (committed flits drain) but
        nothing new starts; queued traffic resumes when the link comes up.
        """
        self._demote()
        self._down = down
        if not down and not self._busy:
            self._start_next()

    @property
    def fault_hook(self) -> Optional[Callable[[Message], bool]]:
        """Per-message drop/corrupt hook; installing one demotes the link
        off the batched-window fast path (windows cannot be unwound)."""
        return self._fault_hook

    @fault_hook.setter
    def fault_hook(self, hook: Optional[Callable[[Message], bool]]) -> None:
        if hook is not None:
            self._demote()
        self._fault_hook = hook

    @property
    def is_down(self) -> bool:
        return self._down

    def _demote(self) -> None:
        """Leave the batched-window fast path permanently.

        Windows already committed (delivery events scheduled) drain at
        their committed times — the fast path is only ever enabled for
        fault-free harnesses, so demotion mid-traffic can only happen via
        direct API use; the link stays busy until the committed cursor
        passes and the event path takes over from there.
        """
        if not self._lazy:
            return
        self._lazy = False
        self._pending_starts.clear()
        self._boundary_armed = False
        if self._free_at > self.sim.now:
            self._busy = True
            self.sim.schedule_at(self._free_at, self._drain_committed)

    def _drain_committed(self) -> None:
        self._busy = False
        if not self._down:
            self._start_next()
        self._admit_waiters()

    # ------------------------------------------------------------------
    # Quiescence
    # ------------------------------------------------------------------
    def idle(self) -> bool:
        """No message queued, serializing, or on the wire."""
        if self.inflight_deliveries:
            return False
        if self._lazy:
            return self._free_at <= self.sim.now
        return not self._busy and not self._depth

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _start_next(self) -> None:
        if self._down or not self._depth:
            self._busy = False
            return
        self._depth -= 1
        queues = self._queues
        if self.traffic_control:
            # Round-robin across non-empty classes, continuing after the
            # class served last so no class starves (paper: RR arbitration
            # between the load and reduction virtual channels).
            idx = self._rr_index
            while not queues[idx]:
                idx = (idx + 1) % len(queues)
            self._rr_index = (idx + 1) % len(queues)
            msg = queues[idx].popleft()
        else:
            msg = queues[0].popleft()
        self._busy = True
        bandwidth = self.spec.bandwidth_gbps
        if self._bw_factor != 1.0:
            bandwidth *= self._bw_factor
        wire = msg.wire_bytes()
        serialization = wire / bandwidth
        now = self.sim.now
        self.tracker.record(now, now + serialization, wire)
        if self._obs_on:
            enq = self._enqueued_at.pop(id(msg), now)
            if self._mx.enabled:
                self._h_qdelay.record(now - enq)
                self._c_msgs.inc()
                self._c_bytes.inc(wire)
            if self._tr.enabled:
                self._tx_span = self._tr.begin(
                    self._track, f"tx {msg.op.value}", now, cat="link",
                    args={"bytes": wire,
                          "queued_ns": now - enq})
        if self._cz.enabled:
            self._cz_tx = self._cz.node(
                LINK_SERIALIZATION, now, now + serialization,
                f"tx {msg.op.value} {self.name}",
                parents=((self._cz_pending.pop(id(msg), NO_CAUSE),
                          "queue"),))
        self.sim.schedule(serialization, self._on_serialized, msg)

    def _deliver_event(self, msg: Message) -> None:
        self.inflight_deliveries -= 1
        self.deliver(msg)

    def _deliver_fused(self, msg: Message) -> None:
        """Delivery fused with the downstream switch hop: the message is
        handed straight to the switch's dispatch at arrival + hop time."""
        self.inflight_deliveries -= 1
        fused = self._fused_hop
        fused[0](msg, fused[1])

    def _on_serialized(self, msg: Message) -> None:
        if self._tr.enabled and self._tx_span >= 0:
            self._tr.end(self._tx_span, self.sim.now)
            self._tx_span = -1
        # Downstream events — the delivery, any retransmission timers the
        # fault hook arms, and waiters resumed by the link freeing up — are
        # all caused by this transmission (one message serializes at a
        # time, so the single saved node id is the right one).
        if self._cz.enabled:
            self._cz.current = self._cz_tx
        # The fault hook may drop the message on the wire (True) or mark it
        # corrupted in place; either way link-level bandwidth was consumed.
        if self._fault_hook is None or not self._fault_hook(msg):
            fused = self._fused_hop
            self.inflight_deliveries += 1
            if fused is not None:
                # Same association order as the unfused path: arrival =
                # (end + latency), dispatch at arrival + hop.
                arrival = self.sim.now + self.spec.latency_ns
                self.fastpath_events_elided += 1
                if self._mx.enabled:
                    self._c_fp_elided.inc()
                self.sim.schedule_at(arrival + fused[2],
                                     self._deliver_fused, msg)
            else:
                self.sim.schedule(self.spec.latency_ns,
                                  self._deliver_event, msg)
        self._start_next()
        if self._room_waiters:
            self._admit_waiters()
