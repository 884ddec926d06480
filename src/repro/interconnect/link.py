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

Every message takes one send path: queue, serialization-end event, then
delivery.  An up link into a switch may have its delivery fused with the
switch's fixed hop (``_fused_hop``, wired by the Network when
:mod:`repro.common.fastpath` enables ``link_windows``): the serialization
end then schedules one event straight to the switch's dispatch at
arrival + hop instead of a delivery that schedules the hop (DESIGN.md §11).
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Dict, List, Optional, Tuple

from ..common.config import LinkSpec
from ..common.errors import SimulationError
from ..common.events import Simulator
from ..metrics.bandwidth import BandwidthTracker
from .. import obs
from ..obs.causality import LINK_SERIALIZATION, NO_CAUSE
from .message import VC_ORDER, Message


class Link:
    """One direction of a GPU<->switch NVLink connection."""

    def __init__(self, sim: Simulator, spec: LinkSpec, name: str,
                 traffic_control: bool = False):
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
        # outage, and a per-message drop/corrupt hook.  Defaults leave
        # fault-free runs bit-identical (factor 1.0 multiplies exactly).
        self._bw_factor = 1.0
        self._down = False
        #: Per-message drop/corrupt hook: returns True to drop the message
        #: on the wire, or marks it corrupted in place.
        self.fault_hook: Optional[Callable[[Message], bool]] = None
        #: Deliveries scheduled but not yet consumed (wire in flight);
        #: :meth:`idle` needs this for network-quiescence checks.
        self.inflight_deliveries = 0
        # Observability (captured at wiring time; None when off).
        sinks = obs.current()
        self._tr = sinks.tracer
        self._mx = sinks.metrics
        self._obs_on = self._tr is not None or self._mx is not None
        self._track = (self._tr.track("Fabric", name)
                       if self._tr is not None else 0)
        if self._mx is not None:
            self._h_qdelay = self._mx.histogram("link.queue_delay_ns")
            self._c_msgs = self._mx.counter("link.messages")
            self._c_bytes = self._mx.counter("link.bytes")
            self._g_qdepth = self._mx.gauge("link.peak_queue_depth")
            self._c_fp_elided = self._mx.counter("sim.fastpath.events_elided")
        # msg id -> enqueue time, for queueing-delay accounting; entries
        # live only while the message sits in a queue, so ids are stable.
        self._enqueued_at: Dict[int, float] = {}
        self._tx_span = -1
        # Causal recording (repro.obs.causality): the cause ambient at
        # send() is remembered per queued message; serialization becomes a
        # node whose "queue" edge charges HOL wait, and the delivery event
        # inherits that node so receivers see the wire as their cause.
        self._cz = sinks.causality
        self._cz_pending: Dict[int, int] = {}
        self._cz_tx = NO_CAUSE
        # Fused downstream hop: (dispatch, port, hop_ns), wired by the
        # Network when the receiver is a switch and fusing is legal.
        self._fused_hop: Optional[Tuple[Callable[..., None], int, float]] = \
            None
        # Per-message event callbacks, bound once instead of per schedule.
        self._serialized_cb = self._on_serialized
        self._deliver_cb = self._deliver_event
        self._deliver_fused_cb = self._deliver_fused
        #: Switch hops elided by the fused delivery (aggregated by the
        #: harness into engine-throughput observability).
        self.fastpath_events_elided = 0

    # ------------------------------------------------------------------
    # Sending
    # ------------------------------------------------------------------
    def send(self, msg: Message) -> None:
        """Enqueue ``msg`` for transmission."""
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
            if self._tr is not None:
                self._tr.counter(self._track, "queue_depth", now, depth)
            if self._mx is not None:
                self._g_qdepth.set(self.peak_queue_depth)
        if self._cz is not None:
            self._cz_pending[id(msg)] = self._cz.current
        if not self._busy:
            self._start_next()

    def queue_depth(self) -> int:
        """Messages currently waiting (not including the one serializing)."""
        return self._depth

    # ------------------------------------------------------------------
    # Fault injection
    # ------------------------------------------------------------------
    def set_bandwidth_factor(self, factor: float) -> None:
        """Derate (or restore) the link rate; applies to future messages."""
        if not factor > 0.0:
            raise SimulationError(
                f"link {self.name}: bandwidth factor must be > 0, "
                f"got {factor}")
        self._bw_factor = factor

    def set_down(self, down: bool) -> None:
        """Take the link out of (or back into) service.

        A message already serializing finishes (committed flits drain) but
        nothing new starts; queued traffic resumes when the link comes up.
        """
        self._down = down
        if not down and not self._busy:
            self._start_next()

    @property
    def is_down(self) -> bool:
        return self._down

    def unwire(self) -> None:
        """Drop the callbacks wired in at build time — the receiver, the
        fused hop, the fault hook and the link's own bound callbacks —
        so that a finished node is freed by reference counting.  The
        bandwidth tracker stays readable; sending raises."""
        self.deliver = None
        self._fused_hop = None
        self.fault_hook = None
        self._serialized_cb = self._deliver_cb = self._deliver_fused_cb = None

    # ------------------------------------------------------------------
    # Quiescence
    # ------------------------------------------------------------------
    def idle(self) -> bool:
        """No message queued, serializing, or on the wire."""
        return (not self.inflight_deliveries and not self._busy
                and not self._depth)

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
            if self._mx is not None:
                self._h_qdelay.record(now - enq)
                self._c_msgs.inc()
                self._c_bytes.inc(wire)
            if self._tr is not None:
                self._tx_span = self._tr.begin(
                    self._track, f"tx {msg.op.value}", now, cat="link",
                    args={"bytes": wire,
                          "queued_ns": now - enq})
        if self._cz is not None:
            self._cz_tx = self._cz.node(
                LINK_SERIALIZATION, now, now + serialization,
                f"tx {msg.op.value} {self.name}",
                parents=((self._cz_pending.pop(id(msg), NO_CAUSE),
                          "queue"),))
        self.sim.schedule(serialization, self._serialized_cb, msg)

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
        if self._tr is not None and self._tx_span >= 0:
            self._tr.end(self._tx_span, self.sim.now)
            self._tx_span = -1
        # Downstream events — the delivery and any retransmission timers
        # the fault hook arms — are all caused by this transmission (one
        # message serializes at a time, so the single saved node id is the
        # right one).
        if self._cz is not None:
            self._cz.current = self._cz_tx
        # The fault hook may drop the message on the wire (True) or mark it
        # corrupted in place; either way link-level bandwidth was consumed.
        if self.fault_hook is None or not self.fault_hook(msg):
            fused = self._fused_hop
            self.inflight_deliveries += 1
            if fused is not None:
                # Same association order as the unfused path: arrival =
                # (end + latency), dispatch at arrival + hop.
                arrival = self.sim.now + self.spec.latency_ns
                self.fastpath_events_elided += 1
                if self._mx is not None:
                    self._c_fp_elided.inc()
                self.sim.schedule_at(arrival + fused[2],
                                     self._deliver_fused_cb, msg)
            else:
                self.sim.schedule(self.spec.latency_ns,
                                  self._deliver_cb, msg)
        self._start_next()
