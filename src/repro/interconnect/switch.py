"""NVSwitch model.

The switch is deliberately thin: it applies a fixed internal hop latency,
then offers each message to its attached *engines* in order (the NVLS
multicast/reduction engine, the CAIS merge unit, the CAIS group-sync table —
whichever the experiment configures).  The first engine that consumes the
message handles it; otherwise the message is unicast-forwarded toward its
destination GPU.  Output contention and arbitration live in the output
:class:`~repro.interconnect.link.Link` objects.
"""

from __future__ import annotations

from typing import Dict, List, Protocol

from ..common.config import SwitchSpec
from ..common.errors import RoutingError
from ..common.events import Simulator
from ..obs import current_causality, current_metrics, current_tracer
from ..obs.causality import (BARRIER_SYNC, LINK_SERIALIZATION, SWITCH_MERGE)
from .link import Link
from .message import Message, NodeId, Op

#: Ops whose in-switch hop is compute (NVLS reduction/multicast or CAIS
#: merge-table work) rather than plain forwarding — the distinction that
#: lets critical-path attribution show merge time on TP-NVLS's path.
_MERGE_OPS = frozenset({
    Op.MULTIMEM_ST, Op.MULTIMEM_LD_REDUCE_REQ, Op.MULTIMEM_LD_REDUCE_GATHER,
    Op.MULTIMEM_LD_REDUCE_RESP, Op.MULTIMEM_RED,
    Op.RED_CAIS, Op.LD_CAIS_REQ, Op.LD_CAIS_RESP,
})
#: Control-plane ops: sync/credit handling is barrier machinery.
_SYNC_OPS = frozenset({Op.SYNC_REQ, Op.SYNC_RELEASE, Op.CREDIT})


def _hop_category(op: Op) -> str:
    if op in _MERGE_OPS:
        return SWITCH_MERGE
    if op in _SYNC_OPS:
        return BARRIER_SYNC
    return LINK_SERIALIZATION


class SwitchEngine(Protocol):
    """In-switch processing engine (NVLS, CAIS merge unit, sync table)."""

    def process(self, switch: "Switch", msg: Message, in_port: int) -> bool:
        """Handle ``msg`` arriving on ``in_port``; True if consumed."""
        ...  # pragma: no cover - protocol


class Switch:
    """One NVSwitch plane connecting all GPUs."""

    def __init__(self, sim: Simulator, spec: SwitchSpec, index: int,
                 num_gpus: int):
        self.sim = sim
        self.spec = spec
        self.index = index
        self.num_gpus = num_gpus
        self.node_id: NodeId = ("sw", index)
        #: Output links toward each GPU, wired by the Network.
        self.down_links: Dict[int, Link] = {}
        self.engines: List[SwitchEngine] = []
        #: Set by fault injection when the whole plane is out of service for
        #: new traffic (in-flight messages still drain through it).
        self.failed = False
        #: Messages inside the hop-latency pipeline (received, dispatch
        #: pending) — network-quiescence bookkeeping.  Fused link
        #: deliveries bypass :meth:`receive` and are tracked by the link.
        self.inflight_hops = 0
        self._tr = current_tracer()
        self._mx = current_metrics()
        self._cz = current_causality()
        if self._mx.enabled:
            self._c_msgs = self._mx.counter(f"switch.{index}.messages")
        # Port tracks are created lazily — only ports that see traffic
        # appear in the trace.
        self._port_tracks: Dict[int, int] = {}

    # ------------------------------------------------------------------
    # Configuration
    # ------------------------------------------------------------------
    def attach_engine(self, engine: SwitchEngine) -> None:
        """Add an in-switch engine; engines are offered messages in order."""
        self.engines.append(engine)

    # ------------------------------------------------------------------
    # Message handling
    # ------------------------------------------------------------------
    def receive(self, msg: Message, in_port: int) -> None:
        """Entry point for messages arriving from GPU ``in_port``."""
        self.inflight_hops += 1
        self.sim.schedule(self.spec.hop_latency_ns, self._dispatch_from_wire,
                          msg, in_port)

    def _dispatch_from_wire(self, msg: Message, in_port: int) -> None:
        self.inflight_hops -= 1
        self._dispatch(msg, in_port)

    def engines_idle(self) -> bool:
        """True when no attached engine has an open session."""
        for engine in self.engines:
            count_fn = getattr(engine, "open_sessions", None)
            if count_fn is not None and count_fn():
                return False
        return True

    def _dispatch(self, msg: Message, in_port: int) -> None:
        if self._tr.enabled:
            track = self._port_tracks.get(in_port)
            if track is None:
                track = self._tr.track(f"Switch {self.index}",
                                       f"port {in_port}")
                self._port_tracks[in_port] = track
            self._tr.instant(track, msg.op.value, self.sim.now,
                             cat="switch",
                             args={"bytes": msg.payload_bytes})
        if self._mx.enabled:
            self._c_msgs.inc()
        if self._cz.enabled:
            # The hop latency was spent getting here; the ambient cause is
            # the delivery that carried the message in ("wire" edge).
            now = self.sim.now
            self._cz.current = self._cz.node(
                _hop_category(msg.op), now - self.spec.hop_latency_ns, now,
                f"sw{self.index} {msg.op.value}",
                parents=((self._cz.current, "wire"),))
        for engine in self.engines:
            if engine.process(self, msg, in_port):
                return
        self.forward(msg)

    def outstanding_work(self) -> str:
        """One-line summary of open engine sessions (deadlock diagnostics).

        Empty string when the plane is quiescent — engines expose their
        in-flight state via an ``open_sessions()`` method when they have one.
        """
        opens = []
        for engine in self.engines:
            count_fn = getattr(engine, "open_sessions", None)
            if count_fn is None:
                continue
            count = count_fn()
            if count:
                opens.append(f"{type(engine).__name__}={count}")
        if not opens:
            return ""
        state = " (failed)" if self.failed else ""
        return f"switch {self.index}{state}: open sessions " + \
            ", ".join(opens)

    def forward(self, msg: Message) -> None:
        """Unicast ``msg`` out the port toward its destination GPU."""
        kind, gpu_index = msg.dst
        if kind != "gpu":
            raise RoutingError(
                f"switch {self.index} cannot forward to {msg.dst}")
        link = self.down_links.get(gpu_index)
        if link is None:
            raise RoutingError(
                f"switch {self.index} has no port toward GPU {gpu_index}")
        link.send(msg)
