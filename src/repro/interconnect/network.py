"""The interconnect fabric: GPUs x switch planes, fully wired.

Replicates the DGX-H100 topology the paper simulates (Section IV-A): every
GPU has one bidirectional link to each of the 4 NVSwitch planes.  Addressed
traffic picks its plane with the deterministic address hash (so mergeable
requests converge); unaddressed traffic stripes round-robin.

GPU-side endpoints are registered by the GPU model (or by test stubs) — the
fabric only requires a ``receive(msg)`` callable per GPU.

Causal recording (:mod:`repro.obs.causality`) needs no explicit threading
here: a message injected via :meth:`Network.send_from_gpu` is enqueued on
an up link under the sender's ambient cause, each link transmission becomes
a ``link_serialization`` node, each switch hop a node categorized by the
consumed op, and delivery events carry the producing node as their ambient
cause — so the fabric propagates cause ids end to end through the ordinary
event flow, including across plane reroutes after a fault.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Set, Tuple

from ..common import fastpath
from ..common.config import SystemConfig
from ..common.errors import RoutingError, SimulationError
from ..common.events import Simulator
from ..obs import current_causality, current_tracer
from .link import Link
from .message import Address, Message
from .routing import plane_for_address, plane_for_stripe
from .switch import Switch


class Network:
    """All links and switches of one multi-GPU node.

    ``allow_fastpath`` opts the fabric into the batched-link-window layer
    (:mod:`repro.common.fastpath`): harnesses pass False when fault
    injection is configured, since committed serialization windows cannot
    be unwound by a mid-window fault.  The layer additionally stands down
    by itself when tracing or causal recording is active (their outputs
    depend on event interleaving) or when the global config disables it.
    """

    def __init__(self, sim: Simulator, config: SystemConfig,
                 traffic_control: bool = False,
                 allow_fastpath: bool = True):
        self.sim = sim
        self.config = config
        self.traffic_control = traffic_control
        self.fastpath_windows = (
            allow_fastpath and fastpath.config().link_windows
            and not current_tracer().enabled
            and not current_causality().enabled)
        self.switches: List[Switch] = [
            Switch(sim, config.switch, s, config.num_gpus)
            for s in range(config.num_switches)
        ]
        self._gpu_receivers: Dict[int, Callable[[Message], None]] = {}
        # Fault-injection state: planes taken out of service and the
        # deterministic remap of new traffic onto the survivors.
        self._failed_planes: Set[int] = set()
        self._healthy_planes: List[int] = list(range(config.num_switches))
        self.reroutes = 0
        # Links keyed by (gpu, switch): "up" is GPU -> switch, "down" is
        # switch -> GPU.
        self.up_links: Dict[Tuple[int, int], Link] = {}
        self.down_links: Dict[Tuple[int, int], Link] = {}
        fp = self.fastpath_windows
        for g in range(config.num_gpus):
            for s in range(config.num_switches):
                up = Link(sim, config.link, f"gpu{g}->sw{s}",
                          traffic_control=traffic_control,
                          fastpath_windows=fp)
                # Bind loop variables explicitly; a bare lambda would close
                # over the loop cell and mis-deliver every message.
                up.deliver = self._make_switch_delivery(s, g)
                if fp:
                    # Fuse the wire delivery with the switch's fixed hop:
                    # one event carries the message straight to dispatch.
                    up._fused_hop = (self.switches[s]._dispatch, g,
                                     config.switch.hop_latency_ns)
                self.up_links[(g, s)] = up

                down = Link(sim, config.link, f"sw{s}->gpu{g}",
                            traffic_control=traffic_control,
                            fastpath_windows=fp)
                down.deliver = self._make_gpu_delivery(g)
                self.down_links[(g, s)] = down
                self.switches[s].down_links[g] = down

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def _make_switch_delivery(self, switch_index: int,
                              gpu_index: int) -> Callable[[Message], None]:
        switch = self.switches[switch_index]
        return lambda msg: switch.receive(msg, gpu_index)

    def _make_gpu_delivery(self, gpu_index: int) -> Callable[[Message], None]:
        def deliver(msg: Message) -> None:
            receiver = self._gpu_receivers.get(gpu_index)
            if receiver is None:
                raise SimulationError(
                    f"no receiver registered for GPU {gpu_index}")
            receiver(msg)
        return deliver

    def unwire(self) -> None:
        """Disconnect the fabric from its endpoints once the run is over:
        every link drops its callbacks and the GPU receivers are
        forgotten.  Link trackers and counters stay readable."""
        for link in self.all_links():
            link.unwire()
        self._gpu_receivers.clear()

    def register_gpu(self, gpu_index: int,
                     receiver: Callable[[Message], None]) -> None:
        """Attach the endpoint that consumes messages delivered to a GPU."""
        if not 0 <= gpu_index < self.config.num_gpus:
            raise RoutingError(f"no such GPU: {gpu_index}")
        self._gpu_receivers[gpu_index] = receiver

    # ------------------------------------------------------------------
    # Fault injection
    # ------------------------------------------------------------------
    def fail_plane(self, plane: int) -> None:
        """Remove a switch plane from service for all *new* injections.

        In-flight traffic on the plane still drains (the switch keeps
        forwarding; its compute engines are failed separately), which gives
        sessions already homed there a graceful exit.  The last healthy
        plane can never be failed.
        """
        if plane in self._failed_planes:
            return
        survivors = [s for s in range(self.config.num_switches)
                     if s != plane and s not in self._failed_planes]
        if not survivors:
            raise SimulationError(
                f"cannot fail switch plane {plane}: it is the last "
                f"healthy plane")
        self._failed_planes.add(plane)
        self._healthy_planes = survivors

    def route_plane(self, plane: int) -> int:
        """Steer a nominal plane choice around failed planes.

        The remap is a pure function of the nominal plane and the shared
        failed set, so every GPU redirects a given address to the *same*
        surviving plane — mergeable traffic still converges.
        """
        if plane not in self._failed_planes:
            return plane
        self.reroutes += 1
        healthy = self._healthy_planes
        return healthy[plane % len(healthy)]

    @property
    def failed_planes(self) -> Set[int]:
        return set(self._failed_planes)

    def install_fault_hook(
            self, hook: Callable[[Message], bool]) -> None:
        """Arm the per-message drop/corrupt hook on every link."""
        for link in self.all_links():
            link.fault_hook = hook

    # ------------------------------------------------------------------
    # Sending
    # ------------------------------------------------------------------
    def plane_for(self, msg: Message, stripe: Optional[int] = None) -> int:
        """Switch plane a message travels through."""
        if msg.address is not None:
            plane = plane_for_address(msg.address, self.config.num_switches)
        else:
            plane = plane_for_stripe(
                stripe if stripe is not None else msg.msg_id,
                self.config.num_switches)
        if self._failed_planes:
            plane = self.route_plane(plane)
        return plane

    def send_from_gpu(self, gpu_index: int, msg: Message,
                      stripe: Optional[int] = None) -> int:
        """Inject ``msg`` from GPU ``gpu_index``; returns the plane used."""
        plane = self.plane_for(msg, stripe)
        self.up_links[(gpu_index, plane)].send(msg)
        return plane

    # ------------------------------------------------------------------
    # Quiescence
    # ------------------------------------------------------------------
    def quiescent(self) -> bool:
        """No message queued, serializing, on a wire, in a switch hop, or
        held by an open in-switch engine session.

        The analytic collective bypass (DESIGN.md §11) requires this
        before it may replay a calibrated phase: any concurrent traffic
        would contend for link bandwidth and invalidate the closed form.
        """
        for link in self.up_links.values():
            if not link.idle():
                return False
        for link in self.down_links.values():
            if not link.idle():
                return False
        for switch in self.switches:
            if switch.inflight_hops or not switch.engines_idle():
                return False
        return True

    # ------------------------------------------------------------------
    # Metrics helpers
    # ------------------------------------------------------------------
    def all_links(self) -> List[Link]:
        """Every link in the fabric (both directions)."""
        return list(self.up_links.values()) + list(self.down_links.values())

    def average_utilization(self, t0: float, t1: float) -> float:
        """Mean utilization across all links and both directions (Fig. 15)."""
        links = self.all_links()
        return sum(l.tracker.utilization(t0, t1) for l in links) / len(links)

    def active_span(self) -> Tuple[float, float]:
        """[first activity, last activity] across the whole fabric."""
        links = [l for l in self.all_links() if l.tracker.messages]
        if not links:
            return (0.0, 0.0)
        return (min(l.tracker.first_activity() for l in links),
                max(l.tracker.last_activity() for l in links))
