"""Flit-level input-queued crossbar switch (the BookSim-fidelity model).

The main fabric (:mod:`repro.interconnect.network`) models contention at
message granularity for speed.  This module provides the detailed model the
paper's BookSim2 substrate corresponds to — virtual-channel input queues
with credit flow control, per-output round-robin arbitration, one flit per
port per cycle — so the message-granular approximation can be *validated*
against it (see ``tests/unit/test_crossbar.py``: single-flow latency, fair
sharing, permutation throughput, and the head-of-line-blocking effect that
motivates virtual channels).

It is intentionally self-contained (its own injectors/sinks) and used for
micro-validation, not inside the end-to-end experiments: flit-level Python
simulation of a full LLM layer would take hours.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, List, Optional, Tuple

from ..common.config import LinkSpec, SwitchSpec
from ..common.errors import ConfigError, SimulationError
from ..common.events import Simulator


@dataclass
class CrossbarMessage:
    """A message injected into the crossbar."""

    msg_id: int
    in_port: int
    out_port: int
    nbytes: int
    vc: int = 0
    inject_time: float = -1.0
    deliver_time: float = -1.0


@dataclass
class _Flit:
    msg: CrossbarMessage
    is_tail: bool


class CrossbarSwitch:
    """An input-queued, virtual-channel, credit-flow-controlled crossbar.

    Time advances in flit cycles (one flit per port per direction per
    cycle at the link rate).  Per cycle:

    1. each output port's round-robin arbiter grants one requesting
       (input, VC) whose head flit targets it;
    2. granted flits traverse; tail flits complete their message and fire
       the output's delivery callback;
    3. freed buffer slots return credits to the injectors, which feed more
       flits into the input VCs.
    """

    def __init__(self, sim: Simulator, switch_spec: SwitchSpec,
                 link_spec: LinkSpec, num_ports: int):
        if num_ports < 2:
            raise ConfigError(f"need >= 2 ports, got {num_ports}")
        self.sim = sim
        self.spec = switch_spec
        self.link = link_spec
        self.num_ports = num_ports
        self.cycle_ns = link_spec.flit_bytes / link_spec.bandwidth_gbps
        # input port -> vc -> buffered flits (finite: vc_depth).
        self._vcs: List[List[Deque[_Flit]]] = [
            [deque() for _ in range(switch_spec.num_vcs)]
            for _ in range(num_ports)]
        # Per-VC pending injection queues: the upstream wire interleaves
        # flits of different VCs (virtual-channel flow control), so a
        # message stalled on a full VC does not block other VCs' traffic
        # at the source.
        self._pending: List[List[Deque[_Flit]]] = [
            [deque() for _ in range(switch_spec.num_vcs)]
            for _ in range(num_ports)]
        self._rr: List[int] = [0] * num_ports      # per-output arbiter state
        self._vc_rr: List[int] = [0] * num_ports   # per-input VC pick state
        self._inj_rr: List[int] = [0] * num_ports  # per-input wire VC state
        self._deliver: Dict[int, Callable[[CrossbarMessage], None]] = {}
        self._next_id = 0
        self._tick_armed = False
        self.flits_switched = 0
        self.messages_delivered = 0

    # ------------------------------------------------------------------
    # Configuration / injection
    # ------------------------------------------------------------------
    def set_delivery(self, out_port: int,
                     callback: Callable[[CrossbarMessage], None]) -> None:
        self._deliver[out_port] = callback

    def inject(self, in_port: int, out_port: int, nbytes: int,
               vc: Optional[int] = None) -> CrossbarMessage:
        """Queue a message for injection at ``in_port``."""
        if not 0 <= in_port < self.num_ports or \
                not 0 <= out_port < self.num_ports:
            raise SimulationError(f"bad ports {in_port}->{out_port}")
        chosen_vc = (out_port % self.spec.num_vcs) if vc is None else vc
        if not 0 <= chosen_vc < self.spec.num_vcs:
            raise SimulationError(f"bad VC {chosen_vc}")
        msg = CrossbarMessage(msg_id=self._next_id, in_port=in_port,
                              out_port=out_port, nbytes=nbytes,
                              vc=chosen_vc, inject_time=self.sim.now)
        self._next_id += 1
        flits = max(1, -(-nbytes // self.link.flit_bytes))
        for i in range(flits):
            self._pending[in_port][chosen_vc].append(
                _Flit(msg=msg, is_tail=(i == flits - 1)))
        self._arm()
        return msg

    # ------------------------------------------------------------------
    # Cycle engine
    # ------------------------------------------------------------------
    def _arm(self) -> None:
        if not self._tick_armed:
            self._tick_armed = True
            self.sim.schedule(self.cycle_ns, self._tick)

    def _has_work(self) -> bool:
        return (any(vc for port in self._pending for vc in port) or
                any(vc for port in self._vcs for vc in port))

    def _tick(self) -> None:
        self._tick_armed = False
        # Phase 1: per-output arbitration over input VCs' head flits.
        granted: List[Tuple[int, int]] = []       # (in_port, vc)
        for out in range(self.num_ports):
            start = self._rr[out]
            for step in range(self.num_ports):
                in_port = (start + step) % self.num_ports
                vc_index = self._head_vc_for(in_port, out)
                if vc_index is not None:
                    granted.append((in_port, vc_index))
                    self._rr[out] = (in_port + 1) % self.num_ports
                    break
        # Phase 2: traverse granted flits.
        for in_port, vc_index in granted:
            flit = self._vcs[in_port][vc_index].popleft()
            self.flits_switched += 1
            if flit.is_tail:
                flit.msg.deliver_time = self.sim.now
                self.messages_delivered += 1
                callback = self._deliver.get(flit.msg.out_port)
                if callback is not None:
                    callback(flit.msg)
        # Phase 3: credits freed -> refill input VCs from injection queues.
        for in_port in range(self.num_ports):
            self._refill(in_port)
        if self._has_work():
            self._arm()

    def _head_vc_for(self, in_port: int, out_port: int) -> Optional[int]:
        """The next VC (round-robin) whose head flit targets ``out_port``."""
        vcs = self._vcs[in_port]
        start = self._vc_rr[in_port]
        for step in range(len(vcs)):
            idx = (start + step) % len(vcs)
            if vcs[idx] and vcs[idx][0].msg.out_port == out_port:
                self._vc_rr[in_port] = (idx + 1) % len(vcs)
                return idx
        return None

    def _refill(self, in_port: int) -> None:
        """Deliver at most one upstream flit into this port's buffers.

        The wire carries one flit per cycle, round-robining across the VCs
        that both have pending flits and downstream credits — a VC stalled
        on a full buffer does not block the wire for other VCs.
        """
        queues = self._pending[in_port]
        start = self._inj_rr[in_port]
        for step in range(len(queues)):
            idx = (start + step) % len(queues)
            pending = queues[idx]
            if not pending:
                continue
            vc = self._vcs[in_port][pending[0].msg.vc]
            if len(vc) < self.spec.vc_depth:
                vc.append(pending.popleft())
                self._inj_rr[in_port] = (idx + 1) % len(queues)
                return

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def idle(self) -> bool:
        return not self._has_work()
