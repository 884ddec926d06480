"""NVLink SHARP (NVLS) in-switch computing engine.

Implements the communication-centric primitives the paper analyses in
Fig. 1(g), following the public description in Klenk et al. (ISCA'20) [24]:

* ``multimem.st`` — **push-mode multicast**: a GPU stores once; the switch
  replicates the data to every group member (AllGather's transport).
* ``multimem.ld_reduce`` — **pull-mode reduction**: a GPU issues one request;
  the switch gathers one contribution from each member, reduces in-flight,
  and returns a single combined response (ReduceScatter's transport).
* ``multimem.red`` — **push-mode reduction**: every member pushes its
  contribution; the switch accumulates and writes the combined result to the
  home GPU.

These primitives operate *between global barriers*: they are agnostic to the
compute kernels around them, which is precisely the limitation CAIS removes.
The switch-side datapaths here (session tracking, in-flight accumulation,
response generation) are reused by the CAIS merge unit — the paper's Fig. 6
marks those as the "reused from NVLS" blocks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..common.errors import ProtocolError
from ..common.functional import combine_payloads as _combine
from ..interconnect.message import Address, Message, Op, gpu_node
from ..interconnect.switch import Switch
from .. import obs
from ..obs.causality import SWITCH_MERGE


@dataclass
class _PullSession:
    """One in-flight ``multimem.ld_reduce``: gather, reduce, respond."""

    requester: int
    address: Address
    chunk_bytes: int
    expected: int
    received: int = 0
    acc: Any = None
    tag: Any = None                      # opaque requester tag, echoed back
    started_ns: float = 0.0
    obs_aid: int = -1                    # async-span id (tracing only)
    #: Causal-node ids of the hops delivering each contribution.
    cz_contribs: List[int] = field(default_factory=list)


@dataclass
class _PushSession:
    """One in-flight ``multimem.red``: accumulate pushes, write home."""

    address: Address
    chunk_bytes: int
    expected: int
    received: int = 0
    acc: Any = None
    on_complete_meta: Dict[str, Any] = field(default_factory=dict)
    started_ns: float = 0.0
    obs_aid: int = -1                    # async-span id (tracing only)
    #: Causal-node ids of the hops delivering each contribution.
    cz_contribs: List[int] = field(default_factory=list)


class NvlsEngine:
    """Switch engine implementing the three NVLS multimem primitives."""

    #: Marks this engine as an in-switch *compute* unit: an NVLS_FAIL fault
    #: kills it while the plane keeps forwarding plain traffic.
    COMPUTE_UNIT = True

    def __init__(self, fault_state=None) -> None:
        self._pull_sessions: Dict[Tuple[int, Address], _PullSession] = {}
        self._push_sessions: Dict[Address, _PushSession] = {}
        self.multicasts = 0
        self.pull_reductions = 0
        self.push_reductions = 0
        self.faulted = False
        self.faulted_drops = 0
        self._fault_state = fault_state
        sinks = obs.current()
        self._tr = sinks.tracer
        self._mx = sinks.metrics
        self._cz = sinks.causality
        self._next_aid = 0
        self._track = -1                 # resolved on first switch contact

    # ------------------------------------------------------------------
    # Fault injection
    # ------------------------------------------------------------------
    def fail(self, switch: Switch) -> None:
        """Kill the compute unit: abort in-flight sessions, swallow future
        multimem ops.  The comm layer learns of the fault via the shared
        fault state and reruns aborted collectives over the ring path."""
        if self.faulted:
            return
        self.faulted = True
        aborted = len(self._pull_sessions) + len(self._push_sessions)
        for session in list(self._pull_sessions.values()):
            self._session_close(switch, "pull", session)
        for session in list(self._push_sessions.values()):
            self._session_close(switch, "push", session)
        self._pull_sessions.clear()
        self._push_sessions.clear()
        if self._fault_state is not None:
            if aborted:
                self._fault_state.counters.bump("nvls_sessions_aborted",
                                                aborted)
            self._fault_state.nvls_unit_failed(switch.index)

    # ------------------------------------------------------------------
    # Observability helpers
    # ------------------------------------------------------------------
    def _session_open(self, switch: Switch, kind: str,
                      session: Any) -> None:
        if self._mx is not None:
            self._mx.counter(f"nvls.{kind}_sessions").inc()
        session.started_ns = switch.sim.now
        if self._tr is None:
            return
        if self._track < 0:
            self._track = self._tr.track(f"Switch {switch.index}", "NVLS")
        session.obs_aid = self._next_aid
        self._next_aid += 1
        self._tr.async_begin(self._track, f"nvls {kind}", session.obs_aid,
                             switch.sim.now, cat="nvls",
                             args={"expected": session.expected})

    def _session_close(self, switch: Switch, kind: str,
                       session: Any) -> None:
        if self._mx is not None:
            self._mx.histogram("nvls.session_gather_ns").record(
                switch.sim.now - session.started_ns)
        if self._tr is not None and session.obs_aid >= 0:
            self._tr.async_end(self._track, f"nvls {kind}", session.obs_aid,
                               switch.sim.now, cat="nvls")

    # ------------------------------------------------------------------
    # SwitchEngine interface
    # ------------------------------------------------------------------
    def process(self, switch: Switch, msg: Message, in_port: int) -> bool:
        if self.faulted:
            # A dead compute unit consumes (and loses) multimem traffic
            # addressed to it; plain forwarding is untouched.
            if msg.op in (Op.MULTIMEM_ST, Op.MULTIMEM_LD_REDUCE_REQ,
                          Op.MULTIMEM_RED) or (
                    msg.op is Op.MULTIMEM_LD_REDUCE_RESP
                    and "nvls_pull" in msg.meta):
                self.faulted_drops += 1
                return True
            return False
        if msg.op is Op.MULTIMEM_ST:
            self._multicast(switch, msg)
            return True
        if msg.op is Op.MULTIMEM_LD_REDUCE_REQ:
            self._start_pull(switch, msg)
            return True
        if msg.op is Op.MULTIMEM_LD_REDUCE_RESP and "nvls_pull" in msg.meta:
            self._pull_contribution(switch, msg)
            return True
        if msg.op is Op.MULTIMEM_RED:
            self._push_contribution(switch, msg)
            return True
        return False

    # ------------------------------------------------------------------
    # multimem.st — push multicast
    # ------------------------------------------------------------------
    def _multicast(self, switch: Switch, msg: Message) -> None:
        members = msg.meta.get("members")
        if not members:
            raise ProtocolError("multimem.st requires meta['members']")
        self.multicasts += 1
        if self._mx is not None:
            self._mx.counter("nvls.multicasts").inc()
        for gpu in members:
            if gpu_node(gpu) == msg.src:
                continue
            copy = Message(op=Op.STORE, src=switch.node_id,
                           dst=gpu_node(gpu),
                           payload_bytes=msg.payload_bytes,
                           address=msg.address, payload=msg.payload,
                           meta=dict(msg.meta))
            switch.forward(copy)

    # ------------------------------------------------------------------
    # multimem.ld_reduce — pull reduction
    # ------------------------------------------------------------------
    def _start_pull(self, switch: Switch, msg: Message) -> None:
        members: List[int] = msg.meta.get("members") or []
        if not members:
            raise ProtocolError("multimem.ld_reduce requires meta['members']")
        if msg.address is None:
            raise ProtocolError("multimem.ld_reduce requires an address")
        requester = msg.src[1]
        key = (requester, msg.address)
        if key in self._pull_sessions:
            raise ProtocolError(f"duplicate ld_reduce session {key}")
        chunk = msg.meta.get("chunk_bytes", 0)
        session = _PullSession(
            requester=requester, address=msg.address, chunk_bytes=chunk,
            expected=len(members), tag=msg.meta.get("tag"))
        self._pull_sessions[key] = session
        self._session_open(switch, "pull", session)
        for gpu in members:
            gather = Message(op=Op.MULTIMEM_LD_REDUCE_GATHER,
                             src=switch.node_id, dst=gpu_node(gpu),
                             address=msg.address,
                             meta={"requester": requester,
                                   "chunk_bytes": chunk})
            switch.forward(gather)

    def _pull_contribution(self, switch: Switch, msg: Message) -> None:
        requester = msg.meta["requester"]
        key = (requester, msg.address)
        session = self._pull_sessions.get(key)
        if session is None:
            raise ProtocolError(f"ld_reduce contribution for unknown {key}")
        session.received += 1
        session.acc = _combine(session.acc, msg.payload)
        if self._cz is not None:
            session.cz_contribs.append(self._cz.current)
        if session.received == session.expected:
            del self._pull_sessions[key]
            self.pull_reductions += 1
            self._session_close(switch, "pull", session)
            if self._cz is not None:
                now = switch.sim.now
                self._cz.current = self._cz.node(
                    SWITCH_MERGE, now, now,
                    f"sw{switch.index} nvls pull join",
                    parents=tuple((c, "merge")
                                  for c in session.cz_contribs))
            resp = Message(op=Op.MULTIMEM_LD_REDUCE_RESP,
                           src=switch.node_id, dst=gpu_node(requester),
                           payload_bytes=session.chunk_bytes,
                           address=session.address, payload=session.acc,
                           meta={"completed": True, "tag": session.tag})
            switch.forward(resp)

    # ------------------------------------------------------------------
    # multimem.red — push reduction
    # ------------------------------------------------------------------
    def _push_contribution(self, switch: Switch, msg: Message) -> None:
        if msg.address is None:
            raise ProtocolError("multimem.red requires an address")
        expected = msg.meta.get("expected")
        if not expected:
            raise ProtocolError("multimem.red requires meta['expected']")
        session = self._push_sessions.get(msg.address)
        if session is None:
            session = _PushSession(address=msg.address,
                                   chunk_bytes=msg.payload_bytes,
                                   expected=expected,
                                   on_complete_meta=dict(msg.meta))
            self._push_sessions[msg.address] = session
            self._session_open(switch, "push", session)
        session.received += 1
        session.acc = _combine(session.acc, msg.payload)
        if self._cz is not None:
            session.cz_contribs.append(self._cz.current)
        if session.received == session.expected:
            del self._push_sessions[msg.address]
            self.push_reductions += 1
            self._session_close(switch, "push", session)
            if self._cz is not None:
                now = switch.sim.now
                self._cz.current = self._cz.node(
                    SWITCH_MERGE, now, now,
                    f"sw{switch.index} nvls push join",
                    parents=tuple((c, "merge")
                                  for c in session.cz_contribs))
            meta = dict(session.on_complete_meta)
            meta.update(reduced=True, contributions=session.received,
                        partial=False)
            result = Message(op=Op.STORE, src=switch.node_id,
                             dst=gpu_node(msg.address.home_gpu),
                             payload_bytes=session.chunk_bytes,
                             address=msg.address, payload=session.acc,
                             meta=meta)
            switch.forward(result)

    # ------------------------------------------------------------------
    # Introspection (used by tests)
    # ------------------------------------------------------------------
    def open_sessions(self) -> int:
        """In-flight pull + push sessions (0 when the fabric is quiescent)."""
        return len(self._pull_sessions) + len(self._push_sessions)
