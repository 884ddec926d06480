"""Messages exchanged between GPUs and switches.

A message models one *logical transfer* — a data chunk, a small control
request, or a sync packet — rather than an individual flit.  Serialization
cost on a link is computed from :meth:`Message.wire_bytes`, which charges the
16-byte flit header once per 128-byte packet, matching the paper's NVLink
configuration (16 B flits, single-flit header, 128 B coalesced packets).

Operation kinds cover the three protocol families in the paper:

* plain remote memory ops (direct load/store/atomic-reduce, used by LADM and
  the ring collectives),
* NVLS ``multimem`` ops (push multicast store, pull load-reduce, push
  reduce — Fig. 1(g)),
* CAIS ``*.cais`` ops (the compute-aware ISA extension, Fig. 4), plus the
  TB-group sync control packets.
"""

from __future__ import annotations

import enum
from typing import Any, Callable, Dict, NamedTuple, Optional, Tuple
from ..common.ids import IdAllocator

NodeId = Tuple[str, int]                 # ("gpu", 3) or ("sw", 0)

CONTROL_BYTES = 16                       # empty/control packet = one flit
FLIT_BYTES = 16
PACKET_BYTES = 128


class _NodeIds(dict):
    """The NodeIds of one node kind by index, each built on first use."""

    __slots__ = ("kind",)

    def __init__(self, kind: str) -> None:
        super().__init__()
        self.kind = kind

    def __missing__(self, index: int) -> NodeId:
        node = self[index] = (self.kind, index)
        return node


# Bound lookups of one shared tuple per node, so that building a message
# neither rebuilds a node id nor enters a Python-level call.

#: NodeId of GPU ``index``.
gpu_node: Callable[[int], NodeId] = _NodeIds("gpu").__getitem__
#: NodeId of switch plane ``index``.
switch_node: Callable[[int], NodeId] = _NodeIds("sw").__getitem__


class Op(enum.Enum):
    """Operation carried by a message."""

    # Plain remote memory semantics (no in-switch computing).
    LOAD_REQ = "load.req"
    LOAD_RESP = "load.resp"
    STORE = "store"
    RED = "red"                          # remote atomic reduction (write-add)

    # NVLS multimem family (communication-centric in-switch computing).
    MULTIMEM_ST = "multimem.st"          # push-mode multicast store
    MULTIMEM_LD_REDUCE_REQ = "multimem.ld_reduce.req"    # pull-mode
    MULTIMEM_LD_REDUCE_GATHER = "multimem.ld_reduce.gather"
    MULTIMEM_LD_REDUCE_RESP = "multimem.ld_reduce.resp"
    MULTIMEM_RED = "multimem.red"        # push-mode in-switch reduction

    # CAIS compute-aware family (this paper's ISA extension).
    LD_CAIS_REQ = "ld.cais.req"
    LD_CAIS_RESP = "ld.cais.resp"
    RED_CAIS = "red.cais"
    RED_CAIS_ACK = "red.cais.ack"

    # Control plane: TB-group synchronization.
    SYNC_REQ = "sync.req"
    SYNC_RELEASE = "sync.release"

    # Reliability plane (repro.faults): per-chunk delivery ack for the
    # retransmitting ring collective.
    CHUNK_ACK = "chunk.ack"


class TrafficClass(enum.Enum):
    """Virtual-channel class used by CAIS traffic control (Section III-C)."""

    LOAD = "load"
    REDUCTION = "reduction"
    CONTROL = "control"


#: Ops that request data and therefore ride the LOAD class.
_LOAD_OPS = {Op.LOAD_REQ, Op.LOAD_RESP, Op.LD_CAIS_REQ, Op.LD_CAIS_RESP,
             Op.MULTIMEM_LD_REDUCE_REQ, Op.MULTIMEM_LD_REDUCE_GATHER,
             Op.MULTIMEM_LD_REDUCE_RESP}
_REDUCTION_OPS = {Op.RED, Op.RED_CAIS, Op.RED_CAIS_ACK, Op.MULTIMEM_RED,
                  Op.STORE, Op.MULTIMEM_ST}

#: Virtual channels of a traffic-control link in round-robin order; a
#: class's position here is its VC number.  Every ``TrafficClass`` and
#: every ``Op`` carries its VC number as ``.vc``, resolved once here, so
#: the link indexes its queues without hashing an enum per message.
VC_ORDER = (TrafficClass.CONTROL, TrafficClass.LOAD, TrafficClass.REDUCTION)
for _vc, _tc in enumerate(VC_ORDER):
    _tc.vc = _vc
for _op in Op:
    _op.vc = (TrafficClass.LOAD if _op in _LOAD_OPS
              else TrafficClass.REDUCTION if _op in _REDUCTION_OPS
              else TrafficClass.CONTROL).vc


class Address(NamedTuple("_Address", [("home_gpu", int), ("offset", int)])):
    """A chunk-granular global address: the home GPU plus a byte offset.

    A tuple, so that the merge tables, chunk caches and reduction sinks
    keyed by it hash and compare it in C.
    """

    __slots__ = ()

    def __new__(cls, home_gpu: int, offset: int) -> "Address":
        if home_gpu < 0 or offset < 0:
            raise ValueError(
                f"invalid address Address(home_gpu={home_gpu}, "
                f"offset={offset})")
        return super().__new__(cls, home_gpu, offset)


#: Message-id stream (plane striping hashes on it); an IdAllocator so the
#: analytic collective bypass can advance it exactly as the event path
#: would have (see repro.collectives.analytic).
_msg_ids = IdAllocator()


class Message:
    """One logical transfer between two nodes.

    ``payload_bytes`` is the data volume carried (0 for pure control
    packets); ``payload`` optionally carries a functional value (used by
    correctness tests to verify in-switch reductions numerically);
    ``group_id`` names a TB group or multicast group; ``meta`` defaults to
    a fresh dict and ``msg_id`` to the next id of the message-id stream.

    A plain slotted class rather than a dataclass: a serving run builds
    hundreds of thousands of messages, and the hand-written constructor
    is the cheapest.
    """

    __slots__ = ("op", "src", "dst", "payload_bytes", "address", "payload",
                 "group_id", "meta", "msg_id")

    def __init__(self, op: Op, src: NodeId, dst: NodeId,
                 payload_bytes: int = 0, address: Optional[Address] = None,
                 payload: Any = None, group_id: Optional[int] = None,
                 meta: Optional[Dict[str, Any]] = None,
                 msg_id: Optional[int] = None) -> None:
        if payload_bytes < 0:
            raise ValueError(f"negative payload: {payload_bytes}")
        self.op = op
        self.src = src
        self.dst = dst
        self.payload_bytes = payload_bytes
        self.address = address
        self.payload = payload
        self.group_id = group_id
        self.meta = {} if meta is None else meta
        if msg_id is None:
            # The allocator's call, inlined: one runs per message.
            msg_id = _msg_ids.value
            _msg_ids.value = msg_id + 1
        self.msg_id = msg_id

    @property
    def traffic_class(self) -> TrafficClass:
        """Virtual-channel class this message travels in."""
        return VC_ORDER[self.op.vc]

    def wire_bytes(self) -> int:
        """Bytes occupied on the wire, including per-packet flit headers."""
        if self.payload_bytes == 0:
            return CONTROL_BYTES
        packets = -(-self.payload_bytes // PACKET_BYTES)   # ceil division
        return self.payload_bytes + packets * FLIT_BYTES

    def reply(self, op: Op, payload_bytes: int = 0, **meta: Any) -> "Message":
        """Build a response travelling back to this message's source."""
        return Message(op=op, src=self.dst, dst=self.src,
                       payload_bytes=payload_bytes, address=self.address,
                       group_id=self.group_id, meta=dict(meta))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Message({self.op.value}, {self.src}->{self.dst}, "
                f"{self.payload_bytes}B, addr={self.address})")


#: Metadata key marking a message damaged in flight (repro.faults).  The
#: payload itself is left intact so a buggy receiver that *uses* a corrupt
#: message shows up as silent value corruption in the correctness checks.
CORRUPTED_META = "corrupted"


def mark_corrupted(msg: Message) -> None:
    """Flag ``msg`` as damaged on the wire (checksum failure at receive)."""
    msg.meta[CORRUPTED_META] = True


def is_corrupted(msg: Message) -> bool:
    return bool(msg.meta.get(CORRUPTED_META))
