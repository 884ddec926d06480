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
  TB-group sync and throttling-credit control packets.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Dict, NamedTuple, Optional, Tuple
from ..common.ids import IdAllocator

NodeId = Tuple[str, int]                 # ("gpu", 3) or ("sw", 0)

CONTROL_BYTES = 16                       # empty/control packet = one flit
FLIT_BYTES = 16
PACKET_BYTES = 128


def gpu_node(index: int) -> NodeId:
    """NodeId of GPU ``index``."""
    return ("gpu", index)


def switch_node(index: int) -> NodeId:
    """NodeId of switch plane ``index``."""
    return ("sw", index)


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

    # Control plane: TB-group synchronization and throttling credits.
    SYNC_REQ = "sync.req"
    SYNC_RELEASE = "sync.release"
    CREDIT = "credit"

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


@dataclass
class Message:
    """One logical transfer between two nodes.

    ``payload_bytes`` is the data volume carried (0 for pure control
    packets); ``payload`` optionally carries a functional value (used by
    correctness tests to verify in-switch reductions numerically).
    """

    op: Op
    src: NodeId
    dst: NodeId
    payload_bytes: int = 0
    address: Optional[Address] = None
    payload: Any = None
    group_id: Optional[int] = None       # TB group / multicast group
    meta: Dict[str, Any] = field(default_factory=dict)
    msg_id: int = field(default_factory=_msg_ids)

    def __post_init__(self) -> None:
        if self.payload_bytes < 0:
            raise ValueError(f"negative payload: {self.payload_bytes}")

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
