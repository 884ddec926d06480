"""Per-GPU memory controller.

Four responsibilities:

* **Remote chunk cache** — each remote chunk is fetched over the fabric at
  most once per GPU (the L2/HBM landing buffer); concurrent TB requests for
  the same chunk piggyback on the outstanding fetch.
* **Fill service** — answers load requests arriving from switches (CAIS
  merge fills, bypass directs, NVLS gathers) after the HBM access latency.
* **Reduction sink** — accumulates reduced STOREs (full or partial) per
  address and fires completion callbacks once the expected number of
  contributions has landed; this is how downstream TBs learn that a
  ReduceScatter chunk is ready.
* **Store sink** — counts pushed chunks (NVLS multicast AllGather) and fires
  arrival callbacks.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from ..common.config import GpuSpec
from ..common.errors import ProtocolError
from ..common.events import Simulator
from ..common.functional import combine_payloads
from ..interconnect.message import Address, Message, Op, gpu_node


class _CacheState(enum.Enum):
    PENDING = "pending"
    READY = "ready"


@dataclass
class _CacheLine:
    state: _CacheState
    waiters: List[Callable[[Any], None]] = field(default_factory=list)
    value: Any = None


@dataclass
class _ReductionSlot:
    expected: int
    contributions: int = 0
    acc: Any = None
    callbacks: List[Callable[[Any], None]] = field(default_factory=list)


class MemoryController:
    """Memory-side message endpoint of one GPU."""

    def __init__(self, sim: Simulator, gpu_index: int, spec: GpuSpec,
                 send: Callable[[Message], None],
                 local_value_fn: Optional[Callable[[Address], Any]] = None):
        self.sim = sim
        self.gpu_index = gpu_index
        self.spec = spec
        self._send = send
        self._local_value_fn = local_value_fn
        self._cache: Dict[Address, _CacheLine] = {}
        self._reductions: Dict[Address, _ReductionSlot] = {}
        self._stored: Dict[Address, int] = {}
        self._store_callbacks: Dict[Address, List[Callable[[Any], None]]] = {}
        self.remote_fetches = 0
        self.cache_hits = 0

    # ------------------------------------------------------------------
    # Remote chunk cache (GPU-side issue path)
    # ------------------------------------------------------------------
    def fetch_remote(self, address: Address, chunk_bytes: int,
                     mergeable: bool, expected: int,
                     on_ready: Callable[[Any], None]) -> bool:
        """Request a remote chunk; ``on_ready`` fires when data lands.

        Returns True when a new fabric request was issued (a cache miss),
        False when the call piggybacked on cached or in-flight data.
        """
        line = self._cache.get(address)
        if line is not None:
            if line.state is _CacheState.READY:
                self.cache_hits += 1
                on_ready(line.value)
            else:
                line.waiters.append(on_ready)
            return False
        self._cache[address] = _CacheLine(_CacheState.PENDING,
                                          waiters=[on_ready])
        self.remote_fetches += 1
        op = Op.LD_CAIS_REQ if mergeable else Op.LOAD_REQ
        meta = {"chunk_bytes": chunk_bytes, "expected": expected}
        if not mergeable:
            meta.update(direct=True, requester=self.gpu_index)
        req = Message(op=op, src=gpu_node(self.gpu_index),
                      dst=gpu_node(address.home_gpu), address=address,
                      meta=meta)
        self._send(req)
        return True

    def would_fetch(self, address: Address) -> bool:
        """True if a fetch_remote for ``address`` would issue on the fabric
        (no cached or in-flight line exists)."""
        return address not in self._cache

    def invalidate_cache(self) -> None:
        """Drop all READY lines (between iterations/epochs)."""
        self._cache = {addr: line for addr, line in self._cache.items()
                       if line.state is _CacheState.PENDING}

    def _fill_cache(self, address: Address, value: Any) -> None:
        line = self._cache.get(address)
        if line is None or line.state is _CacheState.READY:
            raise ProtocolError(
                f"GPU {self.gpu_index}: unexpected load response for "
                f"{address}")
        line.state = _CacheState.READY
        line.value = value
        waiters, line.waiters = line.waiters, []
        for cb in waiters:
            cb(value)

    # ------------------------------------------------------------------
    # Reduction sink (home-side completion tracking)
    # ------------------------------------------------------------------
    def expect_reduction(self, address: Address, expected: int,
                         on_complete: Callable[[Any], None]) -> None:
        """Register interest in a chunk's reduction completing locally."""
        slot = self._reductions.get(address)
        if slot is None:
            slot = _ReductionSlot(expected=expected)
            self._reductions[address] = slot
        elif slot.expected < 0:
            # Contributions landed before anyone registered interest.
            slot.expected = expected
        elif slot.expected != expected:
            raise ProtocolError(
                f"reduction {address} expected-count mismatch")
        slot.callbacks.append(on_complete)
        self._maybe_complete_reduction(address, slot)

    def add_local_contribution(self, address: Address,
                               payload: Any = None) -> None:
        """Fold the home GPU's own partial into the chunk (local add)."""
        self._accumulate(address, contributions=1, payload=payload)

    def _accumulate(self, address: Address, contributions: int,
                    payload: Any) -> None:
        slot = self._reductions.get(address)
        if slot is None:
            slot = _ReductionSlot(expected=-1)   # expected set later
            self._reductions[address] = slot
        slot.contributions += contributions
        slot.acc = combine_payloads(slot.acc, payload)
        self._maybe_complete_reduction(address, slot)

    def _maybe_complete_reduction(self, address: Address,
                                  slot: _ReductionSlot) -> None:
        if slot.expected < 0 or slot.contributions < slot.expected:
            return
        callbacks, slot.callbacks = slot.callbacks, []
        for cb in callbacks:
            cb(slot.acc)

    def reduction_value(self, address: Address) -> Any:
        """Accumulated value for a chunk (tests)."""
        slot = self._reductions.get(address)
        return slot.acc if slot else None

    # ------------------------------------------------------------------
    # Store sink (push-mode AllGather arrivals)
    # ------------------------------------------------------------------
    def on_chunk_stored(self, address: Address,
                        callback: Callable[[Any], None]) -> None:
        """Fire ``callback`` when a pushed chunk lands (or already has)."""
        if self._stored.get(address, 0) > 0:
            callback(None)
            return
        self._store_callbacks.setdefault(address, []).append(callback)

    # ------------------------------------------------------------------
    # Message handlers (the GPU routes deliveries by ``ROUTES``)
    # ------------------------------------------------------------------
    def _serve_fill(self, msg: Message) -> None:
        """Answer a fill/direct load after the HBM read latency."""
        self.sim.schedule(self.spec.hbm_latency_ns, self._send_fill, msg)

    def _send_fill(self, msg: Message) -> None:
        value = (self._local_value_fn(msg.address)
                 if self._local_value_fn else None)
        chunk = msg.meta["chunk_bytes"]
        if msg.meta.get("merge_fill"):
            resp = Message(op=Op.LD_CAIS_RESP, src=gpu_node(self.gpu_index),
                           dst=gpu_node(self.gpu_index), address=msg.address,
                           payload_bytes=chunk, payload=value,
                           meta={"merge_fill": True})
        else:
            resp = Message(op=Op.LOAD_RESP, src=gpu_node(self.gpu_index),
                           dst=gpu_node(msg.meta["requester"]),
                           address=msg.address, payload_bytes=chunk,
                           payload=value, meta={"direct": True})
        self._send(resp)

    def _serve_gather(self, msg: Message) -> None:
        self.sim.schedule(self.spec.hbm_latency_ns, self._send_gather, msg)

    def _send_gather(self, msg: Message) -> None:
        value = (self._local_value_fn(msg.address)
                 if self._local_value_fn else None)
        chunk = msg.meta["chunk_bytes"]
        resp = Message(op=Op.MULTIMEM_LD_REDUCE_RESP,
                       src=gpu_node(self.gpu_index),
                       dst=gpu_node(msg.meta["requester"]),
                       address=msg.address, payload_bytes=chunk,
                       payload=value,
                       meta={"nvls_pull": True,
                             "requester": msg.meta["requester"],
                             "chunk_bytes": chunk})
        self._send(resp)

    def _on_store(self, msg: Message) -> None:
        if msg.meta.get("reduced"):
            self._accumulate(msg.address,
                             contributions=msg.meta.get("contributions", 1),
                             payload=msg.payload)
            return
        self._stored[msg.address] = self._stored.get(msg.address, 0) + 1
        callbacks = self._store_callbacks.pop(msg.address, [])
        for cb in callbacks:
            cb(msg.payload)

    def _on_fill(self, msg: Message) -> None:
        self._fill_cache(msg.address, msg.payload)

    #: The ops this controller consumes, each with its handler.  The GPU
    #: routes its deliveries by this table (``Gpu.receive``).
    ROUTES = {Op.LOAD_REQ: _serve_fill,
              Op.MULTIMEM_LD_REDUCE_GATHER: _serve_gather,
              Op.LD_CAIS_RESP: _on_fill,
              Op.LOAD_RESP: _on_fill,
              Op.MULTIMEM_LD_REDUCE_RESP: _on_fill,
              Op.STORE: _on_store}
