"""GPU-driven ring collectives (the NCCL-like non-NVLS transport).

Message-level simulation of the classic ring algorithms, with real
per-chunk pipelining:

* **ReduceScatter** — shard ``j`` starts at GPU ``(j+1) % K``, travels
  ``K-1`` hops accumulating each GPU's local contribution, and lands fully
  reduced at its home GPU ``j``.
* **AllGather** — shard ``j`` starts at its home ``j`` and travels ``K-1``
  hops, each GPU keeping a copy.
* **AllReduce** — ReduceScatter chained into AllGather per chunk (the
  bandwidth-optimal ``2(K-1)/K`` scheme).

Chunks of different shards flow concurrently, so the links pipeline exactly
as NCCL's ring does.  These transports serve the non-NVLS baselines
(CoCoNet, FuseLib, T3, LADM); per-chunk callbacks let overlap systems
trigger downstream work as chunks land.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..common.errors import WorkloadError
from ..common.functional import combine_payloads
from ..faults.retry import RKEY_META
from ..gpu.gpu import Gpu
from ..interconnect.message import (CORRUPTED_META, Message, Op, gpu_node,
                                    is_corrupted)
from ..interconnect.network import Network
from ..obs import current_causality
from ..obs.causality import BARRIER_SYNC
from ..common.ids import IdAllocator

#: Run-id stream (staging addresses embed it); advanceable so the analytic
#: bypass leaves it exactly where the event path would have.
_run_ids = IdAllocator(1)

#: Ack-timeout stretch for ring hops: a chunk and its ack each cross two
#: links (GPU -> switch -> GPU) carrying ~256 KiB payloads through queues
#: that are deep at collective start, so the round trip dwarfs the
#: single-hop switch-ack path the base timeout is sized for.
RING_TIMEOUT_SCALE = 4.0

#: Per-chunk event callback: (shard, chunk, gpu) -> None.
ChunkCallback = Callable[[int, int, int], None]
#: Supplies a GPU's local contribution value for (shard, chunk).
LocalValueFn = Callable[[int, int, int], Any]


@dataclass
class _Run:
    kind: str
    chunk_bytes: int
    last_chunk_bytes: int
    chunks: int
    remaining: int
    on_complete: Callable[[], None]
    on_chunk: Optional[ChunkCallback]
    local_values: Optional[LocalValueFn]


class RingCollective:
    """Driver executing ring collectives over the fabric."""

    def __init__(self, network: Network, gpus: List[Gpu],
                 chunk_bytes: int = 262144, fault_state=None):
        if chunk_bytes <= 0:
            raise WorkloadError(f"chunk_bytes must be positive")
        self.network = network
        self.gpus = gpus
        self.k = len(gpus)
        self.chunk_bytes = chunk_bytes
        self.sim = network.sim
        # Runs in flight.  A finished run leaves only its finish time, so
        # that its callbacks are dropped as soon as it completes.
        self._runs: Dict[int, _Run] = {}
        self._finished_at: Dict[int, float] = {}
        self._cz = current_causality()
        # Fault-injection state (repro.faults): when present, every chunk
        # hop is tracked by the ack/retransmit protocol — the receiver acks
        # each hop by rkey, deduplicates redeliveries, and discards
        # corrupted chunks unacknowledged so the sender retransmits.
        self._fault_state = fault_state
        for gpu in gpus:
            gpu.handlers.append(self._make_handler(gpu.index))

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def reduce_scatter(self, nbytes: int, on_complete: Callable[[], None],
                       on_chunk: Optional[ChunkCallback] = None,
                       local_values: Optional[LocalValueFn] = None) -> int:
        """Start a ring ReduceScatter of a global ``nbytes`` tensor."""
        run_id, run = self._new_run("rs", nbytes, on_complete, on_chunk,
                                    local_values)
        run.remaining = self.k * run.chunks
        for shard in range(self.k):
            src = (shard + 1) % self.k
            for chunk in range(run.chunks):
                self._send(run_id, run, "rs", shard, chunk, step=0, src=src,
                           payload=self._local(run, src, shard, chunk))
        return run_id

    def all_gather(self, nbytes: int, on_complete: Callable[[], None],
                   on_chunk: Optional[ChunkCallback] = None,
                   local_values: Optional[LocalValueFn] = None) -> int:
        """Start a ring AllGather of a global ``nbytes`` tensor."""
        run_id, run = self._new_run("ag", nbytes, on_complete, on_chunk,
                                    local_values)
        run.remaining = self.k * run.chunks * (self.k - 1)
        for shard in range(self.k):
            for chunk in range(run.chunks):
                self._send(run_id, run, "ag", shard, chunk, step=0,
                           src=shard,
                           payload=self._local(run, shard, shard, chunk))
        return run_id

    def all_reduce(self, nbytes: int, on_complete: Callable[[], None],
                   on_chunk: Optional[ChunkCallback] = None,
                   local_values: Optional[LocalValueFn] = None) -> int:
        """Ring AllReduce: per-chunk ReduceScatter chained into AllGather."""
        run_id, run = self._new_run("ar", nbytes, on_complete, on_chunk,
                                    local_values)
        run.remaining = self.k * run.chunks * (self.k - 1)
        for shard in range(self.k):
            src = (shard + 1) % self.k
            for chunk in range(run.chunks):
                self._send(run_id, run, "rs", shard, chunk, step=0, src=src,
                           payload=self._local(run, src, shard, chunk))
        return run_id

    def finish_time(self, run_id: int) -> float:
        """Simulation time at which the run completed (-1 if running)."""
        if run_id in self._runs:
            return -1.0
        return self._finished_at[run_id]

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _new_run(self, kind: str, nbytes: int, on_complete, on_chunk,
                 local_values) -> Tuple[int, _Run]:
        if nbytes <= 0 or nbytes % self.k:
            raise WorkloadError(
                f"collective size {nbytes} must be positive and divisible "
                f"by {self.k} GPUs")
        shard_bytes = nbytes // self.k
        chunks = -(-shard_bytes // self.chunk_bytes)
        last = shard_bytes - (chunks - 1) * self.chunk_bytes
        run = _Run(kind=kind, chunk_bytes=self.chunk_bytes,
                   last_chunk_bytes=last, chunks=chunks, remaining=0,
                   on_complete=on_complete, on_chunk=on_chunk,
                   local_values=local_values)
        run_id = _run_ids()
        self._runs[run_id] = run
        return run_id, run

    def _local(self, run: _Run, gpu: int, shard: int, chunk: int) -> Any:
        if run.local_values is None:
            return None
        return run.local_values(gpu, shard, chunk)

    def _bytes_of(self, run: _Run, chunk: int) -> int:
        return (run.last_chunk_bytes if chunk == run.chunks - 1
                else run.chunk_bytes)

    def _send(self, run_id: int, run: _Run, phase: str, shard: int,
              chunk: int, step: int, src: int, payload: Any) -> None:
        dst = (src + 1) % self.k
        meta = {"ring": run_id, "phase": phase, "shard": shard,
                "chunk": chunk, "step": step}
        state = self._fault_state
        if state is not None:
            key = ("ring", run_id, phase, shard, chunk, step)
            meta[RKEY_META] = key
        msg = Message(op=Op.STORE, src=gpu_node(src), dst=gpu_node(dst),
                      payload_bytes=self._bytes_of(run, chunk),
                      payload=payload, meta=meta)
        self.network.send_from_gpu(src, msg, stripe=chunk)
        if state is not None:
            def resend(attempt: int, meta=meta) -> None:
                # Fresh copy of the metadata: the original dict is shared
                # with the message on the wire, and the corruption fault
                # marks it in place — a retransmit must start clean or
                # every copy would be discarded on arrival too.
                clean = dict(meta, retry=attempt)
                clean.pop(CORRUPTED_META, None)
                copy = Message(op=Op.STORE, src=gpu_node(src),
                               dst=gpu_node(dst),
                               payload_bytes=self._bytes_of(run, chunk),
                               payload=payload, meta=clean)
                self.network.send_from_gpu(src, copy, stripe=chunk)

            state.retransmitter.track(key, resend,
                                      timeout_scale=RING_TIMEOUT_SCALE)

    def _make_handler(self, gpu_index: int) -> Callable[[Message], bool]:
        def handler(msg: Message) -> bool:
            state = self._fault_state
            if state is not None and msg.op is Op.CHUNK_ACK:
                key = msg.meta.get(RKEY_META)
                if isinstance(key, tuple) and key and key[0] == "ring":
                    state.retransmitter.ack(key)
                    return True
                return False
            if msg.op is not Op.STORE or "ring" not in msg.meta:
                return False
            if state is not None and RKEY_META in msg.meta:
                if is_corrupted(msg):
                    # Discard without acking: the sender's timer re-sends a
                    # clean copy of the same hop.
                    state.counters.bump("corrupt_discards")
                    return True
                key = msg.meta[RKEY_META]
                ack = Message(op=Op.CHUNK_ACK, src=gpu_node(gpu_index),
                              dst=msg.src, meta={RKEY_META: key})
                self.network.send_from_gpu(gpu_index, ack,
                                           stripe=msg.meta["chunk"])
                if not state.retransmitter.accept(("ring-rx",) + key):
                    return True          # duplicate delivery: re-acked only
            self._on_chunk(gpu_index, msg)
            return True
        return handler

    def _on_chunk(self, gpu: int, msg: Message) -> None:
        run_id = msg.meta["ring"]
        run = self._runs[run_id]
        phase, shard = msg.meta["phase"], msg.meta["shard"]
        chunk, step = msg.meta["chunk"], msg.meta["step"]
        if phase == "rs":
            acc = combine_payloads(msg.payload,
                                   self._local(run, gpu, shard, chunk))
            if step < self.k - 2:
                self._send(run_id, run, "rs", shard, chunk, step + 1,
                           src=gpu, payload=acc)
                return
            # Fully reduced at the shard's home GPU.
            if run.kind == "ar":
                # Chain straight into the AllGather phase (no barrier: the
                # home GPU keeps its reduced copy and starts circulating it).
                self._send(run_id, run, "ag", shard, chunk, step=0, src=gpu,
                           payload=acc)
                return
            self._finish_chunk(run_id, run, shard, chunk, gpu)
            return
        # AllGather hop: keep a copy, forward until the ring is covered.
        self._finish_chunk(run_id, run, shard, chunk, gpu)
        if step < self.k - 2:
            self._send(run_id, run, "ag", shard, chunk, step + 1, src=gpu,
                       payload=msg.payload)

    def _finish_chunk(self, run_id: int, run: _Run, shard: int, chunk: int,
                      gpu: int) -> None:
        if run.on_chunk is not None:
            run.on_chunk(shard, chunk, gpu)
        run.remaining -= 1
        if run.remaining == 0:
            del self._runs[run_id]
            self._finished_at[run_id] = self.sim.now
            if self._cz.enabled:
                # Completion marker: the run finishes when its last chunk
                # lands — ambient cause is that delivery.
                now = self.sim.now
                self._cz.current = self._cz.node(
                    BARRIER_SYNC, now, now, f"ring {run.kind} complete",
                    parents=((self._cz.current, "dep"),))
            run.on_complete()
