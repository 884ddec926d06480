"""NVLS-accelerated collectives (the paper's communication-centric baseline).

Built on the :class:`~repro.nvls.engine.NvlsEngine` switch primitives, these
drivers reproduce how NCCL uses NVLink SHARP:

* **ReduceScatter** — pull mode: the home GPU of each shard chunk issues a
  ``multimem.ld_reduce``; the switch gathers one contribution per peer,
  reduces in-flight, and returns one combined chunk.
* **AllGather** — push mode: each GPU ``multimem.st``-multicasts its shard
  chunks; the switch replicates to all peers.
* **AllReduce** — one-shot NVLS: each shard's home pulls the reduced chunk,
  then multicasts the result (ld_reduce chained into st per chunk).

Per-chunk callbacks let overlap systems (CoCoNet-NVLS, FuseLib-NVLS)
trigger downstream work as chunks land.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..common.errors import WorkloadError
from ..common.functional import combine_payloads
from ..gpu.gpu import Gpu
from ..interconnect.message import Address, Message, Op, gpu_node
from ..interconnect.network import Network
from .. import obs
from ..obs.causality import BARRIER_SYNC
from ..common.ids import IdAllocator

#: Run-id stream (staging addresses embed it); advanceable so the analytic
#: bypass leaves it exactly where the event path would have.
_run_ids = IdAllocator(1)

#: Address-space region for collective staging buffers, disjoint from the
#: activation tensors allocated by repro.llm.tiling (tensor ids count up
#: from 1; collective runs count down from this base).
_COLLECTIVE_BASE = 1 << 55

ChunkCallback = Callable[[int, int, int], None]
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
    #: Per-shard chunk ids not yet pulled (in-flight window control).
    pending_pulls: Optional[Dict[int, List[int]]] = None


class NvlsCollective:
    """Driver for NVLS multimem collectives."""

    def __init__(self, network: Network, gpus: List[Gpu],
                 chunk_bytes: int = 262144,
                 local_values: Optional[LocalValueFn] = None,
                 pull_window: int = 8):
        """``pull_window`` bounds in-flight ld_reduce chunks per shard so
        pull responses and the chained push traffic interleave on the links
        (NCCL keeps a similar FIFO depth in flight)."""
        if chunk_bytes <= 0:
            raise WorkloadError("chunk_bytes must be positive")
        if pull_window < 1:
            raise WorkloadError("pull_window must be >= 1")
        self.pull_window = pull_window
        self.network = network
        self.gpus = gpus
        self.k = len(gpus)
        self.chunk_bytes = chunk_bytes
        self.sim = network.sim
        self.local_values = local_values
        # Runs in flight.  A finished run leaves only its finish time, so
        # that its callbacks are dropped as soon as it completes.
        self._runs: Dict[int, _Run] = {}
        self._finished_at: Dict[int, float] = {}
        self._cz = obs.current().causality
        # Runs aborted by fault handling: late in-flight messages for them
        # are swallowed instead of crashing the run lookup.
        self._aborted: set = set()
        for gpu in gpus:
            gpu.handlers.append(self._make_handler(gpu.index))

    # ------------------------------------------------------------------
    # Fault handling
    # ------------------------------------------------------------------
    def abort(self, run_id: int) -> bool:
        """Abort an in-flight run cleanly (NVLS compute-unit fault).

        The run's completion callback never fires; whatever traffic is
        still in the fabric is discarded on arrival.  Returns False when
        the run already completed (nothing to abort).
        """
        run = self._runs.get(run_id)
        if run is None or run.remaining == 0:
            return False
        del self._runs[run_id]
        self._aborted.add(run_id)
        return True

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def reduce_scatter(self, nbytes: int, on_complete: Callable[[], None],
                       on_chunk: Optional[ChunkCallback] = None) -> int:
        """Pull-mode NVLS ReduceScatter (multimem.ld_reduce per chunk)."""
        run_id, run = self._new_run("rs", nbytes, on_complete, on_chunk)
        run.remaining = self.k * run.chunks
        self._start_pulls(run_id, run)
        return run_id

    def all_gather(self, nbytes: int, on_complete: Callable[[], None],
                   on_chunk: Optional[ChunkCallback] = None) -> int:
        """Push-mode NVLS AllGather (multimem.st multicast per chunk)."""
        run_id, run = self._new_run("ag", nbytes, on_complete, on_chunk)
        run.remaining = self.k * run.chunks * (self.k - 1)
        for shard in range(self.k):
            for chunk in range(run.chunks):
                self._push(run_id, run, shard, chunk, payload=self._local(
                    shard, shard, chunk))
        return run_id

    def all_reduce(self, nbytes: int, on_complete: Callable[[], None],
                   on_chunk: Optional[ChunkCallback] = None) -> int:
        """One-shot NVLS AllReduce: ld_reduce chained into st per chunk."""
        run_id, run = self._new_run("ar", nbytes, on_complete, on_chunk)
        run.remaining = self.k * run.chunks * (self.k - 1)
        self._start_pulls(run_id, run)
        return run_id

    def _start_pulls(self, run_id: int, run: _Run) -> None:
        run.pending_pulls = {s: list(range(run.chunks))
                             for s in range(self.k)}
        for shard in range(self.k):
            for _ in range(min(self.pull_window, run.chunks)):
                self._pull_next(run_id, run, shard)

    def _pull_next(self, run_id: int, run: _Run, shard: int) -> None:
        pending = run.pending_pulls[shard]
        if pending:
            self._pull(run_id, run, shard, pending.pop(0))

    def finish_time(self, run_id: int) -> float:
        """Simulation time at which the run completed (-1 if running)."""
        if run_id in self._runs:
            return -1.0
        return self._finished_at[run_id]

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _new_run(self, kind: str, nbytes: int, on_complete,
                 on_chunk) -> Tuple[int, _Run]:
        if nbytes <= 0 or nbytes % self.k:
            raise WorkloadError(
                f"collective size {nbytes} must be positive and divisible "
                f"by {self.k} GPUs")
        shard_bytes = nbytes // self.k
        chunks = -(-shard_bytes // self.chunk_bytes)
        last = shard_bytes - (chunks - 1) * self.chunk_bytes
        run_id = _run_ids()
        run = _Run(kind=kind, chunk_bytes=self.chunk_bytes,
                   last_chunk_bytes=last, chunks=chunks, remaining=0,
                   on_complete=on_complete, on_chunk=on_chunk)
        self._runs[run_id] = run
        return run_id, run

    def _local(self, gpu: int, shard: int, chunk: int) -> Any:
        if self.local_values is None:
            return None
        return self.local_values(gpu, shard, chunk)

    def _bytes_of(self, run: _Run, chunk: int) -> int:
        return (run.last_chunk_bytes if chunk == run.chunks - 1
                else run.chunk_bytes)

    def _address(self, run_id: int, run: _Run, shard: int,
                 chunk: int) -> Address:
        """Staging-buffer address for a chunk, chosen so chunks stripe
        round-robin across switch planes (NCCL's per-channel striping —
        random hash placement would leave the busiest plane ~15% over
        average and stretch the collective by the same factor)."""
        from ..interconnect.routing import plane_for_address
        base = (_COLLECTIVE_BASE + run_id * (1 << 40) +
                (shard * run.chunks + chunk) * (run.chunk_bytes + (1 << 17)))
        planes = self.network.config.num_switches
        want = (shard * run.chunks + chunk) % planes
        for bump in range(64 * planes):
            addr = Address(shard, base + bump * 256)
            if plane_for_address(addr, planes) == want:
                return addr
        return Address(shard, base)   # pragma: no cover - hash is uniform

    def _pull(self, run_id: int, run: _Run, shard: int, chunk: int) -> None:
        """Home GPU of ``shard`` pulls the reduced chunk from its peers."""
        members = [g for g in range(self.k) if g != shard]
        msg = Message(op=Op.MULTIMEM_LD_REDUCE_REQ, src=gpu_node(shard),
                      dst=gpu_node(shard),
                      address=self._address(run_id, run, shard, chunk),
                      meta={"members": members,
                            "chunk_bytes": self._bytes_of(run, chunk),
                            "tag": ("nvls", run_id, shard, chunk)})
        self.network.send_from_gpu(shard, msg)

    def _push(self, run_id: int, run: _Run, shard: int, chunk: int,
              payload: Any) -> None:
        """Home GPU of ``shard`` multicasts a chunk to every peer."""
        msg = Message(op=Op.MULTIMEM_ST, src=gpu_node(shard),
                      dst=gpu_node(shard),
                      payload_bytes=self._bytes_of(run, chunk),
                      payload=payload,
                      address=self._address(run_id, run, shard, chunk),
                      meta={"members": list(range(self.k)),
                            "tag": ("nvls", run_id, shard, chunk)})
        self.network.send_from_gpu(shard, msg)

    def _make_handler(self, gpu_index: int) -> Callable[[Message], bool]:
        def handler(msg: Message) -> bool:
            tag = msg.meta.get("tag")
            if not (isinstance(tag, tuple) and tag and tag[0] == "nvls"):
                return False
            _, run_id, shard, chunk = tag
            run = self._runs.get(run_id)
            if run is None:
                if run_id in self._aborted:
                    return True          # stale traffic from an aborted run
                run = self._runs[run_id]  # unknown run: KeyError as before
            if msg.op is Op.MULTIMEM_LD_REDUCE_RESP:
                self._on_pulled(gpu_index, run_id, run, shard, chunk, msg)
                return True
            if msg.op is Op.STORE:
                self._finish_chunk(run_id, run, shard, chunk, gpu_index)
                return True
            return False
        return handler

    def _on_pulled(self, gpu: int, run_id: int, run: _Run, shard: int,
                   chunk: int, msg: Message) -> None:
        # The pulled value covers the peers; fold in the local partial.
        value = combine_payloads(msg.payload,
                                 self._local(gpu, shard, chunk))
        self._pull_next(run_id, run, shard)
        if run.kind == "ar":
            self._push(run_id, run, shard, chunk, payload=value)
            return
        self._finish_chunk(run_id, run, shard, chunk, gpu)

    def _finish_chunk(self, run_id: int, run: _Run, shard: int, chunk: int,
                      gpu: int) -> None:
        if run.on_chunk is not None:
            run.on_chunk(shard, chunk, gpu)
        run.remaining -= 1
        if run.remaining == 0:
            del self._runs[run_id]
            self._finished_at[run_id] = self.sim.now
            if self._cz is not None:
                # Completion marker: the run finishes when its last chunk
                # lands — ambient cause is that delivery.
                now = self.sim.now
                self._cz.current = self._cz.node(
                    BARRIER_SYNC, now, now, f"nvls {run.kind} complete",
                    parents=((self._cz.current, "dep"),))
            run.on_complete()
