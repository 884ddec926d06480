"""Software compute-communication overlap baselines (CoCoNet / FuseLib).

Both systems pipeline a GEMM with its *following* collective by splitting
the GEMM output into row partitions: as soon as partition ``i``'s kernel
finishes, the collective for that slice starts while partition ``i+1`` is
still computing (CoCoNet's software scheduling [19]; FuseLib fuses the two
into one persistent kernel, removing launch overheads [44]).

Two costs distinguish them from hardware approaches, both modelled here:

* **SM contention** — the communication kernels occupy SMs, shrinking the
  compute pool (``Harness.restrict_compute_slots``);
* **launch overhead** — CoCoNet launches one kernel per partition;
  FuseLib's fused kernel pays it once.

Neither overlaps a collective with the *following* GEMM (AG -> GEMM runs
as a barrier), which is exactly the flexibility the paper credits CAIS
with (Section V-A-3).

A pipelined GEMM that the graph walk starts ``solo`` owns the node until
its last partition completes, so every partition is launched
``isolated`` and takes the analytic kernel replay (DESIGN.md §11
Layer 4); the collective slices always take the event path.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from ..common.errors import WorkloadError
from ..gpu.kernels import KernelInstance
from ..llm.graph import CommKind, Graph, LogicalOp, OpKind
from ..llm.tiling import TilingConfig, ceil_div
from .base import BarrierRunner, CommImpl, Harness

#: Row partitions used for GEMM->collective pipelining.
DEFAULT_PARTITIONS = 4


class OverlapRunner(BarrierRunner):
    """Chunked GEMM -> collective pipelining with barrier fallback."""

    def __init__(self, harness: Harness, comm: CommImpl,
                 tiling: Optional[TilingConfig] = None,
                 partitions: int = DEFAULT_PARTITIONS,
                 launch_overhead_ns: Optional[float] = None):
        if partitions < 1:
            raise WorkloadError(f"partitions must be >= 1: {partitions}")
        super().__init__(harness, comm, tiling, launch_overhead_ns)
        self.partitions = partitions

    def _plan(self, graph: Graph) -> Dict[str, str]:
        """Map producer GEMM name -> collective it pipelines with."""
        pairs: Dict[str, str] = {}
        for op in graph.ops():
            if op.kind is not OpKind.COMM:
                continue
            if op.comm not in (CommKind.ALL_REDUCE,
                               CommKind.REDUCE_SCATTER):
                continue             # AG -> GEMM is NOT overlapped here
            if len(op.deps) != 1:
                continue
            producer = graph[op.deps[0]]
            if producer.kind is OpKind.GEMM and producer.name not in pairs:
                pairs[producer.name] = op.name
        return pairs

    def _start(self, graph: Graph, plan: Dict[str, str], op: LogicalOp,
               finish: Callable[[str], None], solo: bool) -> None:
        if op.name in plan.values():
            return           # driven by its producer GEMM
        if op.name in plan:
            self._start_pipelined(graph, op, plan[op.name], finish, solo)
            return
        super()._start(graph, plan, op, finish, solo)

    def _start_pipelined(self, graph: Graph, gemm_op: LogicalOp,
                         comm_name: str, finish: Callable[[str], None],
                         solo: bool) -> None:
        """Run ``gemm_op`` as row partitions, each followed by its slice
        of ``comm_name``.

        A GEMM started ``solo`` owns the node until its last partition
        completes: the only other work in flight is its own slices, which
        launch no kernels, take no SM slots and draw from no executor RNG
        stream.  Every partition is then as closed as a barrier kernel and
        is launched ``isolated`` (DESIGN.md §11 Layer 4).  Slices overlap
        the next partition by design and never run isolated.
        """
        comm_op = graph[comm_name]
        shape = gemm_op.gemm
        tile = self.tiling.tile
        partitions = min(self.partitions, max(1, ceil_div(shape.m, tile)))
        rows = ceil_div(ceil_div(shape.m, tile), partitions)
        grid = (rows, ceil_div(shape.n, tile))
        k = self.harness.config.num_gpus
        per_slice = (comm_op.comm_bytes // partitions) // k * k
        slices = [per_slice] * (partitions - 1)
        slices.append(comm_op.comm_bytes - per_slice * (partitions - 1))
        state = {"kernels": partitions, "comms": partitions}

        def kernel_done(index: int) -> None:
            self.comm.run(comm_op.comm, slices[index],
                          lambda: comm_done())
            state["kernels"] -= 1
            if state["kernels"] == 0:
                finish(gemm_op.name)

        def comm_done() -> None:
            state["comms"] -= 1
            if state["comms"] == 0:
                finish(comm_name)

        tb_ns = self.compute_kernel(gemm_op).tb_pre_ns

        def launch_partition(index: int) -> None:
            # Partitions run strictly in sequence: partition i's collective
            # slice overlaps partition i+1's compute (the software
            # pipeline); launching them all at once would finish them all
            # at once and serialize every collective at the end.
            kernel = KernelInstance(
                name=f"{gemm_op.name}.p{index}", grid=grid, tb_pre_ns=tb_ns,
                launch_overhead_ns=self.launch_overhead_ns)

            def done(i=index) -> None:
                kernel_done(i)
                if i + 1 < partitions:
                    launch_partition(i + 1)

            self.harness.executor.launch_kernel(kernel, on_complete=done,
                                                isolated=solo)

        launch_partition(0)
