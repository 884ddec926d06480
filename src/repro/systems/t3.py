"""T3: hardware-assisted transparent tracking & triggering (Pati et al.).

T3 instruments the memory system so that a GEMM's tile stores *trigger*
the corresponding ReduceScatter transfer via DMA — fine-grained overlap of
a GEMM with its following collective, without software chunking.  Per the
paper we extend it with AG-GEMM overlap: the downstream GEMM's TBs consume
gathered rows as they arrive.

What T3 keeps **coarse** (and what CAIS removes) is the *cross-kernel*
dependency: ReduceScatter must fully finish before LayerNorm starts, and
LayerNorm before the AllGather begins — so the reduction-heavy and
load-heavy phases never co-run and the asymmetric traffic of Fig. 10 goes
unbalanced.

Transports: plain T3 uses direct DMA remote writes/reads; T3-NVLS adopts
the DMA-based NVLS design [24], pushing reductions through the switch's
``multimem.red`` path (merged in-flight) while the AllGather remains a
push multicast whose receivers gate the consumer GEMM's TBs.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Set, Tuple

from ..common.errors import WorkloadError
from ..gpu.remote_ops import Transport
from ..interconnect.message import Address
from ..llm.graph import CommKind, Graph, GraphRunner, LogicalOp, OpKind
from ..llm.tiling import (
    TilingConfig,
    ag_gemm_kernel,
    ceil_div,
    gemm_rs_kernel,
    make_layout,
    reduction_sub_chunks,
)
from .base import Harness

DTYPE_BYTES = 2

#: Per-graph T3 lowering: RS name by producer GEMM, consumer GEMM names by
#: AG, and every op driven by another op's lowering.
_Plan = Tuple[Dict[str, str], Dict[str, List[str]], Set[str]]


class T3Runner(GraphRunner):
    """Lower and execute a graph the T3 way."""

    def __init__(self, harness: Harness,
                 tiling: Optional[TilingConfig] = None,
                 nvls: bool = False,
                 launch_overhead_ns: Optional[float] = None):
        super().__init__(harness, tiling, launch_overhead_ns)
        self.executor = harness.executor
        self.nvls = nvls
        self.reduce_transport = Transport.NVLS if nvls else Transport.DIRECT

    # ------------------------------------------------------------------
    def _plan(self, graph: Graph) -> _Plan:
        # RS absorbed into its producer GEMM; AG absorbed into consumers.
        rs_of_gemm: Dict[str, str] = {}
        ag_consumers: Dict[str, List[str]] = {}
        absorbed: Set[str] = set()
        for op in graph.ops():
            if op.kind is not OpKind.COMM:
                continue
            if op.comm is CommKind.REDUCE_SCATTER and op.deps:
                producer = graph[op.deps[0]]
                if producer.kind is OpKind.GEMM:
                    rs_of_gemm[producer.name] = op.name
                    absorbed.add(op.name)
            elif op.comm is CommKind.ALL_GATHER:
                gemms = [c.name for c in graph.consumers_of(op.name)
                         if c.kind is OpKind.GEMM]
                if gemms:
                    ag_consumers[op.name] = gemms
                    absorbed.update(gemms)
        return rs_of_gemm, ag_consumers, absorbed

    def _start(self, graph: Graph, plan: _Plan, op: LogicalOp,
               finish: Callable[[str], None], solo: bool) -> None:
        rs_of_gemm, ag_consumers, absorbed = plan
        if op.name in absorbed:
            return      # RS driven by its producer GEMM, GEMM by its AG
        if op.name in rs_of_gemm:
            self._start_gemm_rs(graph, op, rs_of_gemm[op.name], finish)
            return
        if op.name in ag_consumers:
            self._start_ag_gemms(graph, op, ag_consumers[op.name], finish)
            return
        if op.kind is OpKind.COMM:
            raise WorkloadError(
                f"T3 cannot lower collective {op.name} standalone")
        self.executor.launch_kernel(self.compute_kernel(op),
                                    on_complete=lambda: finish(op.name))

    # ------------------------------------------------------------------
    # GEMM with tracked & triggered ReduceScatter
    # ------------------------------------------------------------------
    def _start_gemm_rs(self, graph: Graph, gemm_op: LogicalOp, rs_name: str,
                       finish: Callable[[str], None]) -> None:
        tp = self.harness.config.num_gpus
        shape = gemm_op.gemm
        layout = make_layout(rows=shape.m, row_bytes=shape.n * DTYPE_BYTES,
                             tp=tp, row_block=self.tiling.tile)
        num_col_tiles = ceil_div(shape.n, self.tiling.tile)
        kernel = gemm_rs_kernel(gemm_op, layout, self.harness.config.gpu,
                                self.tiling, tp=tp,
                                transport=self.reduce_transport,
                                launch_overhead_ns=self.launch_overhead_ns)
        tile_bytes = layout.block_bytes // num_col_tiles
        subs, sub_bytes = reduction_sub_chunks(tile_bytes,
                                               self.tiling.red_chunk_bytes)
        state = {"left": layout.num_blocks * num_col_tiles * subs}

        def sub_reduced(_value) -> None:
            state["left"] -= 1
            if state["left"] == 0:
                finish(rs_name)

        for mb in range(layout.num_blocks):
            memory = self.executor.gpus[layout.home_of_block(mb)].memory
            for nb in range(num_col_tiles):
                base = layout.address(mb, nb, tile_bytes)
                for c in range(subs):
                    memory.expect_reduction(
                        Address(base.home_gpu, base.offset + c * sub_bytes),
                        expected=tp, on_complete=sub_reduced)
        self.executor.launch_kernel(
            kernel, on_complete=lambda: finish(gemm_op.name))

    # ------------------------------------------------------------------
    # AllGather overlapped with its consumer GEMMs
    # ------------------------------------------------------------------
    def _start_ag_gemms(self, graph: Graph, ag_op: LogicalOp,
                        gemm_names: List[str],
                        finish: Callable[[str], None]) -> None:
        tp = self.harness.config.num_gpus
        g2 = graph[gemm_names[0]]
        layout = make_layout(rows=g2.gemm.m,
                             row_bytes=g2.gemm.k * DTYPE_BYTES, tp=tp,
                             row_block=self.tiling.tile)
        if self.nvls:
            self._push_all_gather(layout)
        for name in gemm_names:
            gemm = graph[name]
            if gemm.gemm.m != layout.rows:
                # wgrad-style consumer (reads the gathered tensor along K):
                # no per-row overlap applies; plain compute, its traffic
                # rides its sibling's fetches through the chunk cache.
                kernel = self.compute_kernel(gemm)
            elif self.nvls:
                kernel = self._push_gated_gemm(gemm, layout)
            else:
                kernel = ag_gemm_kernel(gemm, layout,
                                        self.harness.config.gpu, self.tiling,
                                        tp=tp, transport=Transport.DIRECT,
                                        gated_on_ln=False,
                                        launch_overhead_ns=self.launch_overhead_ns)
            self.executor.launch_kernel(
                kernel, on_complete=lambda n=name: finish(n))
        finish(ag_op.name)

    def _push_all_gather(self, layout) -> None:
        """NVLS multicast push of every locally homed row block; arrivals
        signal per-(block, gpu) tokens that gate the consumer TBs."""
        from ..interconnect.message import Message, Op, gpu_node
        executor = self.executor
        for mb in range(layout.num_blocks):
            home = layout.home_of_block(mb)
            for gpu in executor.gpus:
                if gpu.index == home:
                    continue
                token = ("t3push", layout.tensor_id, mb, gpu.index)
                addr = layout.address(mb, 0, layout.block_bytes)
                gpu.memory.on_chunk_stored(
                    addr, lambda _v, t=token: executor.signal(t))
            msg = Message(op=Op.MULTIMEM_ST, src=gpu_node(home),
                          dst=gpu_node(home), payload_bytes=layout.block_bytes,
                          address=layout.address(mb, 0, layout.block_bytes),
                          meta={"members": list(range(len(executor.gpus)))})
            executor.gpus[home].send(msg)

    def _push_gated_gemm(self, gemm_op: LogicalOp, layout):
        tp = self.harness.config.num_gpus
        tile = self.tiling.tile
        shape = gemm_op.gemm
        grid = (ceil_div(shape.m, tile), ceil_div(shape.n, tile))
        from ..gpu.kernels import KernelInstance
        from ..llm.tiling import gemm_tile_time_ns
        tb_ns = gemm_tile_time_ns(tile, tile, shape.k,
                                  self.harness.config.gpu)

        def deps(gpu: int, bidx):
            mb = bidx[0]
            if layout.home_of_block(mb) == gpu:
                return []
            return [("t3push", layout.tensor_id, mb, gpu)]

        return KernelInstance(name=gemm_op.name, grid=grid, tb_pre_ns=0.0,
                              tb_post_ns=tb_ns, tb_deps=deps,
                              launch_overhead_ns=self.launch_overhead_ns)
