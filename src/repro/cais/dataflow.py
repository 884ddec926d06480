"""Graph-level dataflow optimizer (paper Section III-C, Fig. 9).

The optimizer exploits the TB-level producer-consumer relationships that
compute-aware in-switch computing unlocks:

* **Chain detection** — find ``GEMM -> ReduceScatter -> [vector ops] ->
  AllGather -> GEMM(s)`` sequences in the logical graph (the paper's
  GEMM-RS + LN + AG-GEMM pipelines, Fig. 12's L1-L4).
* **Deep kernel fusion** — lower the whole chain at once: the GEMM issues
  ``red.cais`` epilogues per tile, LayerNorm TBs gate on per-row-block
  reduction tokens, and the downstream GEMM's TBs gate on per-row LN
  tokens and pull their rows with ``ld.cais`` — consumer TBs launch as soon
  as their inputs exist, long before producer kernels finish.
* **Asymmetric kernel overlapping** — because reduction traffic loads the
  GPU->switch direction and load traffic the switch->GPU direction
  (Fig. 10), running the chain's stages concurrently balances both link
  directions; the executor's fair-share dispatch partitions SMs between
  the concurrently-ready kernels.

The same lowering with TB-gating disabled reproduces **CAIS-Base** (ISA and
merging only, global barriers between kernels).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Set, Tuple

from typing import TYPE_CHECKING

from ..common.errors import WorkloadError
from ..gpu.executor import Executor
from ..gpu.kernels import KernelInstance
from ..gpu.remote_ops import Transport
from ..llm.graph import CommKind, Graph, GraphRunner, LogicalOp, OpKind

if TYPE_CHECKING:   # pragma: no cover - typing only
    from ..llm.tiling import ActivationLayout, TilingConfig

DTYPE_BYTES = 2


def _tiling_module():
    """Deferred import: repro.llm.tiling imports the CAIS compiler, so a
    module-level import here would close a package-level cycle."""
    from ..llm import tiling
    return tiling


@dataclass
class FusedChain:
    """One fused communication pipeline found in a graph.

    Either a GEMM-RS + [vectors] + AG-GEMM chain (``rs``/``ag``, TP+SP
    style) or a GEMM-AR + [replicated vectors] + GEMM chain (``ar``,
    Basic-TP style — the paper's AR-GEMM/GEMM-AR read+write semantics)."""

    gemm1: Optional[str]                 # producer GEMM of the RS/AR
    rs: Optional[str]                    # ReduceScatter op
    vectors: List[str] = field(default_factory=list)
    ag: Optional[str] = None             # AllGather op
    ar: Optional[str] = None             # AllReduce op (basic TP)
    gemm2s: List[str] = field(default_factory=list)

    def members(self) -> List[str]:
        out = []
        if self.gemm1:
            out.append(self.gemm1)
        if self.rs:
            out.append(self.rs)
        if self.ar:
            out.append(self.ar)
        out.extend(self.vectors)
        if self.ag:
            out.append(self.ag)
        out.extend(self.gemm2s)
        return out


def find_chains(graph: Graph) -> List[FusedChain]:
    """Detect fusable communication chains.

    Every COMM op lands in exactly one chain: ReduceScatters open a chain
    from their producer GEMM and absorb the downstream vector ops; if the
    vector run ends at an AllGather, the AG and its consumer GEMMs join the
    same chain.  AllGathers not reached that way (e.g. a layer-entry
    LN -> AG -> QKV) form their own chain with a vector producer.
    """
    chains: List[FusedChain] = []
    claimed: Set[str] = set()

    for op in graph.topo_order():
        if op.kind is not OpKind.COMM or op.name in claimed:
            continue
        if op.comm is CommKind.REDUCE_SCATTER:
            chain = FusedChain(gemm1=None, rs=op.name)
            producer = graph[op.deps[0]] if op.deps else None
            if producer is not None and producer.kind is OpKind.GEMM:
                chain.gemm1 = producer.name
            cursor = op
            while True:
                consumers = graph.consumers_of(cursor.name)
                if len(consumers) != 1:
                    break
                nxt = consumers[0]
                if nxt.kind is OpKind.VECTOR:
                    chain.vectors.append(nxt.name)
                    cursor = nxt
                    continue
                if (nxt.kind is OpKind.COMM and
                        nxt.comm is CommKind.ALL_GATHER):
                    chain.ag = nxt.name
                    chain.gemm2s = [c.name
                                    for c in graph.consumers_of(nxt.name)
                                    if c.kind is OpKind.GEMM]
                    break
                break
            chains.append(chain)
            claimed.update(chain.members())
        elif op.comm is CommKind.ALL_REDUCE:
            # Basic-TP chain: the AllReduce dissolves into a red.cais
            # epilogue (write semantics) plus on-demand ld.cais reads by
            # the replicated consumers (read semantics) — Fig. 1(c)/(f).
            chain = FusedChain(gemm1=None, rs=None, ar=op.name)
            producer = graph[op.deps[0]] if op.deps else None
            if producer is not None and producer.kind is OpKind.GEMM:
                chain.gemm1 = producer.name
            cursor = op
            while True:
                consumers = graph.consumers_of(cursor.name)
                if len(consumers) != 1:
                    break
                nxt = consumers[0]
                if nxt.kind is OpKind.VECTOR and nxt.name not in claimed:
                    chain.vectors.append(nxt.name)
                    cursor = nxt
                    continue
                break
            if chain.vectors:
                chain.gemm2s = [
                    c.name for c in graph.consumers_of(chain.vectors[-1])
                    if c.kind is OpKind.GEMM]
            chains.append(chain)
            claimed.update(chain.members())
        elif op.comm is CommKind.ALL_GATHER:
            # AG not absorbed by an upstream RS chain: gate on its vector
            # producer (or start unglued when the producer is a GEMM).
            chain = FusedChain(gemm1=None, rs=None, ag=op.name)
            if op.deps:
                producer = graph[op.deps[0]]
                if (producer.kind is OpKind.VECTOR and
                        producer.name not in claimed and
                        len(graph.consumers_of(producer.name)) == 1):
                    chain.vectors = [producer.name]
            chain.gemm2s = [c.name for c in graph.consumers_of(op.name)
                            if c.kind is OpKind.GEMM]
            chains.append(chain)
            claimed.update(chain.members())
    return chains


class CaisRunner(GraphRunner):
    """Lower and execute a logical graph with compute-aware in-switch
    computing.

    ``dataflow=True`` enables the graph-level optimizer (TB-gated chains +
    fair-share asymmetric overlap is configured on the executor);
    ``dataflow=False`` reproduces CAIS-Base: the same fused ``*.cais``
    kernels but with global barriers between them.
    ``coordination=True`` arms pre-launch/pre-access TB-group sync.
    """

    #: All merging-aware coordination features (Fig. 13b ablation stages).
    ALL_COORDINATION = frozenset(
        {"order", "prelaunch", "preaccess", "throttle"})

    def __init__(self, harness, tiling: Optional[TilingConfig] = None,
                 dataflow: bool = True, coordination: bool = True,
                 coordination_features: Optional[frozenset] = None,
                 transport: Transport = Transport.CAIS,
                 launch_overhead_ns: Optional[float] = None):
        super().__init__(harness, tiling, launch_overhead_ns)
        self.executor: Executor = harness.executor
        self.dataflow = dataflow
        self.coordination = coordination
        if coordination_features is not None:
            self.features = frozenset(coordination_features)
        else:
            self.features = (self.ALL_COORDINATION if coordination
                             else frozenset())
        self.executor.tb_throttle = "throttle" in self.features
        self.transport = transport

    # ------------------------------------------------------------------
    # Graph execution
    # ------------------------------------------------------------------
    def _plan(self, graph: Graph) -> Dict[str, FusedChain]:
        """Each chain member's chain; a chain starts from its first member."""
        return {member: chain for chain in find_chains(graph)
                for member in chain.members()}

    def _start(self, graph: Graph, plan: Dict[str, FusedChain],
               op: LogicalOp, finish: Callable[[str], None],
               solo: bool) -> None:
        chain = plan.get(op.name)
        if chain is None:
            if op.kind is OpKind.COMM:
                raise WorkloadError(
                    f"CAIS lowering left collective {op.name} unfused "
                    f"(graph {graph.name}); use SP-style graphs")
            self.executor.launch_kernel(
                self.compute_kernel(op), on_complete=lambda: finish(op.name))
        elif op.name == chain.members()[0]:
            self._start_chain(graph, chain, finish)
        # Other members are launched (or to be launched) by their head.

    # ------------------------------------------------------------------
    # Fused chains
    # ------------------------------------------------------------------
    def _start_chain(self, graph: Graph, chain: FusedChain,
                     finish: Callable[[str], None]) -> None:
        if chain.ar is not None:
            self._start_ar_chain(graph, chain, finish)
            return
        _t = _tiling_module()
        spec = self.harness.config.gpu
        tp = self.harness.config.num_gpus
        tiling = self.tiling
        executor = self.executor

        # ---------------- GEMM-RS stage ----------------
        rs_layout = None
        num_col_tiles = 0
        if chain.rs is not None:
            if chain.gemm1 is None:
                raise WorkloadError(
                    f"ReduceScatter {chain.rs} has no GEMM producer; "
                    f"CAIS lowers RS as a GEMM epilogue")
            gemm1_op = graph[chain.gemm1]
            shape = gemm1_op.gemm
            rs_layout = _t.make_layout(rows=shape.m,
                                    row_bytes=shape.n * DTYPE_BYTES, tp=tp,
                                    row_block=tiling.tile)
            num_col_tiles = _t.ceil_div(shape.n, tiling.tile)
            k1 = _t.gemm_rs_kernel(gemm1_op, rs_layout, spec, tiling, tp=tp,
                                transport=self.transport,
                                launch_overhead_ns=self.launch_overhead_ns)
            self._arm_coordination(k1)
            self._register_reductions(rs_layout, num_col_tiles, tp)
            rs_done_tokens = [("red", rs_layout.tensor_id, mb, nb)
                              for mb in range(rs_layout.num_blocks)
                              for nb in range(num_col_tiles)]
            executor.when_all(rs_done_tokens,
                              lambda name=chain.rs: finish(name))
            executor.launch_kernel(
                k1, on_complete=lambda name=chain.gemm1: finish(name))

        # ---------------- fused vector (LN) stage ----------------
        ln_layout = None
        if chain.vectors:
            base_layout = rs_layout
            if base_layout is None:
                # AG-only chain: the vector producer defines the tensor.
                vec0 = graph[chain.vectors[0]]
                rows, row_bytes = self._vector_tensor_dims(graph, chain, vec0,
                                                           tp)
                base_layout = _t.make_layout(rows=rows, row_bytes=row_bytes,
                                          tp=tp, row_block=tiling.tile)
            ln_layout = _t.make_layout(rows=base_layout.rows,
                                    row_bytes=base_layout.row_bytes, tp=tp,
                                    row_block=tiling.tile)
            fused_vec = self._fuse_vectors(graph, chain.vectors)
            gated = self.dataflow and chain.rs is not None
            kv = _t.ln_kernel(fused_vec, base_layout, ln_layout,
                           num_col_tiles=num_col_tiles, spec=spec,
                           tiling=tiling, gated_on_rs=gated,
                           launch_overhead_ns=self.launch_overhead_ns)
            kv.on_tb_complete = self._make_ln_signal(ln_layout)

            def finish_vectors() -> None:
                for name in chain.vectors:
                    finish(name)

            launch_vec = lambda: executor.launch_kernel(
                kv, on_complete=finish_vectors)
            if gated or chain.rs is None:
                launch_vec()
            else:
                # CAIS-Base: barrier — vector waits for the full RS.
                executor.when_all(
                    [("red", rs_layout.tensor_id, mb, nb)
                     for mb in range(rs_layout.num_blocks)
                     for nb in range(num_col_tiles)], launch_vec)

        # ---------------- AG-GEMM stage ----------------
        if chain.ag is not None:
            in_layout = ln_layout if ln_layout is not None else rs_layout
            if in_layout is None:
                # Barrier producer (e.g. a GEMM feeding the AG directly):
                # the chain head is the AG op itself, so the producer has
                # already finished — every row is ready now.
                g2 = graph[chain.gemm2s[0]] if chain.gemm2s else None
                if g2 is None:
                    raise WorkloadError(
                        f"AllGather {chain.ag} has no GEMM consumer")
                in_layout = _t.make_layout(rows=g2.gemm.m,
                                        row_bytes=g2.gemm.k * DTYPE_BYTES,
                                        tp=tp, row_block=tiling.tile)
                for mb in range(in_layout.num_blocks):
                    executor.signal(("ln", in_layout.tensor_id, mb))
            elif ln_layout is None:
                # RS feeding AG directly: rows become available per block as
                # reductions complete; bridge red tokens to ln tokens.
                self._bridge_rs_to_ln(rs_layout, num_col_tiles)

            def finish_ag(name=chain.ag) -> None:
                finish(name)

            if self.dataflow:
                # Data is ready row-by-row; the AG op itself is "done" when
                # every row token exists.
                self.executor.when_all(
                    [("ln", in_layout.tensor_id, mb)
                     for mb in range(in_layout.num_blocks)], finish_ag)
            gemm2_kernels: List[Tuple[KernelInstance, str]] = []
            barrier_consumers: List[str] = []
            for g2_name in chain.gemm2s:
                g2 = graph[g2_name]
                if g2.gemm.m != in_layout.rows:
                    # Consumes the gathered tensor along its K dimension
                    # (a wgrad): no per-row tiling applies — run it as a
                    # barrier consumer once every row is available.  Its
                    # remote traffic is shared with the row-tiled sibling
                    # through the per-GPU chunk cache.
                    barrier_consumers.append(g2_name)
                    continue
                k2 = _t.ag_gemm_kernel(g2, in_layout, spec, tiling, tp=tp,
                                    transport=self.transport,
                                    gated_on_ln=True,
                                    launch_overhead_ns=self.launch_overhead_ns)
                self._arm_coordination(k2)
                gemm2_kernels.append((k2, g2_name))
            if barrier_consumers:
                all_rows = [("ln", in_layout.tensor_id, mb)
                            for mb in range(in_layout.num_blocks)]

                def launch_barrier_consumers() -> None:
                    for name in barrier_consumers:
                        kernel = self.compute_kernel(graph[name])
                        executor.launch_kernel(
                            kernel, on_complete=lambda n=name: finish(n))

                executor.when_all(all_rows, launch_barrier_consumers)

            def launch_gemm2s() -> None:
                for kernel, name in gemm2_kernels:
                    executor.launch_kernel(
                        kernel, on_complete=lambda n=name: finish(n))

            if self.dataflow:
                launch_gemm2s()     # TBs self-gate on per-row ln tokens
            else:
                # CAIS-Base: launch after the producer stage fully finished,
                # then signal every row at once (barrier semantics).
                tokens = self._producer_barrier_tokens(chain, rs_layout,
                                                       num_col_tiles,
                                                       in_layout)
                def barrier_release(in_layout=in_layout) -> None:
                    for mb in range(in_layout.num_blocks):
                        executor.signal(("ln", in_layout.tensor_id, mb))
                    if not self.dataflow:
                        finish_ag()
                    launch_gemm2s()
                executor.when_all(tokens, barrier_release)

    # ------------------------------------------------------------------
    # Basic-TP AllReduce chains (AR-GEMM / GEMM-AR semantics, Fig. 1c/f)
    # ------------------------------------------------------------------
    def _start_ar_chain(self, graph: Graph, chain: FusedChain,
                        finish: Callable[[str], None]) -> None:
        _t = _tiling_module()
        spec = self.harness.config.gpu
        tp = self.harness.config.num_gpus
        tiling = self.tiling
        executor = self.executor
        if chain.gemm1 is None:
            raise WorkloadError(
                f"AllReduce {chain.ar} has no GEMM producer; CAIS lowers "
                f"AR as a red.cais epilogue")

        # --- write side: the producer GEMM reduces rows to their homes.
        gemm1_op = graph[chain.gemm1]
        shape = gemm1_op.gemm
        layout = _t.make_layout(rows=shape.m, row_bytes=shape.n * DTYPE_BYTES,
                             tp=tp, row_block=tiling.tile)
        num_col_tiles = _t.ceil_div(shape.n, tiling.tile)
        k1 = _t.gemm_rs_kernel(gemm1_op, layout, spec, tiling, tp=tp,
                            transport=self.transport,
                            launch_overhead_ns=self.launch_overhead_ns)
        self._arm_coordination(k1)
        self._register_reductions(layout, num_col_tiles, tp)
        red_tokens = [("red", layout.tensor_id, mb, nb)
                      for mb in range(layout.num_blocks)
                      for nb in range(num_col_tiles)]
        executor.when_all(red_tokens, lambda name=chain.ar: finish(name))
        executor.launch_kernel(
            k1, on_complete=lambda name=chain.gemm1: finish(name))

        # --- read side: replicated consumers pull rows on demand.
        if not chain.vectors:
            return
        fused_vec = self._fuse_vectors(graph, chain.vectors)
        gated = self.dataflow
        kv = _t.replicated_vector_kernel(
            fused_vec, layout, num_col_tiles, spec, tiling, tp=tp,
            transport=self.transport, gated_on_rs=gated,
            launch_overhead_ns=self.launch_overhead_ns)
        self._arm_coordination(kv)
        kv.on_tb_complete = (
            lambda gpu, bidx, tid=layout.tensor_id:
            executor.signal(("arv", tid, bidx[0], gpu)))

        def finish_vectors() -> None:
            for name in chain.vectors:
                finish(name)

        launch_vec = lambda: executor.launch_kernel(
            kv, on_complete=finish_vectors)
        if gated:
            launch_vec()
        else:
            executor.when_all(red_tokens, launch_vec)

        # --- downstream GEMMs: data is fully local per row once the
        # replicated vector TB for that row completed on this GPU.
        for g2_name in chain.gemm2s:
            g2 = graph[g2_name]
            if g2.gemm.m != layout.rows:
                # Consumes the replicated tensor along K (a wgrad): every
                # TB needs every row present on its own GPU.
                k2 = self.compute_kernel(g2)
                k2.tb_deps = (
                    lambda gpu, bidx, tid=layout.tensor_id,
                    blocks=layout.num_blocks:
                    [("arv", tid, mb, gpu) for mb in range(blocks)])
            else:
                k2 = _t.row_gated_gemm_kernel(
                    g2, "arv", layout.tensor_id, spec, tiling,
                    launch_overhead_ns=self.launch_overhead_ns)
            if not self.dataflow:
                # Barrier variant: wait until every row finished everywhere.
                k2.tb_deps = None
                executor.when_all(
                    [("arv", layout.tensor_id, mb, g)
                     for mb in range(layout.num_blocks)
                     for g in range(tp)],
                    lambda k=k2, n=g2_name: executor.launch_kernel(
                        k, on_complete=lambda n=n: finish(n)))
            else:
                executor.launch_kernel(
                    k2, on_complete=lambda n=g2_name: finish(n))

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def _arm_coordination(self, kernel: KernelInstance) -> None:
        kernel.sync_prelaunch = "prelaunch" in self.features
        kernel.sync_preaccess = "preaccess" in self.features
        if "order" not in self.features:
            # Merging-aware TB ordering is a coordination feature; without
            # it kernels launch in plain row-major order.
            kernel.block_order = None

    def _register_reductions(self, layout: "ActivationLayout",
                             num_col_tiles: int, tp: int) -> None:
        """Expect tp contributions per reduction sub-chunk at its home GPU;
        a tile's red token fires when all of its sub-chunks completed."""
        from ..llm.tiling import reduction_sub_chunks
        from ..interconnect.message import Address
        tile_bytes = layout.block_bytes // num_col_tiles
        subs, sub_bytes = reduction_sub_chunks(
            tile_bytes, self.tiling.red_chunk_bytes)
        executor = self.executor
        for mb in range(layout.num_blocks):
            home = layout.home_of_block(mb)
            memory = executor.gpus[home].memory
            for nb in range(num_col_tiles):
                base = layout.address(mb, nb, tile_bytes)
                token = ("red", layout.tensor_id, mb, nb)
                state = {"left": subs}

                def sub_done(_v, token=token, state=state) -> None:
                    state["left"] -= 1
                    if state["left"] == 0:
                        executor.signal(token)

                for c in range(subs):
                    memory.expect_reduction(
                        Address(base.home_gpu, base.offset + c * sub_bytes),
                        expected=tp, on_complete=sub_done)

    def _make_ln_signal(self, ln_layout: "ActivationLayout"):
        executor = self.executor

        def on_tb_complete(gpu: int, bidx: Tuple[int, ...]) -> None:
            if bidx[0] >= ln_layout.shard_blocks(gpu):
                return               # padding TB on a short shard
            mb = ln_layout.shard_start(gpu) + bidx[0]
            executor.signal(("ln", ln_layout.tensor_id, mb))
        return on_tb_complete

    def _bridge_rs_to_ln(self, rs_layout: "ActivationLayout",
                         num_col_tiles: int) -> None:
        executor = self.executor
        for mb in range(rs_layout.num_blocks):
            tokens = [("red", rs_layout.tensor_id, mb, nb)
                      for nb in range(num_col_tiles)]
            executor.when_all(
                tokens,
                lambda mb=mb: executor.signal(
                    ("ln", rs_layout.tensor_id, mb)))

    def _fuse_vectors(self, graph: Graph, names: List[str]) -> LogicalOp:
        ops = [graph[n] for n in names]
        fused_fpe = sum(op.flops_per_element for op in ops)
        return LogicalOp(name="+".join(names), kind=OpKind.VECTOR,
                         elements=ops[0].elements,
                         flops_per_element=fused_fpe)

    def _vector_tensor_dims(self, graph: Graph, chain: FusedChain,
                            vec0: LogicalOp, tp: int) -> Tuple[int, int]:
        """Infer [rows, row_bytes] of an AG-only chain's tensor from the
        consumer GEMM (rows = its m, row_bytes = its k * dtype)."""
        if not chain.gemm2s:
            raise WorkloadError(
                f"AllGather {chain.ag} has no GEMM consumer")
        g2 = graph[chain.gemm2s[0]]
        return g2.gemm.m, g2.gemm.k * DTYPE_BYTES

    def _producer_barrier_tokens(self, chain: FusedChain,
                                 rs_layout: Optional[ActivationLayout],
                                 num_col_tiles: int,
                                 in_layout) -> List[Tuple]:
        if chain.vectors:
            # Barrier = every row token the fused vector kernel signals.
            return [("ln", in_layout.tensor_id, mb)
                    for mb in range(in_layout.num_blocks)]
        if rs_layout is not None:
            return [("red", rs_layout.tensor_id, mb, nb)
                    for mb in range(rs_layout.num_blocks)
                    for nb in range(num_col_tiles)]
        # Barrier producer: the row tokens were signalled when the chain
        # started, so the barrier is immediately satisfied.
        return [("ln", in_layout.tensor_id, mb)
                for mb in range(in_layout.num_blocks)]
