"""Lowering logical ops to executable kernels (the CUTLASS stand-in).

This module turns :class:`~repro.llm.graph.LogicalOp` nodes into
:class:`~repro.gpu.kernels.KernelInstance` objects:

* plain compute kernels (GEMM tiles / vector ops) for barrier-style systems,
* **GEMM-RS** kernels whose TBs emit per-tile reduction requests as an
  epilogue (write semantics), and
* **AG-GEMM** kernels whose TBs read remote row blocks on demand
  (read semantics),

with the symbolic address expressions the CAIS compiler analyses attached,
so mergeability decisions really flow compiler -> ISA -> switch.

Activation addressing: every logical tensor gets a unique id; row block
``mb`` of a sequence-sharded tensor lives on GPU ``mb // blocks_per_shard``
at a deterministic offset.  Tiles and row-block chunks are the merge/cache
granularity.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable, Dict, List, Optional, Tuple

from ..cais import compiler as cc
from ..common.config import GpuSpec
from ..common.errors import WorkloadError
from ..gpu.kernels import KernelInstance
from ..gpu.remote_ops import RemoteOp, RemoteOpKind, Transport
from ..interconnect.message import Address
from .graph import GemmShape, LogicalOp, OpKind

#: Address-space stride separating logical tensors.
TENSOR_STRIDE = 1 << 40

_tensor_ids = itertools.count(1)


def reset_tensor_ids() -> None:
    """Restart tensor-id allocation (call once per simulation)."""
    global _tensor_ids
    _tensor_ids = itertools.count(1)


@dataclass(frozen=True)
class TilingConfig:
    """Lowering granularity knobs.

    ``red_chunk_bytes`` packetizes a tile's reduction epilogue: one output
    tile becomes several ``red.cais`` messages, which is closer to the
    hardware's 128 B packet merging and keeps individual merge sessions
    small (a whole 32 KB tile as one session would monopolize the 40 KB
    per-port table).
    """

    tile: int = 128                  # GEMM tile edge (CUTLASS-like)
    chunk_bytes: int = 65536         # AG streaming quantum per message
    red_chunk_bytes: int = 8192      # reduction packetization quantum
    vector_elems_per_tb: int = 262144

    def __post_init__(self) -> None:
        if (self.tile <= 0 or self.chunk_bytes <= 0 or
                self.red_chunk_bytes <= 0):
            raise WorkloadError(f"invalid tiling config {self}")


def reduction_sub_chunks(tile_bytes: int, red_chunk_bytes: int) -> Tuple[int, int]:
    """(count, bytes_per_sub_chunk) for a packetized tile reduction."""
    count = max(1, ceil_div(tile_bytes, red_chunk_bytes))
    return count, ceil_div(tile_bytes, count)


def ceil_div(a: int, b: int) -> int:
    return -(-a // b)


# ---------------------------------------------------------------------------
# Cost model
# ---------------------------------------------------------------------------

# Both cost functions are pure in their (hashable) arguments and the
# experiment matrix re-lowers the same handful of op shapes thousands of
# times — once per kernel per system per run — so the results are
# memoized (SimProfiler showed lowering as a repeated hot spot).
# ``GpuSpec`` is a frozen dataclass, hence hashable; distinct shapes per
# campaign number in the dozens, so the caches stay tiny.

@lru_cache(maxsize=None)
def gemm_tile_time_ns(tile_m: int, tile_n: int, k: int,
                      spec: GpuSpec) -> float:
    """Sustained time for one output tile on one resident-TB slot."""
    flops = 2.0 * tile_m * tile_n * k
    rate = (spec.tensor_flops_per_sm_cycle * spec.clock_ghz *
            spec.gemm_efficiency / spec.tb_slots_per_sm)
    return flops / rate


@lru_cache(maxsize=None)
def vector_tb_time_ns(elements: float, flops_per_element: float,
                      spec: GpuSpec) -> float:
    """Sustained time for ``elements`` of vector work on one TB slot."""
    rate = (spec.vector_flops_per_sm_cycle * spec.clock_ghz /
            spec.tb_slots_per_sm)
    return elements * flops_per_element / rate


# ---------------------------------------------------------------------------
# Activation layout
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ActivationLayout:
    """A [rows, cols] activation tensor sharded by rows across the TP group.

    Row blocks are assigned to GPUs contiguously; when the block count does
    not divide evenly, the first ``num_blocks % tp`` shards carry one extra
    block (the usual ragged contiguous partition).  The block count, the
    shard split and ``block_bytes`` are computed once per layout.
    """

    tensor_id: int
    rows: int
    row_bytes: int
    tp: int
    row_block: int = 128

    def __post_init__(self) -> None:
        if self.rows <= 0 or self.row_bytes <= 0 or self.tp < 1:
            raise WorkloadError(f"invalid layout {self}")
        if self.num_blocks < self.tp:
            raise WorkloadError(
                f"layout has {self.num_blocks} row blocks for {self.tp} "
                f"GPUs; shrink row_block or grow the tensor")

    @cached_property
    def num_blocks(self) -> int:
        return ceil_div(self.rows, self.row_block)

    @cached_property
    def _base(self) -> int:
        return self.num_blocks // self.tp

    @cached_property
    def _extra(self) -> int:
        return self.num_blocks % self.tp

    @cached_property
    def blocks_per_shard(self) -> int:
        """Largest shard size (shards differ by at most one block)."""
        return self._base + (1 if self._extra else 0)

    @cached_property
    def block_bytes(self) -> int:
        return self.row_block * self.row_bytes

    def shard_blocks(self, gpu: int) -> int:
        """Number of row blocks homed on ``gpu``."""
        return self._base + (1 if gpu < self._extra else 0)

    def shard_start(self, gpu: int) -> int:
        """First row block homed on ``gpu``."""
        return gpu * self._base + min(gpu, self._extra)

    def home_of_block(self, mb: int) -> int:
        """The GPU owning row block ``mb`` (contiguous sharding)."""
        if not 0 <= mb < self.num_blocks:
            raise WorkloadError(f"row block {mb} out of range")
        boundary = self._extra * (self._base + 1)
        if mb < boundary:
            return mb // (self._base + 1)
        return self._extra + (mb - boundary) // self._base

    def address(self, mb: int, chunk: int, chunk_bytes: int) -> Address:
        """Fabric address of the ``chunk``-th quantum of row block ``mb``."""
        offset = (self.tensor_id * TENSOR_STRIDE +
                  mb * self.block_bytes + chunk * chunk_bytes)
        return Address(self.home_of_block(mb), offset)

    def chunks_per_block(self, chunk_bytes: int) -> int:
        return ceil_div(self.block_bytes, chunk_bytes)


def make_layout(rows: int, row_bytes: int, tp: int,
                row_block: int = 128) -> ActivationLayout:
    """Allocate a fresh tensor id and build its layout."""
    return ActivationLayout(tensor_id=next(_tensor_ids), rows=rows,
                            row_bytes=row_bytes, tp=tp, row_block=row_block)


# ---------------------------------------------------------------------------
# Plain compute kernels (barrier-style lowering)
# ---------------------------------------------------------------------------

def compute_kernel(op: LogicalOp, spec: GpuSpec,
                   tiling: Optional[TilingConfig] = None,
                   launch_overhead_ns: float = 0.0) -> KernelInstance:
    """Lower a GEMM or VECTOR op to a compute-only kernel."""
    tiling = tiling or TilingConfig()
    if op.kind is OpKind.GEMM:
        shape = op.gemm
        grid = (ceil_div(shape.m, tiling.tile), ceil_div(shape.n, tiling.tile))
        tb_ns = gemm_tile_time_ns(tiling.tile, tiling.tile, shape.k, spec)
        return KernelInstance(name=op.name, grid=grid, tb_pre_ns=tb_ns,
                              launch_overhead_ns=launch_overhead_ns)
    if op.kind is OpKind.VECTOR:
        blocks = max(1, ceil_div(op.elements, tiling.vector_elems_per_tb))
        per_tb = op.elements / blocks
        tb_ns = vector_tb_time_ns(per_tb, op.flops_per_element, spec)
        return KernelInstance(name=op.name, grid=(blocks,), tb_pre_ns=tb_ns,
                              launch_overhead_ns=launch_overhead_ns,
                              compute_class="vector")
    raise WorkloadError(f"cannot lower {op.kind} as a compute kernel")


# ---------------------------------------------------------------------------
# Fused GEMM-RS (reduction epilogue, write semantics)
# ---------------------------------------------------------------------------

def gemm_rs_kernel(op: LogicalOp, out_layout: ActivationLayout,
                   spec: GpuSpec, tiling: TilingConfig, tp: int,
                   transport: Transport = Transport.CAIS,
                   pool: str = "default",
                   launch_overhead_ns: float = 0.0) -> KernelInstance:
    """Row-parallel GEMM whose TBs push per-tile reduction requests.

    The output tensor is [m, n_global] reduced+scattered by row blocks; each
    TB ``(mb, nb)`` computes one partial tile and issues one reduction to
    the tile's home GPU.  Tiles homed locally contribute with a local add.
    """
    shape = op.gemm
    tile = tiling.tile
    grid = (ceil_div(shape.m, tile), ceil_div(shape.n, tile))
    tile_bytes = out_layout.block_bytes // grid[1]
    tb_ns = gemm_tile_time_ns(tile, tile, shape.k, spec)
    subs, sub_bytes = reduction_sub_chunks(tile_bytes, tiling.red_chunk_bytes)

    # A tile's reductions are the same on every GPU: build them once per
    # tile, on first use, and hand each caller a fresh list.
    table: Dict[Tuple[int, ...], Tuple[RemoteOp, ...]] = {}

    def reduces(gpu: int, bidx: Tuple[int, ...]) -> List[RemoteOp]:
        ops = table.get(bidx)
        if ops is None:
            mb, nb = bidx
            base = out_layout.address(mb, nb, tile_bytes)
            ops = table[bidx] = tuple(
                RemoteOp(RemoteOpKind.REDUCE,
                         Address(base.home_gpu, base.offset + c * sub_bytes),
                         sub_bytes, transport=transport, expected=tp - 1)
                for c in range(subs))
        return list(ops)

    # Symbolic form for the compiler: home = mb // blocks_per_shard,
    # offset = base + mb*block + nb*tile — no gpuId: mergeable.
    ir = cc.KernelIR(name=op.name, grid=grid, mem_instrs=(
        cc.MemInstr(cc.MemOpKind.REDUCE,
                    home_expr=cc.BlockIdx(0) // out_layout.blocks_per_shard,
                    offset_expr=(cc.Const(out_layout.tensor_id *
                                          TENSOR_STRIDE) +
                                 cc.BlockIdx(0) * out_layout.block_bytes +
                                 cc.BlockIdx(1) * tile_bytes),
                    chunk_bytes=tile_bytes),))
    compiled = cc.compile_kernel(ir)
    return KernelInstance(name=op.name, grid=grid, tb_pre_ns=tb_ns,
                          remote_reduces=reduces, compiled=compiled,
                          pool=pool, launch_overhead_ns=launch_overhead_ns,
                          block_order=home_rotated_order(out_layout, grid))


def home_rotated_order(layout: ActivationLayout,
                       grid: Tuple[int, int]) -> List[Tuple[int, int]]:
    """Merging-aware TB ordering for reduction-producing kernels.

    Row-major order sends an entire row block's tiles to one home GPU in a
    run; the home itself skips those sends and its stream drifts a whole
    region ahead of its peers.  Rotating across homes tile-by-tile keeps
    every GPU's send stream aligned to within one tile.
    """
    mb_count, nb_count = grid
    by_home: List[List[int]] = [[] for _ in range(layout.tp)]
    for mb in range(mb_count):
        by_home[layout.home_of_block(mb)].append(mb)
    order: List[Tuple[int, int]] = []
    depth = max((len(rows) for rows in by_home), default=0)
    for j in range(depth):
        for nb in range(nb_count):
            for home in range(layout.tp):
                if j < len(by_home[home]):
                    order.append((by_home[home][j], nb))
    return order


def rs_tokens(out_layout: ActivationLayout, num_col_tiles: int,
              mb: int) -> List[Tuple]:
    """Dependency tokens for row block ``mb`` of a GEMM-RS output."""
    return [("red", out_layout.tensor_id, mb, nb)
            for nb in range(num_col_tiles)]


# ---------------------------------------------------------------------------
# LayerNorm on the reduced shard
# ---------------------------------------------------------------------------

def ln_kernel(op: LogicalOp, in_layout: ActivationLayout,
              out_layout: ActivationLayout, num_col_tiles: int,
              spec: GpuSpec, tiling: TilingConfig,
              gated_on_rs: bool = True, pool: str = "default",
              launch_overhead_ns: float = 0.0) -> KernelInstance:
    """Per-row-block LayerNorm over the locally-homed shard.

    With ``gated_on_rs`` each TB waits for its row block's reduction tokens
    (fine-grained TB-level dependency, Fig. 9); completion signals
    ``("ln", out_tensor, mb)`` for downstream AG-GEMM TBs.
    """
    grid = (in_layout.blocks_per_shard,)
    row_elems = in_layout.block_bytes // 2        # dtype-agnostic enough
    tb_ns = vector_tb_time_ns(row_elems, op.flops_per_element, spec)

    def deps(gpu: int, bidx: Tuple[int, ...]) -> List[Tuple]:
        if not gated_on_rs or bidx[0] >= in_layout.shard_blocks(gpu):
            return []                 # padding TB on a short shard
        mb = in_layout.shard_start(gpu) + bidx[0]
        return rs_tokens(in_layout, num_col_tiles, mb)

    return KernelInstance(name=op.name, grid=grid, tb_pre_ns=tb_ns,
                          tb_deps=deps, pool=pool,
                          launch_overhead_ns=launch_overhead_ns,
                          compute_class="vector")


def row_block_loads(layout: ActivationLayout, chunk_bytes: int, tp: int,
                    transport: Transport) -> Callable[
                        [int, Tuple[int, ...]], List[RemoteOp]]:
    """``remote_loads`` of a TB reading all of row block ``bidx[0]``.

    One load per ``chunk_bytes`` quantum, none on the block's home GPU.
    The loads of a row block are the same for every column tile and every
    other GPU, so they are built once per block, on first use; each
    caller gets a fresh list.
    """
    chunks = layout.chunks_per_block(chunk_bytes)
    table: Dict[int, Tuple[int, Tuple[RemoteOp, ...]]] = {}

    def loads(gpu: int, bidx: Tuple[int, ...]) -> List[RemoteOp]:
        mb = bidx[0]
        entry = table.get(mb)
        if entry is None:
            entry = table[mb] = (layout.home_of_block(mb), tuple(
                RemoteOp(RemoteOpKind.LOAD,
                         layout.address(mb, c, chunk_bytes), chunk_bytes,
                         transport=transport, expected=tp - 1)
                for c in range(chunks)))
        home, ops = entry
        return [] if home == gpu else list(ops)

    return loads


# ---------------------------------------------------------------------------
# Replicated vector op over an AllReduce result (AR-GEMM read semantics)
# ---------------------------------------------------------------------------

def replicated_vector_kernel(op: LogicalOp, in_layout: ActivationLayout,
                             num_col_tiles: int, spec: GpuSpec,
                             tiling: TilingConfig, tp: int,
                             transport: Transport = Transport.CAIS,
                             gated_on_rs: bool = True,
                             pool: str = "default",
                             launch_overhead_ns: float = 0.0
                             ) -> KernelInstance:
    """A vector op every GPU runs over the *full* AllReduce result.

    Basic TP replicates dropout/LayerNorm after each AllReduce: each GPU
    needs every row block.  Under CAIS the AllReduce dissolves — rows are
    reduced to their home (``red.cais`` epilogue of the producer GEMM) and
    each consumer TB pulls its row on demand with ``ld.cais`` (the paper's
    AR-GEMM read+write semantics, Fig. 1(c)).  TB ``(mb,)`` optionally
    gates on row ``mb``'s reduction tokens and loads it when remote.
    """
    grid = (in_layout.num_blocks,)
    row_elems = in_layout.block_bytes // 2
    tb_ns = vector_tb_time_ns(row_elems, op.flops_per_element, spec)
    loads = row_block_loads(in_layout, tiling.chunk_bytes, tp, transport)

    def deps(gpu: int, bidx: Tuple[int, ...]) -> List[Tuple]:
        if not gated_on_rs:
            return []
        return rs_tokens(in_layout, num_col_tiles, bidx[0])

    ir = cc.KernelIR(name=op.name, grid=grid, mem_instrs=(
        cc.MemInstr(cc.MemOpKind.LOAD,
                    home_expr=cc.BlockIdx(0) // in_layout.blocks_per_shard,
                    offset_expr=(cc.Const(in_layout.tensor_id *
                                          TENSOR_STRIDE) +
                                 cc.BlockIdx(0) * in_layout.block_bytes),
                    chunk_bytes=tiling.chunk_bytes),))
    compiled = cc.compile_kernel(ir)
    return KernelInstance(name=op.name, grid=grid, tb_pre_ns=0.0,
                          tb_post_ns=tb_ns, remote_loads=loads,
                          tb_deps=deps, compiled=compiled, pool=pool,
                          launch_overhead_ns=launch_overhead_ns,
                          compute_class="vector")


def row_gated_gemm_kernel(op: LogicalOp, token_tag: str, tensor_id: int,
                          spec: GpuSpec, tiling: TilingConfig,
                          per_gpu_tokens: bool = True,
                          pool: str = "default",
                          launch_overhead_ns: float = 0.0
                          ) -> KernelInstance:
    """A plain-compute GEMM whose TBs gate on per-row readiness tokens.

    Consumers of a replicated AllReduce result have all data locally once
    the replicated vector TB for the row finished on their GPU; TB
    ``(mb, nb)`` waits for ``(token_tag, tensor_id, mb[, gpu])``.
    """
    shape = op.gemm
    tile = tiling.tile
    grid = (ceil_div(shape.m, tile), ceil_div(shape.n, tile))
    tb_ns = gemm_tile_time_ns(tile, tile, shape.k, spec)

    def deps(gpu: int, bidx: Tuple[int, ...]) -> List[Tuple]:
        if per_gpu_tokens:
            return [(token_tag, tensor_id, bidx[0], gpu)]
        return [(token_tag, tensor_id, bidx[0])]

    return KernelInstance(name=op.name, grid=grid, tb_pre_ns=tb_ns,
                          tb_deps=deps, pool=pool,
                          launch_overhead_ns=launch_overhead_ns)


# ---------------------------------------------------------------------------
# Fused AG-GEMM (on-demand remote reads, read semantics)
# ---------------------------------------------------------------------------

def ag_gemm_kernel(op: LogicalOp, in_layout: ActivationLayout,
                   spec: GpuSpec, tiling: TilingConfig, tp: int,
                   transport: Transport = Transport.CAIS,
                   gated_on_ln: bool = True, pool: str = "default",
                   launch_overhead_ns: float = 0.0) -> KernelInstance:
    """Column-parallel GEMM whose TBs pull remote row blocks on demand.

    TB ``(mb, nb)`` needs the full row block ``mb`` of the gathered input;
    when homed remotely it issues one load per chunk quantum (served once
    per GPU by the chunk cache, merged across GPUs by the switch).
    """
    shape = op.gemm
    tile = tiling.tile
    grid = (ceil_div(shape.m, tile), ceil_div(shape.n, tile))
    tb_ns = gemm_tile_time_ns(tile, tile, shape.k, spec)
    loads = row_block_loads(in_layout, tiling.chunk_bytes, tp, transport)

    def deps(gpu: int, bidx: Tuple[int, ...]) -> List[Tuple]:
        if not gated_on_ln:
            return []
        return [("ln", in_layout.tensor_id, bidx[0])]

    ir = cc.KernelIR(name=op.name, grid=grid, mem_instrs=(
        cc.MemInstr(cc.MemOpKind.LOAD,
                    home_expr=cc.BlockIdx(0) // in_layout.blocks_per_shard,
                    offset_expr=(cc.Const(in_layout.tensor_id *
                                          TENSOR_STRIDE) +
                                 cc.BlockIdx(0) * in_layout.block_bytes),
                    chunk_bytes=tiling.chunk_bytes),))
    compiled = cc.compile_kernel(ir)
    return KernelInstance(name=op.name, grid=grid, tb_pre_ns=0.0,
                          tb_post_ns=tb_ns, remote_loads=loads,
                          tb_deps=deps, compiled=compiled, pool=pool,
                          launch_overhead_ns=launch_overhead_ns)
