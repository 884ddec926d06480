"""Unit tests for model configs, layer graphs, and tiling."""

import pytest

from repro.common.config import GpuSpec
from repro.common.errors import ConfigError, WorkloadError
from repro.llm.graph import CommKind, GemmShape, Graph, LogicalOp, OpKind
from repro.llm.models import (
    LLAMA_7B, LLAMA_FULL, MEGA_GPT_4B, MEGA_GPT_8B, TABLE_I, by_name)
from repro.llm.tiling import (
    TENSOR_STRIDE, ActivationLayout, TilingConfig, ag_gemm_kernel,
    compute_kernel, gemm_rs_kernel, gemm_tile_time_ns, ln_kernel,
    make_layout, reduction_sub_chunks, replicated_vector_kernel,
    reset_tensor_ids, rs_tokens, vector_tb_time_ns)
from repro.llm.tp import (
    SUBLAYERS, basic_backward_layer, basic_forward_layer,
    sp_backward_layer, sp_forward_layer, sublayer_graph, training_graphs)
from repro.gpu.kernels import block_indices
from repro.gpu.remote_ops import RemoteOp, RemoteOpKind, Transport
from repro.interconnect.message import Address


class TestModels:
    def test_table_i_values(self):
        assert MEGA_GPT_4B.hidden == 2048 and MEGA_GPT_4B.batch == 16
        assert MEGA_GPT_8B.ffn_hidden == 12288 and MEGA_GPT_8B.heads == 32
        assert LLAMA_7B.seq_len == 3072 and LLAMA_7B.batch == 3
        assert set(TABLE_I) == {"Mega-GPT-4B", "Mega-GPT-8B", "LLaMA-7B"}

    def test_full_scale_is_double_llama(self):
        assert LLAMA_FULL.hidden == 2 * LLAMA_7B.hidden
        assert LLAMA_FULL.ffn_hidden == 2 * LLAMA_7B.ffn_hidden

    def test_lookup(self):
        assert by_name("LLaMA-7B") is LLAMA_7B
        with pytest.raises(ConfigError):
            by_name("GPT-5")

    def test_activation_bytes(self):
        # 3072*3 tokens x 4096 hidden x 2 bytes.
        assert LLAMA_7B.activation_bytes() == 3072 * 3 * 4096 * 2

    def test_scaled_preserves_dims(self):
        s = LLAMA_7B.scaled(0.25)
        assert s.hidden == LLAMA_7B.hidden
        assert s.seq_len == 768
        with pytest.raises(ConfigError):
            LLAMA_7B.scaled(0.0)

    def test_invalid_model_rejected(self):
        from repro.llm.models import ModelConfig
        with pytest.raises(ConfigError):
            ModelConfig(name="bad", hidden=100, ffn_hidden=0, heads=3,
                        seq_len=1, batch=1)


class TestGraph:
    def test_duplicate_names_rejected(self):
        g = Graph("t")
        g.add(LogicalOp("a", OpKind.VECTOR, elements=1))
        with pytest.raises(WorkloadError):
            g.add(LogicalOp("a", OpKind.VECTOR, elements=1))

    def test_unknown_dep_rejected(self):
        g = Graph("t")
        with pytest.raises(WorkloadError):
            g.add(LogicalOp("b", OpKind.VECTOR, elements=1, deps=("a",)))

    def test_topo_order_is_valid(self):
        g = sp_forward_layer(LLAMA_7B, 8)
        seen = set()
        for op in g.topo_order():
            assert all(d in seen for d in op.deps)
            seen.add(op.name)

    def test_gemm_needs_shape(self):
        with pytest.raises(WorkloadError):
            LogicalOp("g", OpKind.GEMM)

    def test_comm_needs_bytes(self):
        with pytest.raises(WorkloadError):
            LogicalOp("c", OpKind.COMM, comm=CommKind.ALL_REDUCE,
                      comm_bytes=0)

    def test_flops_accounting(self):
        shape = GemmShape(128, 64, 32)
        assert shape.flops() == 2 * 128 * 64 * 32
        op = LogicalOp("g", OpKind.GEMM, gemm=shape)
        assert op.flops() == shape.flops()


class TestTpGraphs:
    def test_sp_forward_has_rs_and_ag(self):
        g = sp_forward_layer(LLAMA_7B, 8)
        kinds = [op.comm for op in g.comm_ops()]
        assert kinds.count(CommKind.ALL_GATHER) == 2
        assert kinds.count(CommKind.REDUCE_SCATTER) == 2

    def test_basic_forward_has_two_allreduce(self):
        g = basic_forward_layer(LLAMA_7B, 8)
        kinds = [op.comm for op in g.comm_ops()]
        assert kinds == [CommKind.ALL_REDUCE, CommKind.ALL_REDUCE]

    def test_sp_and_basic_same_gemm_flops(self):
        """AR = RS + AG is mathematically equivalent; fwd GEMM work equal."""
        sp = sp_forward_layer(LLAMA_7B, 8)
        basic = basic_forward_layer(LLAMA_7B, 8)
        sp_gemm = sum(op.flops() for op in sp.ops()
                      if op.kind is OpKind.GEMM)
        basic_gemm = sum(op.flops() for op in basic.ops()
                         if op.kind is OpKind.GEMM)
        assert sp_gemm == basic_gemm

    def test_backward_has_double_gemm_flops(self):
        fwd = sp_forward_layer(LLAMA_7B, 8)
        bwd = sp_backward_layer(LLAMA_7B, 8)
        fwd_g = sum(op.flops() for op in fwd.ops()
                    if op.kind is OpKind.GEMM)
        bwd_g = sum(op.flops() for op in bwd.ops()
                    if op.kind is OpKind.GEMM)
        assert bwd_g == pytest.approx(2 * fwd_g, rel=0.01)

    def test_backward_mirrors_comm_kinds(self):
        bwd = sp_backward_layer(LLAMA_7B, 8)
        kinds = [op.comm for op in bwd.comm_ops()]
        assert kinds.count(CommKind.ALL_GATHER) == 2
        assert kinds.count(CommKind.REDUCE_SCATTER) == 2

    def test_comm_volume_equal_sp_vs_basic(self):
        # AR moves 2x per ring step but SP has twice the ops; logical global
        # bytes per op are equal here.
        sp = sp_forward_layer(LLAMA_7B, 8)
        basic = basic_forward_layer(LLAMA_7B, 8)
        assert sp.total_comm_bytes() == 2 * basic.total_comm_bytes()

    def test_tp_must_divide(self):
        with pytest.raises(WorkloadError):
            sp_forward_layer(LLAMA_7B, 7)
        with pytest.raises(WorkloadError):
            sp_forward_layer(LLAMA_7B, 1)

    def test_training_graphs(self):
        fwd, bwd = training_graphs(LLAMA_7B, 8, style="sp")
        assert "ffn1" in fwd and "ffn1_dgrad" in bwd
        with pytest.raises(WorkloadError):
            training_graphs(LLAMA_7B, 8, style="zigzag")

    @pytest.mark.parametrize("which", SUBLAYERS)
    def test_sublayer_structure(self, which):
        g = sublayer_graph(LLAMA_7B, 8, which)
        names = [op.name for op in g.topo_order()]
        assert names == ["gemm1", "rs", "ln", "ag", "gemm2"]
        assert g["rs"].comm is CommKind.REDUCE_SCATTER
        assert g["ag"].comm is CommKind.ALL_GATHER

    def test_unknown_sublayer(self):
        with pytest.raises(WorkloadError):
            sublayer_graph(LLAMA_7B, 8, "L9")


class TestTiling:
    def setup_method(self):
        reset_tensor_ids()
        self.spec = GpuSpec()
        self.tiling = TilingConfig()

    def test_gemm_tile_time_scales_with_k(self):
        assert (gemm_tile_time_ns(128, 128, 4096, self.spec) ==
                pytest.approx(8 * gemm_tile_time_ns(128, 128, 512,
                                                    self.spec)))

    def test_vector_time_positive(self):
        assert vector_tb_time_ns(1024, 8.0, self.spec) > 0

    def test_layout_addressing(self):
        layout = make_layout(rows=1024, row_bytes=8192, tp=8)
        assert layout.num_blocks == 8
        assert layout.blocks_per_shard == 1
        assert layout.home_of_block(0) == 0 and layout.home_of_block(7) == 7
        a0 = layout.address(3, 0, 65536)
        a1 = layout.address(3, 1, 65536)
        assert a0.home_gpu == 3 and a1.offset - a0.offset == 65536

    def test_layouts_get_distinct_address_spaces(self):
        l1 = make_layout(rows=1024, row_bytes=8192, tp=8)
        l2 = make_layout(rows=1024, row_bytes=8192, tp=8)
        assert l1.address(0, 0, 1).offset != l2.address(0, 0, 1).offset

    def test_layout_supports_ragged_sharding(self):
        # 1000 rows / 128 = 8 blocks over 3 GPUs: shards of 3, 3, 2.
        layout = ActivationLayout(tensor_id=1, rows=1000, row_bytes=2, tp=3)
        assert layout.num_blocks == 8
        assert [layout.shard_blocks(g) for g in range(3)] == [3, 3, 2]
        assert [layout.shard_start(g) for g in range(3)] == [0, 3, 6]
        homes = [layout.home_of_block(mb) for mb in range(8)]
        assert homes == [0, 0, 0, 1, 1, 1, 2, 2]

    def test_layout_rejects_too_few_blocks(self):
        with pytest.raises(WorkloadError):
            ActivationLayout(tensor_id=1, rows=100, row_bytes=2, tp=8)

    def test_compute_kernel_gemm_grid(self):
        op = LogicalOp("g", OpKind.GEMM, gemm=GemmShape(1024, 512, 4096))
        k = compute_kernel(op, self.spec, self.tiling)
        assert k.grid == (8, 4)
        assert k.tb_pre_ns > 0 and k.tb_post_ns == 0

    def test_compute_kernel_vector_grid(self):
        op = LogicalOp("v", OpKind.VECTOR, elements=1 << 20)
        k = compute_kernel(op, self.spec, self.tiling)
        assert k.grid == (4,)

    def test_comm_op_cannot_lower_as_compute(self):
        op = LogicalOp("c", OpKind.COMM, comm=CommKind.ALL_REDUCE,
                       comm_bytes=1024)
        with pytest.raises(WorkloadError):
            compute_kernel(op, self.spec, self.tiling)

    def test_gemm_rs_kernel_remote_ops(self):
        layout = make_layout(rows=1024, row_bytes=1024 * 2, tp=8)
        op = LogicalOp("g1", OpKind.GEMM, gemm=GemmShape(1024, 1024, 512))
        k = gemm_rs_kernel(op, layout, self.spec, self.tiling, tp=8)
        assert k.grid == (8, 8)
        ops = k.remote_reduces(2, (3, 1))
        # Tile = 32 KiB packetized into 8 KiB reduction sub-chunks.
        assert len(ops) == 4
        assert all(o.kind is RemoteOpKind.REDUCE for o in ops)
        assert all(o.address.home_gpu == layout.home_of_block(3)
                   for o in ops)
        assert all(o.expected == 7 for o in ops)
        offsets = [o.address.offset for o in ops]
        assert offsets == sorted(offsets)
        assert offsets[1] - offsets[0] == ops[0].chunk_bytes
        # Same block on another GPU -> identical addresses (mergeable).
        assert [o.address for o in k.remote_reduces(5, (3, 1))] == \
            [o.address for o in ops]
        assert k.compiled is not None and k.compiled.uses_cais

    def test_ag_gemm_kernel_loads_skip_home(self):
        layout = make_layout(rows=1024, row_bytes=2048, tp=8)
        op = LogicalOp("g2", OpKind.GEMM, gemm=GemmShape(1024, 512, 1024))
        k = ag_gemm_kernel(op, layout, self.spec, self.tiling, tp=8)
        home = layout.home_of_block(0)
        assert k.remote_loads(home, (0, 0)) == []
        other = (home + 1) % 8
        loads = k.remote_loads(other, (0, 0))
        assert loads and all(op_.kind is RemoteOpKind.LOAD for op_ in loads)
        assert all(op_.address.home_gpu == home for op_ in loads)
        # Post-heavy timing: compute happens after the gather.
        assert k.tb_pre_ns == 0.0 and k.tb_post_ns > 0

    def test_ag_gemm_deps_reference_ln_tokens(self):
        layout = make_layout(rows=1024, row_bytes=2048, tp=8)
        op = LogicalOp("g2", OpKind.GEMM, gemm=GemmShape(1024, 512, 1024))
        k = ag_gemm_kernel(op, layout, self.spec, self.tiling, tp=8)
        assert k.tb_deps(0, (5, 2)) == [("ln", layout.tensor_id, 5)]

    def test_ln_kernel_deps_cover_row_tiles(self):
        layout = make_layout(rows=1024, row_bytes=2048, tp=8)
        out = make_layout(rows=1024, row_bytes=2048, tp=8)
        op = LogicalOp("ln", OpKind.VECTOR, elements=1024 * 1024)
        k = ln_kernel(op, layout, out, num_col_tiles=4, spec=self.spec,
                      tiling=self.tiling)
        assert k.grid == (1,)
        deps = k.tb_deps(3, (0,))
        assert deps == rs_tokens(layout, 4, 3)

    def test_direct_transport_is_not_mergeable(self):
        layout = make_layout(rows=1024, row_bytes=2048, tp=8)
        op = LogicalOp("g1", OpKind.GEMM, gemm=GemmShape(1024, 1024, 512))
        k = gemm_rs_kernel(op, layout, self.spec, self.tiling, tp=8,
                           transport=Transport.DIRECT)
        assert not k.remote_reduces(0, (1, 0))[0].mergeable


class TestTbRemoteOpTables:
    """The per-kernel remote-op tables against the layout formula, on a
    ragged layout (9 row blocks over 4 GPUs: shards of 3, 2, 2, 2)."""

    TP = 4

    def setup_method(self):
        reset_tensor_ids()
        self.spec = GpuSpec()
        self.tiling = TilingConfig(chunk_bytes=32768, red_chunk_bytes=8192)
        self.layout = make_layout(rows=9 * 128, row_bytes=1024, tp=self.TP)

    def home(self, mb):
        """Owner of row block ``mb`` from the shard boundaries alone."""
        layout = self.layout
        return next(g for g in range(self.TP)
                    if layout.shard_start(g) <= mb
                    < layout.shard_start(g) + layout.shard_blocks(g))

    def expected_loads(self, gpu, mb):
        chunk = self.tiling.chunk_bytes
        if self.home(mb) == gpu:
            return []
        base = (self.layout.tensor_id * TENSOR_STRIDE
                + mb * self.layout.block_bytes)
        return [RemoteOp(RemoteOpKind.LOAD,
                         Address(self.home(mb), base + c * chunk), chunk,
                         transport=Transport.CAIS, expected=self.TP - 1)
                for c in range(-(-self.layout.block_bytes // chunk))]

    def load_kernels(self):
        gemm = LogicalOp("ag", OpKind.GEMM, gemm=GemmShape(9 * 128, 512, 256))
        vec = LogicalOp("rv", OpKind.VECTOR, elements=1 << 16)
        return (ag_gemm_kernel(gemm, self.layout, self.spec, self.tiling,
                               tp=self.TP),
                replicated_vector_kernel(vec, self.layout, num_col_tiles=4,
                                         spec=self.spec, tiling=self.tiling,
                                         tp=self.TP))

    def test_loads_match_layout_formula_for_every_gpu_and_block(self):
        for kernel in self.load_kernels():
            for gpu in range(self.TP):
                for bidx in block_indices(kernel.grid):
                    assert kernel.remote_loads(gpu, bidx) == \
                        self.expected_loads(gpu, bidx[0]), (kernel.name,
                                                            gpu, bidx)

    def test_reduces_match_layout_formula_for_every_gpu_and_block(self):
        op = LogicalOp("rs", OpKind.GEMM, gemm=GemmShape(9 * 128, 512, 256))
        kernel = gemm_rs_kernel(op, self.layout, self.spec, self.tiling,
                                tp=self.TP)
        tile_bytes = self.layout.block_bytes // kernel.grid[1]
        subs, sub_bytes = reduction_sub_chunks(tile_bytes,
                                               self.tiling.red_chunk_bytes)
        for gpu in range(self.TP):
            for mb, nb in block_indices(kernel.grid):
                base = (self.layout.tensor_id * TENSOR_STRIDE
                        + mb * self.layout.block_bytes + nb * tile_bytes)
                assert kernel.remote_reduces(gpu, (mb, nb)) == [
                    RemoteOp(RemoteOpKind.REDUCE,
                             Address(self.home(mb), base + c * sub_bytes),
                             sub_bytes, transport=Transport.CAIS,
                             expected=self.TP - 1)
                    for c in range(subs)], (gpu, mb, nb)

    def test_caller_mutation_does_not_reach_the_table(self):
        op = LogicalOp("rs", OpKind.GEMM, gemm=GemmShape(9 * 128, 512, 256))
        rs = gemm_rs_kernel(op, self.layout, self.spec, self.tiling,
                            tp=self.TP)
        ag, rv = self.load_kernels()
        remote = self.home(0) + 1
        for fn, gpu in ((rs.remote_reduces, 0), (ag.remote_loads, remote),
                        (rv.remote_loads, remote), (ag.remote_loads, 0)):
            first = fn(gpu, (0, 0))
            want = list(first)
            first.clear()
            first.append("junk")
            again = fn(gpu, (0, 0))
            assert again == want and again is not first

