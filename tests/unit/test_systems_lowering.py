"""Unit tests for the baseline systems' lowering machinery."""

import collections

import pytest

from repro import obs
from repro.cais import compiler as cais_compiler
from repro.cais.dataflow import CaisRunner
from repro.common.config import dgx_h100_config
from repro.common.errors import WorkloadError
from repro.experiments.runner import style_for
from repro.llm import tiling as llm_tiling
from repro.llm.graph import CommKind, GemmShape, Graph, LogicalOp, OpKind
from repro.llm.models import LLAMA_7B, ModelConfig
from repro.llm.tiling import TilingConfig
from repro.llm.tp import sublayer_graph
from repro.systems import (
    BarrierRunner, DirectComm, Harness, NvlsComm, OverlapRunner, RingComm,
    SYSTEM_CLASSES, T3Runner, make_system)

TILING = TilingConfig(chunk_bytes=32768, red_chunk_bytes=8192)
#: Smallest L1 every lowering accepts: one 128-row block per GPU.
TINY_MODEL = ModelConfig(name="tiny", hidden=1024, ffn_hidden=2048,
                         heads=8, seq_len=1024, batch=1)


def fresh():
    llm_tiling.reset_tensor_ids()
    cais_compiler.reset_group_ids()


def tiny_gemm(name, deps=(), m=256, n=256, k=256, sublayer=None):
    return LogicalOp(name, OpKind.GEMM, deps=deps,
                     gemm=GemmShape(m, n, k), sublayer=sublayer)


class TestBarrierRunner:
    def make(self, nvls=True):
        fresh()
        harness = Harness(dgx_h100_config(), nvls=nvls, jitter=False)
        comm = NvlsComm(harness) if nvls else RingComm(harness)
        return harness, BarrierRunner(harness, comm, tiling=TILING)

    def test_ops_respect_dependencies(self):
        harness, runner = self.make()
        g = Graph("t")
        g.add(tiny_gemm("a"))
        g.add(LogicalOp("c", OpKind.COMM, comm=CommKind.ALL_REDUCE,
                        comm_bytes=1 << 20, deps=("a",)))
        g.add(tiny_gemm("b", deps=("c",)))
        order = []
        done = {"ok": False}
        runner.run_graph(g, on_done=lambda: done.update(ok=True))
        harness.executor.run()
        assert done["ok"]

    def test_parallel_branches_run_concurrently(self):
        harness, runner = self.make()
        g = Graph("t")
        g.add(tiny_gemm("a", m=2048, n=2048))
        g.add(tiny_gemm("b", m=2048, n=2048))
        done = {"ok": False}
        runner.run_graph(g, on_done=lambda: done.update(ok=True))
        serial_estimate = None
        harness.executor.run()
        assert done["ok"]
        # Both kernels fit concurrently: makespan ~ one kernel's makespan.
        # (16x16 TB grid over 132 slots -> ~2 waves each; concurrent ~4 vs
        # serial 4+: loose check that they interleaved.)
        assert harness.executor.tbs_completed == 2 * 16 * 16 * 8

    def test_graph_sequence_is_serial(self):
        harness, runner = self.make()
        g1 = Graph("g1")
        g1.add(tiny_gemm("a"))
        g2 = Graph("g2")
        g2.add(tiny_gemm("b"))
        marks = []
        runner.run_graphs([g1, g2], on_done=lambda: marks.append("done"))
        harness.executor.run()
        assert marks == ["done"]

    def test_empty_sequence_rejected(self):
        harness, runner = self.make()
        with pytest.raises(WorkloadError):
            runner.run_graphs([])


class TestOverlapRunner:
    def test_gemm_comm_pair_absorbed(self):
        fresh()
        harness = Harness(dgx_h100_config(), nvls=True, jitter=False)
        runner = OverlapRunner(harness, NvlsComm(harness), tiling=TILING,
                               partitions=4)
        g = Graph("t")
        g.add(tiny_gemm("gemm", m=1024, n=1024))
        g.add(LogicalOp("ar", OpKind.COMM, comm=CommKind.ALL_REDUCE,
                        comm_bytes=8 << 20, deps=("gemm",)))
        pairs = runner._plan(g)
        assert pairs == {"gemm": "ar"}
        done = {"ok": False}
        runner.run_graph(g, on_done=lambda: done.update(ok=True))
        harness.executor.run()
        assert done["ok"]

    def test_allgather_not_absorbed(self):
        fresh()
        harness = Harness(dgx_h100_config(), nvls=True, jitter=False)
        runner = OverlapRunner(harness, NvlsComm(harness), tiling=TILING)
        g = Graph("t")
        g.add(tiny_gemm("gemm"))
        g.add(LogicalOp("ag", OpKind.COMM, comm=CommKind.ALL_GATHER,
                        comm_bytes=1 << 20, deps=("gemm",)))
        assert runner._plan(g) == {}

    def test_overlap_beats_barrier_on_gemm_ar(self):
        """The point of software pipelining: chunked GEMM->AR overlap is
        faster than GEMM then AR."""
        def run(runner_cls):
            fresh()
            harness = Harness(dgx_h100_config(), nvls=True, jitter=False)
            comm = NvlsComm(harness)
            runner = runner_cls(harness, comm, tiling=TILING)
            g = Graph("t")
            g.add(tiny_gemm("gemm", m=2048, n=4096, k=2048))
            g.add(LogicalOp("ar", OpKind.COMM, comm=CommKind.ALL_REDUCE,
                            comm_bytes=16 << 20, deps=("gemm",)))
            runner.run_graph(g)
            return harness.executor.run()

        assert run(OverlapRunner) < run(BarrierRunner)

    def test_invalid_partitions(self):
        fresh()
        harness = Harness(dgx_h100_config(), nvls=True)
        with pytest.raises(WorkloadError):
            OverlapRunner(harness, NvlsComm(harness), partitions=0)


class TestT3Runner:
    def test_rs_absorbed_into_producer_and_ag_into_consumer(self):
        fresh()
        model = LLAMA_7B.scaled(0.125)
        graph = sublayer_graph(model, 8, "L1")
        harness = Harness(dgx_h100_config(), jitter=False)
        runner = T3Runner(harness, tiling=TILING, nvls=False)
        done = {"ok": False}
        runner.run_graph(graph, on_done=lambda: done.update(ok=True))
        harness.executor.run()
        assert done["ok"]

    def test_nvls_variant_uses_push_all_gather(self):
        fresh()
        model = LLAMA_7B.scaled(0.125)
        graph = sublayer_graph(model, 8, "L1")
        harness = Harness(dgx_h100_config(), nvls=True, jitter=False)
        runner = T3Runner(harness, tiling=TILING, nvls=True)
        done = {"ok": False}
        runner.run_graph(graph, on_done=lambda: done.update(ok=True))
        harness.executor.run()
        assert done["ok"]
        # The NVLS engine's multicast path was exercised.
        from repro.nvls.engine import NvlsEngine
        engines = [e for sw in harness.network.switches
                   for e in sw.engines if isinstance(e, NvlsEngine)]
        assert sum(e.multicasts for e in engines) > 0


class TestGraphWalkContract:
    """Every runner lowers ops on the one shared dependency walk
    (``repro.llm.graph.GraphRunner``): a double finish is rejected, each
    op leaves exactly one causal boundary node, and nothing launched from
    a frame that starts two ops claims to be isolated."""

    RUNNERS = {"TP-NVLS": BarrierRunner, "CoCoNet-NVLS": OverlapRunner,
               "T3": T3Runner, "CAIS": CaisRunner}

    @pytest.fixture(autouse=True)
    def _clean_obs(self):
        obs.reset()
        yield
        obs.reset()

    def session(self, system):
        session = make_system(system, dgx_h100_config(), tiling=TILING,
                              jitter=False).session()
        assert type(session.runner) is self.RUNNERS[system]
        return session

    @pytest.mark.parametrize("system", RUNNERS)
    def test_op_finishing_twice_is_rejected(self, system):
        session = self.session(system)
        runner = session.runner
        lower = runner._start

        def finish_twice(graph, plan, op, finish, solo):
            def twice(name):
                finish(name)
                finish(name)
            lower(graph, plan, op, twice, solo)

        runner._start = finish_twice
        g = Graph("t")
        g.add(tiny_gemm("a"))
        g.add(tiny_gemm("b", deps=("a",)))
        runner.run_graph(g)
        with pytest.raises(WorkloadError, match="op a finished twice"):
            session.harness.executor.run()

    @pytest.mark.parametrize("system", RUNNERS)
    def test_each_op_records_one_boundary_node(self, system):
        recorder = obs.CausalityRecorder()
        obs.install(causality=recorder)
        session = self.session(system)
        graph = sublayer_graph(TINY_MODEL, 8, "L1", style=style_for(system))
        session.run([graph])
        boundaries = collections.Counter(
            node.label for node in recorder.nodes
            if node.label.startswith("op ") and node.label.endswith(" done"))
        assert boundaries == {f"op {op.name} done": 1 for op in graph.ops()}

    @pytest.mark.parametrize("system", RUNNERS)
    def test_two_roots_launch_nothing_isolated(self, system):
        session = self.session(system)
        runner, executor = session.runner, session.harness.executor
        # Barrier-style runners (overlap included) lower a root
        # collective; T3 and CAIS reject a standalone one.
        barrier = isinstance(runner, BarrierRunner)
        g = Graph("t")
        g.add(tiny_gemm("a"))
        g.add(LogicalOp("c", OpKind.COMM, comm=CommKind.ALL_REDUCE,
                        comm_bytes=1 << 20) if barrier else tiny_gemm("b"))
        flags = []
        launch = executor.launch_kernel

        def spy_launch(kernel, on_complete=None, isolated=False):
            flags.append(isolated)
            launch(kernel, on_complete=on_complete, isolated=isolated)

        executor.launch_kernel = spy_launch
        if barrier:
            comm_run = runner.comm.run

            def spy_comm(kind, nbytes, on_complete, on_chunk=None,
                         isolated=False):
                flags.append(isolated)
                comm_run(kind, nbytes, on_complete, on_chunk,
                         isolated=isolated)

            runner.comm.run = spy_comm
        session.run([g])
        assert flags == [False, False]

    @pytest.mark.parametrize("other", (None, "root", "event"))
    def test_partitions_isolated_only_when_pipeline_owns_node(self, other):
        """A pipelined GEMM started ``solo`` owns the node until its last
        partition completes, so every partition launches isolated; one
        started next to another root, or while an event is queued,
        launches none isolated."""
        session = self.session("CoCoNet-NVLS")
        executor = session.harness.executor
        g = Graph("t")
        g.add(tiny_gemm("a"))
        g.add(LogicalOp("c", OpKind.COMM, deps=("a",),
                        comm=CommKind.ALL_REDUCE, comm_bytes=1 << 20))
        if other == "root":
            g.add(tiny_gemm("b"))
        elif other == "event":
            session.harness.sim.schedule(0.0, lambda: None)
        flags = {}
        launch = executor.launch_kernel

        def spy_launch(kernel, on_complete=None, isolated=False):
            flags[kernel.name] = isolated
            launch(kernel, on_complete=on_complete, isolated=isolated)

        executor.launch_kernel = spy_launch
        session.run([g])
        assert sum(name.startswith("a.p") for name in flags) > 1
        assert set(flags.values()) == {other is None}


class TestDirectComm:
    def test_all_collectives_degenerate_to_full_replica_reads(self):
        fresh()
        harness = Harness(dgx_h100_config(), jitter=False)
        comm = DirectComm(harness, chunk_bytes=1 << 20,
                          locality_fraction=0.0)
        done = []
        comm.run(CommKind.ALL_REDUCE, 8 << 20, lambda: done.append("ar"))
        harness.sim.run()
        assert done == ["ar"]
        # Every GPU pulled every peer's full partial: per-GPU down traffic
        # ~ (K-1) x nbytes.
        k = harness.config.num_gpus
        down = sum(l.tracker.bytes_transferred
                   for l in harness.network.down_links.values())
        assert down > (k - 1) * (8 << 20) * k * 0.9

    def test_locality_fraction_bounds(self):
        fresh()
        harness = Harness(dgx_h100_config())
        with pytest.raises(WorkloadError):
            DirectComm(harness, locality_fraction=1.0)

    def test_bad_size_rejected(self):
        fresh()
        harness = Harness(dgx_h100_config())
        comm = DirectComm(harness)
        with pytest.raises(WorkloadError):
            comm.run(CommKind.ALL_REDUCE, 7, lambda: None)


class TestSystemRegistry:
    def test_all_names_construct(self):
        cfg = dgx_h100_config()
        for name in SYSTEM_CLASSES:
            system = make_system(name, cfg, tiling=TILING)
            assert system.name == name

    def test_unknown_name_rejected(self):
        with pytest.raises(WorkloadError):
            make_system("GPT-9", dgx_h100_config())

    def test_run_requires_graphs(self):
        system = make_system("CAIS", dgx_h100_config(), tiling=TILING)
        with pytest.raises(WorkloadError):
            system.run([])

    def test_compute_slot_restriction(self):
        harness = Harness(dgx_h100_config())
        harness.restrict_compute_slots(0.5)
        assert harness.executor.gpus[0].pool_capacity("default") == 66
        with pytest.raises(WorkloadError):
            harness.restrict_compute_slots(0.0)
