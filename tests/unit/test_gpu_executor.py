"""Unit tests for the GPU model and the TB-granular executor."""

import pytest

from repro.cais.compiler import (
    BlockIdx, Const, KernelIR, MemInstr, MemOpKind, compile_kernel,
    reset_group_ids)
from repro.cais.coordination import GroupSyncTable
from repro.cais.merge_unit import MergeUnit
from repro.common import fastpath
from repro.common.config import dgx_h100_config, GpuSpec
from repro.common.errors import ConfigError, DeadlockError
from repro.common.events import Simulator
from repro.gpu.executor import Executor
from repro.gpu.kernels import KernelInstance, block_indices, total_tb_time_ns
from repro.gpu.remote_ops import RemoteOp, RemoteOpKind, Transport
from repro.interconnect.message import Address
from repro.interconnect.network import Network
from repro.metrics.merge_stats import MergeStats


def make_system(num_gpus=2, num_switches=1, num_sms=4, jitter=True,
                merge=False, sync_table=False, seed=3):
    sim = Simulator()
    cfg = dgx_h100_config(num_gpus=num_gpus, seed=seed)
    cfg = cfg.__class__(**{**cfg.__dict__, "num_gpus": num_gpus,
                           "num_switches": num_switches,
                           "gpu": GpuSpec(num_sms=num_sms)})
    net = Network(sim, cfg)
    stats = MergeStats(cfg.switch.merge_entry_bytes)
    if merge:
        for sw in net.switches:
            sw.attach_engine(MergeUnit(
                stats, num_gpus, entry_bytes=cfg.switch.merge_entry_bytes,
                capacity_entries=None, timeout_ns=None))
    if sync_table:
        for sw in net.switches:
            sw.attach_engine(GroupSyncTable())
    ex = Executor(sim, cfg, net, jitter_enabled=jitter)
    return sim, net, ex, stats


def test_block_indices_row_major():
    assert block_indices((2, 2)) == [(0, 0), (0, 1), (1, 0), (1, 1)]


def test_total_tb_time():
    k = KernelInstance("k", grid=(4,), tb_pre_ns=10.0, tb_post_ns=5.0)
    assert total_tb_time_ns(k) == pytest.approx(60.0)


def test_negative_tb_time_rejected():
    from repro.common.errors import WorkloadError
    with pytest.raises(WorkloadError):
        KernelInstance("k", grid=(1,), tb_pre_ns=-1.0)


class TestComputeOnly:
    def test_kernel_completes_on_all_gpus(self):
        sim, net, ex, _ = make_system(jitter=False)
        done = []
        k = KernelInstance("gemm", grid=(8,), tb_pre_ns=1000.0)
        ex.launch_kernel(k, on_complete=lambda: done.append(sim.now))
        ex.run()
        assert len(done) == 1
        assert ex.tbs_completed == 16

    def test_makespan_reflects_slot_waves(self):
        # 4 SMs * 2 slots = 8 slots; 16 TBs of 1000 ns -> 2 waves.
        sim, net, ex, _ = make_system(jitter=False)
        k = KernelInstance("gemm", grid=(16,), tb_pre_ns=1000.0)
        ex.launch_kernel(k)
        makespan = ex.run()
        assert makespan == pytest.approx(2000.0)

    def test_jitter_changes_makespan_deterministically(self):
        results = []
        for _ in range(2):
            sim, net, ex, _ = make_system(jitter=True, seed=11)
            k = KernelInstance("g", grid=(16,), tb_pre_ns=1000.0)
            ex.launch_kernel(k)
            results.append(ex.run())
        assert results[0] == results[1]
        sim, net, ex, _ = make_system(jitter=False, seed=11)
        k = KernelInstance("g", grid=(16,), tb_pre_ns=1000.0)
        ex.launch_kernel(k)
        assert ex.run() != results[0]

    def test_launch_overhead_delays_start(self):
        sim, net, ex, _ = make_system(jitter=False)
        k = KernelInstance("g", grid=(1,), tb_pre_ns=100.0,
                           launch_overhead_ns=2000.0)
        ex.launch_kernel(k)
        assert ex.run() == pytest.approx(2100.0)

    def test_kernel_chain_via_on_complete(self):
        sim, net, ex, _ = make_system(jitter=False)
        order = []
        k2 = KernelInstance("k2", grid=(2,), tb_pre_ns=50.0)
        k1 = KernelInstance("k1", grid=(2,), tb_pre_ns=100.0)

        def launch_second():
            order.append(("k1", sim.now))
            ex.launch_kernel(k2, on_complete=lambda:
                             order.append(("k2", sim.now)))

        ex.launch_kernel(k1, on_complete=launch_second)
        ex.run()
        assert [name for name, _ in order] == ["k1", "k2"]
        assert order[1][1] == pytest.approx(150.0)


class TestKernelReplayOrder:
    """An isolated kernel launched behind queued events is replayed
    analytically only where its completion keeps the event path's place
    among the events queued for the same instant."""

    KERNELS_ONLY = fastpath.FastPathConfig(
        link_windows=False, analytic_collectives=False,
        analytic_kernels=True)

    @staticmethod
    def kernel(post_ns):
        return KernelInstance("k", grid=(16,), tb_pre_ns=1000.0,
                              tb_post_ns=post_ns)

    def run(self, cfg, post_ns, t_end=None):
        with fastpath.overridden(cfg):
            sim, _net, ex, _ = make_system(seed=5)
        log = []
        if t_end is not None:
            # Queued before the launch, this event queues a foreign one
            # for the completion instant after the launch.
            sim.schedule(t_end - 10.0, lambda: sim.schedule_at(
                t_end, log.append, "foreign"))
        ex.launch_kernel(self.kernel(post_ns), isolated=True,
                         on_complete=lambda: log.append("kernel"))
        end = ex.run()
        return log, end, sim.events_processed, ex

    @pytest.mark.parametrize("post_ns", (0.0, 100.0))
    def test_same_instant_event_fires_in_reference_order(self, post_ns):
        _, t_end, _, _ = self.run(fastpath.DISABLED, post_ns)
        ref_log, _, ref_events, _ = self.run(fastpath.DISABLED, post_ns,
                                             t_end)
        log, end, events, ex = self.run(self.KERNELS_ONLY, post_ns, t_end)
        assert end == t_end
        assert log == ref_log
        if post_ns == 0.0:
            # The event path queues the last TB completion at the instant
            # itself, behind the foreign event; the replay defers to it.
            assert log == ["foreign", "kernel"]
            assert ex.fastpath_kernels == 1
            assert ref_events - events == ex.fastpath_kernel_events_elided
        else:
            # A post phase queues that completion before the foreign
            # event, a place no deferral can take: the event path runs.
            assert log == ["kernel", "foreign"]
            assert ex.fastpath_kernels == 0


class TestTokens:
    def test_when_all_fires_after_all_signals(self):
        sim, net, ex, _ = make_system()
        fired = []
        ex.when_all(["a", "b"], lambda: fired.append(True))
        ex.signal("a")
        assert not fired
        ex.signal("b")
        assert fired

    def test_signal_idempotent(self):
        sim, net, ex, _ = make_system()
        fired = []
        ex.signal("x")
        ex.signal("x")
        ex.when_all(["x"], lambda: fired.append(1))
        assert fired == [1]

    def test_tb_deps_gate_dispatch(self):
        sim, net, ex, _ = make_system(jitter=False)
        k = KernelInstance("dep", grid=(2,), tb_pre_ns=100.0,
                           tb_deps=lambda g, b: [("tile", b[0])])
        ex.launch_kernel(k)
        sim.schedule(5000.0, ex.signal, ("tile", 0))
        sim.schedule(6000.0, ex.signal, ("tile", 1))
        assert ex.run() == pytest.approx(6100.0)

    def test_missing_dep_raises_deadlock(self):
        sim, net, ex, _ = make_system(jitter=False)
        k = KernelInstance("dep", grid=(1,), tb_pre_ns=1.0,
                           tb_deps=lambda g, b: ["never"])
        ex.launch_kernel(k)
        with pytest.raises(DeadlockError):
            ex.run()


class TestRemotePhase:
    def _load_kernel(self, num_gpus, chunk=1024, transport=Transport.CAIS):
        def loads(gpu, bidx):
            home = (gpu + 1) % num_gpus
            return [RemoteOp(RemoteOpKind.LOAD,
                             Address(home, bidx[0] * chunk), chunk,
                             transport=transport,
                             expected=num_gpus - 1)]
        return KernelInstance("ag", grid=(4,), tb_pre_ns=100.0,
                              tb_post_ns=500.0, remote_loads=loads)

    def test_loads_block_post_compute(self):
        sim, net, ex, _ = make_system(jitter=False, merge=True)
        k = self._load_kernel(2)
        ex.launch_kernel(k)
        makespan = ex.run()
        # Must include at least one fabric round trip + HBM latency.
        assert makespan > 100.0 + 500.0 + 2 * 250.0 + 450.0

    def test_local_home_loads_skip_fabric(self):
        sim, net, ex, _ = make_system(jitter=False)

        def loads(gpu, bidx):
            return [RemoteOp(RemoteOpKind.LOAD, Address(gpu, 0), 128,
                             transport=Transport.DIRECT)]
        k = KernelInstance("local", grid=(2,), tb_pre_ns=100.0,
                           tb_post_ns=100.0, remote_loads=loads)
        ex.launch_kernel(k)
        assert ex.run() == pytest.approx(200.0)

    def test_chunk_cache_dedupes_same_address(self):
        sim, net, ex, _ = make_system(jitter=False, merge=True)

        def loads(gpu, bidx):
            # Every TB on GPU 0 reads the same remote chunk.
            if gpu != 0:
                return []
            return [RemoteOp(RemoteOpKind.LOAD, Address(1, 0), 2048,
                             expected=1)]
        k = KernelInstance("shared", grid=(4,), tb_pre_ns=10.0,
                           tb_post_ns=10.0, remote_loads=loads)
        ex.launch_kernel(k)
        ex.run()
        assert ex.gpus[0].memory.remote_fetches == 1
        assert ex.gpus[0].memory.cache_hits >= 0

    def test_direct_reduce_lands_at_home(self):
        sim, net, ex, _ = make_system(jitter=False)
        addr = Address(1, 0)
        done = []
        ex.gpus[1].memory.expect_reduction(addr, expected=1,
                                           on_complete=done.append)

        def reduces(gpu, bidx):
            if gpu != 0:
                return []
            return [RemoteOp(RemoteOpKind.REDUCE, addr, 1024,
                             transport=Transport.DIRECT, payload=2.5)]
        k = KernelInstance("rs", grid=(1,), tb_pre_ns=100.0,
                           remote_reduces=reduces)
        ex.launch_kernel(k)
        ex.run()
        assert done == [2.5]

    def test_cais_reduce_merges_at_switch(self):
        sim, net, ex, stats = make_system(num_gpus=4, jitter=False,
                                          merge=True)
        addr = Address(3, 0)
        done = []
        ex.gpus[3].memory.expect_reduction(
            addr, expected=4, on_complete=done.append)

        def reduces(gpu, bidx):
            return [RemoteOp(RemoteOpKind.REDUCE, addr, 1024,
                             transport=Transport.CAIS, expected=3,
                             payload=float(gpu))]
        k = KernelInstance("rs", grid=(1,), tb_pre_ns=100.0,
                           remote_reduces=reduces)
        ex.launch_kernel(k)
        ex.run()
        # 0+1+2 merged in-switch, +3 local contribution; total contributions
        # = 3 (merged store) + 1 (local).
        assert done and done[0] == pytest.approx(6.0)
        assert stats.sessions_completed == 1


class TestCoordination:
    def _grouped_kernel(self, num_gpus, sync_prelaunch=False,
                        sync_preaccess=False):
        reset_group_ids()
        ir = KernelIR("agk", grid=(4,), mem_instrs=(
            MemInstr(MemOpKind.LOAD, home_expr=Const(1),
                     offset_expr=BlockIdx(0) * 1024, chunk_bytes=1024),))
        compiled = compile_kernel(ir)

        def loads(gpu, bidx):
            if gpu == 1:
                return []
            return [RemoteOp(RemoteOpKind.LOAD, Address(1, bidx[0] * 1024),
                             1024, expected=num_gpus - 1)]
        return KernelInstance("agk", grid=(4,), tb_pre_ns=200.0,
                              tb_post_ns=200.0, remote_loads=loads,
                              compiled=compiled,
                              sync_prelaunch=sync_prelaunch,
                              sync_preaccess=sync_preaccess)

    def test_group_sync_aligns_and_completes(self):
        sim, net, ex, stats = make_system(num_gpus=4, jitter=True,
                                          merge=True, sync_table=True)
        k = self._grouped_kernel(4, sync_prelaunch=True, sync_preaccess=True)
        ex.launch_kernel(k)
        ex.run()
        assert ex.tbs_completed == 16
        # All load sessions fully merged: 4 addresses x 1 session each.
        assert stats.sessions_completed == 4

    def test_sync_reduces_request_spread(self):
        """With slot pressure and drift, coordination tightens the
        first-to-last request spread at the switch (Fig. 13b's effect)."""
        reset_group_ids()
        ir = KernelIR("agk", grid=(64,), mem_instrs=(
            MemInstr(MemOpKind.LOAD, home_expr=Const(1),
                     offset_expr=BlockIdx(0) * 1024, chunk_bytes=1024),))
        compiled = compile_kernel(ir)

        def loads(gpu, bidx):
            if gpu == 1:
                return []
            return [RemoteOp(RemoteOpKind.LOAD, Address(1, bidx[0] * 1024),
                             1024, expected=3)]

        waits = {}
        for coord in (False, True):
            sim, net, ex, stats = make_system(num_gpus=4, num_sms=2,
                                              jitter=True, merge=True,
                                              sync_table=True, seed=7)
            k = KernelInstance("agk", grid=(64,), tb_pre_ns=3000.0,
                               tb_post_ns=500.0, remote_loads=loads,
                               compiled=compiled, sync_prelaunch=coord,
                               sync_preaccess=coord)
            ex.launch_kernel(k)
            ex.run()
            waits[coord] = stats.average_wait_ns()
        assert waits[True] < waits[False]


class TestPools:
    def test_pool_partition_limits_parallelism(self):
        sim, net, ex, _ = make_system(jitter=False)
        for gpu in ex.gpus:
            gpu.set_pools({"a": 2, "b": 6})
        ka = KernelInstance("ka", grid=(4,), tb_pre_ns=1000.0, pool="a")
        kb = KernelInstance("kb", grid=(6,), tb_pre_ns=1000.0, pool="b")
        ex.launch_kernel(ka)
        ex.launch_kernel(kb)
        makespan = ex.run()
        # Pool a: 4 TBs over 2 slots = 2 waves; pool b: 1 wave.
        assert makespan == pytest.approx(2000.0)

    def test_unknown_pool_rejected(self):
        sim, net, ex, _ = make_system(jitter=False)
        k = KernelInstance("k", grid=(1,), tb_pre_ns=1.0, pool="nope")
        ex.launch_kernel(k)
        with pytest.raises(ConfigError):
            ex.run()

    def test_overcommitted_pools_rejected(self):
        sim, net, ex, _ = make_system()
        with pytest.raises(ConfigError):
            ex.gpus[0].set_pools({"a": 1000})
