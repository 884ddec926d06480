"""Unit tests for GPU dispatch machinery: parking, fair share, per-class
link queue depth, and slot-occupancy accounting."""

import numpy as np
import pytest

from repro.common.config import LinkSpec, dgx_h100_config, GpuSpec
from repro.common.events import Simulator
from repro.gpu.scheduler import (
    FairSharePolicy, FifoPolicy, KeyedPolicy, ShuffledPolicy)
from repro.interconnect.link import Link
from repro.interconnect.message import Message, Op, TrafficClass, gpu_node


class TestPolicies:
    class FakeTB:
        def __init__(self, kid):
            class K:
                kernel_id = kid
            self.kernel = K()

    def test_fifo(self):
        q = [1, 2, 3]
        assert FifoPolicy().pick(q) == 1
        assert q == [2, 3]

    def test_shuffled_window_bounds_choice(self):
        rng = np.random.default_rng(0)
        policy = ShuffledPolicy(window=2, rng=rng)
        q = list(range(10))
        first = policy.pick(q)
        assert first in (0, 1)

    def test_shuffled_rejects_bad_window(self):
        with pytest.raises(ValueError):
            ShuffledPolicy(window=0, rng=np.random.default_rng(0))

    def test_keyed_picks_minimum(self):
        policy = KeyedPolicy(key=lambda x: -x)
        q = [1, 5, 3]
        assert policy.pick(q) == 5

    def test_fair_share_prefers_least_running_kernel(self):
        class FakeGpu:
            running_per_kernel = {1: 5, 2: 0}
        policy = FairSharePolicy(FakeGpu(), window=8,
                                 rng=np.random.default_rng(0))
        q = [self.FakeTB(1), self.FakeTB(1), self.FakeTB(2)]
        picked = policy.pick(q)
        assert picked.kernel.kernel_id == 2

    def test_fair_share_tie_breaks_within_window(self):
        class FakeGpu:
            running_per_kernel = {}
        policy = FairSharePolicy(FakeGpu(), window=4,
                                 rng=np.random.default_rng(1))
        q = [self.FakeTB(i) for i in range(8)]
        picked = policy.pick(q)
        assert picked.kernel.kernel_id < 4


class TestLinkBackpressure:
    def make_link(self, traffic_control=True, bandwidth=1.0):
        sim = Simulator()
        link = Link(sim, LinkSpec(bandwidth_gbps=bandwidth, latency_ns=0.0),
                    "bp", traffic_control=traffic_control)
        link.deliver = lambda msg: None
        return sim, link

    def data(self, op=Op.RED_CAIS, nbytes=128):
        return Message(op, gpu_node(0), gpu_node(1), payload_bytes=nbytes)

    def test_per_class_queue_depth(self):
        sim, link = self.make_link()
        link.send(self.data(Op.RED_CAIS))
        link.send(self.data(Op.RED_CAIS))       # one serializing, one queued
        link.send(self.data(Op.LD_CAIS_RESP))
        assert len(link._queues[TrafficClass.REDUCTION.vc]) == 1
        assert len(link._queues[TrafficClass.LOAD.vc]) == 1
        assert link.queue_depth() == 2


class TestSlotOccupancy:
    def test_busy_integral_tracks_slot_usage(self):
        from repro.gpu.executor import Executor
        from repro.gpu.kernels import KernelInstance
        from repro.interconnect.network import Network
        sim = Simulator()
        cfg = dgx_h100_config(num_gpus=2)
        cfg = cfg.__class__(**{**cfg.__dict__,
                               "gpu": GpuSpec(num_sms=2)})
        net = Network(sim, cfg)
        ex = Executor(sim, cfg, net, jitter_enabled=False)
        # 4 slots; 4 TBs of 1000 ns => fully busy for 1000 ns.
        k = KernelInstance("k", grid=(4,), tb_pre_ns=1000.0)
        ex.launch_kernel(k)
        makespan = ex.run()
        for gpu in ex.gpus:
            assert gpu.utilization(makespan) == pytest.approx(1.0)

    def test_half_occupancy(self):
        from repro.gpu.executor import Executor
        from repro.gpu.kernels import KernelInstance
        from repro.interconnect.network import Network
        sim = Simulator()
        cfg = dgx_h100_config(num_gpus=2)
        cfg = cfg.__class__(**{**cfg.__dict__, "gpu": GpuSpec(num_sms=2)})
        net = Network(sim, cfg)
        ex = Executor(sim, cfg, net, jitter_enabled=False)
        k = KernelInstance("k", grid=(2,), tb_pre_ns=1000.0)  # 2 of 4 slots
        ex.launch_kernel(k)
        makespan = ex.run()
        assert ex.gpus[0].utilization(makespan) == pytest.approx(0.5)

    def test_zero_makespan(self):
        from repro.gpu.gpu import Gpu
        sim = Simulator()
        cfg = dgx_h100_config(num_gpus=2)
        net = __import__("repro.interconnect.network",
                         fromlist=["Network"]).Network(sim, cfg)
        gpu = Gpu(sim, 0, cfg.gpu, net)
        assert gpu.utilization(0.0) == 0.0
