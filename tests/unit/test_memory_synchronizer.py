"""Unit tests for the memory controller and GPU-side synchronizer."""

import pytest

from repro.cais.coordination import GroupSyncTable, SyncPhase
from repro.common.config import GpuSpec, dgx_h100_config
from repro.common.errors import ProtocolError
from repro.common.events import Simulator
from repro.gpu.memory import MemoryController
from repro.gpu.synchronizer import Synchronizer
from repro.interconnect.message import Address, Message, Op, gpu_node
from repro.interconnect.network import Network


def deliver(part, msg):
    """Hand ``msg`` to its handler by the route table ``Gpu.receive``
    binds (a missing route raises ``KeyError``)."""
    type(part).ROUTES[msg.op](part, msg)


def make_mc(local_value_fn=None):
    sim = Simulator()
    sent = []
    mc = MemoryController(sim, gpu_index=0, spec=GpuSpec(),
                          send=sent.append, local_value_fn=local_value_fn)
    return sim, mc, sent


class TestChunkCache:
    def test_miss_issues_single_fetch(self):
        sim, mc, sent = make_mc()
        got = []
        addr = Address(1, 0)
        assert mc.fetch_remote(addr, 1024, True, 7, got.append) is True
        assert mc.fetch_remote(addr, 1024, True, 7, got.append) is False
        assert len(sent) == 1
        assert sent[0].op is Op.LD_CAIS_REQ
        assert mc.remote_fetches == 1

    def test_waiters_fire_on_fill(self):
        sim, mc, sent = make_mc()
        got = []
        addr = Address(1, 0)
        mc.fetch_remote(addr, 1024, True, 7, got.append)
        mc.fetch_remote(addr, 1024, True, 7, got.append)
        resp = Message(Op.LD_CAIS_RESP, gpu_node(1), gpu_node(0),
                       address=addr, payload=3.5, payload_bytes=1024)
        deliver(mc, resp)
        assert got == [3.5, 3.5]

    def test_hit_after_fill_is_immediate(self):
        sim, mc, sent = make_mc()
        addr = Address(1, 0)
        mc.fetch_remote(addr, 64, True, 7, lambda v: None)
        deliver(mc, Message(Op.LD_CAIS_RESP, gpu_node(1), gpu_node(0),
                            address=addr, payload=1.0))
        got = []
        mc.fetch_remote(addr, 64, True, 7, got.append)
        assert got == [1.0]
        assert mc.cache_hits == 1

    def test_would_fetch(self):
        sim, mc, sent = make_mc()
        addr = Address(1, 0)
        assert mc.would_fetch(addr)
        mc.fetch_remote(addr, 64, True, 7, lambda v: None)
        assert not mc.would_fetch(addr)

    def test_unmergeable_fetch_is_direct(self):
        sim, mc, sent = make_mc()
        mc.fetch_remote(Address(1, 0), 64, False, 1, lambda v: None)
        assert sent[0].op is Op.LOAD_REQ
        assert sent[0].meta["direct"]

    def test_unexpected_fill_raises(self):
        sim, mc, sent = make_mc()
        with pytest.raises(ProtocolError):
            deliver(mc, Message(Op.LD_CAIS_RESP, gpu_node(1), gpu_node(0),
                                address=Address(1, 0)))

    def test_invalidate_keeps_pending_lines(self):
        sim, mc, sent = make_mc()
        ready, pending = Address(1, 0), Address(1, 64)
        mc.fetch_remote(ready, 64, True, 7, lambda v: None)
        deliver(mc, Message(Op.LD_CAIS_RESP, gpu_node(1), gpu_node(0),
                            address=ready))
        mc.fetch_remote(pending, 64, True, 7, lambda v: None)
        mc.invalidate_cache()
        assert mc.would_fetch(ready)        # dropped
        assert not mc.would_fetch(pending)  # still in flight


class TestReductionSink:
    def test_expected_then_contributions(self):
        sim, mc, sent = make_mc()
        addr = Address(0, 0)
        got = []
        mc.expect_reduction(addr, 3, got.append)
        mc.add_local_contribution(addr, 1.0)
        deliver(mc, Message(Op.STORE, gpu_node(1), gpu_node(0), address=addr,
                            payload=2.0,
                            meta={"reduced": True, "contributions": 2}))
        assert got == [3.0]

    def test_contributions_before_registration(self):
        sim, mc, sent = make_mc()
        addr = Address(0, 0)
        mc.add_local_contribution(addr, 5.0)
        got = []
        mc.expect_reduction(addr, 1, got.append)
        assert got == [5.0]

    def test_expected_mismatch_raises(self):
        sim, mc, sent = make_mc()
        addr = Address(0, 0)
        mc.expect_reduction(addr, 3, lambda v: None)
        with pytest.raises(ProtocolError):
            mc.expect_reduction(addr, 4, lambda v: None)

    def test_reduction_value_inspection(self):
        sim, mc, sent = make_mc()
        addr = Address(0, 0)
        mc.add_local_contribution(addr, 2.0)
        assert mc.reduction_value(addr) == 2.0
        assert mc.reduction_value(Address(0, 64)) is None


class TestFillService:
    def test_merge_fill_served_after_hbm_latency(self):
        sim, mc, sent = make_mc(local_value_fn=lambda a: 9.0)
        req = Message(Op.LOAD_REQ, ("sw", 0), gpu_node(0),
                      address=Address(0, 0),
                      meta={"merge_fill": True, "chunk_bytes": 512})
        deliver(mc, req)
        assert not sent
        sim.run()
        assert sim.now == pytest.approx(GpuSpec().hbm_latency_ns)
        assert sent[0].op is Op.LD_CAIS_RESP
        assert sent[0].payload == 9.0
        assert sent[0].meta["merge_fill"]

    def test_direct_fill_targets_requester(self):
        sim, mc, sent = make_mc()
        req = Message(Op.LOAD_REQ, ("sw", 0), gpu_node(0),
                      address=Address(0, 0),
                      meta={"direct": True, "requester": 5,
                            "chunk_bytes": 128})
        deliver(mc, req)
        sim.run()
        assert sent[0].op is Op.LOAD_RESP
        assert sent[0].dst == gpu_node(5)

    def test_gather_service(self):
        sim, mc, sent = make_mc(local_value_fn=lambda a: 4.0)
        req = Message(Op.MULTIMEM_LD_REDUCE_GATHER, ("sw", 0), gpu_node(0),
                      address=Address(0, 0),
                      meta={"requester": 2, "chunk_bytes": 256})
        deliver(mc, req)
        sim.run()
        assert sent[0].op is Op.MULTIMEM_LD_REDUCE_RESP
        assert sent[0].meta["nvls_pull"]
        assert sent[0].payload == 4.0


class TestStoreSink:
    def test_callback_after_store(self):
        sim, mc, sent = make_mc()
        addr = Address(0, 0)
        got = []
        mc.on_chunk_stored(addr, got.append)
        deliver(mc, Message(Op.STORE, gpu_node(1), gpu_node(0), address=addr,
                            payload="x"))
        assert got == ["x"]

    def test_callback_when_already_stored(self):
        sim, mc, sent = make_mc()
        addr = Address(0, 0)
        deliver(mc, Message(Op.STORE, gpu_node(1), gpu_node(0), address=addr))
        got = []
        mc.on_chunk_stored(addr, got.append)
        assert got == [None]


class TestSynchronizer:
    def make(self, num_gpus=4):
        sim = Simulator()
        cfg = dgx_h100_config(num_gpus=num_gpus)
        net = Network(sim, cfg)
        table = GroupSyncTable(release_timeout_ns=None)
        for sw in net.switches:
            sw.attach_engine(table)
        syncs = [Synchronizer(net, g) for g in range(num_gpus)]
        for g, sync in enumerate(syncs):
            net.register_gpu(g, lambda m, s=sync: deliver(s, m))
        return sim, syncs

    def test_release_fires_all_waiters(self):
        sim, syncs = self.make()
        fired = []
        for g, sync in enumerate(syncs):
            sync.request_sync(5, SyncPhase.ACCESS, 4,
                              lambda g=g: fired.append(g))
        sim.run()
        assert sorted(fired) == [0, 1, 2, 3]

    def test_duplicate_waiters_share_one_request(self):
        sim, syncs = self.make()
        fired = []
        syncs[0].request_sync(7, SyncPhase.LAUNCH, 4, lambda: fired.append(1))
        syncs[0].request_sync(7, SyncPhase.LAUNCH, 4, lambda: fired.append(2))
        assert syncs[0].syncs_requested == 1
        for sync in syncs[1:]:
            sync.request_sync(7, SyncPhase.LAUNCH, 4, lambda: None)
        sim.run()
        assert sorted(fired) == [1, 2]
