"""Unit tests for TB-group synchronization."""

import pytest

from repro.cais.coordination import GroupSyncTable, SyncPhase, plane_for_group
from repro.common.config import dgx_h100_config
from repro.common.errors import ProtocolError
from repro.common.events import Simulator
from repro.interconnect.message import Message, Op, gpu_node
from repro.interconnect.network import Network


class Fabric:
    def __init__(self, num_gpus=4, release_timeout_ns=None):
        self.sim = Simulator()
        cfg = dgx_h100_config(num_gpus=num_gpus)
        cfg = cfg.__class__(**{**cfg.__dict__, "num_gpus": num_gpus,
                               "num_switches": 1})
        self.net = Network(self.sim, cfg)
        self.table = GroupSyncTable(release_timeout_ns=release_timeout_ns)
        self.net.switches[0].attach_engine(self.table)
        self.releases = {g: [] for g in range(num_gpus)}
        for g in range(num_gpus):
            self.net.register_gpu(
                g, lambda m, g=g: self.releases[g].append((self.sim.now, m)))

    def sync(self, gpu, group_id, phase=SyncPhase.LAUNCH, expected=4,
             delay=0.0):
        msg = Message(Op.SYNC_REQ, gpu_node(gpu), ("sw", 0),
                      group_id=group_id,
                      meta={"phase": phase, "expected": expected})
        self.sim.schedule(delay, self.net.send_from_gpu, gpu, msg)


class TestGroupSyncTable:
    def test_release_broadcast_when_all_arrive(self):
        f = Fabric()
        for g in range(4):
            f.sync(g, group_id=7, delay=float(g) * 100)
        f.sim.run()
        for g in range(4):
            assert len(f.releases[g]) == 1
            assert f.releases[g][0][1].op is Op.SYNC_RELEASE
        assert f.table.releases_broadcast == 1
        assert f.table.pending_groups() == 0

    def test_no_release_until_last_gpu(self):
        f = Fabric()
        for g in range(3):
            f.sync(g, group_id=1)
        f.sim.run()
        assert all(not r for r in f.releases.values())
        assert f.table.pending_groups() == 1

    def test_release_times_are_aligned(self):
        f = Fabric()
        for g in range(4):
            f.sync(g, group_id=2, delay=float(g) * 1000)
        f.sim.run()
        times = [f.releases[g][0][0] for g in range(4)]
        assert max(times) - min(times) < 1.0   # same broadcast instant

    def test_duplicate_request_from_same_gpu_counted_once(self):
        f = Fabric()
        f.sync(0, group_id=3)
        f.sync(0, group_id=3, delay=10.0)
        f.sync(1, group_id=3, delay=20.0)
        f.sim.run()
        assert f.table.pending_groups() == 1    # still waiting on 2 GPUs

    def test_phases_tracked_independently(self):
        f = Fabric()
        for g in range(4):
            f.sync(g, group_id=5, phase=SyncPhase.LAUNCH)
        for g in range(2):
            f.sync(g, group_id=5, phase=SyncPhase.ACCESS, delay=1.0)
        f.sim.run()
        # LAUNCH released, ACCESS still pending.
        assert f.table.releases_broadcast == 1
        assert f.table.pending_groups() == 1

    def test_expected_mismatch_raises(self):
        f = Fabric()
        f.sync(0, group_id=9, expected=4)
        f.sync(1, group_id=9, expected=3, delay=1.0)
        with pytest.raises(ProtocolError):
            f.sim.run()

    def test_missing_group_id_raises(self):
        f = Fabric()
        msg = Message(Op.SYNC_REQ, gpu_node(0), ("sw", 0),
                      meta={"phase": SyncPhase.LAUNCH, "expected": 4})
        f.net.send_from_gpu(0, msg)
        with pytest.raises(ProtocolError):
            f.sim.run()

    def test_sync_cost_is_one_round_trip(self):
        f = Fabric()
        for g in range(4):
            f.sync(g, group_id=11)
        f.sim.run()
        cfg = f.net.config
        # Empty packets: 2 * (latency + flit serialization) + hop latency.
        flit_ser = 16 / cfg.link.bandwidth_gbps
        expected = 2 * (cfg.link.latency_ns + flit_ser) + \
            cfg.switch.hop_latency_ns
        assert f.releases[0][0][0] == pytest.approx(expected, rel=0.01)


    def test_timeout_releases_stragglers(self):
        f = Fabric(release_timeout_ns=5_000.0)
        f.sync(0, group_id=21)
        f.sync(1, group_id=21, delay=10.0)
        f.sim.run()
        # Only the two registered GPUs get the (forced) release.
        assert len(f.releases[0]) == 1 and len(f.releases[1]) == 1
        assert not f.releases[2] and not f.releases[3]
        assert f.table.timeout_releases == 1
        assert f.table.pending_groups() == 0

class TestPlaneForGroup:
    def test_deterministic_and_in_range(self):
        for gid in range(100):
            p = plane_for_group(gid, 4)
            assert 0 <= p < 4
            assert p == plane_for_group(gid, 4)

    def test_invalid_planes(self):
        with pytest.raises(ValueError):
            plane_for_group(1, 0)
