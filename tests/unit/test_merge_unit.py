"""Unit tests for the CAIS merge unit state machine."""

from dataclasses import replace

import pytest

from repro.common.config import dgx_h100_config
from repro.common.events import Simulator
from repro.experiments.parallel import RunSummary
from repro.experiments.runner import QUICK, run_system, sublayer_for
from repro.gpu.kernels import KernelInstance
from repro.gpu.remote_ops import RemoteOp, RemoteOpKind, Transport
from repro.interconnect.message import Address, Message, Op, gpu_node
from repro.interconnect.network import Network
from repro.cais.merge_unit import MergeUnit, entries_for
from repro.llm.models import TABLE_I
from repro.metrics.merge_stats import MergeStats
from repro.systems.base import Harness


class Fabric:
    """Fabric with merge units and scripted GPU memory endpoints."""

    def __init__(self, num_gpus=4, capacity=320, timeout_ns=None):
        self.sim = Simulator()
        cfg = dgx_h100_config(num_gpus=num_gpus)
        cfg = cfg.__class__(**{**cfg.__dict__, "num_gpus": num_gpus,
                               "num_switches": 1})
        self.net = Network(self.sim, cfg)
        entry_bytes = cfg.switch.merge_entry_bytes
        self.stats = MergeStats(entry_bytes)
        self.units = []
        for sw in self.net.switches:
            unit = MergeUnit(self.stats, num_gpus, entry_bytes=entry_bytes,
                             capacity_entries=capacity,
                             timeout_ns=timeout_ns)
            sw.attach_engine(unit)
            self.units.append(unit)
        self.unit = self.units[0]
        # Scripted memory: local value = gpu index + 1 for loads; stores
        # accumulate per address.
        self.local = {g: float(g + 1) for g in range(num_gpus)}
        self.stores = {g: [] for g in range(num_gpus)}
        self.load_responses = {g: [] for g in range(num_gpus)}
        for g in range(num_gpus):
            self.net.register_gpu(g, self._make_receiver(g))

    def _make_receiver(self, g):
        def receive(msg):
            if msg.op is Op.LOAD_REQ and msg.meta.get("merge_fill"):
                resp = Message(op=Op.LD_CAIS_RESP, src=gpu_node(g),
                               dst=gpu_node(g), address=msg.address,
                               payload_bytes=msg.meta["chunk_bytes"],
                               payload=self.local[g],
                               meta={"merge_fill": True})
                self.net.send_from_gpu(g, resp)
            elif msg.op is Op.LOAD_REQ and msg.meta.get("direct"):
                resp = Message(op=Op.LOAD_RESP, src=gpu_node(g),
                               dst=gpu_node(msg.meta["requester"]),
                               address=msg.address,
                               payload_bytes=msg.meta["chunk_bytes"],
                               payload=self.local[g], meta={"direct": True})
                self.net.send_from_gpu(g, resp)
            elif msg.op in (Op.LD_CAIS_RESP, Op.LOAD_RESP):
                self.load_responses[g].append(msg)
            elif msg.op is Op.STORE:
                self.stores[g].append(msg)
        return receive

    def load(self, requester, addr, chunk=1024, expected=None, delay=0.0):
        expected = expected if expected is not None else 3
        msg = Message(Op.LD_CAIS_REQ, gpu_node(requester),
                      gpu_node(addr.home_gpu), address=addr,
                      meta={"chunk_bytes": chunk, "expected": expected})
        self.sim.schedule(delay, self.net.send_from_gpu, requester, msg)

    def reduce(self, contributor, addr, value, chunk=1024, expected=None,
               delay=0.0):
        expected = expected if expected is not None else 3
        msg = Message(Op.RED_CAIS, gpu_node(contributor),
                      gpu_node(addr.home_gpu), address=addr,
                      payload_bytes=chunk, payload=value,
                      meta={"expected": expected})
        self.sim.schedule(delay, self.net.send_from_gpu, contributor, msg)


def test_entries_for_rounds_up():
    assert entries_for(1, 128) == 1
    assert entries_for(128, 128) == 1
    assert entries_for(129, 128) == 2
    assert entries_for(0, 128) == 1


class TestLoadMerging:
    def test_all_requesters_get_the_data_with_one_fetch(self):
        f = Fabric()
        addr = Address(3, 0)
        for g in (0, 1, 2):
            f.load(g, addr)
        f.sim.run()
        for g in (0, 1, 2):
            assert len(f.load_responses[g]) == 1
            assert f.load_responses[g][0].payload == pytest.approx(4.0)
        # Home GPU served exactly one fill, not three.
        plane = 0
        up_home = f.net.up_links[(3, plane)].tracker
        chunk_wire = 1024 + 8 * 16
        assert up_home.bytes_transferred == chunk_wire
        assert f.stats.sessions_completed == 1
        assert f.stats.requests_started == 1
        assert f.stats.requests_merged == 2
        assert f.unit.open_sessions() == 0

    def test_late_request_served_from_cache(self):
        f = Fabric()
        addr = Address(2, 4096)
        f.load(0, addr, expected=3)
        f.load(1, addr, expected=3, delay=100.0)
        # Third requester arrives long after the data is cached.
        f.load(3, addr, expected=3, delay=20_000.0)
        f.sim.run()
        for g in (0, 1, 3):
            assert len(f.load_responses[g]) == 1
        assert f.stats.sessions_completed == 1
        assert f.unit.open_sessions() == 0

    def test_capacity_accounting_returns_to_zero(self):
        f = Fabric()
        addr = Address(1, 0)
        for g in (0, 2, 3):
            f.load(g, addr, chunk=4096)
        f.sim.run()
        assert f.unit.used_entries(1) == 0

    def test_bypass_when_table_full_of_load_waits(self):
        # Capacity 1 entry: the first load occupies it in Load-Wait (not
        # evictable), so a second load to a different address must bypass.
        f = Fabric(capacity=1)
        f.load(0, Address(3, 0), expected=1)
        f.load(1, Address(3, 8192), expected=1, delay=1.0)
        f.sim.run()
        assert f.stats.bypasses >= 1
        assert len(f.load_responses[0]) == 1
        assert len(f.load_responses[1]) == 1   # served via direct path
        assert f.load_responses[1][0].meta.get("direct")

    def test_session_wait_records_request_spread(self):
        f = Fabric()
        addr = Address(2, 0)
        f.load(0, addr, delay=0.0)
        f.load(1, addr, delay=5_000.0)
        f.load(3, addr, delay=9_000.0)
        f.sim.run()
        assert f.stats.average_wait_ns() == pytest.approx(9_000.0, rel=0.1)


class TestReductionMerging:
    def test_reduction_sums_and_writes_home_once(self):
        f = Fabric()
        addr = Address(2, 0)
        for g, v in ((0, 1.5), (1, 2.5), (3, 4.0)):
            f.reduce(g, addr, v)
        f.sim.run()
        assert len(f.stores[2]) == 1
        result = f.stores[2][0]
        assert result.payload == pytest.approx(8.0)
        assert result.meta["contributions"] == 3
        assert not result.meta["partial"]
        assert f.stats.sessions_completed == 1

    def test_downstream_traffic_collapses_to_one_chunk(self):
        f = Fabric()
        addr = Address(2, 0)
        chunk = 8192
        for g in (0, 1, 3):
            f.reduce(g, addr, None, chunk=chunk)
        f.sim.run()
        wire = chunk + (chunk // 128) * 16
        down = f.net.down_links[(2, 0)].tracker
        assert down.bytes_transferred == wire

    def test_lru_eviction_emits_partial_sum(self):
        # Capacity for one 1024 B session (8 entries); a second address
        # forces the first session out as a partial reduction.
        f = Fabric(capacity=8)
        a0, a1 = Address(2, 0), Address(2, 4096)
        f.reduce(0, a0, 1.0, expected=3)
        f.reduce(1, a0, 2.0, expected=3, delay=10.0)
        f.reduce(0, a1, 10.0, expected=3, delay=2_000.0)
        f.reduce(1, a1, 20.0, expected=3, delay=2_010.0)
        f.reduce(3, a1, 30.0, expected=3, delay=2_020.0)
        # The re-issued straggler opens a fresh single-contribution session.
        f.reduce(3, a0, 4.0, expected=1, delay=4_000.0)
        f.sim.run()
        # Home GPU 2 receives: partial (1+2), full (60), re-issued (4).
        payloads = sorted(m.payload for m in f.stores[2])
        assert payloads == [pytest.approx(3.0), pytest.approx(4.0),
                            pytest.approx(60.0)]
        contributions = sum(m.meta["contributions"] for m in f.stores[2])
        assert contributions == 6
        assert f.stats.lru_evictions >= 1
        assert f.stats.partial_reductions_emitted >= 1

    def test_timeout_evicts_stalled_reduction(self):
        f = Fabric(timeout_ns=5_000.0)
        addr = Address(1, 0)
        f.reduce(0, addr, 2.0, expected=3)   # peers never arrive
        f.sim.run()
        assert len(f.stores[1]) == 1
        assert f.stores[1][0].meta["partial"]
        assert f.stats.timeout_evictions == 1
        assert f.unit.open_sessions() == 0

    def test_timeout_not_fired_while_active(self):
        f = Fabric(timeout_ns=5_000.0)
        addr = Address(1, 0)
        f.reduce(0, addr, 1.0, expected=3, delay=0.0)
        f.reduce(2, addr, 1.0, expected=3, delay=4_000.0)
        f.reduce(3, addr, 1.0, expected=3, delay=8_000.0)
        f.sim.run()
        assert len(f.stores[1]) == 1
        assert not f.stores[1][0].meta["partial"]
        assert f.stats.timeout_evictions == 0


class TestTimeoutTimer:
    """A session keeps one queued timeout timer; touches only reserve the
    sequence number a re-armed timer would take."""

    def test_timer_fires_where_a_rearm_at_the_last_touch_would(self):
        f = Fabric(timeout_ns=5_000.0)
        unit, sim = f.unit, f.sim
        addr = Address(1, 0)
        log = []
        touches = []
        timer_schedules = []
        touch, evict = unit._touch, unit._evict
        timer, timer_at = sim.timer, sim.timer_at

        def counting_timer(delay, callback, *args):
            if callback == unit._on_timeout:
                timer_schedules.append(sim.now)
            return timer(delay, callback, *args)

        def counting_timer_at(time, callback, *args, **kwargs):
            if callback == unit._on_timeout:
                timer_schedules.append(sim.now)
            return timer_at(time, callback, *args, **kwargs)

        def logged_touch(switch, entry):
            touches.append(sim.now)
            if entry.count == 2:
                # Same-instant markers either side of the re-arm point.
                due = sim.now + unit.timeout_ns
                sim.schedule_at(due, log.append, "before")
                touch(switch, entry)
                sim.schedule_at(due, log.append, "after")
            else:
                touch(switch, entry)

        def logged_evict(switch, entry, reason):
            log.append(("evict", reason, sim.now))
            evict(switch, entry, reason)

        sim.timer = counting_timer
        sim.timer_at = counting_timer_at
        unit._touch = logged_touch
        unit._evict = logged_evict
        f.reduce(0, addr, 1.0, expected=3)
        f.reduce(2, addr, 1.0, expected=3, delay=4_000.0)   # third never
        sim.run()
        first, second = touches
        assert log == ["before", ("evict", "timeout", second + 5_000.0),
                       "after"]
        # Armed by the first contribution and re-queued by its early
        # fire; the second contribution scheduled no timer.
        assert timer_schedules == [first, first + 5_000.0]
        assert sim.cancelled_pending() == 0

    def test_release_drops_the_timer(self):
        f = Fabric(timeout_ns=50_000.0)
        addr = Address(2, 0)
        entries = []
        allocate = f.unit._allocate

        def remember(*args, **kwargs):
            entry = allocate(*args, **kwargs)
            entries.append(entry)
            return entry

        f.unit._allocate = remember
        for g in (0, 1, 3):
            f.reduce(g, addr, 1.0)
        f.sim.run()
        assert f.stats.sessions_completed == 1
        assert [e.timeout_event for e in entries] == [None]
        assert f.sim.cancelled_pending() == 0

    def test_load_wait_timeout_rearms_on_the_fill(self):
        """A timer that fires during Load-Wait queues nothing; the fill's
        touch arms a fresh timer, which the release then cancels."""
        f = Fabric(timeout_ns=10.0)
        addr = Address(3, 0)
        f.load(0, addr, expected=3)
        f.sim.run()
        assert len(f.load_responses[0]) == 1
        assert f.unit.open_sessions() == 0
        assert f.sim.cancelled_pending() == 0


class TestOccupancy:
    def test_peak_occupancy_tracks_concurrent_sessions(self):
        f = Fabric(capacity=None)
        # Two concurrent 1024 B reductions at the same home = 16 entries.
        f.reduce(0, Address(2, 0), None, expected=3)
        f.reduce(0, Address(2, 4096), None, expected=3, delay=1.0)
        f.reduce(1, Address(2, 0), None, expected=3, delay=30_000.0)
        f.reduce(3, Address(2, 0), None, expected=3, delay=30_001.0)
        f.reduce(1, Address(2, 4096), None, expected=3, delay=30_002.0)
        f.reduce(3, Address(2, 4096), None, expected=3, delay=30_003.0)
        f.sim.run()
        assert f.stats.peak_entries_per_port() == 16
        assert f.stats.peak_bytes_per_port() == 2048
        assert f.unit.used_entries(2) == 0

    def test_spec_entry_size_charges_sessions_and_reports_peak_bytes(self):
        """``SwitchSpec.merge_entry_bytes`` is the one entry size: the
        harness's merge units charge by it, and the run summary's peak
        bytes convert entries by it."""
        cfg = dgx_h100_config(num_gpus=4)
        cfg = replace(cfg, num_switches=1,
                      switch=replace(cfg.switch, merge_entry_bytes=64))
        harness = Harness(cfg, merge=True, jitter=False)
        units = [e for sw in harness.network.switches for e in sw.engines
                 if isinstance(e, MergeUnit)]
        assert [u.entry_bytes for u in units] == [64]
        reduce = RemoteOp(RemoteOpKind.REDUCE, Address(3, 0), 4096,
                          transport=Transport.CAIS, expected=3)
        harness.executor.launch_kernel(KernelInstance(
            "rs", grid=(1,), tb_pre_ns=10.0,
            remote_reduces=lambda gpu, bidx: [reduce]))
        harness.executor.run()
        stats = harness.merge_stats
        summary = RunSummary.from_result(harness.result("CAIS"))
        assert stats.sessions_completed == 1
        assert stats.peak_entries_per_port() == 4096 // 64
        assert summary.merge_peak_bytes_per_port == \
            stats.peak_entries_per_port() * 64


class TestCachedLoadOccupancy:
    """A cached load's content array is charged to the stats and to its
    session when the fill lands, but never added to the port's live
    count, which its release then subtracts in full: the count goes
    negative and the table limit is not enforced for cached loads
    (ROADMAP item 4).  Fixing it must remove both marks."""

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="cached-load growth is not added to the "
                              "port's live entry count")
    def test_cached_load_returns_the_port_count_to_zero(self):
        f = Fabric()
        addr = Address(1, 0)
        f.load(0, addr, chunk=4096)
        f.load(2, addr, chunk=4096, delay=50_000.0)
        f.load(3, addr, chunk=4096, delay=60_000.0)
        f.sim.run()
        assert f.stats.sessions_completed == 1
        assert f.unit.open_sessions() == 0
        assert f.unit.used_entries(1) == 0

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="cached loads grow past the merge-table "
                              "limit")
    def test_cais_run_keeps_live_entries_within_capacity(self):
        config = dgx_h100_config(seed=1)
        model = QUICK.apply(TABLE_I["Mega-GPT-4B"]).scaled(0.25)
        graph = sublayer_for(model, config.num_gpus, "CAIS", "L1")
        result = run_system("CAIS", [graph], config, QUICK)
        assert result.merge_stats.sessions_completed > 0
        assert (result.merge_stats.peak_entries_per_port()
                <= config.switch.merge_table_entries)
