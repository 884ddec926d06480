"""Property-based tests on the in-switch protocols (merge unit, ring)."""

from hypothesis import given, settings, strategies as st

from repro.common.config import dgx_h100_config
from repro.common.events import Simulator
from repro.cais.merge_unit import MergeUnit
from repro.collectives.ring import RingCollective
from repro.gpu.executor import Executor
from repro.interconnect.message import Address, Message, Op, gpu_node
from repro.interconnect.network import Network
from repro.metrics.merge_stats import MergeStats
from repro.nvls.engine import NvlsEngine


def _fabric(num_gpus, capacity, timeout):
    sim = Simulator()
    cfg = dgx_h100_config(num_gpus=num_gpus)
    cfg = cfg.__class__(**{**cfg.__dict__, "num_gpus": num_gpus,
                           "num_switches": 2})
    net = Network(sim, cfg)
    entry_bytes = cfg.switch.merge_entry_bytes
    stats = MergeStats(entry_bytes)
    units = []
    for sw in net.switches:
        unit = MergeUnit(stats, num_gpus, entry_bytes=entry_bytes,
                         capacity_entries=capacity,
                         timeout_ns=timeout)
        sw.attach_engine(unit)
        units.append(unit)
    return sim, net, stats, units


@given(
    num_addrs=st.integers(min_value=1, max_value=12),
    capacity=st.sampled_from([1, 4, 8, 64, None]),
    chunk=st.sampled_from([128, 1024, 8192]),
    seed=st.integers(min_value=0, max_value=2**16),
)
@settings(max_examples=30, deadline=None)
def test_reduction_contributions_are_conserved(num_addrs, capacity, chunk,
                                               seed):
    """No contribution is ever lost or duplicated: for every address the
    home GPU receives exactly the contributions that were sent, whatever
    the table capacity, eviction pressure, chunk size or arrival order."""
    import numpy as np
    rng = np.random.default_rng(seed)
    num_gpus = 4
    sim, net, stats, units = _fabric(num_gpus, capacity, timeout=30_000.0)
    received = {}

    def recv(msg, g):
        if msg.op is Op.STORE and msg.meta.get("reduced"):
            key = msg.address
            received[key] = received.get(key, 0) + msg.meta["contributions"]

    for g in range(num_gpus):
        net.register_gpu(g, lambda m, g=g: recv(m, g))

    addrs = [Address(int(rng.integers(0, num_gpus)), i * 65536)
             for i in range(num_addrs)]
    sent = 0
    for addr in addrs:
        for g in range(num_gpus):
            if g == addr.home_gpu:
                continue
            t = float(rng.uniform(0, 100_000))
            msg = Message(Op.RED_CAIS, gpu_node(g),
                          gpu_node(addr.home_gpu), payload_bytes=chunk,
                          address=addr, meta={"expected": num_gpus - 1})
            sim.schedule(t, net.send_from_gpu, g, msg)
            sent += 1
    sim.run()
    assert sum(received.get(a, 0) for a in addrs) == sent
    for a in addrs:
        assert received.get(a, 0) == num_gpus - 1
    # Tables drain completely and occupancy accounting returns to zero.
    for unit in units:
        assert unit.open_sessions() == 0
    trace = stats.occupancy_trace()
    if trace:                       # empty when everything bypassed
        assert trace[-1][1] == 0


@given(
    shards_value=st.lists(st.floats(min_value=-4, max_value=4,
                                    allow_nan=False),
                          min_size=4, max_size=4),
    nbytes_kb=st.sampled_from([64, 256, 1024]),
    chunk_kb=st.sampled_from([16, 64, 256]),
)
@settings(max_examples=25, deadline=None)
def test_ring_allreduce_is_a_true_sum(shards_value, nbytes_kb, chunk_kb):
    """Functional payloads through the full ring AllReduce: every GPU's
    every chunk ends up holding the sum of all GPUs' contributions."""
    sim = Simulator()
    cfg = dgx_h100_config(num_gpus=4)
    net = Network(sim, cfg)
    ex = Executor(sim, cfg, net, jitter_enabled=False)
    ring = RingCollective(net, ex.gpus, chunk_bytes=chunk_kb * 1024)
    # Capture the payloads of the AllGather hops (the circulated result).
    payloads = []
    original = ring._on_chunk

    def spy(gpu, msg):
        if msg.meta["phase"] == "ag":
            payloads.append(msg.payload)
        original(gpu, msg)

    ring._on_chunk = spy
    done = []
    ring.all_reduce(
        nbytes_kb * 1024,
        on_complete=lambda: done.append(True),
        local_values=lambda gpu, shard, chunk: shards_value[gpu])
    sim.run()
    assert done == [True]
    expected = sum(shards_value)
    assert payloads
    for value in payloads:
        assert abs(value - expected) < 1e-9


@given(seed=st.integers(min_value=0, max_value=2**16),
       chunk_kb=st.sampled_from([32, 128]))
@settings(max_examples=15, deadline=None)
def test_nvls_pull_reduce_sums_match(seed, chunk_kb):
    """multimem.ld_reduce returns exactly the sum of member contributions,
    for random member values, across planes."""
    import numpy as np
    rng = np.random.default_rng(seed)
    num_gpus = 4
    sim = Simulator()
    cfg = dgx_h100_config(num_gpus=num_gpus)
    net = Network(sim, cfg)
    for sw in net.switches:
        sw.attach_engine(NvlsEngine())
    values = {g: float(rng.normal()) for g in range(num_gpus)}
    responses = []

    def make_receiver(g):
        def receive(msg):
            if msg.op is Op.MULTIMEM_LD_REDUCE_GATHER:
                resp = Message(
                    op=Op.MULTIMEM_LD_REDUCE_RESP, src=gpu_node(g),
                    dst=gpu_node(msg.meta["requester"]),
                    payload_bytes=msg.meta["chunk_bytes"],
                    address=msg.address, payload=values[g],
                    meta={"nvls_pull": True,
                          "requester": msg.meta["requester"],
                          "chunk_bytes": msg.meta["chunk_bytes"]})
                net.send_from_gpu(g, resp)
            elif msg.op is Op.MULTIMEM_LD_REDUCE_RESP:
                responses.append(msg.payload)
        return receive

    for g in range(num_gpus):
        net.register_gpu(g, make_receiver(g))
    members = [1, 2, 3]
    req = Message(Op.MULTIMEM_LD_REDUCE_REQ, gpu_node(0), gpu_node(0),
                  address=Address(0, 0),
                  meta={"members": members, "chunk_bytes": chunk_kb * 1024})
    net.send_from_gpu(0, req)
    sim.run()
    assert len(responses) == 1
    assert abs(responses[0] - sum(values[m] for m in members)) < 1e-9
