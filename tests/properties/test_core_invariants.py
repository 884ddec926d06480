"""Property-based tests (hypothesis) on core data structures."""

from hypothesis import given, settings, strategies as st

from repro.common.events import Simulator
from repro.interconnect.message import Address
from repro.interconnect.routing import plane_for_address
from repro.llm.tiling import ActivationLayout
from repro.metrics.bandwidth import BandwidthTracker
from repro.cais.compiler import (
    BinOp, BlockIdx, Const, Env, GpuId, Param)


# ---------------------------------------------------------------------------
# Event engine
# ---------------------------------------------------------------------------

@given(st.lists(st.floats(min_value=0.0, max_value=1e6,
                          allow_nan=False), min_size=1, max_size=50))
def test_events_fire_in_nondecreasing_time_order(delays):
    sim = Simulator()
    fired = []
    for d in delays:
        sim.schedule(d, lambda d=d: fired.append(sim.now))
    sim.run()
    assert fired == sorted(fired)
    assert len(fired) == len(delays)
    assert sim.now == max(delays)


@given(st.lists(st.tuples(st.floats(min_value=0, max_value=1000,
                                    allow_nan=False),
                          st.booleans(), st.booleans()),
                min_size=1, max_size=40))
def test_cancelled_events_never_fire(entries):
    """Plain events and timers mixed; only timers can be cancelled, and
    every cancelled one stays silent."""
    sim = Simulator()
    fired = []
    timers = []
    for delay, cancel, timer in entries:
        if cancel or timer:
            timers.append((sim.timer(delay, fired.append, delay), cancel))
        else:
            sim.schedule(delay, fired.append, delay)
    for ev, cancel in timers:
        if cancel:
            ev.cancel()
    sim.run()
    expected = sorted(d for (d, c, _) in entries if not c)
    assert sorted(fired) == expected
    assert sim.cancelled_pending() == 0


# ---------------------------------------------------------------------------
# Bandwidth tracker
# ---------------------------------------------------------------------------

@given(st.lists(st.tuples(st.floats(min_value=0, max_value=100,
                                    allow_nan=False),
                          st.floats(min_value=0, max_value=50,
                                    allow_nan=False)),
                min_size=1, max_size=40))
def test_tracker_busy_time_bounded_by_span(jumps):
    t = BandwidthTracker()
    now = 0.0
    for gap, width in jumps:
        start = now + gap
        t.record(start, start + width, int(width) + 1)
        now = start
    span_start = t.first_activity()
    span_end = t.last_activity()
    busy = t.busy_time()
    assert busy <= span_end - span_start + 1e-6
    if span_end > span_start:
        assert 0.0 <= t.utilization(span_start, span_end) <= 1.0 + 1e-9
    # Merged intervals are disjoint and ordered.
    intervals = t.intervals
    for (a0, a1), (b0, b1) in zip(intervals, intervals[1:]):
        assert a1 < b0
        assert a0 <= a1


# ---------------------------------------------------------------------------
# Routing
# ---------------------------------------------------------------------------

@given(st.integers(min_value=0, max_value=31),
       st.integers(min_value=0, max_value=1 << 48),
       st.integers(min_value=1, max_value=8))
def test_routing_deterministic_and_in_range(home, offset, planes):
    addr = Address(home, offset)
    plane = plane_for_address(addr, planes)
    assert 0 <= plane < planes
    assert plane == plane_for_address(Address(home, offset), planes)


@given(st.integers(min_value=0, max_value=7),
       st.sampled_from([8192, 16384, 32768, 65536, 131072, 1 << 20]),
       st.integers(min_value=64, max_value=256))
def test_routing_balances_power_of_two_strides(home, stride, count):
    """Chunk streams with power-of-two strides spread across planes."""
    planes = 4
    counts = [0] * planes
    for i in range(count):
        counts[plane_for_address(Address(home, i * stride), planes)] += 1
    assert min(counts) >= count / planes * 0.5
    assert max(counts) <= count / planes * 1.6


# ---------------------------------------------------------------------------
# Activation layout
# ---------------------------------------------------------------------------

@given(st.integers(min_value=1, max_value=32).flatmap(
    lambda tp: st.tuples(
        st.just(tp),
        st.integers(min_value=tp, max_value=tp * 40),   # blocks
        st.sampled_from([32, 64, 128]))))
def test_layout_partition_is_exact(params):
    tp, blocks, row_block = params
    layout = ActivationLayout(tensor_id=1, rows=blocks * row_block,
                              row_bytes=64, tp=tp, row_block=row_block)
    # shard_start/shard_blocks tile the block range exactly...
    total = 0
    cursor = 0
    for g in range(tp):
        assert layout.shard_start(g) == cursor
        cursor += layout.shard_blocks(g)
        total += layout.shard_blocks(g)
    assert total == layout.num_blocks
    # ...and home_of_block is the inverse mapping.
    for mb in range(layout.num_blocks):
        home = layout.home_of_block(mb)
        assert layout.shard_start(home) <= mb < \
            layout.shard_start(home) + layout.shard_blocks(home)
    # Shards are balanced to within one block.
    sizes = [layout.shard_blocks(g) for g in range(tp)]
    assert max(sizes) - min(sizes) <= 1


# ---------------------------------------------------------------------------
# Compiler address expressions
# ---------------------------------------------------------------------------

def exprs(depth=3):
    leaf = st.one_of(
        st.integers(min_value=0, max_value=64).map(Const),
        st.integers(min_value=0, max_value=1).map(BlockIdx),
        st.just(GpuId()),
    )
    return st.recursive(
        leaf,
        lambda children: st.tuples(
            st.sampled_from(["+", "*"]), children, children
        ).map(lambda t: BinOp(*t)),
        max_leaves=8)


@given(exprs(), st.tuples(st.integers(0, 7), st.integers(0, 7)),
       st.integers(0, 7), st.integers(0, 7))
@settings(max_examples=80)
def test_gpu_invariant_expressions_evaluate_identically(expr, bidx, g1, g2):
    """The compiler's mergeability rule: an expression that does not
    reference gpuId evaluates identically on every GPU."""
    e1 = expr.evaluate(Env(block_idx=bidx, gpu_id=g1))
    e2 = expr.evaluate(Env(block_idx=bidx, gpu_id=g2))
    if not expr.references_gpu_id():
        assert e1 == e2


@given(exprs(), st.tuples(st.integers(0, 7), st.integers(0, 7)),
       st.tuples(st.integers(0, 7), st.integers(0, 7)))
@settings(max_examples=80)
def test_referenced_dims_cover_variation(expr, b1, b2):
    """Blocks agreeing on all referenced dims evaluate identically
    (they belong to the same TB group)."""
    dims = expr.referenced_block_dims()
    agree = all(b1[d] == b2[d] for d in dims)
    if agree and not expr.references_gpu_id():
        assert (expr.evaluate(Env(block_idx=b1)) ==
                expr.evaluate(Env(block_idx=b2)))
