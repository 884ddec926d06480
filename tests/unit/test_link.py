"""Unit tests for the NVLink model."""

import pytest

from repro.common.config import LinkSpec
from repro.common.errors import SimulationError
from repro.common.events import Simulator
from repro.interconnect.link import Link
from repro.interconnect.message import (
    Message, Op, TrafficClass, gpu_node, switch_node)


def make_link(sim, bandwidth=100.0, latency=250.0, traffic_control=False):
    spec = LinkSpec(bandwidth_gbps=bandwidth, latency_ns=latency)
    link = Link(sim, spec, "test", traffic_control=traffic_control)
    delivered = []
    link.deliver = lambda msg: delivered.append((sim.now, msg))
    return link, delivered


def data_msg(nbytes, op=Op.STORE):
    return Message(op, gpu_node(0), gpu_node(1), payload_bytes=nbytes)


def test_single_message_latency():
    sim = Simulator()
    link, delivered = make_link(sim, bandwidth=100.0, latency=250.0)
    # 1024 B payload -> 8 packets -> 1152 wire bytes -> 11.52 ns serialization.
    msg = data_msg(1024)
    link.send(msg)
    sim.run()
    assert len(delivered) == 1
    t, got = delivered[0]
    assert got is msg
    assert t == pytest.approx(1024 * 1.125 / 100.0 + 250.0)


def test_messages_serialize_back_to_back():
    sim = Simulator()
    link, delivered = make_link(sim, bandwidth=1.0, latency=0.0)
    link.send(data_msg(128))    # wire 144 B -> 144 ns
    link.send(data_msg(128))    # starts at 144, done 288
    sim.run()
    times = [t for t, _ in delivered]
    assert times[0] == pytest.approx(144.0)
    assert times[1] == pytest.approx(288.0)


def test_propagation_overlaps_next_serialization():
    sim = Simulator()
    link, delivered = make_link(sim, bandwidth=1.0, latency=1000.0)
    link.send(data_msg(128))
    link.send(data_msg(128))
    sim.run()
    times = [t for t, _ in delivered]
    # Without pipelining the second arrival would be at 2*(144+1000).
    assert times[0] == pytest.approx(1144.0)
    assert times[1] == pytest.approx(1288.0)


def test_unwired_link_rejects_send():
    sim = Simulator()
    link = Link(sim, LinkSpec(), "unwired")
    with pytest.raises(SimulationError):
        link.send(data_msg(1))


def test_fifo_head_of_line_blocking():
    """Without traffic control a large reduction blocks a tiny load request."""
    sim = Simulator()
    link, delivered = make_link(sim, bandwidth=1.0, latency=0.0)
    link.send(data_msg(128 * 100, op=Op.RED_CAIS))      # 14400 ns
    link.send(Message(Op.LD_CAIS_REQ, gpu_node(0), gpu_node(1)))
    sim.run()
    load_time = [t for t, m in delivered if m.op is Op.LD_CAIS_REQ][0]
    assert load_time > 14000.0


def test_virtual_channels_bypass_head_of_line_blocking():
    """With traffic control the load request does not wait out the burst."""
    sim = Simulator()
    link, delivered = make_link(sim, bandwidth=1.0, latency=0.0,
                                traffic_control=True)
    for _ in range(10):
        link.send(data_msg(128 * 10, op=Op.RED_CAIS))   # 1440 ns each
    link.send(Message(Op.LD_CAIS_REQ, gpu_node(0), gpu_node(1)))
    sim.run()
    load_time = [t for t, m in delivered if m.op is Op.LD_CAIS_REQ][0]
    # Served right after the in-flight chunk, not after all ten.
    assert load_time < 3000.0


def test_round_robin_interleaves_classes():
    sim = Simulator()
    link, delivered = make_link(sim, bandwidth=1.0, latency=0.0,
                                traffic_control=True)
    for _ in range(3):
        link.send(data_msg(128, op=Op.RED_CAIS))
        link.send(data_msg(128, op=Op.LD_CAIS_RESP))
    sim.run()
    classes = [m.traffic_class.value for _, m in delivered]
    # Strict alternation after the first pick.
    assert classes[:4] in (["reduction", "load", "reduction", "load"],
                           ["load", "reduction", "load", "reduction"])


def test_round_robin_service_order_across_three_classes():
    """Exact service order of a traffic-control link: after the message
    that found the link idle, the arbiter visits CONTROL, LOAD, REDUCTION
    in turn, skips a class once it runs dry (LOAD, after one message) and
    keeps rotating over the others."""
    sim = Simulator()
    link, delivered = make_link(sim, bandwidth=1.0, latency=0.0,
                                traffic_control=True)
    red = [data_msg(128, op=Op.RED_CAIS) for _ in range(4)]
    load = Message(Op.LD_CAIS_RESP, gpu_node(0), gpu_node(1),
                   payload_bytes=128)
    ctrl = [Message(Op.SYNC_REQ, gpu_node(0), switch_node(0))
            for _ in range(2)]
    for msg in red + [load] + ctrl:
        link.send(msg)
    sim.run()
    order = [red[0], ctrl[0], load, red[1], ctrl[1], red[2], red[3]]
    assert [m for _, m in delivered] == order
    # 144 ns per 128 B data message, 16 ns per control flit, back to back.
    assert [t for t, _ in delivered] == [144.0, 160.0, 304.0, 448.0, 464.0,
                                         608.0, 752.0]


def test_per_class_depth_and_room_on_traffic_control_link():
    sim = Simulator()
    link, _ = make_link(sim, bandwidth=1.0, latency=0.0,
                        traffic_control=True)
    for _ in range(4):
        link.send(data_msg(128, op=Op.RED_CAIS))    # first one serializes
    link.send(Message(Op.LD_CAIS_RESP, gpu_node(0), gpu_node(1),
                      payload_bytes=128))
    for _ in range(2):
        link.send(Message(Op.SYNC_REQ, gpu_node(0), gpu_node(1)))
    depths = {tc: link.queue_depth(tc) for tc in TrafficClass}
    assert depths == {TrafficClass.REDUCTION: 3, TrafficClass.LOAD: 1,
                      TrafficClass.CONTROL: 2}
    assert link.queue_depth() == 6
    sim.run()
    assert link.queue_depth() == 0 and link.idle()


def test_tracker_records_bytes():
    sim = Simulator()
    link, _ = make_link(sim, bandwidth=10.0)
    link.send(data_msg(1024))
    sim.run()
    assert link.tracker.bytes_transferred == 1024 + 8 * 16
    assert link.tracker.messages == 1


def test_peak_queue_depth():
    sim = Simulator()
    link, _ = make_link(sim, bandwidth=1.0)
    for _ in range(5):
        link.send(data_msg(128))
    assert link.peak_queue_depth >= 4
    sim.run()
    assert link.queue_depth() == 0


@pytest.mark.parametrize("bad", [float("nan"), 0.0, -0.5])
def test_bandwidth_factor_rejects_nan_and_non_positive(bad):
    sim = Simulator()
    link, _ = make_link(sim)
    with pytest.raises(SimulationError):
        link.set_bandwidth_factor(bad)
