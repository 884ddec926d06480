"""Unit tests for messages and addresses."""

import pytest

from repro.interconnect.message import (
    Address, CONTROL_BYTES, Message, Op, TrafficClass, gpu_node, switch_node)


def test_node_helpers():
    assert gpu_node(3) == ("gpu", 3)
    assert switch_node(1) == ("sw", 1)


def test_address_validation():
    Address(0, 0)
    with pytest.raises(ValueError):
        Address(-1, 0)
    with pytest.raises(ValueError):
        Address(0, -4)


def test_control_message_wire_bytes_is_one_flit():
    msg = Message(Op.SYNC_REQ, gpu_node(0), switch_node(0))
    assert msg.wire_bytes() == CONTROL_BYTES


def test_data_message_charges_flit_header_per_packet():
    # 256 B payload = 2 packets of 128 B, each with a 16 B flit header.
    msg = Message(Op.STORE, gpu_node(0), gpu_node(1), payload_bytes=256)
    assert msg.wire_bytes() == 256 + 2 * 16


def test_partial_packet_still_charges_header():
    msg = Message(Op.STORE, gpu_node(0), gpu_node(1), payload_bytes=130)
    assert msg.wire_bytes() == 130 + 2 * 16


def test_negative_payload_rejected():
    with pytest.raises(ValueError):
        Message(Op.STORE, gpu_node(0), gpu_node(1), payload_bytes=-1)


@pytest.mark.parametrize("op,expected", [
    (Op.LOAD_REQ, TrafficClass.LOAD),
    (Op.LD_CAIS_REQ, TrafficClass.LOAD),
    (Op.LD_CAIS_RESP, TrafficClass.LOAD),
    (Op.MULTIMEM_LD_REDUCE_REQ, TrafficClass.LOAD),
    (Op.RED_CAIS, TrafficClass.REDUCTION),
    (Op.MULTIMEM_RED, TrafficClass.REDUCTION),
    (Op.MULTIMEM_ST, TrafficClass.REDUCTION),
    (Op.STORE, TrafficClass.REDUCTION),
    (Op.SYNC_REQ, TrafficClass.CONTROL),
])
def test_traffic_class_assignment(op, expected):
    msg = Message(op, gpu_node(0), switch_node(0))
    assert msg.traffic_class is expected


def test_message_ids_unique():
    a = Message(Op.STORE, gpu_node(0), gpu_node(1))
    b = Message(Op.STORE, gpu_node(0), gpu_node(1))
    assert a.msg_id != b.msg_id


def test_reply_swaps_endpoints_and_keeps_address():
    addr = Address(2, 4096)
    req = Message(Op.LD_CAIS_REQ, gpu_node(0), gpu_node(2), address=addr,
                  group_id=7)
    resp = req.reply(Op.LD_CAIS_RESP, payload_bytes=1024)
    assert resp.src == gpu_node(2)
    assert resp.dst == gpu_node(0)
    assert resp.address == addr
    assert resp.group_id == 7
    assert resp.payload_bytes == 1024
