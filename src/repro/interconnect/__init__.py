"""Interconnect substrate: NVLink links, NVSwitch planes, routing, fabric."""

from .crossbar import CrossbarMessage, CrossbarSwitch
from .link import Link
from .message import (
    Address,
    Message,
    NodeId,
    Op,
    TrafficClass,
    gpu_node,
    switch_node,
)
from .network import Network
from .routing import plane_for_address, plane_for_stripe
from .switch import Switch, SwitchEngine

__all__ = [
    "Address",
    "CrossbarMessage",
    "CrossbarSwitch",
    "Link",
    "Message",
    "Network",
    "NodeId",
    "Op",
    "Switch",
    "SwitchEngine",
    "TrafficClass",
    "gpu_node",
    "plane_for_address",
    "plane_for_stripe",
    "switch_node",
]
