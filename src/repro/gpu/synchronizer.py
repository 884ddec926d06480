"""GPU-side synchronizer module (paper Section III-B-3, Fig. 8b).

Each GPU carries one synchronizer that interfaces with the TB and warp
schedulers.  It implements the two synchronization points:

* **pre-launch** — a TB registers its Group ID before dispatch and stays
  *pending* until the switch's Group Sync Table confirms all GPUs
  registered;
* **pre-access** — a warp hitting its first ``*.cais`` instruction waits
  until all TBs of the group reached the same point.

Both are empty-packet exchanges (one flit each way).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Tuple

from ..cais.coordination import SyncPhase, plane_for_group
from ..interconnect.message import Message, Op, gpu_node, switch_node
from ..interconnect.network import Network


class Synchronizer:
    """Per-GPU TB-group synchronization endpoint."""

    def __init__(self, network: Network, gpu_index: int):
        self.network = network
        self.gpu_index = gpu_index
        self._pending: Dict[Tuple[int, SyncPhase],
                            List[Callable[[], None]]] = {}
        self.syncs_requested = 0

    # ------------------------------------------------------------------
    # Sync protocol
    # ------------------------------------------------------------------
    def request_sync(self, group_id: int, phase: SyncPhase, expected: int,
                     on_release: Callable[[], None]) -> None:
        """Register for a group sync; ``on_release`` fires at broadcast."""
        key = (group_id, phase)
        waiters = self._pending.setdefault(key, [])
        waiters.append(on_release)
        if len(waiters) > 1:
            return                        # request already in flight
        self.syncs_requested += 1
        plane = plane_for_group(group_id, self.network.config.num_switches)
        # Steer around failed planes; the remap is shared by all GPUs, so
        # a group still converges on one (healthy) sync table.
        plane = self.network.route_plane(plane)
        msg = Message(op=Op.SYNC_REQ, src=gpu_node(self.gpu_index),
                      dst=switch_node(plane), group_id=group_id,
                      meta={"phase": phase, "expected": expected})
        self.network.up_links[(self.gpu_index, plane)].send(msg)

    # ------------------------------------------------------------------
    # Message entry point
    # ------------------------------------------------------------------
    def _on_release(self, msg: Message) -> None:
        key = (msg.group_id, msg.meta["phase"])
        for cb in self._pending.pop(key, []):
            cb()

    #: The ops this module consumes, each with its handler.  The GPU
    #: routes its deliveries by this table (``Gpu.receive``).
    ROUTES = {Op.SYNC_RELEASE: _on_release}
