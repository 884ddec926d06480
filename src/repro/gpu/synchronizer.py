"""GPU-side synchronizer module (paper Section III-B-3, Fig. 8b).

Each GPU carries one synchronizer that interfaces with the TB and warp
schedulers.  It implements the two synchronization points:

* **pre-launch** — a TB registers its Group ID before dispatch and stays
  *pending* until the switch's Group Sync Table confirms all GPUs
  registered;
* **pre-access** — a warp hitting its first ``*.cais`` instruction waits
  until all TBs of the group reached the same point.

Both are empty-packet exchanges (one flit each way).  The synchronizer also
hosts the credit-based request throttle fed by the merge unit's completion
CREDITs.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from ..cais.coordination import CreditThrottle, SyncPhase, plane_for_group
from ..interconnect.message import Message, Op, gpu_node, switch_node
from ..interconnect.network import Network


class Synchronizer:
    """Per-GPU TB-group synchronization endpoint."""

    def __init__(self, network: Network, gpu_index: int,
                 throttle_window: Optional[int] = None):
        self.network = network
        self.gpu_index = gpu_index
        self._pending: Dict[Tuple[int, SyncPhase],
                            List[Callable[[], None]]] = {}
        self.throttle = (CreditThrottle(throttle_window)
                         if throttle_window else None)
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
    def handle(self, msg: Message) -> bool:
        """Process a control message; True when consumed."""
        if msg.op is Op.SYNC_RELEASE:
            key = (msg.group_id, msg.meta["phase"])
            for cb in self._pending.pop(key, []):
                cb()
            return True
        if msg.op is Op.CREDIT:
            # The merge unit broadcasts completion credits to every
            # participant; GPUs that did not issue (e.g. the home GPU of a
            # load session) simply ignore theirs.
            if self.throttle is not None and self.throttle.in_flight > 0:
                self.throttle.release()
            return True
        return False

    # ------------------------------------------------------------------
    # Throttling
    # ------------------------------------------------------------------
    def with_credit(self, issue: Callable[[], None]) -> None:
        """Run ``issue`` once a throttle credit is available (or at once
        when throttling is disabled)."""
        if self.throttle is None:
            issue()
        else:
            self.throttle.acquire(issue)
