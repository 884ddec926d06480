"""Cross-GPU TB coordination (paper Section III-B).

Three cooperating mechanisms align the *timing* of mergeable requests so the
merge unit sees them within one table-entry lifetime:

* **Group Sync Table** (switch side, Fig. 8b): counts sync requests per
  (TB group, phase); when every participating GPU has registered, it
  broadcasts a release.  Sync packets carry the :class:`SyncPhase` member
  itself in ``meta["phase"]``.  Used for both *pre-launch* and *pre-access*
  synchronization.  The packets are empty (one flit), so a sync costs one
  GPU<->switch round trip (~0.5 us in the paper's setup).
* **GPU-side synchronizer** protocol helpers: the actual module lives with
  the GPU model (:mod:`repro.gpu.synchronizer`); here we define the plane
  mapping that makes all GPUs of a group converge on one switch.
* **TB-aware request throttling**: a region's home GPU, whose reduction
  contributions are free local adds, joins the pre-access barrier too, so
  it cannot run a whole region ahead of its peers (``Executor.tb_throttle``).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from ..common.errors import ProtocolError
from ..interconnect.message import Message, Op, gpu_node
from ..interconnect.switch import Switch
from ..obs import current_causality
from ..obs.causality import BARRIER_SYNC


class SyncPhase(str, enum.Enum):
    """The two synchronization points of Section III-B-2.  A ``str`` enum,
    so that the ``(group, phase)`` keys of the sync tables hash in C."""

    LAUNCH = "launch"        # before the TB is dispatched to an SM
    ACCESS = "access"        # at the first *.cais instruction of a warp


def plane_for_group(group_id: int, num_planes: int) -> int:
    """Switch plane handling a TB group's sync traffic (deterministic)."""
    if num_planes <= 0:
        raise ValueError(f"num_planes must be positive, got {num_planes}")
    return group_id % num_planes


@dataclass
class _SyncState:
    expected: int
    arrived: Set[int] = field(default_factory=set)
    timer: object = None
    #: Causal-node ids of the switch hops that delivered each SYNC_REQ
    #: (repro.obs.causality; filled only when recording).
    cz_arrivals: List[int] = field(default_factory=list)


class GroupSyncTable:
    """Switch engine: lightweight per-group counters + release broadcast.

    ``release_timeout_ns`` is the forward-progress guarantee: a group whose
    stragglers never register (e.g. their accesses were satisfied by a
    peer kernel's cached fetch) is released to whoever did register, so a
    miscounted barrier costs alignment, never liveness.
    """

    def __init__(self,
                 release_timeout_ns: Optional[float] = 40_000.0) -> None:
        self.release_timeout_ns = release_timeout_ns
        self._states: Dict[Tuple[int, SyncPhase], _SyncState] = {}
        self.releases_broadcast = 0
        self.timeout_releases = 0
        self._cz = current_causality()

    def process(self, switch: Switch, msg: Message, in_port: int) -> bool:
        if msg.op is not Op.SYNC_REQ:
            return False
        if msg.group_id is None:
            raise ProtocolError("sync request without a group id")
        expected = msg.meta["expected"]
        key = (msg.group_id, msg.meta["phase"])
        state = self._states.get(key)
        if state is None:
            state = _SyncState(expected=expected)
            self._states[key] = state
            if self.release_timeout_ns is not None:
                state.timer = switch.sim.timer(
                    self.release_timeout_ns, self._timeout, switch, key)
        elif state.expected != expected:
            raise ProtocolError(
                f"group {msg.group_id} expected-count mismatch: "
                f"{state.expected} vs {expected}")
        state.arrived.add(msg.src[1])
        if self._cz.enabled:
            state.cz_arrivals.append(self._cz.current)
        if len(state.arrived) >= state.expected:
            self._release(switch, key, state)
        return True

    def _release(self, switch: Switch, key: Tuple[int, SyncPhase],
                 state: _SyncState) -> None:
        del self._states[key]
        if state.timer is not None:
            state.timer.cancel()
        self.releases_broadcast += 1
        group_id, phase = key
        if self._cz.enabled:
            # The release broadcast is caused by every registered arrival;
            # the critical-path walk follows the last one in.
            now = switch.sim.now
            self._cz.current = self._cz.node(
                BARRIER_SYNC, now, now,
                f"sw{switch.index} group {group_id} {phase.value} release",
                parents=tuple((a, "sync") for a in state.cz_arrivals))
        for gpu in state.arrived:
            release = Message(op=Op.SYNC_RELEASE, src=switch.node_id,
                              dst=gpu_node(gpu), group_id=group_id,
                              meta={"phase": phase})
            switch.forward(release)

    def _timeout(self, switch: Switch, key: Tuple[int, SyncPhase]) -> None:
        state = self._states.get(key)
        if state is None:
            return
        self.timeout_releases += 1
        self._release(switch, key, state)

    def pending_groups(self) -> int:
        """Groups still waiting for stragglers."""
        return len(self._states)

    def open_sessions(self) -> int:
        """Alias for deadlock diagnostics (see Switch.outstanding_work)."""
        return len(self._states)

    def fail(self, switch: Switch) -> None:
        """Plane-failure drain: release every pending group immediately.

        New sync traffic is rerouted to healthy planes by the network; the
        groups parked here would otherwise wait out the release timeout, so
        an eager release converts the fault into a one-shot alignment loss
        rather than a stall (the table's releases are advisory, not a
        correctness barrier).
        """
        for key, state in list(self._states.items()):
            if key in self._states:     # a release may cascade
                self.timeout_releases += 1
                self._release(switch, key, state)
