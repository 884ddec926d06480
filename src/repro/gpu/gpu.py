"""One GPU device: SM slot pools, TB dispatch, message endpoint.

The execution model is TB-granular: a GPU owns
``num_sms * tb_slots_per_sm`` resident-TB slots.  Slots are grouped into
named *pools* so the CAIS dataflow optimizer can partition SMs between
concurrently running kernels with complementary traffic (asymmetric kernel
overlapping, Section III-C-2); by default a single ``"default"`` pool holds
every slot.

Messages delivered by the fabric are offered to the registered handlers
first (collective drivers, fault acks), then routed by op to the
synchronizer (sync releases, throttle credits) or the memory controller
(loads, fills, stores, gathers).
"""

from __future__ import annotations

from functools import partial
from types import MethodType
from typing import Callable, Dict, List, Optional

from ..cais.coordination import SyncPhase
from ..common.config import GpuSpec
from ..common.errors import ConfigError, SimulationError
from ..common.events import Simulator
from ..interconnect.message import Message, Op
from ..interconnect.network import Network
from .memory import MemoryController
from .scheduler import (DispatchPolicy, FairSharePolicy, FifoPolicy,
                        effective_capacity)
from .synchronizer import Synchronizer
from .threadblock import ThreadBlock, TBState

DEFAULT_POOL = "default"


class Gpu:
    """Device model registered as the fabric endpoint for one GPU index."""

    def __init__(self, sim: Simulator, index: int, spec: GpuSpec,
                 network: Network, policy: Optional[DispatchPolicy] = None,
                 local_value_fn=None, throttle_window: Optional[int] = None,
                 reduce_queue_limit: Optional[int] = None):
        #: TB-aware request throttling (paper Section III-B-2): a TB whose
        #: kernel issues mergeable reductions is not dispatched while this
        #: GPU's reduction VCs hold >= this many messages, keeping all
        #: GPUs' request streams in lockstep with the link drain rate.
        self.reduce_queue_limit = reduce_queue_limit
        self.sim = sim
        self.index = index
        self.spec = spec
        self.network = network
        self.policy = policy or FifoPolicy()
        # Sends straight into the fabric, not through this GPU, so the
        # controller holds no reference back to it.
        self.memory = MemoryController(
            sim, index, spec, send=partial(network.send_from_gpu, index),
            local_value_fn=local_value_fn)
        self.synchronizer = Synchronizer(network, index,
                                         throttle_window=throttle_window)
        # Deliveries by op, each bound to the module that consumes it.
        self._routes: Dict[Op, Callable[[Message], None]] = {
            op: MethodType(handler, part)
            for part in (self.synchronizer, self.memory)
            for op, handler in part.ROUTES.items()}
        total = spec.num_sms * spec.tb_slots_per_sm
        self._capacity: Dict[str, int] = {DEFAULT_POOL: total}
        self._used: Dict[str, int] = {DEFAULT_POOL: 0}
        self._ready: Dict[str, List[ThreadBlock]] = {DEFAULT_POOL: []}
        # Pre-launch coordination state: TBs *pending* on a group sync do
        # not hold an SM slot (paper Section III-B-2); released TBs queue
        # here with dispatch priority.
        self._synced: Dict[str, List[ThreadBlock]] = {DEFAULT_POOL: []}
        self._sync_pending: Dict[str, int] = {DEFAULT_POOL: 0}
        self._pace_armed: Dict[str, bool] = {}
        #: Set by the executor: invoked with a TB when a slot is granted.
        self.on_dispatch: Optional[Callable[[ThreadBlock], None]] = None
        #: Extra message handlers (collective drivers register here); each
        #: is offered incoming messages before the synchronizer/memory.
        self.handlers: List[Callable[[Message], bool]] = []
        #: Resident TBs per kernel id (read by FairSharePolicy to balance
        #: SMs across concurrently running kernels).
        self.running_per_kernel: Dict[int, int] = {}
        self.tbs_dispatched = 0
        # Fault-injection state (repro.faults): a straggler window scales
        # every TB's compute time; an SM-throttle window caps the usable
        # slot count.  Both default to the exact fault-free values.
        self.compute_slowdown = 1.0
        self._throttle_fraction = 1.0
        # Slot-occupancy integral (slot-ns) for GPU-utilization metrics.
        self._busy_integral_ns = 0.0
        self._busy_since = 0.0
        network.register_gpu(index, self.receive)

    def unwire(self) -> None:
        """Drop the callbacks the executor and the collective drivers
        wired in, and the fair-share policy's reference back to this GPU,
        so that a finished node is freed by reference counting."""
        self.handlers.clear()
        self.on_dispatch = None
        if isinstance(self.policy, FairSharePolicy):
            self.policy.gpu = None

    # ------------------------------------------------------------------
    # Slot pools
    # ------------------------------------------------------------------
    @property
    def total_slots(self) -> int:
        return self.spec.num_sms * self.spec.tb_slots_per_sm

    def set_pools(self, capacities: Dict[str, int]) -> None:
        """Partition the SM slots into named pools (asymmetric overlap)."""
        if sum(capacities.values()) > self.total_slots:
            raise ConfigError(
                f"pool capacities {capacities} exceed {self.total_slots} "
                f"slots on GPU {self.index}")
        if any(c <= 0 for c in capacities.values()):
            raise ConfigError(f"pool capacities must be positive: "
                              f"{capacities}")
        if any(self._used.get(p, 0) for p in self._used):
            raise SimulationError("cannot repartition pools mid-kernel")
        self._capacity = dict(capacities)
        self._used = {p: 0 for p in capacities}
        self._ready = {p: self._ready.get(p, []) for p in capacities}
        self._synced = {p: self._synced.get(p, []) for p in capacities}
        self._sync_pending = {p: self._sync_pending.get(p, 0)
                              for p in capacities}

    def pool_capacity(self, pool: str) -> int:
        if pool not in self._capacity:
            raise ConfigError(f"GPU {self.index} has no pool {pool!r}; "
                              f"pools: {sorted(self._capacity)}")
        return self._capacity[pool]

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def enqueue(self, tb: ThreadBlock) -> None:
        """Queue a dependency-free TB for dispatch."""
        self.pool_capacity(tb.pool)
        tb.state = TBState.READY
        self._ready[tb.pool].append(tb)
        self._try_dispatch(tb.pool)

    def release_slot(self, tb: ThreadBlock) -> None:
        """Return the slot held by ``tb`` and refill its pool."""
        pool = tb.pool
        if self._used[pool] <= 0:
            raise SimulationError(f"slot underflow in pool {pool!r}")
        self._accrue_busy()
        self._used[pool] -= 1
        kid = tb.kernel.kernel_id
        self.running_per_kernel[kid] -= 1
        if self.running_per_kernel[kid] == 0:
            del self.running_per_kernel[kid]
        self._try_dispatch(pool)

    def set_sm_throttle(self, fraction: float) -> None:
        """Cap the usable SM-slot fraction (fault window); 1.0 restores.

        Already-resident TBs keep their slots; the cap only gates new
        dispatches, like SMs being taken offline as they drain.
        """
        if not 0.0 < fraction <= 1.0:
            raise ConfigError(
                f"SM throttle fraction must be in (0, 1], got {fraction}")
        restored = fraction > self._throttle_fraction
        self._throttle_fraction = fraction
        if restored:
            for pool in self._capacity:
                self._try_dispatch(pool)

    def _effective_capacity(self, pool: str) -> int:
        capacity = self._capacity[pool]
        if self._throttle_fraction >= 1.0:
            return capacity
        return effective_capacity(capacity, self._throttle_fraction)

    def _try_dispatch(self, pool: str) -> None:
        while self._used[pool] < self._effective_capacity(pool):
            if self._synced[pool]:
                # Released pre-launch syncs dispatch with priority so the
                # cross-GPU alignment the sync bought is not re-shuffled.
                tb = self._synced[pool].pop(0)
            elif self._ready[pool]:
                tb = self.policy.pick(self._ready[pool])
                if self._needs_prelaunch_sync(tb):
                    # Register the TB group; the TB stays *pending* without
                    # holding an SM slot until the switch broadcasts the
                    # release (paper Fig. 7d).  Registrations run up to two
                    # waves ahead of dispatch so a GPU's registration time
                    # never depends on its own slot availability — that is
                    # what keeps the cross-GPU registration order aligned.
                    self._park_for_sync(tb)
                    if self._sync_pending[pool] >= 2 * self._capacity[pool]:
                        break
                    continue
            else:
                break
            if not self._admit(tb, pool):
                # Reduction-VC backlog too deep: defer (with priority) and
                # retry when the links drain — TB-aware throttling.
                self._synced[pool].insert(0, tb)
                break
            self._accrue_busy()
            self._used[pool] += 1
            self.tbs_dispatched += 1
            kid = tb.kernel.kernel_id
            self.running_per_kernel[kid] = \
                self.running_per_kernel.get(kid, 0) + 1
            tb.dispatch_time = self.sim.now
            if self.on_dispatch is None:
                raise SimulationError(
                    f"GPU {self.index} has no dispatch handler")
            self.on_dispatch(tb)


    def _admit(self, tb: ThreadBlock, pool: str) -> bool:
        """TB-aware throttling gate: pace reducing kernels to link drain."""
        if (self.reduce_queue_limit is None or
                tb.kernel.remote_reduces is None):
            return True
        from ..interconnect.message import TrafficClass
        for plane in range(self.network.config.num_switches):
            link = self.network.up_links[(self.index, plane)]
            if link.queue_depth(TrafficClass.REDUCTION) >= \
                    self.reduce_queue_limit:
                if not self._pace_armed.get(pool):
                    self._pace_armed[pool] = True

                    def wake(pool=pool) -> None:
                        self._pace_armed[pool] = False
                        self._try_dispatch(pool)

                    link.wait_for_room(TrafficClass.REDUCTION,
                                       self.reduce_queue_limit, wake)
                return False
        return True

    def _needs_prelaunch_sync(self, tb: ThreadBlock) -> bool:
        return (tb.kernel.sync_prelaunch and not tb.prelaunch_synced and
                tb.kernel.group_for(tb.block_idx) is not None)

    def _park_for_sync(self, tb: ThreadBlock) -> None:
        tb.state = TBState.SYNC_LAUNCH
        group = tb.kernel.group_for(tb.block_idx)
        self._sync_pending[tb.pool] += 1
        self.synchronizer.request_sync(
            group, SyncPhase.LAUNCH, self.network.config.num_gpus,
            lambda tb=tb: self._on_prelaunch_release(tb))

    def _on_prelaunch_release(self, tb: ThreadBlock) -> None:
        tb.prelaunch_synced = True
        self._sync_pending[tb.pool] -= 1
        self._synced[tb.pool].append(tb)
        self._try_dispatch(tb.pool)

    def _accrue_busy(self) -> None:
        now = self.sim.now
        occupied = sum(self._used.values())
        self._busy_integral_ns += occupied * (now - self._busy_since)
        self._busy_since = now

    def slot_busy_ns(self) -> float:
        """Integral of occupied slots over time (slot-nanoseconds)."""
        self._accrue_busy()
        return self._busy_integral_ns

    def utilization(self, makespan_ns: float) -> float:
        """Fraction of SM slot capacity occupied over ``makespan_ns``."""
        if makespan_ns <= 0:
            return 0.0
        return self.slot_busy_ns() / (self.total_slots * makespan_ns)

    def outstanding_work(self) -> str:
        """One-line summary of unfinished work (deadlock diagnostics).

        Empty string when this GPU is fully idle.
        """
        busy = sum(self._used.values())
        ready = sum(len(q) for q in self._ready.values())
        synced = sum(len(q) for q in self._synced.values())
        pending = sum(self._sync_pending.values())
        if not (busy or ready or synced or pending):
            return ""
        parts = []
        if busy:
            parts.append(f"{busy} resident TBs")
        if ready:
            parts.append(f"{ready} ready")
        if synced:
            parts.append(f"{synced} sync-released")
        if pending:
            parts.append(f"{pending} sync-pending")
        return f"gpu {self.index}: " + ", ".join(parts)

    # ------------------------------------------------------------------
    # Fabric endpoint
    # ------------------------------------------------------------------
    def send(self, msg: Message) -> None:
        """Inject a message into the fabric from this GPU."""
        self.network.send_from_gpu(self.index, msg)

    def receive(self, msg: Message) -> None:
        for handler in self.handlers:
            if handler(msg):
                return
        route = self._routes.get(msg.op)
        if route is None:
            raise SimulationError(
                f"GPU {self.index} cannot handle {msg}")
        route(msg)
