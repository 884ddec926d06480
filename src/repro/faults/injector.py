"""Applies a :class:`FaultSchedule` to a live harness.

The injector is built by the harness after all hardware is wired.  It
schedules one sim event per fault (plus a clear event for windowed
faults), arms the per-message drop/corrupt hook on every link, and starts
the stall watchdog.  All resilience counters accumulate in the shared
:class:`FaultState`, which ends up in the run result's ``details`` and —
when observability is installed — mirrored as ``faults.*`` metrics with
fault windows drawn as spans on a dedicated trace track.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Set

from ..common.events import Simulator
from ..common.config import FaultSpec
from ..common.rng import RngPool
from ..interconnect.message import Message, Op, mark_corrupted
from .. import obs
from .retry import RetryPolicy, Retransmitter
from .schedule import FaultEvent, FaultKind, FaultSchedule
from .watchdog import Watchdog

#: Ops the drop/corrupt fault may target.  Only messages protected by an
#: ack/retransmit protocol are eligible — ring chunk hops (STORE with ring
#: metadata), CAIS reduction contributions, and both ack types (a lost ack
#: is recovered by retransmit + receiver-side dedup).  Unprotected control
#: traffic is exempt: dropping it models a fault the paper's fabric cannot
#: recover from at all, which would turn every study run into a deadlock
#: report rather than a degradation curve.
_DROPPABLE_OPS = frozenset({Op.RED_CAIS, Op.RED_CAIS_ACK, Op.CHUNK_ACK})

#: Effective fabric capacity once NVLS collectives fall back to ring: the
#: degradation listeners (the serving batcher's replanning) treat the
#: fallback as halving collective throughput, matching the roughly 2x
#: NVLS-vs-ring gap the fig18 validation measures.
NVLS_FALLBACK_CAPACITY = 0.5


class FaultCounters:
    """Order-independent event counters, mirrored to obs metrics.

    With a simulator attached, every bump is also stamped into the
    windowed time-series sink (``faults.*`` per-window counters) so run
    reports can correlate retries and drops with fault windows.
    """

    def __init__(self, sim: Optional[Simulator] = None) -> None:
        self._counts: Dict[str, int] = {}
        sinks = obs.current()
        self._mx = sinks.metrics
        self._ts = sinks.timeseries
        self._sim = sim

    def bump(self, name: str, n: int = 1) -> None:
        self._counts[name] = self._counts.get(name, 0) + n
        if self._mx is not None:
            self._mx.counter(f"faults.{name}").inc(n)
        if self._ts is not None and self._sim is not None:
            self._ts.counter(f"faults.{name}").add(self._sim.now, n)

    def get(self, name: str) -> int:
        return self._counts.get(name, 0)

    def as_details(self) -> Dict[str, float]:
        """Flat ``faults.*`` mapping for RunResult.details."""
        return {f"faults.{k}": float(v)
                for k, v in sorted(self._counts.items())}


class FaultState:
    """Shared per-run fault context: counters, retransmitter, NVLS status.

    One instance is threaded through every component the resilience
    machinery touches (executor, merge units, ring drivers, comm adapters)
    so they agree on retransmission state and fallback decisions.
    """

    def __init__(self, sim: Simulator, spec: FaultSpec):
        self.sim = sim
        self.spec = spec
        self.counters = FaultCounters(sim)
        self.retransmitter = Retransmitter(sim, RetryPolicy.from_spec(spec),
                                           self.counters)
        #: True once any switch's NVLS compute unit has failed; new NVLS
        #: collectives must take the ring fallback from then on.
        self.nvls_faulted = False
        self._nvls_listeners: List[Callable[[], None]] = []
        #: Degraded-capacity tracking for workload-level replanning: the
        #: injector records the plane population at install time and every
        #: permanent capacity loss (plane death, NVLS fallback) notifies
        #: the degradation listeners so schedulers can shrink their next
        #: plan instead of stalling against hardware that no longer exists.
        self.planes_total = 0
        self.planes_failed: Set[int] = set()
        self._degradation_listeners: List[Callable[[], None]] = []

    def unwire(self) -> None:
        """Forget the NVLS-fault and degradation listeners (the run is
        over); they are bound to the components holding this state."""
        self._nvls_listeners.clear()
        self._degradation_listeners.clear()

    def on_nvls_fault(self, callback: Callable[[], None]) -> None:
        """Register for notification when an NVLS compute unit dies."""
        self._nvls_listeners.append(callback)

    def on_degradation(self, callback: Callable[[], None]) -> None:
        """Register for notification of any permanent capacity loss."""
        self._degradation_listeners.append(callback)

    def _notify_degradation(self) -> None:
        for callback in self._degradation_listeners:
            callback()

    def nvls_unit_failed(self, switch_index: int) -> None:
        self.counters.bump("nvls_unit_failures")
        self.nvls_faulted = True
        for callback in self._nvls_listeners:
            callback()
        self._notify_degradation()

    def plane_failed(self, plane: int) -> None:
        """One switch plane left service permanently."""
        self.counters.bump("plane_failures")
        self.planes_failed.add(plane)
        self._notify_degradation()

    def capacity_factor(self) -> float:
        """Surviving fabric capacity in [0, 1] for degradation-aware
        replanning: the fraction of planes still alive, further capped at
        :data:`NVLS_FALLBACK_CAPACITY` once NVLS collectives run on the
        ring fallback."""
        factor = 1.0
        if self.planes_total:
            factor = ((self.planes_total - len(self.planes_failed))
                      / self.planes_total)
        if self.nvls_faulted:
            factor = min(factor, NVLS_FALLBACK_CAPACITY)
        return factor


class FaultInjector:
    """Arms a schedule's faults on the harness's live components."""

    def __init__(self, harness, state: FaultState,
                 schedule: FaultSchedule) -> None:
        self._gpus = harness.executor.gpus
        self.state = state
        self.schedule = schedule
        self.sim = harness.sim
        self.network = harness.network
        self._links = {link.name: link
                       for link in self.network.all_links()}
        self._drop_rng = RngPool(harness.config.seed).stream(
            f"faults.{schedule.spec.fault_seed}.msg")
        sinks = obs.current()
        self._tr = sinks.tracer
        self._ts = sinks.timeseries
        self._track = (self._tr.track("Faults", "injected")
                       if self._tr is not None else 0)
        self._next_span = 0
        self._scheduled: List = []
        self._watchdog: Optional[Watchdog] = None
        self._pending_reporters: List[Callable[[], str]] = []
        self._quiesced = False

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------
    def install(self) -> None:
        """Schedule every fault, arm the message hook and the watchdog."""
        spec = self.schedule.spec
        self.state.planes_total = len(self.network.switches)
        if self.schedule.drop_probability > 0.0 \
                or self.schedule.corrupt_probability > 0.0:
            self.network.install_fault_hook(self._message_fault)
        for ev in self.schedule.events:
            self._scheduled.append(
                self.sim.timer_at(ev.time_ns, self._apply, ev))
        self._watchdog = Watchdog(self.sim, spec.watchdog_interval_ns,
                                  spec.watchdog_strikes, self.state.counters)
        for reporter in self._pending_reporters:
            self._watchdog.add_reporter(reporter)
        self._pending_reporters.clear()
        self._watchdog.arm()

    def add_watch_reporter(self, reporter: Callable[[], str]) -> None:
        """Extend the stall watchdog's outstanding-work report.

        Serving loops register their request-queue state here so a
        watchdog trip mid-stream reports outstanding *requests* (who is
        running/waiting and how far along) and not just outstanding ops.
        """
        if self._watchdog is None:
            self._pending_reporters.append(reporter)
        else:
            self._watchdog.add_reporter(reporter)

    def quiesce(self) -> None:
        """The workload completed: stand down everything still scheduled.

        Faults not yet injected, pending restore events, the watchdog tick
        and any armed retransmit timers are cancelled so the event queue
        drains and ``sim.now`` at drain equals the workload makespan rather
        than the fault horizon.
        """
        if self._quiesced:
            return
        self._quiesced = True
        now = self.sim.now
        for timer in self._scheduled:
            if not timer.cancelled and timer.time >= now:
                timer.cancel()
        self._scheduled.clear()
        if self._watchdog is not None:
            self._watchdog.disarm()
        self.state.retransmitter.quiesce()

    # ------------------------------------------------------------------
    # Timed faults
    # ------------------------------------------------------------------
    def _apply(self, ev: FaultEvent) -> None:
        if self._quiesced:
            return
        counters = self.state.counters
        span = self._span_begin(ev)
        if self._ts is not None:
            # duration 0 means permanent (PLANE_FAIL / NVLS_FAIL): an
            # open-ended mark that reports clamp to the makespan.
            self._ts.mark_window(
                self.sim.now,
                self.sim.now + ev.duration_ns if ev.duration_ns > 0.0
                else None,
                f"{ev.kind.value} {ev.target}")
        if ev.kind is FaultKind.LINK_DEGRADE:
            self._links[ev.target].set_bandwidth_factor(ev.magnitude)
            counters.bump("link_degrade_windows")
            self._schedule_clear(
                ev, span,
                lambda: self._links[ev.target].set_bandwidth_factor(1.0))
        elif ev.kind is FaultKind.LINK_DOWN:
            self._links[ev.target].set_down(True)
            counters.bump("link_down_windows")
            self._schedule_clear(
                ev, span, lambda: self._links[ev.target].set_down(False))
        elif ev.kind is FaultKind.PLANE_FAIL:
            plane = int(ev.target.split(":")[1])
            self.network.fail_plane(plane)
            switch = self.network.switches[plane]
            switch.failed = True
            self._fail_engines(switch, compute_only=False)
            # After the engine hooks, so replanning listeners observe the
            # post-fallback state (counter bump included).
            self.state.plane_failed(plane)
        elif ev.kind is FaultKind.NVLS_FAIL:
            plane = int(ev.target.split(":")[1])
            counters.bump("compute_unit_failures")
            self._fail_engines(self.network.switches[plane],
                               compute_only=True)
        elif ev.kind is FaultKind.GPU_STRAGGLER:
            gpu = self._gpu(ev.target)
            gpu.compute_slowdown = ev.magnitude
            counters.bump("straggler_windows")
            self._schedule_clear(
                ev, span,
                lambda: setattr(gpu, "compute_slowdown", 1.0))
        elif ev.kind is FaultKind.SM_THROTTLE:
            gpu = self._gpu(ev.target)
            gpu.set_sm_throttle(ev.magnitude)
            counters.bump("sm_throttle_windows")
            self._schedule_clear(
                ev, span, lambda: gpu.set_sm_throttle(1.0))

    def _gpu(self, target: str):
        return self._gpus[int(target.split(":")[1])]

    def _fail_engines(self, switch, compute_only: bool) -> None:
        """Fail the switch's engines via their ``fail(switch)`` hook.

        ``compute_only`` restricts the fault to engines marked as in-switch
        compute units (NVLS engine, CAIS merge unit); a whole-plane failure
        takes the sync table down too.
        """
        for engine in switch.engines:
            fail = getattr(engine, "fail", None)
            if fail is None:
                continue
            if compute_only and not getattr(engine, "COMPUTE_UNIT", False):
                continue
            fail(switch)

    def _schedule_clear(self, ev: FaultEvent, span: int,
                        clear: Callable[[], None]) -> None:
        if ev.duration_ns <= 0.0:
            return

        def _clear() -> None:
            clear()
            self._span_end(span)

        self._scheduled.append(self.sim.timer(ev.duration_ns, _clear))

    # ------------------------------------------------------------------
    # Message drop / corruption
    # ------------------------------------------------------------------
    def _message_fault(self, msg: Message) -> bool:
        """Link hook: True drops the message; may mark it corrupted."""
        if msg.op is Op.STORE:
            if "ring" not in msg.meta:
                return False
        elif msg.op not in _DROPPABLE_OPS:
            return False
        u = float(self._drop_rng.random())
        drop_p = self.schedule.drop_probability
        if u < drop_p:
            self.state.counters.bump("messages_dropped")
            return True
        if msg.payload_bytes > 0 \
                and u < drop_p + self.schedule.corrupt_probability:
            # Idempotent: a message re-hooked on its second link hop stays
            # corrupted rather than drawing a second verdict.
            if not msg.meta.get("corrupted"):
                mark_corrupted(msg)
                self.state.counters.bump("messages_corrupted")
        return False

    # ------------------------------------------------------------------
    # Trace spans for fault windows
    # ------------------------------------------------------------------
    def _span_begin(self, ev: FaultEvent) -> int:
        if self._tr is None:
            return -1
        aid = self._next_span
        self._next_span += 1
        if ev.duration_ns > 0.0:
            self._tr.async_begin(self._track,
                                 f"{ev.kind.value} {ev.target}", aid,
                                 self.sim.now, cat="fault",
                                 args={"magnitude": ev.magnitude})
        else:
            self._tr.instant(self._track, f"{ev.kind.value} {ev.target}",
                             self.sim.now, cat="fault")
        return aid

    def _span_end(self, aid: int) -> None:
        if self._tr is not None and aid >= 0:
            self._tr.async_end(self._track, "fault-window", aid,
                               self.sim.now, cat="fault")
