"""System-under-test scaffolding shared by every baseline and by CAIS.

A :class:`Harness` assembles one simulated node — event engine, fabric,
switch engines, GPUs/executor — according to a system's feature set (NVLS
engines? CAIS merge unit? group-sync tables? traffic control?).

A :class:`BarrierRunner` lowers a logical graph the way the kernel-barrier
baselines do: on the shared dependency walk
(:class:`~repro.llm.graph.GraphRunner`), compute ops run TB-granular on the
executor and collective ops run through a pluggable :class:`CommImpl` (ring
or NVLS).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Protocol

from ..cais.coordination import GroupSyncTable
from ..cais.merge_unit import MergeUnit
from ..collectives.analytic import maybe_fastpath
from ..collectives.nvls_collectives import NvlsCollective
from ..collectives.ring import RingCollective
from ..common.config import SystemConfig
from ..common.errors import WorkloadError
from ..common.events import Simulator
from ..faults import FaultInjector, FaultSchedule, FaultState
from ..gpu.executor import Executor
from ..interconnect.network import Network
from ..llm.graph import CommKind, Graph, GraphRunner, LogicalOp, OpKind
from ..llm.tiling import TilingConfig
from ..metrics.merge_stats import MergeStats
from ..metrics.timeline import Timeline
from ..nvls.engine import NvlsEngine
from ..obs import (current_causality, current_metrics, current_request_log,
                   current_timeseries, current_tracer)
from ..obs.critical_path import CriticalPath, annotate_tracer, \
    extract_critical_path
from ..obs.timeseries import annotate_windows


@dataclass
class RunResult:
    """Outcome of running one workload graph (or graph sequence)."""

    system: str
    makespan_ns: float
    compute_ns: float
    tbs_completed: int
    events: int
    merge_stats: Optional[MergeStats] = None
    network: Optional[Network] = None
    #: Mean fraction of SM slot capacity occupied across GPUs — the paper's
    #: Section II observation: "GPU utilization can drop below 60%, even
    #: when NVLS is enabled".
    gpu_utilization: float = 0.0
    #: Per-kernel spans (launch -> completion) for Gantt-style breakdowns.
    timeline: Optional[Timeline] = None
    #: The observability registry active during the run (None when metrics
    #: were disabled); ``RunSummary.from_result`` harvests its histograms.
    metrics: Optional[object] = None
    details: Dict[str, float] = field(default_factory=dict)
    #: Makespan attribution (repro.obs.critical_path), populated only when
    #: a causality recorder was installed for the run; the per-category
    #: nanoseconds also land in ``details`` under ``explain.<category>``.
    critical_path: Optional[CriticalPath] = None
    #: Windowed time-series sink active during the run (None when the sink
    #: was disabled); consumed by ``repro report``.
    timeseries: Optional[object] = None
    #: Per-request span log (serving workloads only, None when disabled).
    request_log: Optional[object] = None

    def average_bandwidth_utilization(self) -> float:
        """Mean utilization across all links and both directions, over the
        whole run (the Fig. 15 metric) — a system that serializes compute
        and communication phases leaves its links idle during compute and
        scores lower than one that overlaps them."""
        if self.network is None or self.makespan_ns <= 0:
            return 0.0
        return self.network.average_utilization(0.0, self.makespan_ns)

    def headline(self) -> Dict[str, float]:
        """Deterministic headline scalars, keyed exactly like the matrix
        path's :func:`repro.experiments.ledger.summary_metrics`, so a
        direct-CLI run and the identical ``SimTask`` append
        interchangeable ledger records."""
        link_bytes = 0
        if self.network is not None:
            link_bytes = sum(link.tracker.bytes_transferred
                             for link in self.network.all_links())
        return {
            "makespan_ns": self.makespan_ns,
            "compute_ns": self.compute_ns,
            "tbs_completed": self.tbs_completed,
            "events": self.events,
            "gpu_utilization": self.gpu_utilization,
            "avg_bandwidth_utilization":
                self.average_bandwidth_utilization(),
            "link_bytes_total": link_bytes,
        }


class Harness:
    """One simulated node configured for a specific system."""

    def __init__(self, config: SystemConfig, *,
                 nvls: bool = False,
                 merge: bool = False,
                 merge_capacity: Optional[int] = "spec",
                 merge_timeout: Optional[float] = "spec",
                 merge_eviction_policy: str = "lru",
                 sync_tables: bool = False,
                 traffic_control: bool = False,
                 fair_share: bool = False,
                 jitter: bool = True):
        self.config = config
        self.sim = Simulator()
        # Fast-path opt-in (DESIGN.md §11): fault injection rules out both
        # the fused wire+switch hop and the analytic collective bypass.
        self.network = Network(self.sim, config,
                               traffic_control=traffic_control,
                               allow_fastpath=not config.faults.enabled)
        #: Collectives currently observed or replayed by the analytic
        #: fast-path; its eligibility gate requires this to be zero.
        self.fastpath_inflight = 0
        self.fastpath_comms: List[object] = []
        #: Per-node signature table for the analytic fast-path — scoped
        #: here so runs stay deterministic regardless of process history.
        self.fastpath_signatures: Dict[tuple, object] = {}
        # Fault injection (repro.faults): the state object is threaded
        # through every resilience-aware component; None keeps the
        # fault-free construction path untouched.
        self.fault_state: Optional[FaultState] = None
        self.fault_schedule: Optional[FaultSchedule] = None
        if config.faults.enabled:
            self.fault_state = FaultState(self.sim, config.faults)
            self.fault_schedule = FaultSchedule.build(config)
        self.merge_stats: Optional[MergeStats] = None
        if merge:
            entry_bytes = config.switch.merge_entry_bytes
            self.merge_stats = MergeStats(entry_bytes)
            capacity = (config.switch.merge_table_entries
                        if merge_capacity == "spec" else merge_capacity)
            timeout = (config.switch.merge_timeout_ns
                       if merge_timeout == "spec" else merge_timeout)
            for sw in self.network.switches:
                sw.attach_engine(MergeUnit(
                    self.merge_stats, config.num_gpus,
                    entry_bytes=entry_bytes,
                    capacity_entries=capacity, timeout_ns=timeout,
                    eviction_policy=merge_eviction_policy,
                    fault_state=self.fault_state))
        if nvls:
            for sw in self.network.switches:
                sw.attach_engine(NvlsEngine(fault_state=self.fault_state))
        if sync_tables:
            for sw in self.network.switches:
                sw.attach_engine(GroupSyncTable())
        self.executor = Executor(self.sim, config, self.network,
                                 jitter_enabled=jitter,
                                 fair_share=fair_share,
                                 fault_state=self.fault_state)
        self.timeline = Timeline()
        self.executor.timeline = self.timeline
        # Outstanding-work diagnostics: registered unconditionally (they are
        # only consulted when a stall is being turned into a DeadlockError).
        for gpu in self.executor.gpus:
            self.sim.register_work_reporter(gpu.outstanding_work)
        for sw in self.network.switches:
            self.sim.register_work_reporter(sw.outstanding_work)
        self.sim.register_work_reporter(self._links_outstanding)
        self.fault_injector: Optional[FaultInjector] = None
        if self.fault_state is not None:
            self.fault_injector = FaultInjector(self, self.fault_state,
                                                self.fault_schedule)
            self.fault_injector.install()

    def workload_complete(self) -> None:
        """Notify fault machinery that the workload's last op finished.

        Cancels faults not yet injected plus all resilience timers, so the
        event queue drains and the recorded makespan is the workload's
        completion time, not the fault-schedule horizon.  No-op without
        fault injection.
        """
        if self.fault_injector is not None:
            self.fault_injector.quiesce()

    def _unwire(self) -> None:
        """Cut the build-time wiring once the result is rendered.

        Components hold callbacks into each other (link receivers, GPU
        handlers, work reporters, fault listeners), which ties a node
        into reference cycles.  :meth:`Simulator.run` pauses the cyclic
        collector, so a finished node must instead be freed by reference
        counting; each component drops the references it owns.  The
        result keeps the network's trackers, the timeline and the merge
        stats, and the node can run no further.
        """
        self.sim.unwire()
        self.network.unwire()
        for gpu in self.executor.gpus:
            gpu.unwire()
        self.fastpath_comms.clear()
        if self.fault_state is not None:
            self.fault_state.unwire()

    def _links_outstanding(self) -> str:
        queued = sum(link.queue_depth() for link in self.network.all_links())
        down = sum(1 for link in self.network.all_links() if link.is_down)
        if not queued and not down:
            return ""
        parts = []
        if queued:
            parts.append(f"{queued} queued messages")
        if down:
            parts.append(f"{down} links down")
        return "fabric: " + ", ".join(parts)

    def restrict_compute_slots(self, fraction: float) -> None:
        """Model SM contention from resident communication kernels
        (CoCoNet/FuseLib software overlap): shrink the compute pool."""
        if not 0 < fraction <= 1:
            raise WorkloadError(f"fraction must be in (0,1], got {fraction}")
        for gpu in self.executor.gpus:
            slots = max(1, int(gpu.total_slots * fraction))
            gpu.set_pools({"default": slots})

    def _fastpath_details(self) -> Dict[str, float]:
        """Fast-path activity for this run's details/report (DESIGN.md §11).

        Keys are emitted only when the corresponding layer actually did
        something, so disabled runs produce byte-identical outputs to a
        build that predates the fast-path entirely.
        """
        out: Dict[str, float] = {}
        elided = sum(link.fastpath_events_elided
                     for link in self.network.all_links())
        analytic = sum(c.analytic_ops for c in self.fastpath_comms)
        calibrations = sum(c.calibrations for c in self.fastpath_comms)
        blacklists = sum(c.blacklists for c in self.fastpath_comms)
        elided += sum(c.events_elided for c in self.fastpath_comms)
        ex = self.executor
        if ex.fastpath_kernels:
            out["fastpath.kernel_launches"] = float(ex.fastpath_kernels)
            elided += ex.fastpath_kernel_events_elided
        if ex.fastpath_kernel_conflicts:
            out["fastpath.kernel_conflicts"] = float(
                ex.fastpath_kernel_conflicts)
        if analytic or calibrations:
            out["fastpath.analytic_ops"] = float(analytic)
            out["fastpath.calibrations"] = float(calibrations)
        if blacklists:
            out["fastpath.blacklists"] = float(blacklists)
        if elided:
            out["fastpath.events_elided"] = float(elided)
        return out

    def result(self, system: str, **details: float) -> RunResult:
        makespan = self.sim.now
        gpu_util = (sum(g.utilization(makespan)
                        for g in self.executor.gpus) /
                    len(self.executor.gpus)) if makespan > 0 else 0.0
        # Run teardown: close anything still open so nothing is silently
        # dropped (kernels abandoned by a deadlock or an `until=` cutoff
        # appear flagged instead of vanishing), and publish final engine
        # health gauges.
        self.timeline.flush(makespan)
        tracer = current_tracer()
        if tracer.enabled:
            tracer.flush(makespan)
        self.sim.publish_metrics()
        metrics = current_metrics()
        if self.fault_state is not None:
            merged = self.fault_state.counters.as_details()
            merged.update(details)
            details = merged
        for key, value in self._fastpath_details().items():
            details.setdefault(key, value)
        critical_path: Optional[CriticalPath] = None
        cz = current_causality()
        if cz.enabled and len(cz):
            # Makespan attribution: walk the causal DAG back from the
            # makespan-defining event; verify() guarantees the per-category
            # nanoseconds sum exactly to the makespan.
            critical_path = extract_critical_path(cz, makespan)
            for category, ns in sorted(critical_path.attribution().items()):
                details[f"explain.{category}"] = ns
                if metrics.enabled:
                    metrics.gauge(f"explain.{category}_ns").set(ns)
            if tracer.enabled:
                annotate_tracer(tracer, critical_path)
        ts = current_timeseries()
        if ts.enabled and tracer.enabled:
            annotate_windows(tracer, ts, makespan)
        reqlog = current_request_log()
        self._unwire()
        return RunResult(system=system, makespan_ns=makespan,
                         compute_ns=self.executor.total_compute_ns,
                         tbs_completed=self.executor.tbs_completed,
                         events=self.sim.events_processed,
                         merge_stats=self.merge_stats,
                         network=self.network,
                         gpu_utilization=gpu_util,
                         timeline=self.timeline,
                         metrics=metrics if metrics.enabled else None,
                         details=dict(details),
                         critical_path=critical_path,
                         timeseries=ts if ts.enabled else None,
                         request_log=reqlog if reqlog.enabled else None)


class CommImpl(Protocol):
    """Collective transport used by barrier/overlap runners.

    ``isolated=True`` is the caller contract of
    ``Executor.launch_kernel(isolated=...)``: nothing else starts before
    the collective completes.  Transports ignore it; the analytic fast
    path (:mod:`repro.collectives.analytic`) engages only when it is set.
    """

    def run(self, kind: CommKind, nbytes: int,
            on_complete: Callable[[], None],
            on_chunk: Optional[Callable[[int, int, int], None]] = None,
            isolated: bool = False) -> None:
        ...  # pragma: no cover - protocol


class RingComm:
    """Ring transport adapter (CoCoNet / FuseLib / T3 / LADM baselines)."""

    #: Analytic fast-path signature tag (repro.collectives.analytic).
    fastpath_transport = "ring"

    def __init__(self, harness: Harness, chunk_bytes: int = 262144):
        self.chunk_bytes = chunk_bytes
        self.driver = RingCollective(harness.network, harness.executor.gpus,
                                     chunk_bytes=chunk_bytes,
                                     fault_state=harness.fault_state)

    def run(self, kind, nbytes, on_complete, on_chunk=None, isolated=False):
        if kind is CommKind.ALL_REDUCE:
            self.driver.all_reduce(nbytes, on_complete, on_chunk)
        elif kind is CommKind.REDUCE_SCATTER:
            self.driver.reduce_scatter(nbytes, on_complete, on_chunk)
        elif kind is CommKind.ALL_GATHER:
            self.driver.all_gather(nbytes, on_complete, on_chunk)
        else:  # pragma: no cover - enum is exhaustive
            raise WorkloadError(f"unknown collective {kind}")


class NvlsComm:
    """NVLS multimem transport adapter (TP-NVLS / SP-NVLS / *-NVLS).

    Under fault injection the adapter is the graceful-degradation seam:
    when a switch's NVLS compute unit fails, in-flight NVLS runs are
    aborted cleanly and re-executed on a reliable ring transport, and all
    subsequent collectives go straight to the ring.  Every fallback is
    counted in the run's fault counters.
    """

    #: Analytic fast-path signature tag (repro.collectives.analytic).
    fastpath_transport = "nvls"

    def __init__(self, harness: Harness, chunk_bytes: int = 262144):
        self.harness = harness
        self.chunk_bytes = chunk_bytes
        self.driver = NvlsCollective(harness.network, harness.executor.gpus,
                                     chunk_bytes=chunk_bytes)
        self._fault_state = harness.fault_state
        self._ring: Optional[RingCollective] = None
        #: run_id -> (kind, nbytes, on_complete, on_chunk) for runs that
        #: must be replayed on the ring if the NVLS unit dies mid-flight.
        self._active: Dict[int, tuple] = {}
        if self._fault_state is not None:
            self._fault_state.on_nvls_fault(self._abort_active)

    def run(self, kind, nbytes, on_complete, on_chunk=None, isolated=False):
        state = self._fault_state
        if state is None:
            self._dispatch(self.driver, kind, nbytes, on_complete, on_chunk)
            return
        if state.nvls_faulted:
            state.counters.bump("nvls_fallbacks")
            self._dispatch(self._ring_driver(), kind, nbytes, on_complete,
                           on_chunk)
            return
        holder = {}

        def done() -> None:
            self._active.pop(holder.get("id"), None)
            on_complete()

        run_id = self._dispatch(self.driver, kind, nbytes, done, on_chunk)
        holder["id"] = run_id
        self._active[run_id] = (kind, nbytes, on_complete, on_chunk)

    def _dispatch(self, driver, kind, nbytes, on_complete, on_chunk):
        if kind is CommKind.ALL_REDUCE:
            return driver.all_reduce(nbytes, on_complete, on_chunk)
        if kind is CommKind.REDUCE_SCATTER:
            return driver.reduce_scatter(nbytes, on_complete, on_chunk)
        if kind is CommKind.ALL_GATHER:
            return driver.all_gather(nbytes, on_complete, on_chunk)
        raise WorkloadError(f"unknown collective {kind}")
        # pragma: no cover - enum is exhaustive

    def _ring_driver(self) -> RingCollective:
        if self._ring is None:
            self._ring = RingCollective(self.harness.network,
                                        self.harness.executor.gpus,
                                        chunk_bytes=self.chunk_bytes,
                                        fault_state=self._fault_state)
        return self._ring

    def _abort_active(self) -> None:
        """NVLS unit died: abort in-flight runs, replay them on the ring."""
        state = self._fault_state
        for run_id, (kind, nbytes, on_complete, on_chunk) in \
                list(self._active.items()):
            if not self.driver.abort(run_id):
                continue
            del self._active[run_id]
            state.counters.bump("nvls_aborts")
            state.counters.bump("nvls_fallbacks")
            self._dispatch(self._ring_driver(), kind, nbytes, on_complete,
                           on_chunk)


class BarrierRunner(GraphRunner):
    """Kernel-barrier execution of a logical graph.

    Each op starts when its graph dependencies complete (parallel branches
    do run concurrently); there is no overlap between a producer kernel and
    its collective — the paper's global-barrier pattern.
    """

    def __init__(self, harness: Harness, comm: CommImpl,
                 tiling: Optional[TilingConfig] = None,
                 launch_overhead_ns: Optional[float] = None):
        super().__init__(harness, tiling, launch_overhead_ns)
        self.comm = maybe_fastpath(harness, comm)

    def _start(self, graph: Graph, plan, op: LogicalOp,
               finish: Callable[[str], None], solo: bool) -> None:
        if op.kind is OpKind.COMM:
            self.comm.run(op.comm, op.comm_bytes, lambda: finish(op.name),
                          isolated=solo)
        else:
            self.harness.executor.launch_kernel(
                self.compute_kernel(op), on_complete=lambda: finish(op.name),
                isolated=solo)
