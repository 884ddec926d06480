"""Parallel experiment fan-out over independent simulations.

The paper's evaluation is a matrix of fully independent ``Simulator``
instances — 9 baselines x Table-I models x ablation grids — and each run
builds its own engine, network, and RNG streams from the task description
alone.  This module fans that matrix across cores:

* :class:`SimTask` — a picklable description of one simulation (system,
  workload graphs, config, scale, optional CAIS-ablation knobs).  Graphs
  carry no closures or engine handles, so tasks ship to worker processes
  unchanged.
* :class:`RunSummary` — the picklable, JSON-round-trippable result
  envelope.  A :class:`~repro.systems.base.RunResult` drags the whole
  ``Network`` and ``Timeline`` along; the summary keeps exactly the
  scalars and series the figure modules consume.
* :func:`run_matrix` — executes a task list, serially (``jobs=1``, the
  byte-for-byte default path) or on a ``ProcessPoolExecutor``, merging
  results back in task order and consulting a
  :class:`~repro.experiments.cache.SimCache` when one is supplied.

Determinism: each task carries its seed inside ``SystemConfig``; every
worker run rebuilds the engine from scratch exactly like the serial path
(``System.run`` resets the tensor/group id counters), so ``--jobs N`` and
``--jobs 1`` produce identical tables and cache entries.
"""

from __future__ import annotations

import os
import time
import warnings
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass, fields, replace
from typing import Dict, List, Optional, Sequence, Tuple

from ..common import fastpath
from ..common.config import FaultSpec, SystemConfig
from ..llm.fleet import ReplicaSpec
from ..llm.graph import Graph
from ..llm.serving import ServingSpec
from .. import obs
from ..obs import ledger_from_env
from .cache import CACHE_SCHEMA, SimCache, fingerprint

#: Metric names emitted by :func:`run_matrix` (satellite: cache and pool
#: health flow through the PR-1 observability layer, visible via
#: ``--metrics``).
CACHE_HITS = "cache.hits"
CACHE_MISSES = "cache.misses"
TASK_WALL_MS = "experiments.task_wall_ms"


@dataclass(frozen=True)
class AblationSpec:
    """CAIS coordination-ablation knobs (Fig. 13's ``_run_cais`` path).

    These runs bypass :func:`~repro.experiments.runner.run_system` —
    they need explicit coordination feature sets and merge-table limits
    that the system registry does not expose — so the task records the
    knobs and the worker rebuilds the ablation harness itself.
    """

    features: Tuple[str, ...] = ()
    merge_capacity: Optional[int] = None     # None = unbounded table
    merge_timeout: Optional[float] = None    # None = no timeout

    @classmethod
    def of(cls, features) -> "AblationSpec":
        return cls(features=tuple(sorted(features)))


@dataclass(frozen=True)
class SimTask:
    """One independent simulation, fully described by value.

    ``utilization_windows`` asks the worker to pre-compute the Fig. 16
    windowed utilization series (the raw per-link trackers do not travel
    back across the process boundary).  It does **not** enter the cache
    fingerprint — see :func:`summary_satisfies`.
    """

    system: str
    graphs: Tuple[Graph, ...]
    config: SystemConfig
    scale: object                            # runner.Scale (import cycle)
    kwargs: Tuple[Tuple[str, object], ...] = ()
    utilization_windows: Optional[int] = None
    ablation: Optional[AblationSpec] = None
    #: When set, the worker runs the request-level serving workload
    #: (``graphs`` stays empty — the driver builds one graph per
    #: continuous-batching iteration from the spec).
    serving: Optional[ServingSpec] = None
    #: When set, the worker runs one fleet replica's serving stream: the
    #: explicit pre-routed request list inside the replica spec, not the
    #: spec's own Poisson stream.  The per-request outcomes travel back
    #: in ``RunSummary.request_stats`` for fleet aggregation.
    replica: Optional[ReplicaSpec] = None
    #: Ask the worker to run under a private metrics registry and ship the
    #: full histogram states (not just scalar summaries) back in the
    #: envelope, so matrix callers can merge distributions across cells
    #: (:func:`repro.obs.merge_histogram_states`).  Like
    #: ``utilization_windows`` it does not change the simulation outcome
    #: and stays out of the cache fingerprint — see
    #: :func:`summary_satisfies`.
    collect_histograms: bool = False

    def payload(self) -> Dict[str, object]:
        """Canonical fingerprint payload: everything that can change the
        simulation outcome, nothing that cannot."""
        out = {
            "schema": CACHE_SCHEMA,
            "system": self.system,
            "kwargs": [[k, v] for k, v in sorted(self.kwargs)],
            "graphs": [_graph_payload(g) for g in self.graphs],
            "config": self.config,
            "scale": self.scale,
            "ablation": self.ablation,
            "serving": self.serving,
            "replica": self.replica,
        }
        # Engine fast-path layers change summary fields (event counts,
        # fastpath.* details) even when the physics is identical, so runs
        # under different layer sets must not share cache entries.  The
        # token is omitted entirely when every layer is off so that
        # ``--no-fastpath`` reuses pre-fast-path cache entries unchanged.
        fp = fastpath.config()
        if fp.any_enabled:
            out["fastpath"] = fp.cache_token()
        return out

    def fingerprint(self) -> str:
        return fingerprint(self.payload())


def _graph_payload(graph: Graph) -> Dict[str, object]:
    """Structural identity of a workload graph (insertion order is the
    graph's canonical op order)."""
    return {
        "name": graph.name,
        "ops": [{
            "name": op.name,
            "kind": op.kind,
            "deps": list(op.deps),
            "gemm": op.gemm,
            "elements": op.elements,
            "flops_per_element": op.flops_per_element,
            "comm": op.comm,
            "comm_bytes": op.comm_bytes,
            "sublayer": op.sublayer,
        } for op in graph.ops()],
    }


@dataclass(frozen=True)
class RunSummary:
    """Slim, picklable projection of a :class:`RunResult`.

    Holds every quantity the figure modules read off a result — makespan,
    bandwidth utilization (whole-run average, total link bytes, optional
    windowed series) and the merge-unit statistics — without the
    ``Network``/``Timeline`` object graphs.
    """

    system: str
    makespan_ns: float
    compute_ns: float
    tbs_completed: int
    events: int
    gpu_utilization: float
    avg_bandwidth_utilization: float
    link_bytes_total: int
    merge_peak_bytes_per_port: float
    merge_average_wait_ns: float
    #: Fig. 16 series: ((window_center_us, mean_utilization), ...).
    utilization_series: Optional[Tuple[Tuple[float, float], ...]] = None
    details: Tuple[Tuple[str, float], ...] = ()
    #: Full histogram states (:meth:`repro.obs.Histogram.state`), sorted by
    #: name, when the task asked for them; ``None`` = not collected (an
    #: empty tuple means collected-but-nothing-recorded, so cache entries
    #: distinguish the two).
    histograms: Optional[Tuple[Dict[str, object], ...]] = None
    #: Per-request outcome rows for fleet replica tasks
    #: (:func:`repro.llm.fleet.encode_request_stats`); ``None`` for every
    #: other task kind.  Cache schema v5 field.
    request_stats: Optional[Tuple[Tuple[float, ...], ...]] = None

    @classmethod
    def from_result(cls, result, windows: Optional[int] = None,
                    histograms: bool = False) -> "RunSummary":
        """Project a live :class:`RunResult` down to the summary form."""
        link_bytes = 0
        series = None
        if result.network is not None:
            link_bytes = sum(link.tracker.bytes_transferred
                             for link in result.network.all_links())
            if windows and result.makespan_ns > 0:
                series = _utilization_series(result.network,
                                             result.makespan_ns, windows)
        merge_peak = merge_wait = 0.0
        if result.merge_stats is not None:
            merge_peak = float(result.merge_stats.peak_bytes_per_port())
            merge_wait = result.merge_stats.average_wait_ns()
        hist_states = None
        if histograms:
            hist_states = (tuple(result.metrics.histogram_states())
                           if result.metrics is not None else ())
        return cls(
            system=result.system,
            makespan_ns=result.makespan_ns,
            compute_ns=result.compute_ns,
            tbs_completed=result.tbs_completed,
            events=result.events,
            gpu_utilization=result.gpu_utilization,
            avg_bandwidth_utilization=
                result.average_bandwidth_utilization(),
            link_bytes_total=link_bytes,
            merge_peak_bytes_per_port=merge_peak,
            merge_average_wait_ns=merge_wait,
            utilization_series=series,
            details=tuple(sorted(result.details.items())),
            histograms=hist_states,
        )

    def to_dict(self) -> Dict[str, object]:
        """JSON-serializable form (the on-disk cache entry)."""
        out: Dict[str, object] = {
            f.name: getattr(self, f.name) for f in fields(self)}
        if self.utilization_series is not None:
            out["utilization_series"] = [list(p)
                                         for p in self.utilization_series]
        out["details"] = [list(p) for p in self.details]
        if self.histograms is not None:
            out["histograms"] = [dict(h) for h in self.histograms]
        if self.request_stats is not None:
            out["request_stats"] = [list(r) for r in self.request_stats]
        return out

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "RunSummary":
        known = {f.name for f in fields(cls)}
        kw = {k: v for k, v in payload.items() if k in known}
        if kw.get("utilization_series") is not None:
            kw["utilization_series"] = tuple(
                (float(t), float(u)) for t, u in kw["utilization_series"])
        kw["details"] = tuple((str(k), float(v))
                              for k, v in kw.get("details", ()))
        if kw.get("histograms") is not None:
            kw["histograms"] = tuple(dict(h) for h in kw["histograms"])
        if kw.get("request_stats") is not None:
            kw["request_stats"] = tuple(
                tuple(float(x) for x in r) for r in kw["request_stats"])
        return cls(**kw)


def _utilization_series(network, makespan_ns: float, windows: int,
                        ) -> Tuple[Tuple[float, float], ...]:
    """Windowed mean link utilization: exactly ``windows`` entries of
    (window center in us, mean utilization over every link direction)."""
    links = network.all_links()
    window = makespan_ns / windows
    series: List[Tuple[float, float]] = []
    # Iterate window *indices*: accumulating t += window drifts in float
    # and can emit an extra sliver window at the end.
    for i in range(windows):
        lo = i * window
        hi = makespan_ns if i == windows - 1 else (i + 1) * window
        util = sum(link.tracker.utilization(lo, hi)
                   for link in links) / len(links)
        series.append(((lo + hi) / 2 / 1e3, util))
    return tuple(series)


def summary_satisfies(task: SimTask, summary: RunSummary) -> bool:
    """Whether a cached summary answers everything ``task`` asks for.

    Windowed-series resolution deliberately stays out of the fingerprint
    (so fig12/fig15 share entries with plain runs of the same workload);
    a fig16-style task therefore re-checks the summary's shape here and
    re-simulates on mismatch, overwriting the entry with a richer one.
    """
    if task.collect_histograms and summary.histograms is None:
        return False
    # Replica tasks need the per-request rows back for aggregation; an
    # entry written by a non-replica run of the same shape (impossible
    # under one schema, but cheap to guard) re-simulates.
    if task.replica is not None and summary.request_stats is None:
        return False
    if task.utilization_windows is None:
        return True
    series = summary.utilization_series
    return (series is not None
            and len(series) == task.utilization_windows
            and summary.makespan_ns > 0)


@dataclass
class ExecContext:
    """How a figure's task matrix executes: worker count + result cache.

    The default (``jobs=1``, no cache) is today's serial in-process path,
    byte-for-byte — library callers that never pass a context see no
    behaviour change.
    """

    jobs: int = 1
    cache: Optional[SimCache] = None
    #: When set *and enabled*, every task whose config has faults disabled
    #: is re-issued with this fault spec before fingerprinting — faulted
    #: and fault-free runs can never share a cache entry (the spec lives
    #: inside SystemConfig, so it enters the task fingerprint).  Tasks
    #: that already carry an enabled spec (e.g. fig19's own intensity
    #: sweep) keep theirs.  A disabled spec here is just a flag carrier
    #: (e.g. ``--fault-seed`` for fig19) and changes nothing.
    fault_spec: Optional[FaultSpec] = None
    #: Opt-in live stderr progress board (done/total, cache hit rate,
    #: worker utilization, EWMA task wall time, ETA).  Harness telemetry
    #: only — adds zero simulation events and zero RNG draws.
    progress: bool = False
    #: When set, write a Perfetto trace **of the runner** to this path:
    #: one track per worker process, one span per executed task, instant
    #: events for cache hits (see :mod:`.telemetry`).
    meta_trace: Optional[str] = None


#: Shared default so ``ctx=None`` callers allocate nothing.
SERIAL = ExecContext()


def _execute_task(task: SimTask) -> Tuple[RunSummary, float]:
    """Run one task to completion; returns (summary, host wall ms).

    Top-level so it pickles into pool workers; also the serial path, so
    both modes share one code path per task.
    """
    start = time.perf_counter()
    # A private registry per task, so the harvested histograms describe
    # exactly this simulation even when the caller's own registry is
    # installed (and in pool workers, where nothing is).
    private = ({"metrics": obs.MetricsRegistry()}
               if task.collect_histograms else {})
    with obs.installed(**private):
        serving = None
        if task.replica is not None:
            serving = _run_replica(task)
            result = serving.run
        elif task.serving is not None:
            result = _run_serving(task)
        elif task.ablation is not None:
            result = _run_ablation(task)
        else:
            from .runner import run_system
            result = run_system(task.system, list(task.graphs), task.config,
                                task.scale, **dict(task.kwargs))
        summary = RunSummary.from_result(
            result, windows=task.utilization_windows,
            histograms=task.collect_histograms)
        if serving is not None:
            from ..llm.fleet import encode_request_stats
            summary = replace(summary,
                              request_stats=encode_request_stats(serving))
    return summary, (time.perf_counter() - start) * 1e3


def _ledger_append(ledger, task: SimTask, summary: RunSummary, *,
                   fingerprint: str, cache_hit: bool,
                   wall_ms: float) -> None:
    """Append one run record, never letting a ledger bug kill the sweep.

    The record policy lives in :mod:`.ledger` (imported lazily — it pulls
    in :mod:`.runner`); any failure building or writing the record is
    downgraded to a warning because the ledger is an observer, not a
    correctness dependency.
    """
    if ledger is None:
        return
    try:
        from .ledger import record_for_task
        ledger.append(record_for_task(task, summary, cache_hit=cache_hit,
                                      wall_ms=wall_ms,
                                      fingerprint=fingerprint))
    except Exception as exc:   # noqa: BLE001 - observer must not raise
        warnings.warn(f"run ledger: dropping record for "
                      f"{fingerprint[:12]}… ({exc})", RuntimeWarning,
                      stacklevel=2)


def _execute_task_observed(
        task: SimTask) -> Tuple[RunSummary, float, int, float, float]:
    """Pool entry point: :func:`_execute_task` plus harness provenance.

    Returns ``(summary, wall_ms, pid, start_monotonic, end_monotonic)``
    — the extra fields feed the parent's meta-trace worker tracks.  The
    worker also appends its own ledger miss-record here: ``REPRO_LEDGER``
    travels through the process environment, so the record is written by
    the process that did the work, concurrently with its siblings.
    (:func:`_execute_task` itself keeps its two-tuple contract.)
    """
    t0 = time.monotonic()
    summary, wall_ms = _execute_task(task)
    t1 = time.monotonic()
    ledger = ledger_from_env()
    if ledger is not None:
        _ledger_append(ledger, task, summary,
                       fingerprint=task.fingerprint(), cache_hit=False,
                       wall_ms=wall_ms)
    return summary, wall_ms, os.getpid(), t0, t1


def _task_label(task: SimTask) -> str:
    """Human-readable span name for the meta-trace / progress board."""
    if task.replica is not None:
        return (f"{task.system} fleet:"
                f"{task.replica.role}{task.replica.index}")
    if task.serving is not None:
        return f"{task.system} serving"
    if task.ablation is not None:
        return f"{task.system} ablation"
    if task.graphs:
        return f"{task.system} {task.graphs[0].name}"
    return task.system


def _run_serving(task: SimTask):
    """One request-level serving run (the fig20 workload).

    The system instance is built exactly like :func:`runner.run_system`
    builds it; the serving driver then owns the graph sequence, so the
    task ships no graphs — the spec *is* the workload."""
    from ..llm.serving import simulate_serving
    from ..systems import make_system
    from .runner import style_for
    instance = make_system(task.system, task.config,
                           tiling=task.scale.tiling,
                           chunk_bytes=task.scale.coll_chunk_bytes,
                           **dict(task.kwargs))
    return simulate_serving(instance, task.serving,
                            style=style_for(task.system)).run


def _run_replica(task: SimTask):
    """One fleet replica's serving run (the fig22 workload unit).

    Identical to :func:`_run_serving` except the request stream is the
    router's explicit pre-routed list, not the spec's Poisson stream, and
    the full :class:`~repro.llm.serving.ServingResult` is kept so the
    caller can ship per-request outcomes back for fleet aggregation."""
    from ..llm.serving import simulate_serving
    from ..systems import make_system
    from .runner import style_for
    rs = task.replica
    model = rs.model
    if model is None:
        from ..llm.models import by_name
        model = by_name(rs.spec.model)
    instance = make_system(task.system, task.config,
                           tiling=task.scale.tiling,
                           chunk_bytes=task.scale.coll_chunk_bytes,
                           **dict(task.kwargs))
    return simulate_serving(instance, rs.spec, model=model,
                            style=style_for(task.system),
                            requests=rs.to_requests())


def _run_ablation(task: SimTask):
    """One CAIS run with explicit coordination features and table limits
    (the Fig. 13 harness)."""
    from ..cais import compiler as cais_compiler
    from ..cais.dataflow import CaisRunner
    from ..llm import tiling as llm_tiling
    from ..systems import Harness, Session

    spec = task.ablation
    llm_tiling.reset_tensor_ids()
    cais_compiler.reset_group_ids()
    harness = Harness(task.config, merge=True,
                      merge_capacity=spec.merge_capacity,
                      merge_timeout=spec.merge_timeout,
                      sync_tables=True, traffic_control=True,
                      fair_share=True)
    runner = CaisRunner(harness, tiling=task.scale.tiling,
                        dataflow=True, coordination=True,
                        coordination_features=frozenset(spec.features))
    return Session(task.system, harness, runner).run(list(task.graphs))


def run_matrix(tasks: Sequence[SimTask],
               ctx: Optional[ExecContext] = None) -> List[RunSummary]:
    """Execute every task, returning summaries in task order.

    Cache hits never reach the pool; misses fan out across
    ``ctx.jobs`` worker processes (``jobs=1`` runs them serially in
    process, preserving today's execution exactly).  Identical tasks
    within one matrix (figures sharing baseline runs) simulate once.
    Emits ``cache.hits``/``cache.misses`` counters and an
    ``experiments.task_wall_ms`` histogram when metrics are installed.

    Harness observability (all opt-in, all outside the simulation):
    when ``$REPRO_LEDGER`` names a directory, every task outcome —
    simulated, cache-served, or aliased — appends one run record there
    (workers append their own miss records; the parent appends hit
    records with zero wall time).  ``ctx.progress`` drives a live
    stderr board and ``ctx.meta_trace`` writes a Perfetto trace of the
    runner itself (:mod:`.telemetry`).
    """
    ctx = ctx or SERIAL
    if ctx.fault_spec is not None and ctx.fault_spec.enabled:
        tasks = [task if task.config.faults.enabled
                 else replace(task,
                              config=task.config.with_faults(ctx.fault_spec))
                 for task in tasks]
    metrics = obs.current().metrics
    ledger = ledger_from_env()
    board = meta = None
    if ctx.progress:
        from .telemetry import ProgressBoard
        board = ProgressBoard(len(tasks), ctx.jobs)
    if ctx.meta_trace is not None:
        from .telemetry import MetaTrace
        meta = MetaTrace()
    # Fingerprints cost one canonical-JSON + sha256 per task; skip them
    # entirely unless something downstream (cache, ledger, meta-trace)
    # consumes them, preserving the bare serial path byte-for-byte.
    need_fp = (ctx.cache is not None or ledger is not None
               or meta is not None)
    out: List[Optional[RunSummary]] = [None] * len(tasks)
    fps: List[Optional[str]] = [None] * len(tasks)
    pending: List[int] = []
    queued: Dict[str, int] = {}       # fingerprint -> first pending index
    aliases: List[Tuple[int, int]] = []   # (dup index, source index)
    for i, task in enumerate(tasks):
        if need_fp:
            fps[i] = task.fingerprint()
        if ctx.cache is not None:
            stored = ctx.cache.lookup(fps[i])
            if stored is not None:
                try:
                    summary = RunSummary.from_dict(stored)
                except (TypeError, ValueError):
                    summary = None
                if summary is not None and summary_satisfies(task, summary):
                    out[i] = summary
                    if metrics is not None:
                        metrics.counter(CACHE_HITS).inc()
                    if board is not None:
                        board.cache_hit()
                    if meta is not None:
                        meta.cache_hit(i, _task_label(task), fps[i])
                    _ledger_append(ledger, task, summary,
                                   fingerprint=fps[i], cache_hit=True,
                                   wall_ms=0.0)
                    continue
            src = queued.get(fps[i])
            if src is not None and (
                    not task.collect_histograms or
                    tasks[src].collect_histograms) and (
                    task.utilization_windows is None or
                    task.utilization_windows ==
                    tasks[src].utilization_windows):
                aliases.append((i, src))
                if metrics is not None:
                    metrics.counter(CACHE_HITS).inc()
                if board is not None:
                    board.cache_hit()
                if meta is not None:
                    meta.cache_hit(i, _task_label(task), fps[i])
                continue
            queued[fps[i]] = i
            if metrics is not None:
                metrics.counter(CACHE_MISSES).inc()
        pending.append(i)

    if pending:
        work = [tasks[i] for i in pending]
        jobs = min(max(1, ctx.jobs), len(work))
        if jobs > 1:
            # submit/as_completed (not pool.map) so the board can tick
            # as tasks finish; results land in a position-indexed list,
            # and everything order-sensitive below runs in pending order
            # — parallel and serial modes stay byte-identical.
            outcomes: List = [None] * len(work)
            with ProcessPoolExecutor(max_workers=jobs) as pool:
                futures = {pool.submit(_execute_task_observed, task): pos
                           for pos, task in enumerate(work)}
                for future in as_completed(futures):
                    pos = futures[future]
                    outcomes[pos] = future.result()
                    if board is not None:
                        board.task_done(outcomes[pos][1])
        else:
            outcomes = []
            for task in work:
                outcomes.append(_execute_task_observed(task))
                if board is not None:
                    board.task_done(outcomes[-1][1])
        for i, (summary, wall_ms, pid, t0, t1) in zip(pending, outcomes):
            out[i] = summary
            if metrics is not None:
                metrics.histogram(TASK_WALL_MS).record(wall_ms)
            if ctx.cache is not None:
                ctx.cache.store(fps[i], summary.to_dict())
            if meta is not None:
                meta.task_span(i, _task_label(tasks[i]), fps[i] or "",
                               pid, t0, t1, wall_ms)
    for i, src in aliases:
        out[i] = out[src]
        # In-matrix duplicates are cache hits in every sense that
        # matters to the ledger: same fingerprint, no new simulation.
        _ledger_append(ledger, tasks[i], out[src],
                       fingerprint=fps[i], cache_hit=True, wall_ms=0.0)
    if board is not None:
        board.close()
    if meta is not None:
        meta.write(ctx.meta_trace)
    return out  # type: ignore[return-value]
