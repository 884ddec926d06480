"""In-memory span tracing of the simulator's layers, from outside ``src/``.

The traced run wraps the public entry points of each layer (class methods
and module functions, patched for the duration of one pass and restored
afterwards) in spans, and installs a :class:`~repro.obs.profiler.SimProfiler`
subclass that opens one span per event callback, named after the module
that owns the callback.  Spans nest on one stack (the simulator is
single-threaded), so each span's *self time* is its duration minus the
time its child spans cover, and the self times of all spans partition the
traced region exactly.  Only per-name aggregates (calls, total, self) are
kept, in memory; they are turned into per-layer metrics when the run ends.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Tuple


class Tracer:
    """Aggregating span recorder: calls, inclusive and self seconds."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self._clock = clock
        self._stack: List[list] = []          # [name, start, child_s]
        self.calls: Dict[str, int] = defaultdict(int)
        self.total_s: Dict[str, float] = defaultdict(float)
        self.self_s: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, int] = defaultdict(int)

    def enter(self, name: str) -> None:
        self._stack.append([name, self._clock(), 0.0])

    def exit(self) -> None:
        name, start, child = self._stack.pop()
        duration = self._clock() - start
        self.calls[name] += 1
        self.total_s[name] += duration
        self.self_s[name] += duration - child
        if self._stack:
            self._stack[-1][2] += duration


def spanned(tracer: Tracer, name: str, fn: Callable) -> Callable:
    """``fn`` wrapped in a span called ``name``."""
    enter, exit_ = tracer.enter, tracer.exit

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        enter(name)
        try:
            return fn(*args, **kwargs)
        finally:
            exit_()
    return traced


def counted(tracer: Tracer, name: str, fn: Callable) -> Callable:
    """``fn`` wrapped in a bare call counter (for per-event hot calls,
    where a span would cost more than the call)."""
    counts = tracer.counts

    @functools.wraps(fn)
    def tally(*args, **kwargs):
        counts[name] += 1
        return fn(*args, **kwargs)
    return tally


#: Callback-owner module prefix -> layer, for the per-event profiler spans.
#: The first matching prefix wins.
CALLBACK_LAYERS: Tuple[Tuple[str, str], ...] = (
    ("repro.interconnect.link", "link"),
    ("repro.interconnect.switch", "switch"),
    ("repro.cais.merge_unit", "merge"),
    ("repro.cais.coordination", "sync"),
    ("repro.nvls.engine", "nvls"),
    ("repro.gpu.executor", "executor"),
    ("repro.gpu", "gpu"),
    ("repro.llm.tiling", "tiling"),
    ("repro.collectives", "collectives"),
    ("repro.llm.serving", "serving"),
    ("repro.systems", "systems"),
    ("repro.cais", "systems"),
    ("repro.experiments", "matrix"),
)


def _callback_function(callback: Callable) -> Callable:
    """The plain function behind a bound method."""
    return getattr(callback, "__func__", callback)


def callback_layer(callback: Callable) -> str:
    """The layer whose module defines an event callback (``other`` when
    no layer claims it)."""
    module = getattr(_callback_function(callback), "__module__", None) or ""
    for prefix, layer in CALLBACK_LAYERS:
        if module == prefix or module.startswith(prefix + "."):
            return layer
    return "other"


def traced_profiler(tracer: Tracer):
    """A ``SimProfiler`` that opens one ``cb.<layer>`` span per event.

    Built lazily so this module imports without ``repro`` on the path.
    """
    from repro.obs.profiler import SimProfiler

    class SpanProfiler(SimProfiler):
        def __init__(self) -> None:
            super().__init__()
            # Keyed by code object: closures are created per call, their
            # code is one per definition site.
            self._names: Dict[object, str] = {}

        def timed(self, callback, args) -> None:
            fn = _callback_function(callback)
            key = getattr(fn, "__code__", None) or type(fn)
            name = self._names.get(key)
            if name is None:
                name = self._names[key] = "cb." + callback_layer(callback)
            tracer.enter(name)
            try:
                callback(*args)
            finally:
                tracer.exit()
            self.events += 1

    return SpanProfiler()


class Patcher:
    """Replaces attributes for the traced pass and restores them after."""

    def __init__(self) -> None:
        self._saved: List[Tuple[object, str, object]] = []

    def method(self, cls, attr: str, wrap: Callable[[Callable], Callable]):
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            new = classmethod(wrap(raw.__func__))
        else:
            new = wrap(raw)
        self._saved.append((cls, attr, raw))
        setattr(cls, attr, new)

    def function(self, fn: Callable, wrap: Callable[[Callable], Callable]):
        """Replace ``fn`` in every loaded module that binds it, so that
        ``from x import fn`` call sites see the wrapper too."""
        new = wrap(fn)
        for module in list(sys.modules.values()):
            namespace = getattr(module, "__dict__", None) or {}
            for attr, value in list(namespace.items()):
                if value is fn:
                    self._saved.append((module, attr, value))
                    setattr(module, attr, new)

    def restore(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)


def install_spans(tracer: Tracer, patcher: Patcher) -> None:
    """Wrap every layer entry point the per-layer metrics read."""
    from repro.cais.coordination import GroupSyncTable
    from repro.cais.merge_unit import MergeUnit
    from repro.collectives.analytic import CollectiveFastPath
    from repro.collectives.nvls_collectives import NvlsCollective
    from repro.collectives.ring import RingCollective
    from repro.common.events import Simulator
    from repro.experiments import runner
    from repro.experiments.cache import SimCache
    from repro.experiments.parallel import RunSummary, SimTask, run_matrix
    from repro.gpu.executor import Executor
    from repro.gpu.gpu import Gpu
    from repro.interconnect.link import Link
    from repro.interconnect.switch import Switch
    from repro.llm import serving, tiling, tp
    from repro.nvls.engine import NvlsEngine
    from repro.systems.base import Harness
    from repro.systems.systems import System

    def span(name):
        return lambda fn: spanned(tracer, name, fn)

    def count(name):
        return lambda fn: counted(tracer, name, fn)

    patcher.method(Simulator, "run", span("events.run"))
    patcher.method(Simulator, "schedule", count("events.scheduled"))
    patcher.method(Simulator, "schedule_at", count("events.scheduled"))
    patcher.method(Link, "send", span("link.send"))
    # Wire deliveries fused with the switch hop skip ``Switch.receive``
    # and enter at ``_dispatch``, which every arriving message reaches.
    patcher.method(Switch, "_dispatch", span("switch.receive"))
    patcher.method(MergeUnit, "process", span("merge.process"))
    patcher.method(GroupSyncTable, "process", span("sync.process"))
    patcher.method(NvlsEngine, "process", span("nvls.process"))
    patcher.method(Gpu, "receive", span("gpu.receive"))
    patcher.method(Executor, "launch_kernel", span("executor.launch"))
    for builder in (tiling.compute_kernel, tiling.gemm_rs_kernel,
                    tiling.ln_kernel, tiling.replicated_vector_kernel,
                    tiling.row_gated_gemm_kernel, tiling.ag_gemm_kernel):
        patcher.function(builder, span("tiling.build"))
    patcher.method(tiling.ActivationLayout, "address",
                   span("tiling.address"))
    for cls in (RingCollective, NvlsCollective):
        for op in ("all_reduce", "reduce_scatter", "all_gather"):
            patcher.method(cls, op, span("collectives.op"))
    patcher.method(CollectiveFastPath, "run", span("collectives.analytic"))
    patcher.method(serving.ContinuousBatcher, "plan_iteration",
                   span("serving.plan"))
    patcher.method(serving.ContinuousBatcher, "commit",
                   span("serving.commit"))
    patcher.function(serving.serving_iteration_graph, span("serving.graph"))
    patcher.method(System, "session", span("systems.session"))
    patcher.method(Harness, "result", _result_probe(tracer))
    patcher.function(runner.layer_graphs, span("graph.build"))
    patcher.function(tp.sublayer_graph, span("graph.build"))
    patcher.function(run_matrix, span("matrix.run"))
    patcher.method(SimTask, "fingerprint", span("matrix.fingerprint"))
    patcher.method(RunSummary, "from_result", span("matrix.summary"))
    patcher.method(RunSummary, "from_dict", span("matrix.summary"))
    patcher.method(SimCache, "lookup", _lookup_probe(tracer))
    patcher.method(SimCache, "store", span("cache.store"))


def _result_probe(tracer: Tracer):
    """Span ``Harness.result`` and harvest the finished run's counters."""
    from repro.cais.coordination import GroupSyncTable

    def wrap(fn):
        inner = spanned(tracer, "systems.result", fn)

        @functools.wraps(fn)
        def result(harness, *args, **kwargs):
            res = inner(harness, *args, **kwargs)
            counts = tracer.counts
            counts["executor.tbs"] += res.tbs_completed
            if harness.merge_stats is not None:
                counts["merge.timeouts"] += \
                    harness.merge_stats.timeout_evictions
            for sw in harness.network.switches:
                for engine in sw.engines:
                    if isinstance(engine, GroupSyncTable):
                        counts["sync.timeouts"] += engine.timeout_releases
            for key, value in res.details.items():
                if key.startswith("fastpath."):
                    counts[key] += int(value)
            return res
        return result
    return wrap


def _lookup_probe(tracer: Tracer):
    """Span ``SimCache.lookup`` and count hits and misses."""
    def wrap(fn):
        inner = spanned(tracer, "cache.lookup", fn)

        @functools.wraps(fn)
        def lookup(cache, fp):
            stored = inner(cache, fp)
            tracer.counts["cache.hits" if stored is not None
                          else "cache.misses"] += 1
            return stored
        return lookup
    return wrap


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer) -> Dict[str, float]:
    """Per-layer metrics from one traced pass (see README.md's map)."""
    calls, total, own, counts = (tracer.calls, tracer.total_s,
                                 tracer.self_s, tracer.counts)

    def self_of(*names: str) -> float:
        return sum(own.get(n, 0.0) for n in names)

    sends = calls.get("link.send", 0)
    launches = calls.get("executor.launch", 0)
    analytic_launches = counts.get("fastpath.kernel_launches", 0)
    analytic_ops = counts.get("fastpath.analytic_ops", 0)
    coll_calls = calls.get("collectives.op", 0) + analytic_ops
    hits, misses = counts.get("cache.hits", 0), counts.get("cache.misses", 0)
    window_messages = counts.get("fastpath.link_messages", 0)
    return {
        "events.processed": counts.get("events.processed", 0),
        "events.scheduled": counts.get("events.scheduled", 0),
        "events.loop_self_s": self_of("events.run"),
        "link.send_calls": sends,
        "link.self_s": self_of("link.send", "cb.link"),
        "link.window_messages": window_messages,
        "link.window_ratio": _ratio(window_messages, sends),
        "switch.receive_calls": calls.get("switch.receive", 0),
        "switch.self_s": self_of("switch.receive", "cb.switch"),
        "merge.process_calls": calls.get("merge.process", 0),
        "merge.self_s": self_of("merge.process", "cb.merge"),
        "merge.timeouts": counts.get("merge.timeouts", 0),
        "sync.process_calls": calls.get("sync.process", 0),
        "sync.self_s": self_of("sync.process", "cb.sync"),
        "sync.timeouts": counts.get("sync.timeouts", 0),
        "nvls.process_calls": calls.get("nvls.process", 0),
        "nvls.self_s": self_of("nvls.process", "cb.nvls"),
        "gpu.receive_calls": calls.get("gpu.receive", 0),
        "gpu.self_s": self_of("gpu.receive", "cb.gpu"),
        "executor.launches": launches,
        "executor.tbs": counts.get("executor.tbs", 0),
        "executor.self_s": self_of("executor.launch", "cb.executor"),
        "executor.analytic_launches": analytic_launches,
        "executor.analytic_ratio": _ratio(analytic_launches, launches),
        "tiling.kernel_builds": calls.get("tiling.build", 0),
        "tiling.address_calls": calls.get("tiling.address", 0),
        "tiling.self_s": self_of("tiling.build", "tiling.address",
                                 "cb.tiling"),
        "collectives.calls": coll_calls,
        "collectives.analytic_ops": analytic_ops,
        "collectives.calibrations": counts.get("fastpath.calibrations", 0),
        "collectives.disagreements":
            counts.get("fastpath.analytic_disagreements", 0),
        "collectives.replay_ratio": _ratio(analytic_ops, coll_calls),
        "collectives.self_s": self_of("collectives.op",
                                      "collectives.analytic",
                                      "cb.collectives"),
        "fastpath.events_elided": counts.get("fastpath.events_elided", 0),
        "serving.iterations": calls.get("serving.commit", 0),
        "serving.plan_s": self_of("serving.plan", "serving.commit"),
        "serving.graph_s": total.get("serving.graph", 0.0),
        "systems.sessions": calls.get("systems.session", 0),
        "systems.session_s": total.get("systems.session", 0.0),
        "systems.result_s": total.get("systems.result", 0.0),
        "graph.build_s": total.get("graph.build", 0.0),
        "matrix.tasks": counts.get("matrix.tasks", 0),
        "matrix.fingerprint_s": total.get("matrix.fingerprint", 0.0),
        "matrix.summary_s": total.get("matrix.summary", 0.0),
        "cache.hits": hits,
        "cache.misses": misses,
        "cache.hit_ratio": _ratio(hits, hits + misses),
        "cache.lookup_s": total.get("cache.lookup", 0.0),
        "cache.store_s": total.get("cache.store", 0.0),
        "other.self_s": self_of("cb.other", "cb.systems", "cb.serving",
                                "cb.matrix"),
    }
