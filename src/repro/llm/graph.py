"""Logical operator graphs for tensor-parallel transformer layers.

A :class:`Graph` is the *system-independent* description of the work: GEMMs
with their per-GPU shapes, vector ops (LayerNorm, GeLU, dropout+add,
attention-softmax), and collective ops (AllReduce / ReduceScatter /
AllGather) with their global tensor sizes.  Every system under test lowers
the same graph differently — kernel-level barriers, chunked software
pipelines, or CAIS's fused TB-level dataflow — which is exactly the paper's
comparison axis.  :class:`GraphRunner` is the part they share: the
dependency walk that starts each op once its inputs have finished.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Dict, List, Optional, Tuple

from ..common.errors import WorkloadError
from ..obs import current_causality
from ..obs.causality import BARRIER_SYNC


class OpKind(enum.Enum):
    GEMM = "gemm"
    VECTOR = "vector"                    # LN / GeLU / dropout+add / softmax
    COMM = "comm"


class CommKind(enum.Enum):
    ALL_REDUCE = "allreduce"
    REDUCE_SCATTER = "reducescatter"
    ALL_GATHER = "allgather"


@dataclass(frozen=True)
class GemmShape:
    """Per-GPU GEMM operand shapes: C[m, n] += A[m, k] @ B[k, n]."""

    m: int
    n: int
    k: int

    def flops(self) -> int:
        return 2 * self.m * self.n * self.k


@dataclass
class LogicalOp:
    """One node of the layer graph."""

    name: str
    kind: OpKind
    deps: Tuple[str, ...] = ()
    gemm: Optional[GemmShape] = None
    #: VECTOR ops: number of elements and arithmetic intensity.
    elements: int = 0
    flops_per_element: float = 8.0
    #: COMM ops: collective kind and the *global* tensor size in bytes.
    comm: Optional[CommKind] = None
    comm_bytes: int = 0
    #: Fig. 12 sub-layer tag (L1..L4) when the op belongs to one.
    sublayer: Optional[str] = None

    def __post_init__(self) -> None:
        if self.kind is OpKind.GEMM and self.gemm is None:
            raise WorkloadError(f"GEMM op {self.name} needs shapes")
        if self.kind is OpKind.COMM and (self.comm is None or
                                         self.comm_bytes <= 0):
            raise WorkloadError(f"COMM op {self.name} needs kind and bytes")
        if self.kind is OpKind.VECTOR and self.elements <= 0:
            raise WorkloadError(f"VECTOR op {self.name} needs elements")

    def flops(self) -> float:
        """Per-GPU arithmetic work of this op (0 for pure communication)."""
        if self.kind is OpKind.GEMM:
            return float(self.gemm.flops())
        if self.kind is OpKind.VECTOR:
            return self.elements * self.flops_per_element
        return 0.0


class Graph:
    """A small DAG of logical ops with explicit name-based dependencies."""

    def __init__(self, name: str):
        self.name = name
        self._ops: Dict[str, LogicalOp] = {}

    def add(self, op: LogicalOp) -> LogicalOp:
        if op.name in self._ops:
            raise WorkloadError(f"duplicate op name {op.name!r}")
        for dep in op.deps:
            if dep not in self._ops:
                raise WorkloadError(
                    f"op {op.name!r} depends on unknown {dep!r} "
                    f"(add producers before consumers)")
        self._ops[op.name] = op
        return op

    def __getitem__(self, name: str) -> LogicalOp:
        return self._ops[name]

    def __contains__(self, name: str) -> bool:
        return name in self._ops

    def __len__(self) -> int:
        return len(self._ops)

    def ops(self) -> List[LogicalOp]:
        """Ops in insertion order (a valid topological order)."""
        return list(self._ops.values())

    def topo_order(self) -> List[LogicalOp]:
        """Kahn topological order; raises on cycles."""
        indegree = {name: len(op.deps) for name, op in self._ops.items()}
        consumers: Dict[str, List[str]] = {n: [] for n in self._ops}
        for op in self._ops.values():
            for dep in op.deps:
                consumers[dep].append(op.name)
        frontier = [n for n, d in indegree.items() if d == 0]
        order: List[LogicalOp] = []
        while frontier:
            name = frontier.pop(0)
            order.append(self._ops[name])
            for consumer in consumers[name]:
                indegree[consumer] -= 1
                if indegree[consumer] == 0:
                    frontier.append(consumer)
        if len(order) != len(self._ops):
            raise WorkloadError(f"graph {self.name} has a cycle")
        return order

    def consumers_of(self, name: str) -> List[LogicalOp]:
        return [op for op in self._ops.values() if name in op.deps]

    # ------------------------------------------------------------------
    # Aggregates
    # ------------------------------------------------------------------
    def total_flops(self) -> float:
        """Per-GPU arithmetic work across the graph."""
        return sum(op.flops() for op in self._ops.values())

    def total_comm_bytes(self) -> int:
        """Sum of global tensor bytes moved by collective ops."""
        return sum(op.comm_bytes for op in self._ops.values()
                   if op.kind is OpKind.COMM)

    def comm_ops(self) -> List[LogicalOp]:
        return [op for op in self._ops.values() if op.kind is OpKind.COMM]

    def sublayer_ops(self, tag: str) -> List[LogicalOp]:
        return [op for op in self._ops.values() if op.sublayer == tag]


class GraphRunner:
    """The dependency walk every system runner shares.

    An op starts once all of its graph dependencies have finished, and
    the graph is done when its last op finishes.  Systems differ only in
    how they lower an op, so a subclass supplies two hooks:

    * :meth:`_plan` — per-graph lowering state (which collectives a
      producer GEMM absorbs, which ops form a fused chain), computed once
      per :meth:`run_graph` and handed back to every start;
    * :meth:`_start` — launch one ready op and arrange for ``finish`` to
      be called with the name of every op it completes.

    The walk owns everything else in one place: op order (roots fixed up
    front; each completion collects the ops it readies before starting
    any), the ``"op <name> done"`` causal boundary node, the rejection of
    an op finishing twice, and the ``solo`` hint.  ``solo`` is true only
    for a graph's only root, or for the sole op made ready by its
    producer's completion while no enclosing start is still mid-loop,
    and in both cases only while the event queue is empty.  Then nothing
    else is in flight, and nothing else starts before the op completes:
    the caller contract behind ``launch_kernel(isolated=...)`` and
    ``CommImpl.run(isolated=...)``.
    """

    def __init__(self, harness, tiling=None,
                 launch_overhead_ns: Optional[float] = None):
        self.harness = harness
        self.tiling = tiling or _tiling().TilingConfig()
        self.launch_overhead_ns = (
            harness.config.gpu.kernel_launch_overhead_ns
            if launch_overhead_ns is None else launch_overhead_ns)
        self._cz = current_causality()

    # -- lowering hooks --------------------------------------------------
    def _plan(self, graph: Graph):
        """Per-graph lowering plan passed to every :meth:`_start` call."""
        return None

    def _start(self, graph: Graph, plan, op: LogicalOp,
               finish: Callable[[str], None], solo: bool) -> None:
        raise NotImplementedError

    def compute_kernel(self, op: LogicalOp):
        """``op``'s plain TB-granular kernel under this runner's tiling."""
        return _tiling().compute_kernel(
            op, self.harness.config.gpu, self.tiling,
            launch_overhead_ns=self.launch_overhead_ns)

    # -- the walk --------------------------------------------------------
    def run_graph(self, graph: Graph,
                  on_done: Optional[Callable[[], None]] = None) -> None:
        """Wire the whole graph; completion fires ``on_done``."""
        _Walk(self, graph, on_done).run()

    def run_graphs(self, graphs: List[Graph],
                   on_done: Optional[Callable[[], None]] = None) -> None:
        """Run graphs strictly in sequence (e.g. forward then backward)."""
        if not graphs:
            raise WorkloadError("no graphs to run")
        self._run_from(graphs, 0, on_done)

    def _run_from(self, graphs: List[Graph], index: int,
                  on_done: Optional[Callable[[], None]]) -> None:
        if index == len(graphs):
            if on_done is not None:
                on_done()
            return
        self.run_graph(graphs[index], on_done=partial(
            self._run_from, graphs, index + 1, on_done))


class _Walk:
    """One :meth:`GraphRunner.run_graph` call in progress.

    An object, not a pair of closures: ``start`` hands ``finish`` to the
    runner and ``finish`` calls ``start``, and closures referring to each
    other would outlive the walk as a reference cycle.
    """

    def __init__(self, runner: GraphRunner, graph: Graph,
                 on_done: Optional[Callable[[], None]]) -> None:
        self.runner = runner
        self.graph = graph
        self.plan = runner._plan(graph)
        self.order = graph.topo_order()
        self.waiting = {op.name: len(op.deps) for op in self.order}
        self.done = set()
        self.on_done = on_done
        # start() frames on the stack: an op completing synchronously
        # re-enters finish() below an unfinished start loop, in which case
        # a nested start is NOT the frame's only activity.
        self.depth = 0

    def run(self) -> None:
        roots = [op for op in self.order if self.waiting[op.name] == 0]
        solo = len(roots) == 1 and not self.runner.harness.sim.pending()
        for op in roots:
            self.start(op, solo)

    def finish(self, name: str) -> None:
        done = self.done
        if name in done:
            raise WorkloadError(f"op {name} finished twice")
        cz = self.runner._cz
        sim = self.runner.harness.sim
        if cz.enabled:
            # Op boundary: consumers started below are caused by this
            # completion (the kernel's last TB or the collective's
            # last chunk, carried in as the ambient cause).
            now = sim.now
            cz.current = cz.node(BARRIER_SYNC, now, now,
                                 f"op {name} done",
                                 parents=((cz.current, "dep"),))
        done.add(name)
        if len(done) == len(self.order):
            if self.on_done is not None:
                self.on_done()
            return
        ready = []
        waiting = self.waiting
        for consumer in self.graph.consumers_of(name):
            waiting[consumer.name] -= 1
            if waiting[consumer.name] == 0:
                ready.append(consumer)
        # Parallel branches (e.g. dgrad + wgrad) run concurrently, so
        # neither may claim to be the only activity; nor may an op
        # started while queued events are still in flight.
        solo = len(ready) == 1 and self.depth == 0 and not sim.pending()
        for consumer in ready:
            self.start(consumer, solo)

    def start(self, op: LogicalOp, solo: bool) -> None:
        self.depth += 1
        try:
            self.runner._start(self.graph, self.plan, op, self.finish, solo)
        finally:
            self.depth -= 1


def _tiling():
    """Deferred import: :mod:`.tiling` imports this module."""
    from . import tiling
    return tiling
