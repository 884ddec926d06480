"""The systems under test (paper Section IV-C) behind one interface.

Every system takes the same logical workload graphs and returns a
:class:`~repro.systems.base.RunResult`; what differs is how each lowers
computation and communication — which is precisely the paper's comparison.

==============  ============================================================
System          Model
==============  ============================================================
TP-NVLS         Basic TP; kernel barriers; NVLS push AllReduce
SP-NVLS         TP+SP; barriers; NVLS pull RS + push AG
CoCoNet         Chunked GEMM->collective software pipeline; ring transport;
                SM contention from comm kernels; per-chunk launch overhead
FuseLib         Fused-kernel variant: no launch overhead, milder contention
T3              HW track&trigger: TB-level GEMM-RS and AG-GEMM overlap,
                coarse RS->LN->AG dependencies; direct DMA transport
CoCoNet-NVLS    CoCoNet with NVLS collectives
FuseLib-NVLS    FuseLib with NVLS collectives
T3-NVLS         T3 with DMA-based NVLS reductions and push AllGather
LADM            Locality-aware TB scheduling; direct remote reads; no
                in-switch computing, no overlap
CAIS            Full: merge unit + TB coordination + dataflow optimizer
CAIS-Base       merge unit only (barriers, no coordination/optimizer)
CAIS-Partial    + dataflow optimizer, no traffic control
CAIS-w/o-Coord  full minus TB coordination
==============  ============================================================
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from ..cais.dataflow import CaisRunner
from ..common.config import SystemConfig
from ..common.errors import WorkloadError
from ..gpu.remote_ops import Transport
from ..llm.graph import Graph
from ..llm.tiling import TilingConfig, reset_tensor_ids
from ..cais.compiler import reset_group_ids
from .base import BarrierRunner, Harness, NvlsComm, RingComm, RunResult
from .ladm import DirectComm
from .overlap import OverlapRunner
from .t3 import T3Runner

#: Optional per-GPU window of outstanding *unmatched* mergeable requests
#: (second-arrival crediting).  The shipped CAIS configuration leaves this
#: off: the home-inclusive pre-access barrier plus the compiler's
#: home-rotated TB ordering already keep every GPU's request stream in
#: lockstep (see DESIGN.md, "TB-aware throttling"); the credit window is
#: retained as an ablation knob.
CAIS_THROTTLE_WINDOW = None
#: SM fraction left for compute under software-overlap comm kernels.
COCONET_COMPUTE_FRACTION = 0.875
FUSELIB_COMPUTE_FRACTION = 0.94


class Session:
    """A live simulated node: harness plus the system's graph runner.

    Produced by :meth:`System.session`.  :meth:`run` executes a fixed
    graph sequence to completion.  Callers that decide the next graph
    from inside the simulation instead submit graphs through
    ``runner.run_graph`` and drive ``harness.sim`` themselves; ``finish()``
    then quiesces background machinery (fault watchdogs) and renders the
    :class:`~repro.systems.base.RunResult`.
    """

    def __init__(self, name: str, harness: Harness, runner) -> None:
        self.name = name
        self.harness = harness
        self.runner = runner

    # Fault plumbing for in-simulation drivers (the serving loop reacts
    # to degradation and retry pressure mid-stream): None when the
    # config has faults disabled.
    @property
    def fault_state(self):
        return self.harness.fault_state

    @property
    def fault_injector(self):
        return self.harness.fault_injector

    @property
    def fault_schedule(self):
        return self.harness.fault_schedule

    def finish(self, **details) -> RunResult:
        self.harness.workload_complete()
        return self.harness.result(self.name, **details)

    def run(self, graphs: List[Graph]) -> RunResult:
        """Execute ``graphs`` in sequence and render the result.

        The workload completes inside the simulation, so fault machinery
        is quiesced at that instant and the makespan is the workload's,
        not the fault-schedule horizon.
        """
        if not graphs:
            raise WorkloadError("no graphs supplied")
        harness = self.harness
        finished = []

        def _done() -> None:
            finished.append(True)
            harness.workload_complete()

        self.runner.run_graphs(graphs, on_done=_done)
        harness.executor.run()
        if not finished:
            raise WorkloadError(
                f"{self.name}: graphs did not run to completion")
        return harness.result(self.name)


class System:
    """Base class: build a harness, lower the graphs, run, report."""

    name: str = "abstract"

    def __init__(self, config: SystemConfig,
                 tiling: Optional[TilingConfig] = None,
                 chunk_bytes: int = 262144, jitter: bool = True):
        self.config = config
        self.tiling = tiling or TilingConfig()
        self.chunk_bytes = chunk_bytes
        self.jitter = jitter

    # -- subclass hooks -------------------------------------------------
    def _build(self) -> Harness:
        raise NotImplementedError

    def _runner(self, harness: Harness):
        raise NotImplementedError

    # -- entry point ----------------------------------------------------
    def session(self) -> "Session":
        """Build a fresh simulated node ready to execute workload graphs.

        Resets the per-simulation id counters, constructs the harness and
        the system-specific runner, and hands both back.  :meth:`run` is
        the one-shot convenience wrapper; callers that decide the next
        graph *from inside the simulation* (the serving workload layer,
        which builds each continuous-batching iteration from the sim-time
        state of the request queue) drive the session incrementally
        instead.
        """
        reset_tensor_ids()
        reset_group_ids()
        harness = self._build()
        return Session(self.name, harness, self._runner(harness))

    def run(self, graphs: List[Graph]) -> RunResult:
        """Execute ``graphs`` in sequence on a fresh simulated node."""
        return self.session().run(graphs)


# ---------------------------------------------------------------------------
# Tensor parallelism with NVLS (barrier baselines)
# ---------------------------------------------------------------------------

class TpNvls(System):
    """Basic TP with NVLS-accelerated AllReduce (Megatron + NVLS)."""

    name = "TP-NVLS"

    def _build(self) -> Harness:
        return Harness(self.config, nvls=True, jitter=self.jitter)

    def _runner(self, harness: Harness):
        return BarrierRunner(harness,
                             NvlsComm(harness, self.chunk_bytes),
                             tiling=self.tiling)


class SpNvls(TpNvls):
    """TP + sequence parallelism with NVLS RS/AG (Korthikanti + NVLS)."""

    name = "SP-NVLS"


# ---------------------------------------------------------------------------
# Software overlap baselines
# ---------------------------------------------------------------------------

class CoCoNet(System):
    """Software pipelining of GEMM with its collective (ring transport)."""

    name = "CoCoNet"
    compute_fraction = COCONET_COMPUTE_FRACTION
    fused_kernel = False

    def _comm(self, harness: Harness):
        return RingComm(harness, self.chunk_bytes)

    def _build(self) -> Harness:
        harness = Harness(self.config, nvls=False, jitter=self.jitter)
        harness.restrict_compute_slots(self.compute_fraction)
        return harness

    def _runner(self, harness: Harness):
        overhead = 0.0 if self.fused_kernel else None
        return OverlapRunner(harness, self._comm(harness),
                             tiling=self.tiling,
                             launch_overhead_ns=overhead)


class FuseLib(CoCoNet):
    """Fused compute+collective kernels: no launch overhead."""

    name = "FuseLib"
    compute_fraction = FUSELIB_COMPUTE_FRACTION
    fused_kernel = True


class CoCoNetNvls(CoCoNet):
    """CoCoNet driving NVLS multimem collectives."""

    name = "CoCoNet-NVLS"

    def _build(self) -> Harness:
        harness = Harness(self.config, nvls=True, jitter=self.jitter)
        harness.restrict_compute_slots(self.compute_fraction)
        return harness

    def _comm(self, harness: Harness):
        return NvlsComm(harness, self.chunk_bytes)


class FuseLibNvls(CoCoNetNvls):
    """FuseLib driving NVLS multimem collectives."""

    name = "FuseLib-NVLS"
    compute_fraction = FUSELIB_COMPUTE_FRACTION
    fused_kernel = True


# ---------------------------------------------------------------------------
# Hardware-assisted overlap (T3)
# ---------------------------------------------------------------------------

class T3(System):
    """Transparent track & trigger with direct DMA transport."""

    name = "T3"
    nvls = False

    def _build(self) -> Harness:
        return Harness(self.config, nvls=self.nvls, jitter=self.jitter)

    def _runner(self, harness: Harness):
        return T3Runner(harness, tiling=self.tiling, nvls=self.nvls)


class T3Nvls(T3):
    """T3 with the DMA-based NVLS reduction design."""

    name = "T3-NVLS"
    nvls = True


# ---------------------------------------------------------------------------
# Locality-aware scheduling (no in-switch computing, no overlap)
# ---------------------------------------------------------------------------

class Ladm(System):
    """LADM: direct remote reads with a locality bonus."""

    name = "LADM"

    def _build(self) -> Harness:
        return Harness(self.config, jitter=self.jitter)

    def _runner(self, harness: Harness):
        return BarrierRunner(harness,
                             DirectComm(harness, self.chunk_bytes),
                             tiling=self.tiling)


# ---------------------------------------------------------------------------
# CAIS and its ablation variants
# ---------------------------------------------------------------------------

class Cais(System):
    """Full CAIS: compute-aware ISA + coordination + dataflow optimizer."""

    name = "CAIS"
    coordination = True
    dataflow = True
    traffic_control = True

    def _build(self) -> Harness:
        throttle = CAIS_THROTTLE_WINDOW if self.coordination else None
        harness = Harness(self.config, merge=True,
                          sync_tables=self.coordination,
                          traffic_control=self.traffic_control,
                          throttle_window=throttle,
                          fair_share=self.dataflow,
                          jitter=self.jitter)
        return harness

    def _runner(self, harness: Harness):
        return CaisRunner(harness, tiling=self.tiling,
                          dataflow=self.dataflow,
                          coordination=self.coordination)


class CaisBase(Cais):
    """Compute-aware ISA + merging only: global barriers stay."""

    name = "CAIS-Base"
    coordination = False
    dataflow = False
    traffic_control = False


class CaisPartial(Cais):
    """Base + dataflow optimizer, without traffic control (Fig. 15/16)."""

    name = "CAIS-Partial"
    traffic_control = False


class CaisNoCoord(Cais):
    """Full CAIS minus merging-aware TB coordination (Fig. 13/14)."""

    name = "CAIS-w/o-Coord"
    coordination = False


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

SYSTEM_CLASSES: Dict[str, Callable[..., System]] = {
    cls.name: cls for cls in (
        TpNvls, SpNvls, CoCoNet, FuseLib, T3,
        CoCoNetNvls, FuseLibNvls, T3Nvls, Ladm,
        Cais, CaisBase, CaisPartial, CaisNoCoord,
    )
}

#: The paper's Fig. 11 baseline ordering.
BASELINE_ORDER = ["TP-NVLS", "SP-NVLS", "CoCoNet", "FuseLib", "T3",
                  "CoCoNet-NVLS", "FuseLib-NVLS", "T3-NVLS", "LADM"]


def make_system(name: str, config: SystemConfig, **kwargs) -> System:
    """Instantiate a system by its paper name."""
    if name not in SYSTEM_CLASSES:
        raise WorkloadError(f"unknown system {name!r}; "
                            f"known: {sorted(SYSTEM_CLASSES)}")
    return SYSTEM_CLASSES[name](config, **kwargs)
