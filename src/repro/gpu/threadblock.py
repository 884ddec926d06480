"""Thread-block runtime state."""

from __future__ import annotations

import enum
from typing import Tuple

from .kernels import KernelInstance


class TBState(enum.Enum):
    WAITING_DEPS = "waiting-deps"
    READY = "ready"
    SYNC_LAUNCH = "sync-launch"
    COMPUTE_PRE = "compute-pre"
    SYNC_ACCESS = "sync-access"
    REMOTE = "remote"
    COMPUTE_POST = "compute-post"
    DONE = "done"


class ThreadBlock:
    """One TB of one kernel on one GPU.

    A plain class with a hand-written constructor rather than a
    dataclass: the constructor sets only the lifecycle fields, and the
    tracing and causality fields, which only instrumented runs write,
    read their class-level defaults until then.
    """

    #: Tracing state (set by the executor only when tracing is enabled):
    #: the SM-slot lane this TB renders on, and its open span handles.
    obs_lane: int = -1
    obs_span: int = -1
    obs_phase: int = -1
    #: Causal recording state (repro.obs.causality; set only when a
    #: recorder is installed): cause ids for becoming ready (``cz_enq``),
    #: winning a slot (``cz_disp``), the last compute node emitted
    #: (``cz_last``), and whatever released the post phase (``cz_release``
    #: with its edge kind), plus the phase start times the nodes span.
    cz_enq: int = -1
    cz_disp: int = -1
    cz_launch: int = -1
    cz_last: int = -1
    cz_release: int = -1
    cz_release_kind: str = "seq"
    cz_pre_start: float = -1.0
    cz_post_start: float = -1.0

    def __init__(self, kernel: KernelInstance, gpu_index: int,
                 block_idx: Tuple[int, ...],
                 state: TBState = TBState.WAITING_DEPS,
                 loads_outstanding: int = 0,
                 prelaunch_synced: bool = False,
                 dispatch_time: float = -1.0,
                 complete_time: float = -1.0) -> None:
        self.kernel = kernel
        self.gpu_index = gpu_index
        self.block_idx = block_idx
        self.state = state
        self.loads_outstanding = loads_outstanding
        #: Pre-launch TB-group sync already granted (paper Section III-B-2).
        self.prelaunch_synced = prelaunch_synced
        self.dispatch_time = dispatch_time
        self.complete_time = complete_time

    @property
    def pool(self) -> str:
        return self.kernel.pool

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"TB({self.kernel.name}{list(self.block_idx)}@gpu"
                f"{self.gpu_index}, {self.state.value})")
