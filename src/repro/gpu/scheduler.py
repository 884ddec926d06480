"""TB dispatch-order policies.

Real GPUs dispatch thread blocks through independent hardware schedulers, so
the dispatch order drifts between GPUs even for identical kernels — the
temporal misalignment that motivates CAIS's TB coordination (Section III-B,
citing the variability study [18]).  :class:`ShuffledPolicy` models that
drift as a bounded local permutation of the ready queue, seeded per GPU.

:class:`KeyedPolicy` dispatches in an explicit priority order; the LADM
baseline uses it to model locality-centric TB placement.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional

import numpy as np

from .. import obs


def effective_capacity(capacity: int, throttle_fraction: float) -> int:
    """SM-slot capacity surviving an SM-throttle fault window.

    At least one slot always survives — a fully dead GPU is not a fault
    mode the paper's resilience question covers (it asks how much speedup
    *degraded* members cost, not how to run collectives without a member).
    """
    if throttle_fraction >= 1.0:
        return capacity
    return max(1, int(capacity * throttle_fraction))


class DispatchPolicy:
    """Chooses which ready TB a GPU dispatches next."""

    def __init__(self) -> None:
        # Per-policy-class dispatch counters, shared across all GPUs so
        # the snapshot shows how much each strategy actually decided.
        sinks = obs.current()
        mx = sinks.metrics
        self._picks = (mx.counter(f"sched.{type(self).__name__}.picks")
                       if mx is not None else None)
        self._cz = sinks.causality

    def _note_pick(self, tb: Any) -> Any:
        """Account for one dispatch decision; returns ``tb``.

        When causal recording is on, the ambient cause at pick time — the
        event that freed the slot or made the TB ready — is stamped onto
        the TB as its dispatch cause, so ready-queue wait is attributable.
        """
        if self._picks is not None:
            self._picks.inc()
        if self._cz is not None:
            tb.cz_disp = self._cz.current
        return tb

    def pick(self, queue: List[Any]) -> Any:
        """Remove and return one TB from ``queue`` (must be non-empty)."""
        raise NotImplementedError


class FifoPolicy(DispatchPolicy):
    """Strict submission order — what a fully deterministic scheduler does."""

    def pick(self, queue: List[Any]) -> Any:
        return self._note_pick(queue.pop(0))


class ShuffledPolicy(DispatchPolicy):
    """FIFO with a bounded local shuffle: models hardware scheduler drift.

    The next TB is drawn uniformly from the first ``window`` queued entries,
    using a per-GPU RNG stream, so different GPUs interleave the same kernel
    differently while global progress order is preserved.
    """

    def __init__(self, window: int, rng: np.random.Generator):
        super().__init__()
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        self.window = window
        self.rng = rng

    def pick(self, queue: List[Any]) -> Any:
        bound = min(self.window, len(queue))
        index = int(self.rng.integers(0, bound)) if bound > 1 else 0
        return self._note_pick(queue.pop(index))


class KeyedPolicy(DispatchPolicy):
    """Dispatch the TB minimizing ``key`` (locality-aware scheduling)."""

    def __init__(self, key: Callable[[Any], Any]):
        super().__init__()
        self.key = key

    def pick(self, queue: List[Any]) -> Any:
        best = min(range(len(queue)), key=lambda i: self.key(queue[i]))
        return self._note_pick(queue.pop(best))


class FairSharePolicy(DispatchPolicy):
    """Balance SM slots across concurrently running kernels.

    This implements CAIS's *asymmetric kernel overlapping* (Section
    III-C-2): when a reduction-heavy GEMM-RS and a load-heavy AG-GEMM are
    both ready, dispatching the kernel with the fewest resident TBs
    partitions the SMs between them, so their complementary up/down link
    traffic overlaps instead of serializing.  Within the fairness choice a
    bounded shuffle window preserves the hardware-drift model.
    """

    def __init__(self, gpu: Any, window: int, rng: np.random.Generator):
        super().__init__()
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        self.gpu = gpu                   # reads gpu.running_per_kernel
        self.window = window
        self.rng = rng

    def pick(self, queue: List[Any]) -> Any:
        bound = min(self.window, len(queue))
        running = self.gpu.running_per_kernel
        best_i = 0
        best_load = None
        for i in range(bound):
            load = running.get(queue[i].kernel.kernel_id, 0)
            if best_load is None or load < best_load:
                best_i, best_load = i, load
        # Shuffle among equally-loaded candidates inside the window.
        ties = [i for i in range(bound)
                if running.get(queue[i].kernel.kernel_id, 0) == best_load]
        if len(ties) > 1:
            best_i = ties[int(self.rng.integers(0, len(ties)))]
        return self._note_pick(queue.pop(best_i))
