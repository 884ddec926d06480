"""Multi-GPU TB-granular execution engine.

The executor owns the GPUs, drives every thread block through its lifecycle,
and provides the *token* dependency fabric that systems use to wire
producer-consumer relationships at any granularity (whole kernels for the
barrier baselines, single tiles for CAIS's graph-level dataflow optimizer).

TB lifecycle::

    deps satisfied -> READY (queued on the GPU)
      -> slot granted
      -> [pre-launch TB-group sync]        (CAIS coordination)
      -> pre compute                        tb_pre_ns * jitter
      -> [pre-access TB-group sync]         (CAIS coordination)
      -> issue reductions / wait for loads  (remote phase)
      -> post compute                       tb_post_ns * jitter
      -> DONE: slot freed, completion callbacks fire

Execution variability (paper Section III-B): per-TB multiplicative jitter,
a per-kernel-launch per-GPU skew, and per-GPU shuffled dispatch order — all
drawn from named, seeded RNG streams so runs are reproducible.
"""

from __future__ import annotations

from typing import Callable, Dict, Hashable, Iterable, List, Optional, Tuple

import heapq

from ..common import fastpath
from ..common.config import SystemConfig
from ..common.errors import DeadlockError
from ..common.events import Simulator
from ..common.rng import RngPool
from ..obs import current_causality, current_metrics, current_tracer
from ..obs.causality import GEMM_COMPUTE, VECTOR_COMPUTE
from ..cais.coordination import SyncPhase
from ..faults.retry import RKEY_META
from ..interconnect.message import Message, Op, gpu_node
from ..interconnect.network import Network
from .gpu import Gpu
from .kernels import KernelInstance, block_indices
from .remote_ops import RemoteOp, RemoteOpKind, Transport
from .scheduler import FairSharePolicy, FifoPolicy, ShuffledPolicy
from .threadblock import ThreadBlock, TBState

Token = Hashable


class Executor:
    """Runs kernels across all GPUs of one simulated node."""

    def __init__(self, sim: Simulator, config: SystemConfig,
                 network: Network, jitter_enabled: bool = True,
                 fair_share: bool = False, fault_state=None):
        self.sim = sim
        self.config = config
        self.network = network
        # Fault-injection state (repro.faults): when present, CAIS
        # reduction contributions ride the ack/retransmit protocol and
        # GPUs consume the resulting RED_CAIS_ACK control traffic.
        self._fault_state = fault_state
        self._red_seq = 0
        self.rng = RngPool(config.seed)
        self._jitter_enabled = jitter_enabled
        # Per-TB phase jitter: one buffered stream per GPU, shared by the
        # event path and the analytic kernel replay.
        mag = config.jitter.tb_jitter
        self._tb_jitter_on = jitter_enabled and mag != 0.0
        self._tb_jitter_bounds = (-mag, mag)
        self._tb_jitter = ([self.rng.buffered(f"tb-jitter-{g}")
                            for g in range(config.num_gpus)]
                           if self._tb_jitter_on else [])
        window = config.jitter.dispatch_shuffle_window if jitter_enabled else 1
        self.gpus: List[Gpu] = []
        for g in range(config.num_gpus):
            policy = (ShuffledPolicy(window, self.rng.stream(f"dispatch-{g}"))
                      if window > 1 else FifoPolicy())
            gpu = Gpu(sim, g, config.gpu, network, policy=policy)
            if fair_share:
                # Asymmetric kernel overlapping: balance slots across
                # concurrently ready kernels (CAIS dataflow optimizer).
                gpu.policy = FairSharePolicy(
                    gpu, max(window, 1), self.rng.stream(f"dispatch-{g}"))
            gpu.on_dispatch = self._tb_start
            if fault_state is not None:
                gpu.handlers.append(self._on_red_ack)
            self.gpus.append(gpu)
        #: TB-aware request throttling (paper Section III-B-2): when True,
        #: a TB whose region is homed locally still joins the pre-access
        #: barrier, so a GPU whose contributions are local (and therefore
        #: free) cannot run a whole data region ahead of its peers — the
        #: "GPU ahead of its peer TBs" stall.
        self.tb_throttle = False
        self._tokens: set = set()
        self._token_waiters: Dict[Token, List[Callable[[], None]]] = {}
        self._kernel_remaining: Dict[int, int] = {}
        self._kernel_done_cbs: Dict[int, List[Callable[[], None]]] = {}
        self.total_compute_ns = 0.0
        self.tbs_completed = 0
        #: Optional per-kernel span recorder (set by the harness).
        self.timeline = None
        # Observability: TB lifecycles render one trace row per SM-slot
        # lane of each GPU process; lanes are recycled smallest-first so
        # the trace stays compact and deterministic.
        self._tr = current_tracer()
        self._mx = current_metrics()
        self._cz = current_causality()
        if self._mx.enabled:
            self._h_tb_latency = self._mx.histogram(
                "gpu.tb_issue_to_retire_ns")
            self._c_tbs = self._mx.counter("gpu.tbs_completed")
        self._free_lanes: List[List[int]] = [[] for _ in self.gpus]
        self._lanes_made: List[int] = [0] * len(self.gpus)
        self._lane_tracks: Dict[Tuple[int, int], int] = {}
        self._kernel_track = (self._tr.track("Executor", "kernels")
                              if self._tr.enabled else 0)
        # Kernel-span async ids are per-executor, NOT kernel_id: kernel_id
        # comes from a process-global counter, which would leak earlier
        # runs into the trace and break same-seed byte-identity.
        self._next_kernel_aid = 0
        # Engine fast-path (DESIGN.md §11): isolated pure-compute kernel
        # launches are evaluated arithmetically instead of event-by-event.
        # Observability sinks need the per-event lifecycle, so any of them
        # being live forces the reference path.
        self._fp_kernels = (fastpath.config().analytic_kernels
                            and fault_state is None
                            and not self._tr.enabled
                            and not self._mx.enabled
                            and not self._cz.enabled)
        self._fp_inflight = 0
        # With these positive, no fabric event schedules another at its
        # own instant (see _kernel_fastpath_eligible).
        self._fp_positive_latency = (config.link.latency_ns > 0
                                     and config.switch.hop_latency_ns > 0
                                     and config.gpu.hbm_latency_ns > 0)
        self.fastpath_kernels = 0
        self.fastpath_kernel_events_elided = 0
        self.fastpath_kernel_conflicts = 0

    # ------------------------------------------------------------------
    # Observability helpers
    # ------------------------------------------------------------------
    def _lane_acquire(self, gpu_index: int) -> int:
        free = self._free_lanes[gpu_index]
        if free:
            return heapq.heappop(free)
        lane = self._lanes_made[gpu_index]
        self._lanes_made[gpu_index] = lane + 1
        return lane

    def _lane_track(self, gpu_index: int, lane: int) -> int:
        key = (gpu_index, lane)
        track = self._lane_tracks.get(key)
        if track is None:
            track = self._tr.track(f"GPU {gpu_index}", f"sm-slot {lane}")
            self._lane_tracks[key] = track
        return track

    def _phase_begin(self, tb: ThreadBlock, phase: str) -> None:
        tb.obs_phase = self._tr.begin(
            self._lane_track(tb.gpu_index, tb.obs_lane), phase,
            self.sim.now, cat="tb-phase")

    def _phase_end(self, tb: ThreadBlock) -> None:
        if tb.obs_phase >= 0:
            self._tr.end(tb.obs_phase, self.sim.now)
            tb.obs_phase = -1

    # ------------------------------------------------------------------
    # Token dependency fabric
    # ------------------------------------------------------------------
    def signal(self, token: Token) -> None:
        """Mark ``token`` satisfied (idempotent); wakes its waiters."""
        if token in self._tokens:
            return
        self._tokens.add(token)
        for cb in self._token_waiters.pop(token, []):
            cb()

    def when_all(self, tokens: Iterable[Token],
                 callback: Callable[[], None]) -> None:
        """Invoke ``callback`` once every token has been signalled."""
        missing = [t for t in tokens if t not in self._tokens]
        if not missing:
            callback()
            return
        state = {"left": len(missing)}

        def arm() -> None:
            state["left"] -= 1
            if state["left"] == 0:
                callback()

        for token in missing:
            self._token_waiters.setdefault(token, []).append(arm)

    # ------------------------------------------------------------------
    # Kernel launch
    # ------------------------------------------------------------------
    def launch_kernel(self, kernel: KernelInstance,
                      on_complete: Optional[Callable[[], None]] = None,
                      isolated: bool = False) -> None:
        """Launch ``kernel`` on every GPU; ``on_complete`` fires when the
        last TB on the last GPU finishes.

        ``isolated=True`` is a caller guarantee that, until this kernel
        completes, nothing else starts and the only work in flight is
        work that launches no kernel, takes no SM slot and draws from no
        executor RNG stream: either nothing at all (the graph walk's
        ``solo``: an empty event queue), or a software pipeline's own
        collective slices.  That makes the slot pipeline a closed system,
        which is what lets the kernel fast-path (DESIGN.md §11) replay it
        arithmetically.  Callers that overlap kernels with other work must
        leave it False — the default costs only speed, never correctness.
        """
        if self._fp_kernels:
            if self._fp_inflight:
                # A fast-path window assumed exclusive use of the RNG
                # streams and SM slots until its completion event fires; a
                # launch inside the window breaks that assumption, so it is
                # counted loudly (the equivalence tests pin this at zero).
                self.fastpath_kernel_conflicts += 1
            elif isolated and self._kernel_fastpath_eligible(kernel):
                self._launch_kernel_fastpath(kernel, on_complete)
                return
        total = kernel.num_blocks() * len(self.gpus)
        self._kernel_remaining[kernel.kernel_id] = total
        if self.timeline is not None:
            handle = self.timeline.begin(kernel.name, self.sim.now)
            self._kernel_done_cbs.setdefault(kernel.kernel_id, []).append(
                lambda h=handle: self.timeline.end(h, self.sim.now))
        if self._tr.enabled:
            aid = self._next_kernel_aid
            self._next_kernel_aid += 1
            self._tr.async_begin(self._kernel_track, kernel.name, aid,
                                 self.sim.now, cat="kernel",
                                 args={"blocks": total})
            self._kernel_done_cbs.setdefault(kernel.kernel_id, []).append(
                lambda k=kernel, a=aid: self._tr.async_end(
                    self._kernel_track, k.name, a, self.sim.now,
                    cat="kernel"))
        if on_complete is not None:
            self._kernel_done_cbs.setdefault(
                kernel.kernel_id, []).append(on_complete)
        skew_stream = self.rng.stream("gpu-skew")
        for gpu in self.gpus:
            skew = (float(skew_stream.uniform(
                0.0, self.config.jitter.gpu_skew_ns))
                if self._jitter_enabled else 0.0)
            self.sim.schedule(kernel.launch_overhead_ns + skew,
                              self._enqueue_on_gpu, kernel, gpu)

    # ------------------------------------------------------------------
    # Kernel fast-path (DESIGN.md §11)
    # ------------------------------------------------------------------
    def _kernel_fastpath_eligible(self, kernel: KernelInstance) -> bool:
        """Can this launch be evaluated arithmetically, bit-exactly?

        Three families of conditions:

        * *Kernel shape* — every TB must be pure compute with no external
          coupling: no remote loads/reduces, no inter-TB dependency tokens,
          no per-TB completion callbacks, no TB-group sync phases.
        * *Isolation* — the caller's ``isolated=True`` (nothing that
          touches SM slots or executor RNG streams runs until completion),
          no kernel or replay in flight, and every GPU idle and fault-free.
          Nothing can then contend for SM slots or interleave RNG draws
          mid-window: the specialized replay below is *provably* the same
          computation the event path would perform, not an approximation.
        * *Order at completion* — with events queued at launch, the
          replay's completion must land where the event path's last TB
          completion would among same-instant events.  The event path
          queues that completion at the instant itself (a zero
          ``tb_post_ns`` post phase), behind every event already queued
          for it; the replay's deferral (below) does the same, provided
          no queued event schedules another at its own instant, which
          positive fabric latencies guarantee.
        """
        if (kernel.remote_loads is not None
                or kernel.remote_reduces is not None
                or kernel.tb_deps is not None
                or kernel.on_tb_complete is not None
                or kernel.sync_prelaunch or kernel.sync_preaccess
                or kernel.num_blocks() == 0):
            return False
        if self._fp_inflight:
            return False
        if self.sim.pending() and (kernel.tb_post_ns != 0.0
                                   or not self._fp_positive_latency):
            return False
        if any(self._kernel_remaining.values()):
            return False
        for gpu in self.gpus:
            if gpu.compute_slowdown != 1.0 or gpu._throttle_fraction != 1.0:
                return False
            if kernel.pool not in gpu._capacity:
                return False
            if any(gpu._used.values()) or any(gpu._ready.values()) \
                    or any(gpu._synced.values()):
                return False
            if not isinstance(gpu.policy, (FifoPolicy, ShuffledPolicy,
                                           FairSharePolicy)):
                return False
        return True

    def _launch_kernel_fastpath(self, kernel: KernelInstance,
                                on_complete: Optional[Callable[[], None]],
                                ) -> None:
        """Replay the SM slot pipeline arithmetically — bit-exactly.

        The event path fires four events per thread block (enqueue fill,
        pre done, post done) through the full dispatch machinery.  For an
        isolated pure-compute kernel every TB is interchangeable, so the
        ready queue reduces to a counter and the whole pipeline collapses
        to a tiny three-state heap replay that performs *the same float
        operations in the same order* as the event path:

        * RNG draws are replicated stream-for-stream: skews in GPU order,
          per-GPU jitter as a batched draw (bit-identical to the scalar
          sequence, verified by test), dispatch-shuffle picks drawn only
          when the window sees >1 candidate — exactly the event path's
          condition.  Which TB a pick selects is timing-irrelevant (all
          TBs identical); only the draw itself must advance the stream.
        * ``total_compute_ns`` accumulates in global event order via the
          merged heap; per-GPU busy integrals accrue at each completion
          with the event path's exact ``occupied * dt`` terms.

        One real event (:meth:`_finish_fastpath`) is scheduled at the
        computed end time to apply the state deltas and fire the
        kernel-completion callbacks.  It is queued at launch, ahead of any
        event queued later for the same instant, while the event path's
        last TB completion is queued at that instant, behind them.  So
        when it fires with another event still queued for its instant, it
        re-queues itself there under a fresh sequence number, until none
        is left.
        """
        sim = self.sim
        now = sim.now
        num_gpus = len(self.gpus)
        blocks = kernel.num_blocks()
        total = blocks * num_gpus
        self._kernel_remaining[kernel.kernel_id] = total
        if self.timeline is not None:
            handle = self.timeline.begin(kernel.name, now)
            self._kernel_done_cbs.setdefault(kernel.kernel_id, []).append(
                lambda h=handle: self.timeline.end(h, self.sim.now))
        if on_complete is not None:
            self._kernel_done_cbs.setdefault(
                kernel.kernel_id, []).append(on_complete)
        jitter_on = self._tb_jitter_on
        low, high = self._tb_jitter_bounds
        pre_ns = kernel.tb_pre_ns
        post_ns = kernel.tb_post_ns
        overhead = kernel.launch_overhead_ns
        skew_stream = self.rng.stream("gpu-skew")
        # Exactly 2 jitter draws per TB (pre + post, drawn even when
        # tb_post_ns == 0), consumed in per-GPU event order below, taken
        # from the same buffer the event path draws from.
        jit = ([self._tb_jitter[g].uniforms(low, high, 2 * blocks)
                for g in range(num_gpus)] if jitter_on else None)
        jidx = [0] * num_gpus
        cap = []
        for g, gpu in enumerate(self.gpus):
            cap.append(gpu._capacity[kernel.pool])
            window = (1 if isinstance(gpu.policy, FifoPolicy)
                      else gpu.policy.window)
            # Dispatch-pick draws advance the per-GPU shuffle stream but
            # never affect timing (all TBs are identical), and their bound
            # sequence is deterministic: the initial fill dispatches with a
            # queue of one (no draw — the event path's bound > 1 gate),
            # then each slot refill sees min(window, ready) candidates with
            # ready counting down from ``blocks - fill`` to 1.  Replicate
            # the whole sequence up front: one batch for the constant
            # ``window`` prefix, scalars for the shrinking tail.
            r0 = blocks - min(blocks, cap[g])
            if window > 1 and r0 >= 2:
                rng = gpu.policy.rng
                if r0 >= window:
                    rng.integers(0, window, size=r0 - window + 1)
                    tail_start = window - 1
                else:
                    tail_start = r0
                for bound in range(tail_start, 1, -1):
                    rng.integers(0, bound)
        used = [0] * num_gpus
        ready = [0] * num_gpus
        integral = [gpu._busy_integral_ns for gpu in self.gpus]
        since = [gpu._busy_since for gpu in self.gpus]
        dispatched = [0] * num_gpus
        total_compute = self.total_compute_ns
        ENQ, AFTER_PRE, DONE = 0, 1, 2
        heap: List[tuple] = []
        seq = 0
        for g in range(num_gpus):
            skew = (float(skew_stream.uniform(
                0.0, self.config.jitter.gpu_skew_ns))
                if self._jitter_enabled else 0.0)
            heap.append((now + (overhead + skew), seq, ENQ, g))
            seq += 1
        heapq.heapify(heap)
        push, pop = heapq.heappush, heapq.heappop
        t_end = now
        while heap:
            t, _, kind, g = pop(heap)
            if kind == AFTER_PRE:
                if jitter_on:
                    j = 1.0 + jit[g][jidx[g]]
                    jidx[g] += 1
                else:
                    j = 1.0
                dur = post_ns * j
                total_compute += dur
                push(heap, (t + dur, seq, DONE, g))
                seq += 1
            elif kind == DONE:
                integral[g] += used[g] * (t - since[g])
                since[g] = t
                used[g] -= 1
                if t > t_end:
                    t_end = t
                if ready[g] > 0:
                    # Refill the freed slot (pick draw already replicated
                    # above); the second busy accrual the event path
                    # performs here is a zero-delta no-op.
                    ready[g] -= 1
                    used[g] += 1
                    dispatched[g] += 1
                    if jitter_on:
                        j = 1.0 + jit[g][jidx[g]]
                        jidx[g] += 1
                    else:
                        j = 1.0
                    dur = pre_ns * j
                    total_compute += dur
                    push(heap, (t + dur, seq, AFTER_PRE, g))
                    seq += 1
            else:                       # ENQ: initial fill, no pick draws
                fill = blocks if blocks < cap[g] else cap[g]
                ready[g] = blocks - fill
                intg, snc = integral[g], since[g]
                for u in range(fill):
                    intg += u * (t - snc)
                    snc = t
                    if jitter_on:
                        j = 1.0 + jit[g][jidx[g]]
                        jidx[g] += 1
                    else:
                        j = 1.0
                    dur = pre_ns * j
                    total_compute += dur
                    push(heap, (t + dur, seq, AFTER_PRE, g))
                    seq += 1
                used[g] = fill
                dispatched[g] = fill
                integral[g], since[g] = intg, snc
        self._fp_inflight += 1
        self.fastpath_kernels += 1
        self.fastpath_kernel_events_elided += num_gpus + 2 * total - 1
        sim.schedule_at(t_end, self._finish_fastpath, kernel, t_end,
                        integral, since, dispatched, total_compute)

    def _finish_fastpath(self, kernel: KernelInstance, t_end: float,
                         integral: List[float], since: List[float],
                         dispatched: List[int],
                         total_compute: float) -> None:
        """Completion event of a replayed kernel: apply the replay's state
        and fire the kernel's completion callbacks — or, while another
        event is queued for ``t_end``, re-queue behind it."""
        sim = self.sim
        if sim.next_time() == t_end:
            # Defer behind same-instant events; one more event fired.
            self.fastpath_kernel_events_elided -= 1
            sim.schedule_at(t_end, self._finish_fastpath, kernel, t_end,
                            integral, since, dispatched, total_compute)
            return
        self._fp_inflight -= 1
        for g, gpu in enumerate(self.gpus):
            gpu._busy_integral_ns = integral[g]
            gpu._busy_since = since[g]
            gpu.tbs_dispatched += dispatched[g]
        self.total_compute_ns = total_compute
        self.tbs_completed += kernel.num_blocks() * len(self.gpus)
        self._kernel_remaining[kernel.kernel_id] = 0
        for cb in self._kernel_done_cbs.pop(kernel.kernel_id, []):
            cb()

    def _enqueue_on_gpu(self, kernel: KernelInstance, gpu: Gpu) -> None:
        order = (kernel.block_order if kernel.block_order is not None
                 else block_indices(kernel.grid))
        for bidx in order:
            tb = ThreadBlock(kernel=kernel, gpu_index=gpu.index,
                             block_idx=bidx)
            deps = kernel.tb_deps(gpu.index, bidx) if kernel.tb_deps else []
            if deps:
                self.when_all(deps,
                              lambda tb=tb, gpu=gpu: self._enqueue_tb(
                                  gpu, tb))
            else:
                self._enqueue_tb(gpu, tb)

    def _enqueue_tb(self, gpu: Gpu, tb: ThreadBlock) -> None:
        # The ambient cause here is whatever made the TB ready: the kernel
        # launch event, or — when tb_deps gated it — the signal that
        # satisfied the last token (a producer TB's completion node).
        if self._cz.enabled:
            tb.cz_enq = self._cz.current
        gpu.enqueue(tb)

    # ------------------------------------------------------------------
    # TB lifecycle
    # ------------------------------------------------------------------
    def _tb_start(self, tb: ThreadBlock) -> None:
        # Pre-launch TB-group sync (if armed) happened in the GPU's
        # dispatcher, *before* the TB acquired its slot.
        if self._tr.enabled:
            tb.obs_lane = self._lane_acquire(tb.gpu_index)
            tb.obs_span = self._tr.begin(
                self._lane_track(tb.gpu_index, tb.obs_lane),
                f"{tb.kernel.name}{list(tb.block_idx)}", self.sim.now,
                cat="tb", args={"kernel": tb.kernel.name})
        self._tb_pre(tb)

    def _jitter(self, gpu_index: int) -> float:
        """One TB phase's jitter factor; equal to
        ``self.rng.jitter(f"tb-jitter-{gpu_index}", tb_jitter)``."""
        if not self._tb_jitter_on:
            return 1.0
        low, high = self._tb_jitter_bounds
        return 1.0 + self._tb_jitter[gpu_index].uniform(low, high)

    def _tb_pre(self, tb: ThreadBlock) -> None:
        tb.state = TBState.COMPUTE_PRE
        if self._tr.enabled:
            self._phase_begin(tb, "pre")
        if self._cz.enabled:
            tb.cz_pre_start = self.sim.now
            # The event that actually started the pre phase — a pre-launch
            # sync release, or the dispatch itself — so a TB gated by the
            # group-sync protocol traces back through the release chain.
            tb.cz_launch = self._cz.current
        duration = tb.kernel.tb_pre_ns * self._jitter(tb.gpu_index)
        slowdown = self.gpus[tb.gpu_index].compute_slowdown
        if slowdown != 1.0:              # straggler fault window
            duration *= slowdown
        self.total_compute_ns += duration
        self.sim.schedule(duration, self._tb_after_pre, tb)

    def _compute_category(self, tb: ThreadBlock) -> str:
        return (VECTOR_COMPUTE if tb.kernel.compute_class == "vector"
                else GEMM_COMPUTE)

    def _tb_after_pre(self, tb: ThreadBlock) -> None:
        if self._tr.enabled:
            self._phase_end(tb)
        kernel = tb.kernel
        gpu = self.gpus[tb.gpu_index]
        if self._cz.enabled:
            # The pre-compute node: charged to the kernel's compute class,
            # caused by readiness ("dep" edge: token/launch wait) and the
            # slot grant ("slot" edge: ready-queue wait).  Everything the
            # TB does next — sync requests, reductions, loads — inherits
            # this node as its ambient cause.
            tb.cz_last = self._cz.node(
                self._compute_category(tb), tb.cz_pre_start, self.sim.now,
                f"{kernel.name}{list(tb.block_idx)} pre",
                parents=((tb.cz_enq, "dep"), (tb.cz_disp, "slot"),
                         (tb.cz_launch, "launch")))
            self._cz.current = tb.cz_last
        loads = (kernel.remote_loads(tb.gpu_index, tb.block_idx)
                 if kernel.remote_loads else [])
        reduces = (kernel.remote_reduces(tb.gpu_index, tb.block_idx)
                   if kernel.remote_reduces else [])
        group = kernel.group_for(tb.block_idx)
        # Reducing TBs always join the pre-access barrier when throttling
        # is on — including the region's home GPU, whose contributions are
        # local adds: without that, the home runs a whole region ahead and
        # its later requests arrive out of alignment.  Load-side TBs join
        # only when they will actually issue (cache piggybackers and the
        # home shard add sync rounds with nothing to align).
        if reduces:
            participates = bool(reduces) if self.tb_throttle else any(
                op.address.home_gpu != tb.gpu_index for op in reduces)
            expected = (len(self.gpus) if self.tb_throttle
                        else len(self.gpus) - 1)
        else:
            participates = any(
                op.address.home_gpu != tb.gpu_index and
                gpu.memory.would_fetch(op.address) for op in loads)
            expected = len(self.gpus) - 1
        if kernel.sync_preaccess and group is not None and participates:
            tb.state = TBState.SYNC_ACCESS
            gpu.synchronizer.request_sync(
                group, SyncPhase.ACCESS, expected,
                lambda: self._tb_remote_synced(tb, loads, reduces))
        else:
            self._tb_remote(tb, loads, reduces)

    def _tb_remote_synced(self, tb: ThreadBlock, loads: List[RemoteOp],
                          reduces: List[RemoteOp]) -> None:
        # Released by the pre-access barrier: if nothing later (a load
        # fill) overwrites it, the post phase is attributed to the sync.
        if self._cz.enabled:
            tb.cz_release = self._cz.current
            tb.cz_release_kind = "sync"
        self._tb_remote(tb, loads, reduces)

    def _tb_remote(self, tb: ThreadBlock, loads: List[RemoteOp],
                   reduces: List[RemoteOp]) -> None:
        tb.state = TBState.REMOTE
        gpu = self.gpus[tb.gpu_index]
        remote_loads = [op for op in loads
                        if op.address.home_gpu != tb.gpu_index]
        if self._tr.enabled and remote_loads:
            self._phase_begin(tb, "remote")
        # Reductions are fire-and-forget; the TB holds its slot only
        # while loads are pending.
        for op in reduces:
            self._issue_reduce(gpu, op)
        tb.loads_outstanding = len(remote_loads)
        if tb.loads_outstanding == 0:
            self._tb_post(tb)
            return
        for op in remote_loads:
            gpu.memory.fetch_remote(
                op.address, op.chunk_bytes,
                mergeable=op.mergeable, expected=op.expected,
                on_ready=lambda _value, tb=tb: self._tb_load_ready(tb))

    def _issue_reduce(self, gpu: Gpu, op: RemoteOp) -> None:
        if op.kind is not RemoteOpKind.REDUCE:
            raise ValueError(f"not a reduction: {op}")
        if op.address.home_gpu == gpu.index:
            gpu.memory.add_local_contribution(op.address, op.payload)
            return
        if op.transport is Transport.CAIS:
            meta = {"expected": op.expected}
            state = self._fault_state
            if state is not None:
                self._red_seq += 1
                rkey = ("red", gpu.index, op.address.home_gpu,
                        op.address.offset, self._red_seq)
                meta[RKEY_META] = rkey
            gpu.send(Message(op=Op.RED_CAIS, src=gpu_node(gpu.index),
                             dst=gpu_node(op.address.home_gpu),
                             payload_bytes=op.chunk_bytes,
                             address=op.address, payload=op.payload,
                             meta=meta))
            if state is not None:
                # Reliable delivery: the merge unit acks each contribution
                # by rkey; a retransmit reroutes automatically if the
                # original plane has since failed.
                def resend(attempt: int, gpu=gpu, op=op, key=rkey) -> None:
                    copy = Message(
                        op=Op.RED_CAIS, src=gpu_node(gpu.index),
                        dst=gpu_node(op.address.home_gpu),
                        payload_bytes=op.chunk_bytes,
                        address=op.address, payload=op.payload,
                        meta={"expected": op.expected, RKEY_META: key,
                              "retry": attempt})
                    gpu.send(copy)

                state.retransmitter.track(rkey, resend)
        elif op.transport is Transport.NVLS:
            msg = Message(op=Op.MULTIMEM_RED, src=gpu_node(gpu.index),
                          dst=gpu_node(op.address.home_gpu),
                          payload_bytes=op.chunk_bytes, address=op.address,
                          payload=op.payload, meta={"expected": op.expected})
            gpu.send(msg)
        else:
            msg = Message(op=Op.STORE, src=gpu_node(gpu.index),
                          dst=gpu_node(op.address.home_gpu),
                          payload_bytes=op.chunk_bytes, address=op.address,
                          payload=op.payload,
                          meta={"reduced": True, "contributions": 1,
                                "partial": True})
            gpu.send(msg)

    def _on_red_ack(self, msg: Message) -> bool:
        """Consume merge-unit acks for tracked reduction contributions."""
        if msg.op is Op.RED_CAIS_ACK and RKEY_META in msg.meta:
            self._fault_state.retransmitter.ack(msg.meta[RKEY_META])
            return True
        return False

    def _tb_load_ready(self, tb: ThreadBlock) -> None:
        tb.loads_outstanding -= 1
        if tb.loads_outstanding == 0:
            if self._cz.enabled:
                # The last load fill is what released the post phase.
                tb.cz_release = self._cz.current
                tb.cz_release_kind = "wire"
            self._tb_post(tb)

    def _tb_post(self, tb: ThreadBlock) -> None:
        if self._tr.enabled:
            self._phase_end(tb)          # remote phase (if it opened)
            self._phase_begin(tb, "post")
        if self._cz.enabled:
            tb.cz_post_start = self.sim.now
        tb.state = TBState.COMPUTE_POST
        duration = tb.kernel.tb_post_ns * self._jitter(tb.gpu_index)
        slowdown = self.gpus[tb.gpu_index].compute_slowdown
        if slowdown != 1.0:              # straggler fault window
            duration *= slowdown
        self.total_compute_ns += duration
        self.sim.schedule(duration, self._tb_done, tb)

    def _tb_done(self, tb: ThreadBlock) -> None:
        tb.state = TBState.DONE
        tb.complete_time = self.sim.now
        self.tbs_completed += 1
        if self._tr.enabled:
            self._phase_end(tb)
            if tb.obs_span >= 0:
                self._tr.end(tb.obs_span, self.sim.now)
                tb.obs_span = -1
            if tb.obs_lane >= 0:
                heapq.heappush(self._free_lanes[tb.gpu_index], tb.obs_lane)
                tb.obs_lane = -1
        if self._mx.enabled:
            self._h_tb_latency.record(self.sim.now - tb.dispatch_time)
            self._c_tbs.inc()
        if self._cz.enabled:
            # The post-compute node: sequenced after the TB's own pre
            # phase and caused by whatever released it (last load fill,
            # sync release, or plain sequencing).  Set as ambient *before*
            # the slot release and completion callbacks so the next TB's
            # dispatch, token signals, and kernel-done chains inherit it.
            tb.cz_last = self._cz.node(
                self._compute_category(tb), tb.cz_post_start, self.sim.now,
                f"{tb.kernel.name}{list(tb.block_idx)} post",
                parents=((tb.cz_last, "seq"),
                         (tb.cz_release, tb.cz_release_kind)))
            self._cz.current = tb.cz_last
        self.gpus[tb.gpu_index].release_slot(tb)
        kernel = tb.kernel
        if kernel.on_tb_complete is not None:
            kernel.on_tb_complete(tb.gpu_index, tb.block_idx)
        left = self._kernel_remaining[kernel.kernel_id] - 1
        self._kernel_remaining[kernel.kernel_id] = left
        if left == 0:
            for cb in self._kernel_done_cbs.pop(kernel.kernel_id, []):
                cb()

    # ------------------------------------------------------------------
    # Running
    # ------------------------------------------------------------------
    def run(self, until: Optional[float] = None) -> float:
        """Run the simulation to completion; returns the makespan (ns)."""
        self.sim.run(until=until)
        stuck = {kid: left for kid, left in self._kernel_remaining.items()
                 if left > 0}
        if stuck and until is None:
            outstanding = self.sim.outstanding_report()
            detail = ("; outstanding work: " + "; ".join(outstanding)
                      if outstanding else "")
            raise DeadlockError(
                f"event queue drained with unfinished kernels: {stuck} "
                f"(missing dependency signals or sync releases?){detail}")
        return self.sim.now
