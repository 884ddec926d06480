"""Analytic fast-path for uncongested collective phases (DESIGN.md §11).

Barrier-style systems (TP-NVLS, SP-NVLS, and the overlap baselines'
non-pipelined collectives) execute the *same* collective —
transport, kind, byte count, chunking, fabric — hundreds of times per
experiment, each time against a quiescent network.  Event-level simulation
of such a phase is pure recomputation: its completion time and its entire
side-effect footprint (link busy intervals, id-stream advances) are a
function of the signature alone.

:class:`CollectiveFastPath` exploits this with a calibrate → validate →
replay protocol:

1. **Calibrate** — the first occurrence of a signature runs on the event
   path; its duration and side-effect deltas are captured.
2. **Validate** — the next ``VALIDATE_OCCURRENCES - 1`` occurrences (the
   deterministic sample) also run on the event path; each must reproduce
   the calibrated duration to *exact float equality* (``t0 + duration ==
   observed completion``) and identical id/traffic deltas, or the
   signature is blacklisted back to the event path forever.  Passing
   validation at a second start time is evidence, not proof, that the
   phase's float arithmetic is translation-invariant for this signature:
   a replay can still land one ULP off the event path (DESIGN.md §11).
3. **Replay** — later occurrences skip event-level simulation: one
   completion event fires at ``t0 + duration``, and the captured deltas
   are applied (link trackers, message/run-id streams), leaving
   downstream state where the event path would have left it.

The signature table is per-harness: each simulated node calibrates its
own signatures, so a run's event count (and everything else about it) is
a deterministic function of the run alone, never of what happened to run
earlier in the same process.  Repeated collectives *within* one run —
the dominant pattern, every transformer layer issuing the same phases —
still amortize down to single events.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..common import fastpath
from ..interconnect.message import _msg_ids
from .. import obs
from . import ring as _ring_mod
from . import nvls_collectives as _nvls_mod


# ---------------------------------------------------------------------------
# Signature table
# ---------------------------------------------------------------------------

_CALIBRATING = "calibrating"
_VALIDATING = "validating"
_BYPASS = "bypass"
_BLACKLISTED = "blacklisted"

#: One link's captured tracker delta: (link ordinal in
#: ``network.all_links()``, BandwidthTracker.delta_since payload).
_LinkDelta = Tuple[int, Tuple[List[Tuple[float, float]], int, int]]


@dataclass
class _Signature:
    """Calibration record and bypass state for one collective signature."""

    state: str = _CALIBRATING
    duration: float = 0.0
    validated: int = 0
    link_deltas: List[_LinkDelta] = field(default_factory=list)
    msg_delta: int = 0
    ring_delta: int = 0
    nvls_delta: int = 0
    events_delta: int = 0


class CollectiveFastPath:
    """CommImpl wrapper implementing the calibrate/validate/replay protocol.

    Wraps any comm adapter; engages only for adapters that declare a
    ``fastpath_transport`` (ring/NVLS — LADM's direct-read transport
    mutates per-GPU cache state and is excluded) and only for calls that
    are *provably* isolated and unobserved: no chunk callback, no fault
    machinery, no tracing/metrics/causality, a quiescent fabric, and
    isolation in time, which takes two guards together.  An **empty event
    queue** means no kernel completion, serving arrival or timer already
    scheduled can fire during the phase.
    The caller's ``isolated=True`` (the contract of
    ``Executor.launch_kernel``) means nothing else starts before the
    phase completes.  An empty queue alone is not enough: a
    caller that launches a kernel right after the call (a software
    pipeline's next GEMM partition) puts work in flight that the queue
    did not hold when the call was made.  With both, nothing can start
    concurrent traffic mid-window: the phase is isolated not just at its
    start but for its whole duration, which is what makes replaying a
    calibrated duration exact rather than approximate.  Everything else
    passes straight through to the event path.
    """

    def __init__(self, harness, comm):
        self.harness = harness
        self.comm = comm
        self.transport: Optional[str] = getattr(
            comm, "fastpath_transport", None)
        cfg = fastpath.config()
        sinks = obs.current()
        self.enabled = (
            cfg.analytic_collectives
            and self.transport is not None
            and harness.fault_state is None
            and sinks.metrics is None
            and sinks.tracer is None
            and sinks.causality is None)
        self._chunk_bytes = getattr(comm, "chunk_bytes", 0)
        # The table lives on the harness (one simulated node), so a run's
        # event count is a deterministic function of the run alone — a
        # process-global table would make it depend on what ran earlier in
        # the same process.  Within a harness, transport + chunking + op
        # fully determine an isolated phase's physics.
        self._table: Dict[tuple, _Signature] = harness.fastpath_signatures
        self._key_base = (self.transport, self._chunk_bytes)
        self._runs_started = 0
        # Per-harness fast-path accounting, aggregated by Harness.result().
        self.analytic_ops = 0
        self.events_elided = 0
        self.calibrations = 0
        self.validations = 0
        self.blacklists = 0
        if self.enabled:
            harness.fastpath_comms.append(self)

    # -- CommImpl ------------------------------------------------------
    def run(self, kind, nbytes, on_complete, on_chunk=None, isolated=False):
        self._runs_started += 1
        if not (isolated and self._eligible(on_chunk)):
            self.comm.run(kind, nbytes, on_complete, on_chunk)
            return
        sig_key = self._key_base + (kind, nbytes)
        sig = self._table.get(sig_key)
        if sig is None:
            sig = self._table[sig_key] = _Signature()
        if sig.state == _BLACKLISTED:
            self.comm.run(kind, nbytes, on_complete, on_chunk)
        elif sig.state == _BYPASS:
            self._replay(sig, on_complete)
        else:
            self._observe(sig, kind, nbytes, on_complete)

    def _eligible(self, on_chunk) -> bool:
        return (self.enabled
                and on_chunk is None
                and self.harness.fastpath_inflight == 0
                and self.harness.sim.pending() == 0
                and self.harness.network.quiescent())

    # -- Event-path observation (calibration + validation) -------------
    def _observe(self, sig: _Signature, kind, nbytes,
                 on_complete) -> None:
        harness = self.harness
        sim = harness.sim
        links = harness.network.all_links()
        t0 = sim.now
        marks = [link.tracker.mark() for link in links]
        msg0 = _msg_ids.value
        ring0 = _ring_mod._run_ids.value
        nvls0 = _nvls_mod._run_ids.value
        events0 = sim.events_processed
        started = self._runs_started
        harness.fastpath_inflight += 1

        def observed() -> None:
            harness.fastpath_inflight -= 1
            clean = (self._runs_started == started
                     and harness.network.quiescent())
            if not clean:
                # Another collective overlapped this one — the capture is
                # contaminated; try again on a later occurrence.
                on_complete()
                return
            if sig.state == _CALIBRATING:
                self._finish_calibration(
                    sig, t0, links, marks, msg0, ring0, nvls0, events0)
            elif sig.state == _VALIDATING:
                self._finish_validation(sig, t0, msg0, ring0, nvls0)
            on_complete()

        self.comm.run(kind, nbytes, observed, None)

    def _finish_calibration(self, sig, t0, links, marks, msg0, ring0,
                            nvls0, events0) -> None:
        sim = self.harness.sim
        sig.duration = sim.now - t0
        sig.msg_delta = _msg_ids.value - msg0
        sig.ring_delta = _ring_mod._run_ids.value - ring0
        sig.nvls_delta = _nvls_mod._run_ids.value - nvls0
        sig.events_delta = sim.events_processed - events0
        sig.link_deltas = []
        for index, (link, mark) in enumerate(zip(links, marks)):
            delta = link.tracker.delta_since(mark, t0)
            if delta[0] or delta[1] or delta[2]:
                sig.link_deltas.append((index, delta))
        self.calibrations += 1
        sig.state = _VALIDATING

    def _finish_validation(self, sig, t0, msg0, ring0, nvls0) -> None:
        sim = self.harness.sim
        exact = (t0 + sig.duration == sim.now
                 and _msg_ids.value - msg0 == sig.msg_delta
                 and _ring_mod._run_ids.value - ring0 == sig.ring_delta
                 and _nvls_mod._run_ids.value - nvls0 == sig.nvls_delta)
        if not exact:
            sig.state = _BLACKLISTED
            self.blacklists += 1
            return
        self.validations += 1
        sig.validated += 1
        if sig.validated >= fastpath.VALIDATE_OCCURRENCES - 1:
            sig.state = _BYPASS

    # -- Replay --------------------------------------------------------
    def _replay(self, sig: _Signature, on_complete) -> None:
        harness = self.harness
        sim = harness.sim
        t0 = sim.now
        harness.fastpath_inflight += 1
        self.analytic_ops += 1
        self.events_elided += sig.events_delta

        def complete() -> None:
            harness.fastpath_inflight -= 1
            _msg_ids.advance(sig.msg_delta)
            _ring_mod._run_ids.advance(sig.ring_delta)
            _nvls_mod._run_ids.advance(sig.nvls_delta)
            links = harness.network.all_links()
            for index, delta in sig.link_deltas:
                links[index].tracker.replay(delta, t0)
            on_complete()

        sim.schedule(sig.duration, complete)


def maybe_fastpath(harness, comm):
    """Wrap ``comm`` in a :class:`CollectiveFastPath` when the analytic
    layer could ever engage for it; otherwise return it unwrapped so
    disabled runs keep the exact seed call path."""
    if not fastpath.config().analytic_collectives:
        return comm
    if getattr(comm, "fastpath_transport", None) is None:
        return comm
    wrapper = CollectiveFastPath(harness, comm)
    return wrapper if wrapper.enabled else comm
