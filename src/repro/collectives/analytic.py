"""Analytic fast-path for uncongested collective phases (DESIGN.md §11).

Barrier-style systems (TP-NVLS, SP-NVLS, and the overlap baselines when
they run without chunk callbacks) execute the *same* collective —
transport, kind, byte count, chunking, fabric — hundreds of times per
experiment, each time against a quiescent network.  Event-level simulation
of such a phase is pure recomputation: its completion time and its entire
side-effect footprint (link busy intervals, id-stream advances) are a
function of the signature alone.

:class:`CollectiveFastPath` exploits this with a calibrate → validate →
replay protocol:

1. **Calibrate** — the first occurrence of a signature runs on the event
   path; its duration and side-effect deltas are captured.
2. **Validate** — the next ``validate_occurrences - 1`` occurrences (the
   deterministic sample) also run on the event path; each must reproduce
   the calibrated duration to *exact float equality* (``t0 + duration ==
   observed completion``) and identical id/traffic deltas, or the
   signature is blacklisted back to the event path forever.  Passing
   validation at different absolute start times is direct evidence that
   the phase's float arithmetic is translation-invariant for this
   signature.
3. **Replay** — later occurrences skip event-level simulation: one
   completion event fires at ``t0 + duration``, and the captured deltas
   are applied (link trackers, message/run-id streams), leaving
   downstream state where the event path would have left it.

A closed-form estimate of the uncongested phase (:func:`phase_estimate`)
cross-checks every calibration; a gross disagreement is counted as a
diagnostic (the calibrated value still wins — it is exact by
construction).

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
from ..common.config import SystemConfig
from ..interconnect.message import (FLIT_BYTES, PACKET_BYTES, _msg_ids)
from ..llm.graph import CommKind
from ..obs import current_causality, current_metrics, current_tracer
from . import ring as _ring_mod
from . import nvls_collectives as _nvls_mod


# ---------------------------------------------------------------------------
# Closed-form sanity model
# ---------------------------------------------------------------------------

def _wire_bytes(payload: int) -> int:
    return payload + -(-payload // PACKET_BYTES) * FLIT_BYTES


#: Serialized traffic per GPU, in units of the collective's shard size, for
#: each (transport, kind): ring passes each shard around the ring (k-1)
#: hops; NVLS pulls/pushes each shard across the fabric once.
_ROUNDS = {
    ("ring", CommKind.REDUCE_SCATTER): lambda k: k - 1,
    ("ring", CommKind.ALL_GATHER): lambda k: k - 1,
    ("ring", CommKind.ALL_REDUCE): lambda k: 2 * (k - 1),
    ("nvls", CommKind.REDUCE_SCATTER): lambda k: 1,
    ("nvls", CommKind.ALL_GATHER): lambda k: 1,
    ("nvls", CommKind.ALL_REDUCE): lambda k: 2,
}


def phase_estimate(transport: str, kind: CommKind, nbytes: int,
                   chunk_bytes: int, config: SystemConfig) -> float:
    """Closed-form completion-time estimate of an uncongested phase (ns).

    A pipelined bandwidth-server model: the phase's steady state is limited
    by per-plane up-link serialization of the traffic each GPU must move,
    plus a pipeline-fill term of one wire traversal (two link latencies and
    a switch hop, plus one chunk serialization) per round.  This is a
    sanity model (worth ~tens of percent), used only to cross-check the
    exact calibrated duration — protocol details (pull windows, staging
    barriers, credit turnarounds) are deliberately out of scope.
    """
    k = config.num_gpus
    planes = config.num_switches
    rounds = _ROUNDS[(transport, kind)](k)
    shard = nbytes // k
    chunk = min(chunk_bytes, shard) if shard else chunk_bytes
    chunks_per_shard = -(-shard // chunk_bytes) if shard else 0
    bw = config.link.bandwidth_gbps
    serialization = rounds * chunks_per_shard * _wire_bytes(chunk) / bw / planes
    fill = rounds * (2 * config.link.latency_ns
                     + config.switch.hop_latency_ns
                     + _wire_bytes(chunk) / bw)
    return serialization + fill


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
    analytic_rel_err: float = 0.0


class CollectiveFastPath:
    """CommImpl wrapper implementing the calibrate/validate/replay protocol.

    Wraps any comm adapter; engages only for adapters that declare a
    ``fastpath_transport`` (ring/NVLS — LADM's direct-read transport
    mutates per-GPU cache state and is excluded) and only for calls that
    are *provably* isolated and unobserved: no chunk callback, no fault
    machinery, no functional payloads, no tracing/metrics/causality, a
    quiescent fabric, and — the decisive guard — an **empty event queue**.
    With nothing queued, no kernel completion, serving arrival, or timer
    can possibly fire during the phase, so nothing can start concurrent
    traffic mid-window: the phase is isolated not just at its start but
    for its whole duration, which is what makes replaying a calibrated
    duration exact rather than approximate.  Everything else passes
    straight through to the event path.
    """

    def __init__(self, harness, comm):
        self.harness = harness
        self.comm = comm
        self.transport: Optional[str] = getattr(
            comm, "fastpath_transport", None)
        cfg = fastpath.config()
        self.validate_occurrences = max(1, cfg.validate_occurrences)
        self.enabled = (
            cfg.analytic_collectives
            and self.transport is not None
            and harness.fault_state is None
            and not harness.local_values
            and not current_metrics().enabled
            and not current_tracer().enabled
            and not current_causality().enabled)
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
        self.analytic_disagreements = 0
        if self.enabled:
            harness.fastpath_comms.append(self)

    # -- CommImpl ------------------------------------------------------
    def run(self, kind, nbytes, on_complete, on_chunk=None):
        self._runs_started += 1
        if not self._eligible(on_chunk):
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
            self._observe(sig_key, sig, kind, nbytes, on_complete)

    def _eligible(self, on_chunk) -> bool:
        return (self.enabled
                and on_chunk is None
                and self.harness.fastpath_inflight == 0
                and self.harness.sim.pending() == 0
                and self.harness.network.quiescent())

    # -- Event-path observation (calibration + validation) -------------
    def _observe(self, sig_key, sig: _Signature, kind, nbytes,
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
                    sig, kind, nbytes, t0, links, marks, msg0, ring0,
                    nvls0, events0)
            elif sig.state == _VALIDATING:
                self._finish_validation(sig, t0, msg0, ring0, nvls0)
            on_complete()

        self.comm.run(kind, nbytes, observed, None)

    def _finish_calibration(self, sig, kind, nbytes, t0, links, marks,
                            msg0, ring0, nvls0, events0) -> None:
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
        estimate = phase_estimate(self.transport, kind, nbytes,
                                  self._chunk_bytes, self.harness.config)
        if sig.duration > 0:
            sig.analytic_rel_err = abs(estimate - sig.duration) / sig.duration
            if sig.analytic_rel_err > 0.25:
                self.analytic_disagreements += 1
        self.calibrations += 1
        sig.state = (_BYPASS if self.validate_occurrences <= 1
                     else _VALIDATING)

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
        if sig.validated >= self.validate_occurrences - 1:
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
