"""Inference-serving workload: prefill/decode under continuous batching.

The paper evaluates single-graph training/inference steps; this module
adds the *request-level* serving dimension on top of the same per-layer
graphs so the systems can be compared on serving metrics (TTFT, TPOT,
tokens/s) rather than lone-graph makespan:

* :func:`generate_requests` — a seeded Poisson arrival process with
  per-request prompt/output lengths.  Arrivals are *thinned* from a fixed
  maximum rate: candidates are generated at ``max_arrival_rate_rps`` and
  each is accepted with probability ``rate / max_rate`` from its own RNG
  stream, so raising the rate yields a strict superset of requests at
  identical arrival times — the structural property behind the
  "higher arrival rate never decreases makespan" invariant test.
* :class:`ContinuousBatcher` — Orca-style combined iterations: every
  scheduled request contributes either its (re-)prefill chunk or one
  decode token to each iteration and emits exactly one token per
  participation, under a KV-cache byte budget with LIFO eviction that
  never touches the oldest running request (guaranteeing progress).
* :func:`serving_iteration_graph` — one iteration's operator graph,
  mirroring the :mod:`repro.llm.tp` layer builders (same op names,
  shapes, and collective placement) with the token dimension replaced by
  the batch's padded token count and attention split per participant so
  each request pays for its own KV-cache span.
* :func:`simulate_serving` — the event-driven driver: it runs each
  iteration's graph through a :class:`~repro.systems.systems.Session`,
  re-plans the batch at every iteration boundary at *simulation* time,
  and reports per-request stats plus system throughput.

Fidelity envelope: one representative layer per iteration (like the rest
of the repo's per-layer methodology), no speculative decoding, no
chunked-prefill splitting, and KV reads are priced through the attention
GEMM's K dimension rather than a separate HBM channel — see DESIGN.md
section 9 for the comparison against trace-driven serving simulators.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..common.errors import SimulationError, WorkloadError
from ..common.rng import RngPool
from ..faults.retry import RequestRetryBudget
from ..obs import (current_causality, current_metrics, current_request_log,
                   current_timeseries, current_tracer)
from ..obs.requests import PHASE_DECODE, PHASE_PREFILL, category_shares
from .graph import CommKind, Graph
from .models import ModelConfig
from .tiling import ceil_div
from .tp import _comm, _gemm, _vector, validate_tp_partition


def kv_bytes_per_token(model: ModelConfig) -> int:
    """KV-cache bytes one token occupies across all layers (K and V)."""
    return 2 * model.hidden * model.dtype_bytes * model.layers


# ---------------------------------------------------------------------------
# Workload specification and request generation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ServingSpec:
    """One serving workload, fully described by value.

    Frozen and built from primitives only, so it enters the experiment
    cache fingerprint verbatim (see ``SimTask.payload``).  ``model`` is a
    Table-I name; callers with ad-hoc models pass a
    :class:`~repro.llm.models.ModelConfig` to :func:`simulate_serving`
    directly and the name is ignored.
    """

    model: str = "Mega-GPT-4B"
    seed: int = 2026
    #: Mean request arrival rate (requests per second of simulated time).
    arrival_rate_rps: float = 40000.0
    #: Thinning base rate; candidates are drawn at this rate and accepted
    #: with probability ``arrival_rate_rps / max_arrival_rate_rps``.
    #: ``None`` means "equal to the arrival rate" (no thinning).
    max_arrival_rate_rps: Optional[float] = None
    #: Arrival window in simulated milliseconds.  Requests only *arrive*
    #: inside the window; the run ends when the last one finishes.
    horizon_ms: float = 1.0
    prompt_min: int = 64
    prompt_max: int = 256
    output_min: int = 2
    output_max: int = 8
    #: KV-cache byte budget across all running requests; ``None`` derives
    #: a batch-limited default (every slot holding a worst-case request).
    kv_budget_bytes: Optional[int] = None
    max_batch_requests: int = 8
    #: SLO-aware admission control: ``"none"`` (inert default), ``"shed"``
    #: (reject fresh prefills while gated — they count against SLO
    #: attainment) or ``"defer"`` (hold them in the waiting queue).
    admission_policy: str = "none"
    #: TTFT SLO target in milliseconds.  Enables the admission controller
    #: (with a non-``"none"`` policy) and the SLO attainment / goodput
    #: result details.  ``None`` keeps both off.
    slo_ttft_ms: Optional[float] = None
    #: Sliding window (ms) of completions the controller measures p95 over.
    admission_window_ms: float = 1.0
    #: Hysteresis: a gated run resumes admitting once windowed TTFT p95
    #: falls to ``resume_fraction * slo_ttft_ms``.
    resume_fraction: float = 0.8
    #: Per-request retransmit charge bound under faults; exceeding it
    #: aborts the request (KV dropped, full re-prefill requeued).
    #: ``None`` disables abort accounting.
    retry_budget: Optional[int] = None

    def __post_init__(self) -> None:
        def require(ok: bool, name: str, value, constraint: str) -> None:
            # FaultSpec's convention: name the offending field and value.
            if not ok:
                raise WorkloadError(
                    f"ServingSpec.{name}={value!r} {constraint}")

        require(self.arrival_rate_rps > 0, "arrival_rate_rps",
                self.arrival_rate_rps, "must be > 0")
        require(self.max_arrival_rate_rps is None
                or self.max_arrival_rate_rps >= self.arrival_rate_rps,
                "max_arrival_rate_rps", self.max_arrival_rate_rps,
                f"must be >= arrival_rate_rps={self.arrival_rate_rps}")
        require(self.horizon_ms > 0, "horizon_ms", self.horizon_ms,
                "must be > 0")
        for lo, hi, what in ((self.prompt_min, self.prompt_max, "prompt"),
                             (self.output_min, self.output_max, "output")):
            require(1 <= lo <= hi, f"{what}_min..{what}_max",
                    (lo, hi), f"needs 1 <= {what}_min <= {what}_max")
        require(self.max_batch_requests >= 1, "max_batch_requests",
                self.max_batch_requests, "must be >= 1")
        require(self.kv_budget_bytes is None or self.kv_budget_bytes > 0,
                "kv_budget_bytes", self.kv_budget_bytes, "must be > 0")
        require(self.admission_policy in ("none", "shed", "defer"),
                "admission_policy", self.admission_policy,
                "must be one of 'none', 'shed', 'defer'")
        require(self.admission_policy == "none"
                or self.slo_ttft_ms is not None,
                "slo_ttft_ms", self.slo_ttft_ms,
                f"is required by "
                f"admission_policy={self.admission_policy!r}")
        require(self.slo_ttft_ms is None or self.slo_ttft_ms > 0,
                "slo_ttft_ms", self.slo_ttft_ms, "must be > 0")
        require(self.admission_window_ms > 0, "admission_window_ms",
                self.admission_window_ms, "must be > 0")
        require(0 < self.resume_fraction <= 1, "resume_fraction",
                self.resume_fraction, "must be in (0, 1]")
        require(self.retry_budget is None or self.retry_budget >= 1,
                "retry_budget", self.retry_budget, "must be >= 1")

    @property
    def effective_max_rate(self) -> float:
        return self.max_arrival_rate_rps or self.arrival_rate_rps


@dataclass(frozen=True)
class Request:
    """One inference request of the arrival process."""

    rid: int                 # candidate index — stable across arrival rates
    arrival_ns: float
    prompt_len: int
    output_len: int
    #: KV cache already resident on arrival (disaggregated prefill/decode
    #: handoff: the prompt's KV was computed elsewhere and shipped over
    #: the fabric), so the first participation decodes instead of
    #: prefilling.  Eviction still drops the cache and recomputes from
    #: scratch — handed-off bytes are not replayable.
    warm: bool = False


@dataclass
class RequestStats:
    """Per-request serving outcome."""

    rid: int
    arrival_ns: float
    prompt_len: int
    output_len: int
    first_token_ns: Optional[float] = None
    finish_ns: Optional[float] = None
    evictions: int = 0
    #: Retry-budget aborts this request survived (KV dropped, re-prefill).
    aborts: int = 0
    #: True when admission control rejected the request outright; its
    #: ``finish_ns`` is the shed time and no tokens were emitted.
    shed: bool = False

    @property
    def ttft_ns(self) -> float:
        """Time to first token: end of the prefill iteration - arrival."""
        return self.first_token_ns - self.arrival_ns

    @property
    def e2e_ns(self) -> float:
        return self.finish_ns - self.arrival_ns

    @property
    def tpot_ns(self) -> float:
        """Mean time per output token after the first (0 for 1-token)."""
        if self.output_len <= 1:
            return 0.0
        return (self.e2e_ns - self.ttft_ns) / (self.output_len - 1)


def generate_requests(spec: ServingSpec) -> List[Request]:
    """Sample the seeded arrival process described by ``spec``.

    Candidate arrivals are a Poisson process at ``effective_max_rate``
    from the ``serving.arrivals`` stream; acceptance and the length draws
    come from a per-candidate ``serving.request.<i>`` stream, so the
    accepted set at a lower rate is a subset of the set at any higher
    rate (same ``max_arrival_rate_rps``) with identical arrival times and
    lengths.  Candidate 0 is always accepted — a serving run needs at
    least one request — even when its arrival falls past the horizon.
    """
    pool = RngPool(spec.seed)
    gaps = pool.stream("serving.arrivals")
    mean_gap_ns = 1e9 / spec.effective_max_rate
    horizon_ns = spec.horizon_ms * 1e6
    requests: List[Request] = []
    t = 0.0
    i = 0
    while True:
        t += float(gaps.exponential(mean_gap_ns))
        if i > 0 and t > horizon_ns:
            break
        stream = pool.stream(f"serving.request.{i}")
        u = float(stream.uniform())
        if i == 0 or u * spec.effective_max_rate <= spec.arrival_rate_rps:
            requests.append(Request(
                rid=i, arrival_ns=t,
                prompt_len=int(stream.integers(spec.prompt_min,
                                               spec.prompt_max + 1)),
                output_len=int(stream.integers(spec.output_min,
                                               spec.output_max + 1))))
        i += 1
    return requests


# ---------------------------------------------------------------------------
# Admission control
# ---------------------------------------------------------------------------

class AdmissionController:
    """SLO-aware admission gate, driven purely by simulated time.

    The controller watches TTFT of completions inside a sliding window.
    When the windowed p95 breaches the SLO target, the gate closes and
    new prefills are shed or deferred (per ``ServingSpec.admission_policy``)
    until the p95 recovers below ``resume_fraction * slo`` — hysteresis so
    a run hovering at the target does not flap admission every iteration.
    Everything is a pure function of completion times, so two identical
    runs gate identically; an empty window reads as p95 = 0 and reopens
    the gate, which is what guarantees liveness once the backlog drains.
    """

    def __init__(self, slo_ttft_ns: float, window_ns: float,
                 resume_fraction: float):
        self.slo_ttft_ns = slo_ttft_ns
        self.window_ns = window_ns
        self.resume_fraction = resume_fraction
        self.gated = False
        self.breaches = 0
        self.resumes = 0
        #: (finish_ns, ttft_ns) completions, ordered by finish time.
        self._samples: List[Tuple[float, float]] = []

    def record(self, finish_ns: float, ttft_ns: float) -> None:
        self._samples.append((finish_ns, ttft_ns))

    def _prune(self, now_ns: float) -> None:
        cutoff = now_ns - self.window_ns
        drop = 0
        while drop < len(self._samples) and \
                self._samples[drop][0] <= cutoff:
            drop += 1
        if drop:
            del self._samples[:drop]

    def windowed_p95_ns(self, now_ns: float) -> float:
        self._prune(now_ns)
        return _exact_quantile([t for _, t in self._samples], 0.95)

    def update(self, now_ns: float) -> bool:
        """Re-evaluate the gate; returns True while admission is gated."""
        p95 = self.windowed_p95_ns(now_ns)
        if not self.gated:
            if p95 > self.slo_ttft_ns:
                self.gated = True
                self.breaches += 1
        elif p95 <= self.resume_fraction * self.slo_ttft_ns:
            self.gated = False
            self.resumes += 1
        return self.gated

    def next_expiry_ns(self, now_ns: float) -> Optional[float]:
        """When the oldest in-window sample leaves the window — the
        driver's wake-up time when gated with nothing running (each
        expiry shrinks the window population, so the gate provably
        reopens in bounded sim time)."""
        self._prune(now_ns)
        if not self._samples:
            return None
        return self._samples[0][0] + self.window_ns


# ---------------------------------------------------------------------------
# Continuous batching
# ---------------------------------------------------------------------------

@dataclass
class _Active:
    """Scheduler-side request state."""

    stats: RequestStats
    emitted: int = 0
    #: Tokens the next participation must (re-)process through the prefill
    #: path: the prompt on first admission, prompt + emitted after an
    #: eviction rebuilt from scratch.  0 once the KV cache is warm.
    prefill_pending: int = 0

    @property
    def done(self) -> bool:
        return self.emitted >= self.stats.output_len

    def kv_tokens_after_iteration(self) -> int:
        """KV tokens held once this request participates in one more
        iteration (context written so far plus the token it emits)."""
        return self.stats.prompt_len + self.emitted + 1


#: One iteration participant: (request state, tokens processed this
#: iteration, KV span its attention reads).
Participant = Tuple[_Active, int, int]


class ContinuousBatcher:
    """Iteration-level scheduler: admit, evict, plan, commit.

    Admission is head-of-line in arrival order (a request that does not
    fit blocks later ones — keeps the schedule a pure function of the
    arrived set).  Eviction is LIFO among the running requests and never
    evicts the oldest, so the head request always runs to completion and
    frees its KV bytes: combined with the single-request feasibility
    check in ``__init__`` this rules out eviction livelock.
    """

    def __init__(self, spec: ServingSpec, model: ModelConfig,
                 requests: Sequence[Request]):
        self.spec = spec
        self.kvpt = kv_bytes_per_token(model)
        worst = (spec.prompt_max + spec.output_max) * self.kvpt
        self.budget = (spec.kv_budget_bytes if spec.kv_budget_bytes
                       is not None else spec.max_batch_requests * worst)
        if not requests:
            raise WorkloadError(
                "serving needs at least one request (an explicit request "
                "list was empty)")
        need = max((r.prompt_len + r.output_len) * self.kvpt
                   for r in requests)
        if need > self.budget:
            raise WorkloadError(
                f"kv_budget_bytes={self.budget} cannot hold one "
                f"worst-case request ({need} bytes = "
                f"(prompt+output) tokens x {self.kvpt} B/token); "
                f"no schedule can finish it")
        #: Not-yet-arrived, in arrival order.
        self.future: List[_Active] = [
            _Active(stats=RequestStats(rid=r.rid, arrival_ns=r.arrival_ns,
                                       prompt_len=r.prompt_len,
                                       output_len=r.output_len),
                    prefill_pending=0 if r.warm else r.prompt_len)
            for r in sorted(requests, key=lambda r: (r.arrival_ns, r.rid))]
        self.waiting: List[_Active] = []
        self.running: List[_Active] = []
        self.finished: List[_Active] = []
        self.shed: List[_Active] = []
        self.evictions = 0
        self.aborts = 0
        self.reprefill_tokens = 0
        self.peak_kv_bytes = 0
        self.kv_bytes_now = 0
        #: Fault-aware replanning state: fraction of nominal batch
        #: capacity still backed by live hardware, and how many times the
        #: plan had to adapt to a change in it.
        self.capacity_factor = 1.0
        self.replans = 0
        self.deferred_iterations = 0
        self.admission: Optional[AdmissionController] = None
        if spec.slo_ttft_ms is not None and spec.admission_policy != "none":
            self.admission = AdmissionController(
                slo_ttft_ns=spec.slo_ttft_ms * 1e6,
                window_ns=spec.admission_window_ms * 1e6,
                resume_fraction=spec.resume_fraction)
        #: Observability hooks, called as ``hook(active, now_ns)``; None
        #: (the default) costs one attribute read.
        self.on_evict: Optional[Callable] = None
        self.on_shed: Optional[Callable] = None
        self.on_abort: Optional[Callable] = None

    # -- queue maintenance ---------------------------------------------
    def release_arrivals(self, now_ns: float) -> None:
        """Move arrived requests into the waiting queue (1e-3 ns slack
        absorbs the float round-trip of ``schedule_at``)."""
        while self.future and \
                self.future[0].stats.arrival_ns <= now_ns + 1e-3:
            self.waiting.append(self.future.pop(0))

    def next_arrival_ns(self) -> Optional[float]:
        return self.future[0].stats.arrival_ns if self.future else None

    def all_done(self) -> bool:
        return not (self.future or self.waiting or self.running)

    # -- degradation ----------------------------------------------------
    def degrade_capacity(self, factor: float) -> None:
        """Fault-aware replanning: the fabric lost (or recovered) collective
        capacity; clamp the next iteration's batch to what survives."""
        factor = min(max(factor, 0.0), 1.0)
        if factor != self.capacity_factor:
            self.capacity_factor = factor
            self.replans += 1

    def effective_max_batch(self) -> int:
        return max(1, int(self.spec.max_batch_requests
                          * self.capacity_factor))

    def admission_wake_ns(self, now_ns: float) -> Optional[float]:
        """When gated with nothing running, the next sim time the gate
        can change state (oldest sample's window expiry, plus the same
        float slack ``release_arrivals`` uses so the re-evaluation lands
        strictly past the edge)."""
        if self.admission is None or not self.admission.gated:
            return None
        expiry = self.admission.next_expiry_ns(now_ns)
        return None if expiry is None else expiry + 1e-3

    # -- planning -------------------------------------------------------
    def _kv_after(self, group: Sequence[_Active]) -> int:
        return sum(a.kv_tokens_after_iteration() for a in group) * self.kvpt

    def _evict(self, now_ns: float) -> None:
        victim = self.running.pop()
        victim.stats.evictions += 1
        victim.prefill_pending = (victim.stats.prompt_len
                                  + victim.emitted)
        self.evictions += 1
        self.waiting.insert(0, victim)
        if self.on_evict is not None:
            self.on_evict(victim, now_ns)

    def _shed_fresh_waiting(self, now_ns: float) -> None:
        """Shed policy while gated: reject waiting requests that have no
        sunk work.  Requests with emitted tokens or (re-)prefill state
        from an eviction/abort already paid for compute the SLO math must
        keep, so they stay queued — as do warm (handed-off KV) requests,
        whose prefill was paid for on another replica."""
        kept: List[_Active] = []
        for active in self.waiting:
            if active.emitted == 0 and active.prefill_pending \
                    and active.stats.evictions == 0 \
                    and active.stats.aborts == 0:
                active.stats.shed = True
                active.stats.finish_ns = now_ns
                self.shed.append(active)
                if self.on_shed is not None:
                    self.on_shed(active, now_ns)
            else:
                kept.append(active)
        self.waiting = kept

    def plan_iteration(self, now_ns: float) -> List[Participant]:
        """Admit/evict for one iteration; return its participants."""
        self.release_arrivals(now_ns)
        gated = (self.admission is not None
                 and self.admission.update(now_ns))
        if gated and self.waiting:
            if self.spec.admission_policy == "shed":
                self._shed_fresh_waiting(now_ns)
            else:
                self.deferred_iterations += 1
        limit = self.effective_max_batch()
        if not gated:
            while (self.waiting
                   and len(self.running) < limit
                   and self._kv_after(self.running + self.waiting[:1])
                   <= self.budget):
                self.running.append(self.waiting.pop(0))
        while len(self.running) > limit and len(self.running) > 1:
            # Degraded capacity: spill the newest requests back (same
            # LIFO/never-oldest rule as KV eviction, same re-prefill cost).
            self._evict(now_ns)
        while self._kv_after(self.running) > self.budget \
                and len(self.running) > 1:
            self._evict(now_ns)
        kv_now = self._kv_after(self.running)
        self.kv_bytes_now = kv_now
        if kv_now > self.peak_kv_bytes:
            self.peak_kv_bytes = kv_now
        plan: List[Participant] = []
        for active in self.running:
            if active.prefill_pending:
                tokens = active.prefill_pending
                span = tokens
            else:
                tokens = 1
                span = active.stats.prompt_len + active.emitted + 1
            plan.append((active, tokens, span))
        return plan

    # -- commit ---------------------------------------------------------
    def commit(self, plan: Sequence[Participant],
               end_ns: float) -> List[_Active]:
        """Account one finished iteration; returns requests that just
        completed (every participant emitted exactly one token)."""
        done_now: List[_Active] = []
        for active, _tokens, _span in plan:
            active.prefill_pending = 0
            active.emitted += 1
            if active.emitted > active.stats.output_len:
                raise SimulationError(
                    f"request {active.stats.rid} emitted "
                    f"{active.emitted} > output_len="
                    f"{active.stats.output_len} tokens")
            if active.stats.first_token_ns is None:
                active.stats.first_token_ns = end_ns
            if active.done:
                active.stats.finish_ns = end_ns
                done_now.append(active)
        for active in done_now:
            self.running.remove(active)
            self.finished.append(active)
            if self.admission is not None:
                self.admission.record(active.stats.finish_ns,
                                      active.stats.ttft_ns)
        return done_now

    # -- aborts ---------------------------------------------------------
    def abort_request(self, rid: int, now_ns: float) -> bool:
        """Retry-budget exhaustion: drop the request's KV cache and
        requeue a full re-prefill at the back of the waiting queue.

        Same progress guarantee as eviction — the oldest running request
        is never aborted, so a retry storm cannot livelock the head of
        the line.  Returns whether the abort happened.
        """
        for idx, active in enumerate(self.running):
            if active.stats.rid != rid:
                continue
            if idx == 0:
                return False
            self.running.pop(idx)
            tokens = active.stats.prompt_len + active.emitted
            active.prefill_pending = tokens
            active.stats.aborts += 1
            self.aborts += 1
            self.reprefill_tokens += tokens
            self.waiting.append(active)
            if self.on_abort is not None:
                self.on_abort(active, now_ns)
            return True
        return False


# ---------------------------------------------------------------------------
# Iteration graphs
# ---------------------------------------------------------------------------

def serving_iteration_graph(model: ModelConfig, tp: int,
                            participants: Sequence[Tuple[int, int]],
                            tile: int, style: str = "sp",
                            name: str = "serve") -> Graph:
    """One combined prefill/decode iteration as a layer graph.

    ``participants`` is a list of ``(tokens, kv_span)`` pairs — prefill
    entries carry their chunk length, decode entries one token; the span
    is the KV context the request's attention reads.  The projection/FFN
    path runs over the *padded* batch token count ``M`` (rounded up to a
    multiple of ``tile * tp`` so every system — in particular the CAIS
    activation layout, which needs at least ``tp`` row blocks — sees the
    same workload), while attention is built per participant so each
    request pays exactly for its own growing KV cache.  Op names, GEMM
    shapes, and collective placement mirror
    :func:`repro.llm.tp.sp_forward_layer` /
    :func:`repro.llm.tp.basic_forward_layer`.
    """
    if not participants:
        raise WorkloadError("iteration with no participants")
    if style not in ("sp", "basic"):
        raise WorkloadError(f"unknown TP style {style!r}")
    for tokens, span in participants:
        if tokens < 1 or span < 1:
            raise WorkloadError(
                f"participant needs tokens >= 1 and kv_span >= 1, "
                f"got ({tokens}, {span})")
    h, f = model.hidden, model.ffn_hidden
    if h % tp or f % tp or model.heads % tp:
        # Same contract as the tp.py builders (tokens are padded here, so
        # only the width dimensions need checking).
        validate_tp_partition(model, tp)
    heads_tp = model.heads // tp
    block = tile * tp
    m = ceil_div(sum(t for t, _ in participants), block) * block
    act = m * h * model.dtype_bytes
    sp = style == "sp"
    ln_elems = m * h // tp if sp else m * h
    g = Graph(name)
    g.add(_vector("ln1", ln_elems, ()))
    qkv_dep = "ln1"
    if sp:
        g.add(_comm("ag1", CommKind.ALL_GATHER, act, ("ln1",)))
        qkv_dep = "ag1"
    g.add(_gemm("qkv", m, 3 * h // tp, h, (qkv_dep,)))
    ctx_names = []
    for j, (tokens, span) in enumerate(participants):
        g.add(_gemm(f"attn_score.{j}", tokens, span, h // tp, ("qkv",)))
        g.add(_vector(f"softmax.{j}", tokens * heads_tp * span,
                      (f"attn_score.{j}",)))
        g.add(_gemm(f"attn_ctx.{j}", tokens, h // tp, span,
                    (f"softmax.{j}",)))
        ctx_names.append(f"attn_ctx.{j}")
    g.add(_gemm("proj", m, h, h // tp, tuple(ctx_names), sublayer="L1"))
    if sp:
        g.add(_comm("rs1", CommKind.REDUCE_SCATTER, act, ("proj",),
                    sublayer="L1"))
    else:
        g.add(_comm("ar1", CommKind.ALL_REDUCE, act, ("proj",),
                    sublayer="L1"))
    first_coll = "rs1" if sp else "ar1"
    g.add(_vector("dropadd1", ln_elems, (first_coll,), sublayer="L1"))
    g.add(_vector("ln2", ln_elems, ("dropadd1",), sublayer="L1"))
    ffn1_dep = "ln2"
    if sp:
        g.add(_comm("ag2", CommKind.ALL_GATHER, act, ("ln2",),
                    sublayer="L1"))
        ffn1_dep = "ag2"
    g.add(_gemm("ffn1", m, f // tp, h, (ffn1_dep,), sublayer="L1"))
    g.add(_vector("gelu", m * f // tp, ("ffn1",)))
    g.add(_gemm("ffn2", m, h, f // tp, ("gelu",), sublayer="L2"))
    if sp:
        g.add(_comm("rs2", CommKind.REDUCE_SCATTER, act, ("ffn2",),
                    sublayer="L2"))
    else:
        g.add(_comm("ar2", CommKind.ALL_REDUCE, act, ("ffn2",),
                    sublayer="L2"))
    g.add(_vector("dropadd2", ln_elems, ("rs2" if sp else "ar2",),
                  sublayer="L2"))
    return g


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------

@dataclass
class ServingResult:
    """Outcome of one serving simulation on one system."""

    run: object                      # systems.base.RunResult
    spec: ServingSpec
    stats: List[RequestStats] = field(default_factory=list)
    iterations: int = 0
    evictions: int = 0
    peak_kv_bytes: int = 0
    #: Requests rejected by admission control (never served).
    shed: List[RequestStats] = field(default_factory=list)
    aborts: int = 0
    reprefill_tokens: int = 0
    replans: int = 0
    capacity_factor: float = 1.0
    deferred_iterations: int = 0

    @property
    def makespan_ns(self) -> float:
        return self.run.makespan_ns

    @property
    def total_output_tokens(self) -> int:
        return sum(s.output_len for s in self.stats)

    @property
    def tokens_per_s(self) -> float:
        if self.makespan_ns <= 0:
            return 0.0
        return self.total_output_tokens / self.makespan_ns * 1e9

    def ttft_quantile_ns(self, q: float) -> float:
        return _exact_quantile([s.ttft_ns for s in self.stats], q)

    def mean_ttft_ns(self) -> float:
        return sum(s.ttft_ns for s in self.stats) / len(self.stats)

    def mean_tpot_ns(self) -> float:
        multi = [s.tpot_ns for s in self.stats if s.output_len > 1]
        return sum(multi) / len(multi) if multi else 0.0

    def mean_e2e_ns(self) -> float:
        return sum(s.e2e_ns for s in self.stats) / len(self.stats)

    # -- SLO accounting -------------------------------------------------
    def slo_attainment(self, slo_ttft_ns: float) -> float:
        """Fraction of the *offered* stream finished with TTFT within the
        SLO — shed requests count against attainment."""
        offered = len(self.stats) + len(self.shed)
        if not offered:
            return 0.0
        ok = sum(1 for s in self.stats if s.ttft_ns <= slo_ttft_ns)
        return ok / offered

    def good_tokens(self, slo_ttft_ns: float) -> int:
        """Output tokens of requests that met the TTFT SLO."""
        return sum(s.output_len for s in self.stats
                   if s.ttft_ns <= slo_ttft_ns)


def _exact_quantile(values: List[float], q: float) -> float:
    """Nearest-rank quantile over the exact sample (no bucketing)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(0, math.ceil(q * len(ordered)) - 1)
    return ordered[min(rank, len(ordered) - 1)]


def simulate_serving(system, spec: ServingSpec,
                     model: Optional[ModelConfig] = None,
                     style: str = "sp",
                     requests: Optional[Sequence[Request]] = None,
                     ) -> ServingResult:
    """Serve ``spec``'s request stream on ``system`` to completion.

    ``model`` defaults to the Table-I model named by ``spec.model``;
    ``style`` picks the TP lowering the system executes (callers use
    :func:`repro.experiments.runner.style_for`).  ``requests`` overrides
    the generated stream with an explicit list (the fleet router's
    per-replica assignments, :mod:`repro.llm.fleet`); every code path
    after generation is shared, so a 1-replica fleet run is byte-identical
    to the default path on the same stream.  The driver replans the
    batch at every iteration boundary *inside* the simulation: arrivals
    are simulator events, so admission order depends on simulated time,
    and two systems see identical request streams but batch them
    differently — exactly the continuous-batching dynamics the serving
    metrics measure.
    """
    if model is None:
        from .models import by_name
        model = by_name(spec.model)
    tp = system.config.num_gpus
    validate_tp_partition(model, tp)
    if requests is None:
        requests = generate_requests(spec)
    else:
        requests = list(requests)
    batcher = ContinuousBatcher(spec, model, requests)
    session = system.session()
    sim = session.harness.sim
    fault_state = session.fault_state
    retry_budget: Optional[RequestRetryBudget] = None
    if fault_state is not None:
        # Faults fire mid-stream: replan the next iteration against the
        # surviving capacity instead of stalling on the nominal plan.
        def _replan() -> None:
            batcher.degrade_capacity(fault_state.capacity_factor())
        fault_state.on_degradation(_replan)
        if spec.retry_budget is not None:
            retry_budget = RequestRetryBudget(spec.retry_budget)
            fault_state.retransmitter.add_retry_listener(
                retry_budget.note_retry)
    tracer = current_tracer()
    metrics = current_metrics()
    ts = current_timeseries()
    reqlog = current_request_log()
    cz = current_causality()
    tile = system.tiling.tile
    state = {"iterations": 0}
    max_iterations = sum(r.output_len for r in requests) + 16
    #: One flag for all per-iteration instrumentation below, so a run
    #: with every sink disabled takes exactly the pre-existing path.
    obs_iter = ts.enabled or reqlog.enabled
    if reqlog.enabled:
        for r in requests:
            reqlog.open(r.rid, r.arrival_ns, r.prompt_len, r.output_len)
    if obs_iter:
        def _on_evict(active: _Active, now_ns: float) -> None:
            if reqlog.enabled:
                reqlog.get(active.stats.rid).event("evicted", now_ns)
            if ts.enabled:
                ts.counter("serving.evictions").add(now_ns, 1)
        batcher.on_evict = _on_evict

        def _on_shed(active: _Active, now_ns: float) -> None:
            if reqlog.enabled:
                rec = reqlog.get(active.stats.rid)
                rec.event("shed", now_ns)
                # Its whole lifetime was spent queued; pad and seal.
                rec.close(now_ns, None, pad=True)
            if ts.enabled:
                ts.counter("serving.shed").add(now_ns, 1)
        batcher.on_shed = _on_shed

        def _on_abort(active: _Active, now_ns: float) -> None:
            if reqlog.enabled:
                reqlog.get(active.stats.rid).event("aborted", now_ns)
            if ts.enabled:
                ts.counter("serving.aborts").add(now_ns, 1)
        batcher.on_abort = _on_abort
    if session.fault_injector is not None:
        def _serving_report() -> str:
            head = ", ".join(
                f"r{a.stats.rid}:{a.emitted}/{a.stats.output_len}"
                for a in batcher.running[:4])
            return (f"serving[iter={state['iterations']}"
                    f" running={len(batcher.running)}"
                    + (f" ({head})" if head else "")
                    + f" waiting={len(batcher.waiting)}"
                    f" future={len(batcher.future)}"
                    f" finished={len(batcher.finished)}"
                    f" shed={len(batcher.shed)}]")
        session.fault_injector.add_watch_reporter(_serving_report)

    def record_finish(active: _Active, track_args: dict) -> None:
        s = active.stats
        if reqlog.enabled:
            reqlog.get(s.rid).close(s.finish_ns, s.first_token_ns)
        if tracer.enabled:
            track = tracer.track("serving", f"req{s.rid:04d}")
            handle = tracer.begin(track, "request", s.arrival_ns,
                                  cat="serving", args=track_args)
            if reqlog.enabled:
                # One span per phase, nested inside the request span; the
                # phases tile arrival -> finish, so their durations sum to
                # the request's e2e latency in the trace too.
                for ph in reqlog.get(s.rid).phases:
                    ph_handle = tracer.begin(track, ph.kind, ph.start_ns,
                                             cat="serving-phase",
                                             args={"tokens": ph.tokens})
                    tracer.end(ph_handle, ph.end_ns)
            tracer.instant(track, "first_token", s.first_token_ns,
                           cat="serving")
            tracer.end(handle, s.finish_ns)
        if metrics.enabled:
            metrics.counter("serving.requests_completed").inc()
            metrics.counter("serving.tokens_emitted").inc(s.output_len)
            metrics.histogram("serving.ttft_ns").record(s.ttft_ns)
            metrics.histogram("serving.e2e_ns").record(s.e2e_ns)
            if s.output_len > 1:
                metrics.histogram("serving.tpot_ns").record(s.tpot_ns)
        if ts.enabled:
            ts.counter("serving.requests_completed").add(s.finish_ns, 1)
            ts.sketch("serving.ttft_ns").record(s.finish_ns, s.ttft_ns)
            ts.sketch("serving.e2e_ns").record(s.finish_ns, s.e2e_ns)
            if s.output_len > 1:
                ts.sketch("serving.tpot_ns").record(s.finish_ns, s.tpot_ns)

    def step() -> None:
        now = sim.now
        plan = batcher.plan_iteration(now)
        if not plan:
            if batcher.all_done():
                # The stream is served: stand the fault machinery down at
                # this instant, as Session.run does, so the makespan is
                # the last request's finish and not a later fault timer's
                # or admission wake's.
                session.harness.workload_complete()
                return
            # Wake at the next arrival or — when admission gated us with
            # nothing running — at the gate's next possible state change.
            wakes = [t for t in (batcher.next_arrival_ns(),
                                 batcher.admission_wake_ns(now))
                     if t is not None]
            if not wakes:
                return          # stranded requests: reported after the run
            sim.schedule(max(min(wakes) - now, 0.0), step)
            return
        state["iterations"] += 1
        if state["iterations"] > max_iterations:
            raise SimulationError(
                f"{system.name}: serving exceeded {max_iterations} "
                f"iterations for {len(requests)} requests — "
                f"scheduler is not making progress")
        if metrics.enabled:
            metrics.gauge("serving.kv_bytes").set(batcher.peak_kv_bytes)
            metrics.counter("serving.iterations").inc()
        it_start = now
        if obs_iter:
            # Phase kinds must be read at plan time: commit() clears
            # prefill_pending before iteration_done sees it.
            kinds = [PHASE_PREFILL if a.prefill_pending else PHASE_DECODE
                     for a, _, _ in plan]
            kv_now = batcher.kv_bytes_now
            cz_mark = len(cz) if cz.enabled else 0
        graph = serving_iteration_graph(
            model, tp, [(tokens, span) for _, tokens, span in plan],
            tile=tile, style=style,
            name=f"serve-it{state['iterations']:04d}")

        def iteration_done() -> None:
            it_end = sim.now
            if obs_iter:
                shares = (category_shares(cz, cz_mark, it_start, it_end)
                          if cz.enabled else None)
                if ts.enabled:
                    ts.counter("serving.tokens").add(it_end, len(plan))
                    ts.counter("serving.iterations").add(it_end, 1)
                    ts.gauge("serving.kv_bytes").set(it_end, kv_now)
                    ts.gauge("serving.batch_requests").set(it_end,
                                                           len(plan))
                    ts.sketch("serving.iteration_ns").record(
                        it_end, it_end - it_start)
                if reqlog.enabled:
                    for (active, tokens, _span), kind in zip(plan, kinds):
                        reqlog.get(active.stats.rid).phase(
                            kind, it_start, it_end, tokens,
                            dict(shares) if shares else None)
            for active in batcher.commit(plan, sim.now):
                record_finish(active, {"prompt": active.stats.prompt_len,
                                       "output": active.stats.output_len,
                                       "evictions":
                                           active.stats.evictions})
                if retry_budget is not None:
                    retry_budget.reset(active.stats.rid)
            if retry_budget is not None:
                # Charge this iteration's retransmissions to its surviving
                # participants; over-budget requests are aborted to a full
                # re-prefill rather than dragging the whole batch's tail.
                over = retry_budget.settle(
                    [a.stats.rid for a, _, _ in plan if not a.done])
                for rid in over:
                    if batcher.abort_request(rid, sim.now):
                        retry_budget.reset(rid)
            step()

        session.runner.run_graph(graph, on_done=iteration_done)

    sim.schedule(0.0, step)
    sim.run()
    # step() re-queues itself and every iteration calls it back: drop the
    # closure's reference to itself, which would otherwise outlive the run
    # as a reference cycle.
    del step
    if not batcher.all_done():
        raise SimulationError(
            f"{system.name}: serving run drained with "
            f"{len(batcher.running)} running / {len(batcher.waiting)} "
            f"waiting / {len(batcher.future)} future requests")
    stats = sorted((a.stats for a in batcher.finished),
                   key=lambda s: s.rid)
    partial = ServingResult(run=None, spec=spec, stats=stats,
                            iterations=state["iterations"],
                            evictions=batcher.evictions,
                            peak_kv_bytes=batcher.peak_kv_bytes,
                            shed=sorted((a.stats for a in batcher.shed),
                                        key=lambda s: s.rid),
                            aborts=batcher.aborts,
                            reprefill_tokens=batcher.reprefill_tokens,
                            replans=batcher.replans,
                            capacity_factor=batcher.capacity_factor,
                            deferred_iterations=batcher.deferred_iterations)
    details = {
        "serving.requests": float(len(stats)),
        "serving.tokens": float(partial.total_output_tokens),
        "serving.iterations": float(partial.iterations),
        "serving.evictions": float(partial.evictions),
        "serving.kv_peak_bytes": float(partial.peak_kv_bytes),
        "serving.tokens_per_s":
            (partial.total_output_tokens / sim.now * 1e9
             if sim.now > 0 else 0.0),
        "serving.ttft_mean_ns": partial.mean_ttft_ns(),
        "serving.ttft_p95_ns": partial.ttft_quantile_ns(0.95),
        "serving.tpot_mean_ns": partial.mean_tpot_ns(),
        "serving.e2e_mean_ns": partial.mean_e2e_ns(),
    }
    # Resilience details are gated on the mechanisms that produce them so
    # fault-free runs (fig20) stay byte-identical.
    if batcher.admission is not None:
        details["serving.shed"] = float(len(partial.shed))
        details["serving.admission_breaches"] = \
            float(batcher.admission.breaches)
        details["serving.admission_resumes"] = \
            float(batcher.admission.resumes)
        details["serving.deferred_iterations"] = \
            float(partial.deferred_iterations)
    if retry_budget is not None:
        details["serving.aborts"] = float(partial.aborts)
        details["serving.reprefill_tokens"] = \
            float(partial.reprefill_tokens)
    if spec.slo_ttft_ms is not None:
        slo_ns = spec.slo_ttft_ms * 1e6
        details["serving.slo_attainment"] = partial.slo_attainment(slo_ns)
        details["serving.goodput_tokens_per_s"] = \
            (partial.good_tokens(slo_ns) / sim.now * 1e9
             if sim.now > 0 else 0.0)
    if fault_state is not None:
        details["serving.capacity_factor"] = batcher.capacity_factor
        details["serving.replans"] = float(partial.replans)
        spans = (session.fault_schedule.windows()
                 if session.fault_schedule is not None else [])

        def _degraded(s: RequestStats) -> bool:
            # A request is degraded iff its lifetime overlaps any fault's
            # active span (permanent faults stay active to the end).
            return any(s.finish_ns >= start
                       and (end is None or s.arrival_ns <= end)
                       for start, end in spans)

        clean = [s for s in stats if not _degraded(s)]
        degraded = [s for s in stats if _degraded(s)]
        details["serving.degraded_requests"] = float(len(degraded))
        details["serving.ttft_p95_clean_ns"] = _exact_quantile(
            [s.ttft_ns for s in clean], 0.95)
        details["serving.ttft_p95_degraded_ns"] = _exact_quantile(
            [s.ttft_ns for s in degraded], 0.95)
        details["serving.tpot_p95_clean_ns"] = _exact_quantile(
            [s.tpot_ns for s in clean if s.output_len > 1], 0.95)
        details["serving.tpot_p95_degraded_ns"] = _exact_quantile(
            [s.tpot_ns for s in degraded if s.output_len > 1], 0.95)
    run = session.finish(**details)
    partial.run = run
    return partial
