"""Per-request span records for the serving workload.

A :class:`RequestRecord` partitions one request's lifetime — arrival to
completion — into contiguous, non-overlapping **phases**:

* ``queue``   — waiting for admission (including re-admission after an
  eviction); inserted automatically whenever the next recorded phase
  starts after the previous one ended.
* ``prefill`` — an iteration that (re-)processed the request's prompt
  chunk through the prefill path.
* ``decode``  — an iteration that emitted one decode token.

The phases tile ``[arrival_ns, finish_ns]`` exactly, so their durations
sum to the request's end-to-end latency — the invariant the per-request
Perfetto tracks and the report's drill-down tables rely on.

Each phase additionally carries a **category breakdown**: its wall time
attributed to the four coarse groups below, derived from the PR-4
causality categories (:mod:`repro.obs.causality`) of the causal nodes
recorded while the phase ran.  Queue phases are charged entirely to
``queue``; iteration phases split proportionally to the clipped busy
time per group (see :func:`category_shares`) — deterministic because the
causal DAG is.

Zero-cost contract: when no log is installed the context's
``request_log`` field is ``None`` and the serving loop skips every
record; recording creates no simulation events and draws no randomness.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from .causality import (BARRIER_SYNC, GEMM_COMPUTE, LINK_SERIALIZATION,
                        QUEUEING_WAIT, RETRANSMIT, SWITCH_MERGE,
                        VECTOR_COMPUTE)

#: Phase kinds, in report order.
PHASE_QUEUE = "queue"
PHASE_PREFILL = "prefill"
PHASE_DECODE = "decode"
PHASE_KINDS: Tuple[str, ...] = (PHASE_QUEUE, PHASE_PREFILL, PHASE_DECODE)

#: Coarse attribution groups, in report order.
GROUPS: Tuple[str, ...] = ("compute", "comm", "queue", "fault")

#: PR-4 causality category -> coarse group.
GROUP_OF_CATEGORY: Dict[str, str] = {
    GEMM_COMPUTE: "compute",
    VECTOR_COMPUTE: "compute",
    LINK_SERIALIZATION: "comm",
    SWITCH_MERGE: "comm",
    QUEUEING_WAIT: "queue",
    BARRIER_SYNC: "queue",
    RETRANSMIT: "fault",
}

#: Slack absorbing the ``schedule_at`` float round-trip (the batcher
#: releases arrivals with the same 1e-3 ns tolerance).
_EPS_NS = 1e-3


def category_shares(cz, start_index: int, lo_ns: float,
                    hi_ns: float) -> Dict[str, float]:
    """Attribute the wall interval ``[lo, hi]`` to the coarse groups.

    Walks the causal nodes recorded since ``start_index`` (the recorder's
    length when the interval began), clips each node to the interval, and
    splits the wall time proportionally to per-group busy time.  Nodes run
    in parallel across GPUs/links, so busy sums exceed wall time — the
    proportional split keeps the result an exact partition of ``hi - lo``.
    An interval with no attributable work (or causality disabled upstream)
    is charged entirely to ``queue``.
    """
    dur = hi_ns - lo_ns
    if dur <= 0:
        return {}
    busy = {g: 0.0 for g in GROUPS}
    for node in cz.nodes[start_index:]:
        overlap = min(node.end_ns, hi_ns) - max(node.start_ns, lo_ns)
        if overlap > 0:
            group = GROUP_OF_CATEGORY.get(node.category)
            if group is not None:
                busy[group] += overlap
    total = sum(busy.values())
    if total <= 0:
        return {"queue": dur}
    return {g: dur * busy[g] / total for g in GROUPS if busy[g] > 0}


class Phase:
    """One contiguous slice of a request's lifetime."""

    __slots__ = ("kind", "start_ns", "end_ns", "tokens", "categories")

    def __init__(self, kind: str, start_ns: float, end_ns: float,
                 tokens: int = 0,
                 categories: Optional[Dict[str, float]] = None):
        self.kind = kind
        self.start_ns = start_ns
        self.end_ns = end_ns
        self.tokens = tokens
        self.categories = categories or {}

    @property
    def duration_ns(self) -> float:
        return self.end_ns - self.start_ns

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Phase({self.kind} [{self.start_ns:.1f}, "
                f"{self.end_ns:.1f}] tokens={self.tokens})")


class RequestRecord:
    """Span record for one request; phases tile arrival -> finish."""

    __slots__ = ("rid", "arrival_ns", "prompt_len", "output_len", "phases",
                 "events", "evictions", "first_token_ns", "finish_ns",
                 "_cursor")

    def __init__(self, rid: int, arrival_ns: float, prompt_len: int,
                 output_len: int):
        self.rid = rid
        self.arrival_ns = arrival_ns
        self.prompt_len = prompt_len
        self.output_len = output_len
        self.phases: List[Phase] = []
        self.events: List[Tuple[str, float]] = []
        self.evictions = 0
        self.first_token_ns: Optional[float] = None
        self.finish_ns: Optional[float] = None
        self._cursor = arrival_ns

    # -- recording ------------------------------------------------------
    def phase(self, kind: str, start_ns: float, end_ns: float,
              tokens: int = 0,
              categories: Optional[Dict[str, float]] = None) -> None:
        """Append one phase; a gap before it becomes a ``queue`` phase.

        Starts may precede the cursor by at most the scheduler's float
        slack (clamped); anything larger is an instrumentation bug.
        """
        if start_ns < self._cursor - _EPS_NS:
            raise ValueError(
                f"request {self.rid}: phase {kind!r} starts at "
                f"{start_ns} before the recorded timeline reached "
                f"{self._cursor}")
        start_ns = max(start_ns, self._cursor)
        if end_ns < start_ns:
            raise ValueError(
                f"request {self.rid}: phase {kind!r} ends at {end_ns} "
                f"before it starts at {start_ns}")
        if start_ns > self._cursor:
            gap = start_ns - self._cursor
            self.phases.append(Phase(PHASE_QUEUE, self._cursor, start_ns,
                                     categories={"queue": gap}))
        self.phases.append(Phase(kind, start_ns, end_ns, tokens, categories))
        self._cursor = end_ns

    def event(self, name: str, t_ns: float) -> None:
        """Point event on this request's timeline (e.g. ``evicted``)."""
        self.events.append((name, t_ns))
        if name == "evicted":
            self.evictions += 1

    def close(self, finish_ns: float,
              first_token_ns: Optional[float],
              pad: bool = False) -> None:
        """Seal the record; the phases must have reached ``finish_ns``.

        ``pad=True`` fills any remaining tail with a ``queue`` phase
        first — for requests terminated *outside* an execution phase
        (shed by admission control, aborted over retry budget), whose
        timeline legitimately ends waiting.
        """
        if pad and finish_ns > self._cursor + _EPS_NS:
            gap = finish_ns - self._cursor
            self.phases.append(Phase(PHASE_QUEUE, self._cursor, finish_ns,
                                     categories={"queue": gap}))
            self._cursor = finish_ns
        if abs(finish_ns - self._cursor) > _EPS_NS:
            raise ValueError(
                f"request {self.rid}: closed at {finish_ns} but phases "
                f"end at {self._cursor}")
        self.finish_ns = finish_ns
        self.first_token_ns = first_token_ns

    # -- queries --------------------------------------------------------
    @property
    def e2e_ns(self) -> float:
        return (self.finish_ns - self.arrival_ns
                if self.finish_ns is not None else 0.0)

    def phase_total_ns(self, kind: str) -> float:
        return sum(p.duration_ns for p in self.phases if p.kind == kind)

    def category_total_ns(self, group: str) -> float:
        return sum(p.categories.get(group, 0.0) for p in self.phases)

    def to_dict(self) -> Dict[str, object]:
        """JSON-serializable form (deterministic key order via sort)."""
        return {
            "rid": self.rid,
            "arrival_ns": self.arrival_ns,
            "prompt_len": self.prompt_len,
            "output_len": self.output_len,
            "first_token_ns": self.first_token_ns,
            "finish_ns": self.finish_ns,
            "evictions": self.evictions,
            "phases": [{
                "kind": p.kind,
                "start_ns": p.start_ns,
                "end_ns": p.end_ns,
                "tokens": p.tokens,
                "categories": {g: p.categories[g]
                               for g in sorted(p.categories)},
            } for p in self.phases],
            "events": [[name, t] for name, t in self.events],
        }


class RequestLog:
    """Live per-request span log, keyed by request id."""

    def __init__(self) -> None:
        self._records: Dict[int, RequestRecord] = {}

    def open(self, rid: int, arrival_ns: float, prompt_len: int,
             output_len: int) -> RequestRecord:
        if rid in self._records:
            raise ValueError(f"request {rid} already has an open record")
        rec = RequestRecord(rid, arrival_ns, prompt_len, output_len)
        self._records[rid] = rec
        return rec

    def get(self, rid: int) -> RequestRecord:
        return self._records[rid]

    def records(self) -> List[RequestRecord]:
        """All records, sorted by request id."""
        return [self._records[rid] for rid in sorted(self._records)]

    def snapshot(self) -> List[Dict[str, object]]:
        return [rec.to_dict() for rec in self.records()]
