"""ACK-timeout retransmission with bounded exponential backoff.

One harness-wide :class:`Retransmitter` gives reliable delivery to the
fault-exposed data-plane messages (ring collective chunks and CAIS
reduction contributions).  Senders ``track`` a message under a unique
``rkey`` carried in its metadata; the receiver acks the key back and
deduplicates redelivery with ``accept``.  A lost message (or lost ack)
times out and is resent with exponentially growing timeouts until either
the ack lands or the retry budget is exhausted — at which point the
sim-time watchdog (:mod:`repro.faults.watchdog`) reports the stall rather
than the run hanging silently.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple, \
    TYPE_CHECKING

from ..common.config import FaultSpec
from ..common.errors import ConfigError
from ..common.events import Event, Simulator
from .. import obs
from ..obs.causality import RETRANSMIT

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .injector import FaultCounters

#: A retransmission key: hashable, unique per logical message.
Rkey = Tuple

RKEY_META = "rkey"


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded exponential backoff parameters (see :class:`FaultSpec`)."""

    ack_timeout_ns: float = 100_000.0
    max_retries: int = 8
    backoff_base: float = 2.0
    max_backoff_ns: float = 1.6e6

    @classmethod
    def from_spec(cls, spec: FaultSpec) -> "RetryPolicy":
        return cls(ack_timeout_ns=spec.ack_timeout_ns,
                   max_retries=spec.max_retries,
                   backoff_base=spec.backoff_base,
                   max_backoff_ns=spec.max_backoff_ns)

    def timeout_for(self, attempt: int) -> float:
        """Ack deadline for the ``attempt``-th (re)send, attempt 0 first."""
        return min(self.ack_timeout_ns * self.backoff_base ** attempt,
                   self.max_backoff_ns)


class _Outstanding:
    __slots__ = ("attempt", "resend", "timer", "timeout_scale")

    def __init__(self, resend: Callable[[int], None], timeout_scale: float):
        self.attempt = 0
        self.resend = resend
        self.timer: Optional[Event] = None
        self.timeout_scale = timeout_scale


class Retransmitter:
    """Sender-side ack tracking plus receiver-side dedup, in sim time."""

    def __init__(self, sim: Simulator, policy: RetryPolicy,
                 counters: "FaultCounters"):
        self.sim = sim
        self.policy = policy
        self.counters = counters
        self._outstanding: Dict[Rkey, _Outstanding] = {}
        self._seen: Set[Rkey] = set()
        self._cz = obs.current().causality
        self._retry_listeners: List[Callable[[], None]] = []

    def add_retry_listener(self, callback: Callable[[], None]) -> None:
        """Called once per retransmission (after the ``retries`` counter
        bump).  The serving layer hangs its per-request retry budget
        here; listeners must not send messages of their own."""
        self._retry_listeners.append(callback)

    # -- sender side ---------------------------------------------------
    def track(self, key: Rkey, resend: Callable[[int], None],
              timeout_scale: float = 1.0) -> None:
        """Arm the ack timer for a just-sent message.

        ``resend(attempt)`` must rebuild and re-inject the message (the
        original object is consumed by delivery); it is called with
        attempt numbers 1..max_retries.  ``timeout_scale`` stretches the
        policy's deadlines for paths with longer round trips (multi-hop,
        large serialized payloads, deep queues).
        """
        if key in self._outstanding:
            return
        entry = _Outstanding(resend, timeout_scale)
        self._outstanding[key] = entry
        self._arm(key, entry)

    def ack(self, key: Rkey) -> bool:
        """Ack arrival: disarm the timer.  False for unknown/stale keys."""
        entry = self._outstanding.pop(key, None)
        if entry is None:
            return False
        if entry.timer is not None:
            entry.timer.cancel()
        return True

    def outstanding(self) -> int:
        return len(self._outstanding)

    def quiesce(self) -> None:
        """Drop all tracked messages and their timers (end of workload:
        anything still unacked only had its ack in flight)."""
        for entry in self._outstanding.values():
            if entry.timer is not None:
                entry.timer.cancel()
        self._outstanding.clear()

    def _arm(self, key: Rkey, entry: _Outstanding) -> None:
        entry.timer = self.sim.timer(
            self.policy.timeout_for(entry.attempt) * entry.timeout_scale,
            self._on_timeout, key)

    def _on_timeout(self, key: Rkey) -> None:
        entry = self._outstanding.get(key)
        if entry is None:
            return
        entry.attempt += 1
        if entry.attempt > self.policy.max_retries:
            # Give up; the watchdog turns any resulting stall into a
            # diagnosable DeadlockError instead of a silent hang.
            del self._outstanding[key]
            self.counters.bump("retry_exhausted")
            return
        self.counters.bump("retries")
        for callback in self._retry_listeners:
            callback()
        if self._cz is not None:
            # Attribute the timeout wait (and the resent copy's whole
            # causal subtree) to retransmission.  The node spans the ack
            # wait that just expired, so interval-weighted attribution
            # (request phase breakdowns, critical-path segments — which
            # clamp overlaps) charges the lost time to `retransmit`
            # rather than seeing a zero-duration blip.  The timer event
            # carries the original send's cause as ambient; chained
            # retries link through each other via re-arming below.
            now = self.sim.now
            waited = (self.policy.timeout_for(entry.attempt - 1)
                      * entry.timeout_scale)
            self._cz.current = self._cz.node(
                RETRANSMIT, now - waited, now,
                f"retransmit attempt {entry.attempt}",
                parents=((self._cz.current, "retry"),))
        entry.resend(entry.attempt)
        self._arm(key, entry)

    # -- receiver side -------------------------------------------------
    def accept(self, key: Rkey) -> bool:
        """First delivery of ``key``?  Duplicates return False."""
        if key in self._seen:
            self.counters.bump("duplicates_discarded")
            return False
        self._seen.add(key)
        return True


class RequestRetryBudget:
    """Bounds retry storms per serving request.

    The fabric's retransmissions are not attributable to individual
    requests (a dropped ring chunk carries a whole iteration's batch), so
    the budget charges *collectively*: every retry observed between two
    ``settle`` calls (one iteration) is charged to each request that
    participated in that iteration.  A request stuck co-scheduled with a
    retry storm therefore accumulates charge each iteration it fails to
    make progress through, and once its cumulative charge exceeds the
    budget the batcher aborts it — dropping its KV cache and requeueing a
    full re-prefill — instead of letting the storm stretch every other
    request's tail.  Deterministic: pure function of the retry sequence
    and the iteration membership.
    """

    def __init__(self, budget: int):
        if budget < 1:
            raise ConfigError(
                f"RequestRetryBudget.budget={budget!r} must be >= 1")
        self.budget = budget
        self._pending = 0
        #: Cumulative charge per request id, cleared on abort/finish.
        self.charges: Dict[int, int] = {}

    def note_retry(self) -> None:
        """Retransmitter listener: one retry happened."""
        self._pending += 1

    def settle(self, rids: Sequence[int]) -> List[int]:
        """Charge the retries since the last settle to every participant;
        returns the rids (in participation order) now over budget."""
        delta, self._pending = self._pending, 0
        if not delta:
            return []
        over: List[int] = []
        for rid in rids:
            charge = self.charges.get(rid, 0) + delta
            self.charges[rid] = charge
            if charge > self.budget:
                over.append(rid)
        return over

    def reset(self, rid: int) -> None:
        """Forget a request's charge (it was aborted or finished)."""
        self.charges.pop(rid, None)
