"""CAIS switch merge unit (paper Section III-A-2/3/4, Figs. 5 and 6).

The merge unit sits on the datapath of each output port (the port toward a
chunk's *home* GPU — deterministic routing guarantees all mergeable requests
for an address converge there).  It consists of:

* a **CAM lookup table** — here the dict key ``(address, kind)``; a hit
  merges the request into an existing session, a miss allocates one, and
* a **merging table** — the :class:`MergeEntry` records: session status
  (``Load-Wait`` / ``Load-Ready`` / ``Reduction``), a merged-request counter,
  and the content array (cached load data or the accumulated reduction sum).

Micro-function 1 (load request merging): the first ``ld.cais`` is forwarded
to the home GPU; later requests wait in the content array; when the data
returns, all queued requesters are answered and subsequent hits are served
from the cache; the session retires when ``count == expected`` (participating
GPUs minus the one holding the local copy).

Micro-function 2 (reduction request merging): contributions to the same
address accumulate in the switch; when all expected requests arrived a single
combined write is sent to the home GPU.

Capacity is accounted in 128-byte entries per port (40 KB = 320 entries by
default).  When an allocation does not fit, an LRU eviction fires:
reduction entries are evicted by flushing their *partial* sum to the home
GPU; ``Load-Ready`` entries are dropped; ``Load-Wait`` entries are deferred
(marked evict-on-ready) and the arriving request **bypasses** the merge unit
instead, avoiding thrashing and deadlock.  A per-entry timeout provides
forward progress exactly as in NVLS.
"""

from __future__ import annotations

import enum
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..common.errors import ProtocolError
from ..common.events import Event
from ..common.functional import combine_payloads
from ..faults.retry import RKEY_META
from ..interconnect.message import Address, Message, Op, gpu_node
from ..interconnect.switch import Switch
from ..metrics.merge_stats import MergeStats
from ..obs import current_causality, current_metrics, current_tracer
from ..obs.causality import SWITCH_MERGE


class SessionKind(str, enum.Enum):
    """Merge-session kind.  A ``str`` enum, so that the ``(address, kind)``
    table keys hash in C on every request."""

    LOAD = "load"
    REDUCTION = "reduction"


class Status(enum.Enum):
    LOAD_WAIT = "load-wait"
    LOAD_READY = "load-ready"
    REDUCTION = "reduction"


def entries_for(chunk_bytes: int, entry_bytes: int) -> int:
    """Capacity units consumed by ``chunk_bytes`` of content-array data."""
    return max(1, -(-chunk_bytes // entry_bytes))


@dataclass
class MergeEntry:
    """One merging-table session."""

    address: Address
    kind: SessionKind
    chunk_bytes: int
    expected: int
    status: Status
    first_arrival: float
    last_access: float
    count: int = 0
    waiters: List[int] = field(default_factory=list)
    #: GPUs that contributed reduction requests (for credit return).
    participants: List[int] = field(default_factory=list)
    acc: Any = None                      # reduction accumulator
    cached: Any = None                   # load content array
    charged_entries: int = 0
    evict_on_ready: bool = False
    timeout_event: Optional[Event] = None
    obs_aid: int = -1                    # async-span id (tracing only)
    #: Causal-node ids of the switch-hop events that delivered each
    #: contribution (repro.obs.causality; filled only when recording).
    cz_contribs: List[int] = field(default_factory=list)

    @property
    def home(self) -> int:
        return self.address.home_gpu


class MergeUnit:
    """Per-switch CAIS merge unit; one logical table partition per port."""

    #: In-switch compute unit: an NVLS_FAIL/PLANE_FAIL fault drains it.
    COMPUTE_UNIT = True

    def __init__(self, stats: MergeStats, num_gpus: int,
                 capacity_entries: Optional[int] = 320,
                 entry_bytes: int = 128,
                 timeout_ns: Optional[float] = 50_000.0,
                 emit_credits: bool = False,
                 eviction_policy: str = "lru",
                 fault_state=None):
        self.stats = stats
        self.num_gpus = num_gpus
        #: ``None`` means unbounded (used to *measure* required capacity).
        self.capacity_entries = capacity_entries
        self.entry_bytes = entry_bytes
        self.timeout_ns = timeout_ns
        self.emit_credits = emit_credits
        if eviction_policy not in ("lru", "fifo"):
            raise ProtocolError(
                f"unknown eviction policy {eviction_policy!r}")
        #: "lru" refreshes an entry's victim rank on every access (the
        #: paper's policy); "fifo" evicts in allocation order (ablation).
        self.eviction_policy = eviction_policy
        # Per home-port LRU table: port -> OrderedDict[key -> entry].
        self._tables: Dict[int, "OrderedDict[Tuple[Address, SessionKind], MergeEntry]"] = {}
        self._used: Dict[int, int] = {}
        # Fault-injection state (repro.faults): a drained unit stops
        # allocating sessions and bypasses everything; stale fills for
        # sessions killed by the drain are swallowed on arrival.
        self._fault_state = fault_state
        self.draining = False
        self._stale_fills: set = set()
        self._tr = current_tracer()
        self._mx = current_metrics()
        self._cz = current_causality()
        self._next_aid = 0
        # (switch index, port) -> track: one trace row per merge-table bank.
        self._bank_tracks: Dict[Tuple[int, int], int] = {}

    # ------------------------------------------------------------------
    # Observability helpers
    # ------------------------------------------------------------------
    def _bank_track(self, switch: Switch, port: int) -> int:
        key = (switch.index, port)
        track = self._bank_tracks.get(key)
        if track is None:
            track = self._tr.track(f"Switch {switch.index}",
                                   f"merge bank {port}")
            self._bank_tracks[key] = track
        return track

    def _entry_open(self, switch: Switch, entry: MergeEntry) -> None:
        if self._mx.enabled:
            self._mx.counter("cais.merge.allocs").inc()
        if not self._tr.enabled:
            return
        entry.obs_aid = self._next_aid
        self._next_aid += 1
        self._tr.async_begin(
            self._bank_track(switch, entry.home),
            f"merge {entry.kind.value}", entry.obs_aid,
            switch.sim.now, cat="merge",
            args={"expected": entry.expected,
                  "chunk_bytes": entry.chunk_bytes})

    def _entry_close(self, switch: Switch, entry: MergeEntry,
                     completed: bool) -> None:
        if self._mx.enabled:
            if completed:
                self._mx.histogram("cais.merge.session_wait_ns").record(
                    entry.last_access - entry.first_arrival)
            else:
                self._mx.counter("cais.merge.evictions").inc()
        if self._tr.enabled and entry.obs_aid >= 0:
            self._tr.async_end(
                self._bank_track(switch, entry.home),
                f"merge {entry.kind.value}", entry.obs_aid,
                switch.sim.now, cat="merge",
                args={"completed": completed, "count": entry.count})

    # ------------------------------------------------------------------
    # Fault injection: graceful drain
    # ------------------------------------------------------------------
    def fail(self, switch: Switch) -> None:
        """Drain the merge unit after a compute-unit/plane fault.

        Correctness is preserved by the protocol's own partial-flush
        semantics: reduction sessions flush their accumulated sum with a
        ``contributions`` count (the home GPU completes by count, so late
        contributions arriving as bypassed partials still add up exactly
        once); Load-Wait waiters are reissued as direct home reads and the
        now-orphaned merge fill is swallowed on arrival.  From then on the
        unit bypasses every request, degrading CAIS to direct home-memory
        traffic instead of wedging or losing contributions.
        """
        if self.draining:
            return
        self.draining = True
        for table in list(self._tables.values()):
            for entry in list(table.values()):
                if entry.kind is SessionKind.REDUCTION:
                    self._flush_reduction(switch, entry, partial=True)
                elif entry.status is Status.LOAD_WAIT:
                    for waiter in entry.waiters:
                        direct = Message(
                            op=Op.LOAD_REQ, src=gpu_node(waiter),
                            dst=gpu_node(entry.home), address=entry.address,
                            meta={"direct": True, "requester": waiter,
                                  "chunk_bytes": entry.chunk_bytes})
                        switch.forward(direct)
                    self._stale_fills.add(entry.address)
                self._release(switch, entry, completed=False)
        if self._fault_state is not None:
            self._fault_state.counters.bump("merge_drains")

    # ------------------------------------------------------------------
    # SwitchEngine interface
    # ------------------------------------------------------------------
    def process(self, switch: Switch, msg: Message, in_port: int) -> bool:
        if msg.op is Op.LD_CAIS_REQ:
            self._on_load_request(switch, msg)
            return True
        if msg.op is Op.LD_CAIS_RESP and msg.meta.get("merge_fill"):
            self._on_load_fill(switch, msg)
            return True
        if msg.op is Op.RED_CAIS:
            self._on_reduction(switch, msg)
            return True
        return False

    # ------------------------------------------------------------------
    # Micro-function 1: load request merging
    # ------------------------------------------------------------------
    def _on_load_request(self, switch: Switch, msg: Message) -> None:
        addr = self._require_address(msg)
        requester = msg.src[1]
        chunk = msg.meta.get("chunk_bytes", msg.payload_bytes)
        if self.draining:
            self._bypass_load(switch, msg, requester, chunk)
            return
        expected = msg.meta.get("expected", self.num_gpus - 1)
        key = (addr, SessionKind.LOAD)
        table = self._table(addr.home_gpu)
        entry = table.get(key)

        if entry is None:
            entry = self._allocate(switch, addr, SessionKind.LOAD, chunk,
                                   expected, Status.LOAD_WAIT, charge=1)
            if entry is None:
                self._bypass_load(switch, msg, requester, chunk)
                return
            self.stats.requests_started += 1
            entry.count = 1
            entry.waiters.append(requester)
            fill = Message(op=Op.LOAD_REQ, src=switch.node_id,
                           dst=gpu_node(addr.home_gpu), address=addr,
                           meta={"merge_fill": True, "chunk_bytes": chunk})
            switch.forward(fill)
            self._touch(switch, entry)
            return

        self.stats.requests_merged += 1
        if self._mx.enabled:
            self._mx.counter("cais.merge.hits").inc()
        entry.count += 1
        self._touch(switch, entry)
        if self.eviction_policy == "lru":
            table.move_to_end(key)
        if entry.status is Status.LOAD_WAIT:
            entry.waiters.append(requester)
        else:
            self._respond_load(switch, entry, requester)
            if entry.count >= entry.expected:
                self._release(switch, entry, completed=True)

    def _on_load_fill(self, switch: Switch, msg: Message) -> None:
        addr = self._require_address(msg)
        key = (addr, SessionKind.LOAD)
        table = self._table(addr.home_gpu)
        entry = table.get(key)
        if entry is None or entry.status is not Status.LOAD_WAIT:
            if self._fault_state is not None:
                # Orphaned fill: its session was killed by a drain, or the
                # fill was rerouted here from a failed plane.  The waiters
                # were already reissued as direct loads, so drop it.
                self._stale_fills.discard(addr)
                self._fault_state.counters.bump("stale_fills_dropped")
                return
            raise ProtocolError(f"unexpected merge fill for {addr}")
        entry.status = Status.LOAD_READY
        entry.cached = msg.payload
        # Serve everything queued before caching (paper step 3).
        for waiter in entry.waiters:
            self._respond_load(switch, entry, waiter)
        entry.waiters.clear()
        self._touch(switch, entry)
        if entry.count >= entry.expected or entry.evict_on_ready:
            self._release(switch, entry,
                          completed=entry.count >= entry.expected)
            return
        # Grow the charge from metadata-only to the full content array.
        grow = entries_for(entry.chunk_bytes, self.entry_bytes) - 1
        if grow > 0 and not self._reserve(switch, addr.home_gpu, grow,
                                          exclude=entry):
            # Cannot cache the data: answer the queued waiters (done above)
            # and retire without caching; later requests re-fetch.
            self._release(switch, entry, completed=False)
            return
        if grow > 0:
            entry.charged_entries += grow
            self.stats.occupancy_change(switch.sim.now, switch.index,
                                        addr.home_gpu, grow)

    def _respond_load(self, switch: Switch, entry: MergeEntry,
                      requester: int) -> None:
        resp = Message(op=Op.LD_CAIS_RESP, src=switch.node_id,
                       dst=gpu_node(requester),
                       payload_bytes=entry.chunk_bytes,
                       address=entry.address, payload=entry.cached,
                       meta={"completed": True})
        switch.forward(resp)

    def _bypass_load(self, switch: Switch, msg: Message, requester: int,
                     chunk: int) -> None:
        self.stats.bypasses += 1
        if self._mx.enabled:
            self._mx.counter("cais.merge.bypasses").inc()
        direct = Message(op=Op.LOAD_REQ, src=msg.src,
                         dst=gpu_node(msg.address.home_gpu),
                         address=msg.address,
                         meta={"direct": True, "requester": requester,
                               "chunk_bytes": chunk})
        switch.forward(direct)

    # ------------------------------------------------------------------
    # Micro-function 2: reduction request merging
    # ------------------------------------------------------------------
    def _on_reduction(self, switch: Switch, msg: Message) -> None:
        addr = self._require_address(msg)
        state = self._fault_state
        if state is not None and RKEY_META in msg.meta:
            if msg.meta.get("corrupted"):
                # Damaged on the wire: discard without acking; the sender's
                # retransmit timer re-delivers a clean copy.
                state.counters.bump("corrupt_discards")
                return
            rkey = msg.meta[RKEY_META]
            ack = Message(op=Op.RED_CAIS_ACK, src=switch.node_id,
                          dst=msg.src, meta={RKEY_META: rkey})
            switch.forward(ack)
            if not state.retransmitter.accept(rkey):
                return                  # duplicate delivery: re-acked only
        if self.draining:
            self._bypass_reduction(switch, msg)
            return
        chunk = msg.payload_bytes
        expected = msg.meta.get("expected", self.num_gpus - 1)
        key = (addr, SessionKind.REDUCTION)
        table = self._table(addr.home_gpu)
        entry = table.get(key)

        if entry is None:
            charge = entries_for(chunk, self.entry_bytes)
            entry = self._allocate(switch, addr, SessionKind.REDUCTION, chunk,
                                   expected, Status.REDUCTION, charge=charge)
            if entry is None:
                self._bypass_reduction(switch, msg)
                return
            self.stats.requests_started += 1
        else:
            self.stats.requests_merged += 1
            if self._mx.enabled:
                self._mx.counter("cais.merge.hits").inc()
            if self.eviction_policy == "lru":
                table.move_to_end(key)
        entry.count += 1
        entry.participants.append(msg.src[1])
        entry.acc = combine_payloads(entry.acc, msg.payload)
        if self._cz.enabled:
            # Ambient cause here is the switch-hop node that delivered
            # this contribution; the flush joins all of them.
            entry.cz_contribs.append(self._cz.current)
        # Second-arrival crediting (TB-aware throttling feedback): a
        # contribution's credit returns as soon as a *peer matches it* —
        # so a GPU running ahead (whose requests sit unmatched, it is
        # "ahead of its peer TBs") exhausts its window and stalls, while
        # GPUs matching existing sessions are never slowed.
        if self.emit_credits:
            if entry.count == 2:
                self._send_credit(switch, entry, entry.participants[0])
                self._send_credit(switch, entry, entry.participants[1])
            elif entry.count > 2:
                self._send_credit(switch, entry, msg.src[1])
        self._touch(switch, entry)
        if entry.count >= entry.expected:
            self._flush_reduction(switch, entry, partial=False)
            self._release(switch, entry, completed=True)

    def _flush_reduction(self, switch: Switch, entry: MergeEntry,
                         partial: bool) -> None:
        if self._cz.enabled:
            # Zero-duration join node: the combined write is caused by
            # *every* contribution; the critical-path walk follows the
            # latest-arriving one (the straggler).
            now = switch.sim.now
            self._cz.current = self._cz.node(
                SWITCH_MERGE, now, now,
                f"sw{switch.index} merge flush"
                f"{' (partial)' if partial else ''}",
                parents=tuple((c, "merge") for c in entry.cz_contribs))
        result = Message(op=Op.STORE, src=switch.node_id,
                         dst=gpu_node(entry.home),
                         payload_bytes=entry.chunk_bytes,
                         address=entry.address, payload=entry.acc,
                         meta={"reduced": True, "contributions": entry.count,
                               "partial": partial})
        switch.forward(result)
        if partial:
            self.stats.partial_reductions_emitted += 1

    def _bypass_reduction(self, switch: Switch, msg: Message) -> None:
        self.stats.bypasses += 1
        if self._mx.enabled:
            self._mx.counter("cais.merge.bypasses").inc()
        direct = Message(op=Op.STORE, src=msg.src,
                         dst=gpu_node(msg.address.home_gpu),
                         payload_bytes=msg.payload_bytes, address=msg.address,
                         payload=msg.payload,
                         meta={"reduced": True, "contributions": 1,
                               "partial": True})
        switch.forward(direct)
        if self.emit_credits:
            credit = Message(op=Op.CREDIT, src=switch.node_id,
                             dst=gpu_node(msg.src[1]), address=msg.address,
                             meta={"kind": SessionKind.REDUCTION.value})
            switch.forward(credit)

    # ------------------------------------------------------------------
    # Table management: allocation, LRU eviction, timeout
    # ------------------------------------------------------------------
    def _table(self, port: int) -> "OrderedDict[Tuple[Address, SessionKind], MergeEntry]":
        if port not in self._tables:
            self._tables[port] = OrderedDict()
            self._used[port] = 0
        return self._tables[port]

    def _allocate(self, switch: Switch, addr: Address, kind: SessionKind,
                  chunk: int, expected: int, status: Status,
                  charge: int) -> Optional[MergeEntry]:
        port = addr.home_gpu
        self._table(port)
        if not self._reserve(switch, port, charge):
            return None
        now = switch.sim.now
        entry = MergeEntry(address=addr, kind=kind, chunk_bytes=chunk,
                           expected=expected, status=status,
                           first_arrival=now, last_access=now,
                           charged_entries=charge)
        self._tables[port][(addr, kind)] = entry
        self._used[port] += charge
        self.stats.occupancy_change(now, switch.index, port, charge)
        self._entry_open(switch, entry)
        return entry

    def _reserve(self, switch: Switch, port: int, needed: int,
                 exclude: Optional[MergeEntry] = None) -> bool:
        """Make room for ``needed`` entries on ``port``, evicting LRU
        sessions if necessary.  Returns False when space cannot be found."""
        if self.capacity_entries is None:
            return True
        while self._used[port] + needed > self.capacity_entries:
            victim = self._pick_victim(port, exclude)
            if victim is None:
                return False
            self._evict(switch, victim, reason="lru")
        return True

    def _pick_victim(self, port: int,
                     exclude: Optional[MergeEntry]) -> Optional[MergeEntry]:
        oldest_wait: Optional[MergeEntry] = None
        for entry in self._tables[port].values():   # LRU order
            if entry is exclude:
                continue
            if entry.status is Status.LOAD_WAIT:
                # Cannot drop an outstanding fill (paper's eviction rule 2).
                if oldest_wait is None:
                    oldest_wait = entry
                continue
            return entry
        if oldest_wait is not None:
            # No immediately evictable entry: defer the LRU Load-Wait
            # session so it frees as soon as its fill lands, and let the
            # caller bypass — avoiding thrashing and deadlock.
            oldest_wait.evict_on_ready = True
        return None

    def _evict(self, switch: Switch, entry: MergeEntry, reason: str) -> None:
        if entry.kind is SessionKind.REDUCTION:
            self._flush_reduction(switch, entry, partial=True)
        if reason == "lru":
            self.stats.lru_evictions += 1
        else:
            self.stats.timeout_evictions += 1
        self._release(switch, entry, completed=False)

    def _release(self, switch: Switch, entry: MergeEntry,
                 completed: bool) -> None:
        port = entry.home
        key = (entry.address, entry.kind)
        if key not in self._tables.get(port, {}):
            return
        del self._tables[port][key]
        self._used[port] -= entry.charged_entries
        self.stats.occupancy_change(switch.sim.now, switch.index, port,
                                    -entry.charged_entries)
        if entry.timeout_event is not None:
            entry.timeout_event.cancel()
        if completed:
            self.stats.sessions_completed += 1
            self.stats.record_session_wait(entry.first_arrival,
                                           entry.last_access)
        self._entry_close(switch, entry, completed)
        # A sole contributor's credit returns when its session retires
        # (completion cannot strand it; eviction/timeout must not either).
        if self.emit_credits and entry.count == 1 and entry.participants:
            self._send_credit(switch, entry, entry.participants[0])

    def _send_credit(self, switch: Switch, entry: MergeEntry,
                     gpu: int) -> None:
        credit = Message(op=Op.CREDIT, src=switch.node_id,
                         dst=gpu_node(gpu), address=entry.address,
                         meta={"kind": entry.kind.value})
        switch.forward(credit)

    def _touch(self, switch: Switch, entry: MergeEntry) -> None:
        entry.last_access = switch.sim.now
        if self.timeout_ns is None:
            return
        if entry.timeout_event is not None:
            entry.timeout_event.cancel()
        entry.timeout_event = switch.sim.schedule(
            self.timeout_ns, self._on_timeout, switch, entry)

    def _on_timeout(self, switch: Switch, entry: MergeEntry) -> None:
        table = self._tables.get(entry.home, {})
        key = (entry.address, entry.kind)
        if table.get(key) is not entry:
            return                      # stale timer for a retired session
        idle = switch.sim.now - entry.last_access
        # The small epsilon absorbs float error when the timer fires at
        # exactly last_access + timeout; an early fire re-arms the timer
        # instead of silently stranding the session.
        if idle + 1e-6 < self.timeout_ns:
            entry.timeout_event = switch.sim.schedule(
                self.timeout_ns - idle, self._on_timeout, switch, entry)
            return
        if entry.status is Status.LOAD_WAIT:
            # The fill from the home GPU is still outstanding; free the
            # session as soon as it lands instead of dropping it.
            entry.evict_on_ready = True
            return
        self._evict(switch, entry, reason="timeout")

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @staticmethod
    def _require_address(msg: Message) -> Address:
        if msg.address is None:
            raise ProtocolError(f"{msg.op.value} requires an address")
        return msg.address

    def open_sessions(self) -> int:
        """Live sessions across all ports of this switch."""
        return sum(len(t) for t in self._tables.values())

    def used_entries(self, port: int) -> int:
        """Live capacity units charged on ``port``."""
        return self._used.get(port, 0)
