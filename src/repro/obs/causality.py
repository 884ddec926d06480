"""Causal event DAG recording (the "why" behind a makespan).

During a simulation, instrumented components append :class:`CausalNode`
records — closed intervals of simulated work (a TB compute phase, a link
serialization, a switch hop, a merge completion) — each linked to the
nodes that *caused* it.  The resulting DAG is what
:mod:`repro.obs.critical_path` walks backward to extract the critical
path and attribute every nanosecond of the makespan.

Propagation model
-----------------
Threading an explicit ``cause_id`` through every callback chain would
touch every component signature, so causality rides the event engine
instead: the recorder exposes an *ambient* :attr:`CausalityRecorder.current`
node id; with a recorder installed, the simulator
(:mod:`repro.common.events`) stamps it onto each event it queues, and
the run loop restores it before firing the callback.
Components only assign ``current`` where they create nodes (a link when a
message finishes serializing, a switch when it dispatches, a TB when a
phase ends) — everything scheduled downstream inherits the right cause
automatically, including HBM fill delays, sync releases, and collective
hop chains.

Edges carry a *kind* (``wire``, ``queue``, ``merge``, ...).  On the
critical path, the **gap** between a parent's end and its child's start
is attributed to the category the edge kind maps to (see
:data:`EDGE_CATEGORY`); the node's own interval is attributed to the
node's category.

Zero-cost contract: when no recorder is installed the context's
``causality`` field is ``None``; instrumented paths guard node creation
with ``is not None``, and a disabled run stamps no cause on its events
(only its cancellable timers carry one, ``NO_CAUSE``).  Recording
creates no simulation events and draws no randomness, so an enabled run
is simulation-identical to a disabled one.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

#: Sentinel parent/ambient id meaning "no known cause".
NO_CAUSE = -1

# ---------------------------------------------------------------------------
# Attribution categories (the issue's fixed taxonomy)
# ---------------------------------------------------------------------------
GEMM_COMPUTE = "gemm_compute"
VECTOR_COMPUTE = "vector_compute"
LINK_SERIALIZATION = "link_serialization"
QUEUEING_WAIT = "queueing_wait"
SWITCH_MERGE = "switch_merge"
BARRIER_SYNC = "barrier_sync"
RETRANSMIT = "retransmit"

#: Every category, in the fixed order reports and snapshots use.
CATEGORIES: Tuple[str, ...] = (
    GEMM_COMPUTE, VECTOR_COMPUTE, LINK_SERIALIZATION, QUEUEING_WAIT,
    SWITCH_MERGE, BARRIER_SYNC, RETRANSMIT,
)

#: Edge kind -> category charged for the parent-end -> child-start gap.
#:
#: ``launch``   kernel launch overhead / host issue        -> barrier_sync
#: ``dispatch`` TB ready-queue wait                        -> queueing_wait
#: ``slot``     SM slot wait (scheduler pick)              -> queueing_wait
#: ``dep``      dependency/token wait (graph or when_all)  -> barrier_sync
#: ``queue``    link injection queue (HOL blocking)        -> queueing_wait
#: ``wire``     propagation after serialization / hop      -> link_serialization
#: ``merge``    merge-unit slot wait (straggler arrival)   -> switch_merge
#: ``sync``     group-sync barrier release                 -> barrier_sync
#: ``retry``    retransmission (ack timeout + resend)      -> retransmit
#: ``seq``      within-TB phase sequencing                 -> queueing_wait
EDGE_CATEGORY = {
    "launch": BARRIER_SYNC,
    "dispatch": QUEUEING_WAIT,
    "slot": QUEUEING_WAIT,
    "dep": BARRIER_SYNC,
    "queue": QUEUEING_WAIT,
    "wire": LINK_SERIALIZATION,
    "merge": SWITCH_MERGE,
    "sync": BARRIER_SYNC,
    "retry": RETRANSMIT,
    "seq": QUEUEING_WAIT,
}


class CausalNode:
    """One interval of simulated work plus the edges that caused it.

    ``parents`` is a sequence of ``(parent_id, edge_kind)`` pairs;
    ``NO_CAUSE`` parents are dropped at construction so walkers never
    chase the sentinel.
    """

    __slots__ = ("id", "category", "start_ns", "end_ns", "label", "parents")

    def __init__(self, node_id: int, category: str, start_ns: float,
                 end_ns: float, label: str,
                 parents: Sequence[Tuple[int, str]]):
        self.id = node_id
        self.category = category
        self.start_ns = start_ns
        self.end_ns = end_ns
        self.label = label
        self.parents: List[Tuple[int, str]] = [
            (p, kind) for p, kind in parents if p != NO_CAUSE]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"CausalNode(#{self.id} {self.category} "
                f"[{self.start_ns:.1f}, {self.end_ns:.1f}] {self.label!r} "
                f"<- {self.parents})")


class CausalityRecorder:
    """Recording implementation; see the module docstring for the model."""

    def __init__(self) -> None:
        self.nodes: List[CausalNode] = []
        #: Ambient cause: the node id whose effects are currently being
        #: simulated.  Stamped onto every scheduled event and restored by
        #: the run loop before each callback fires.
        self.current: int = NO_CAUSE

    def node(self, category: str, start_ns: float, end_ns: float,
             label: str = "",
             parents: Sequence[Tuple[int, str]] = ()) -> int:
        """Record one interval of work; returns its id (creation order).

        Ids are assigned in creation order, and event order is
        deterministic for a fixed seed, so the DAG — and everything
        derived from it — is byte-identical across same-seed runs.
        """
        if end_ns < start_ns:
            raise ValueError(
                f"causal node {label!r} ends before it starts: "
                f"[{start_ns}, {end_ns}]")
        node_id = len(self.nodes)
        self.nodes.append(
            CausalNode(node_id, category, start_ns, end_ns, label, parents))
        return node_id

    def __len__(self) -> int:
        return len(self.nodes)

    def get(self, node_id: int) -> Optional[CausalNode]:
        if 0 <= node_id < len(self.nodes):
            return self.nodes[node_id]
        return None
