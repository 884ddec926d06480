"""Critical-path extraction and makespan attribution over the causal DAG.

Given a :class:`~.causality.CausalityRecorder` and the run's makespan,
:func:`extract_critical_path` walks the DAG backward from the
makespan-defining node (latest end; ties broken toward the
latest-created), at each step following the parent that finished last —
the straggler that actually gated progress.  The resulting chain is
rendered as a contiguous partition of ``[0, makespan]``:

* a node's own interval is charged to the node's **category**
  (``gemm_compute``, ``switch_merge``, ...);
* the gap between a parent's end and its child's start is charged to the
  **edge kind** joining them (see :data:`~.causality.EDGE_CATEGORY`) —
  e.g. a ``wire`` gap is propagation delay, a ``merge`` gap is the
  merge-unit waiting for a straggler contribution;
* the lead-in ``[0, first_node.start]`` is kernel-launch/host issue
  overhead (``barrier_sync``); the tail
  ``[last_node.end, makespan]`` is the final delivery's propagation
  (``link_serialization``).

Because segments are built with a single forward cursor they share
endpoints, so the signed endpoint sum telescopes *exactly* to the
makespan — :meth:`CriticalPath.verify` asserts this, making attribution
completeness a structural invariant rather than a float coincidence.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

from ..common.errors import SimulationError
from .causality import (CATEGORIES, EDGE_CATEGORY, LINK_SERIALIZATION,
                        BARRIER_SYNC, CausalNode, CausalityRecorder)

#: Edge kind used for the synthetic lead-in segment before the first node.
_ROOT_KIND = "launch"
#: Category for the tail between the last node's end and the makespan
#: (the final message's propagation to its consumer).
_TAIL_CATEGORY = LINK_SERIALIZATION


class Segment:
    """One contiguous slice of the critical path."""

    __slots__ = ("start_ns", "end_ns", "category", "kind", "label")

    def __init__(self, start_ns: float, end_ns: float, category: str,
                 kind: str, label: str):
        self.start_ns = start_ns
        self.end_ns = end_ns
        self.category = category
        #: "node" for a path node's own interval, the edge kind for a
        #: causal gap, "root" for the lead-in, "tail" for the final
        #: propagation residue.
        self.kind = kind
        self.label = label

    @property
    def duration_ns(self) -> float:
        return self.end_ns - self.start_ns

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Segment([{self.start_ns:.1f}, {self.end_ns:.1f}] "
                f"{self.category} {self.kind} {self.label!r})")


class CriticalPath:
    """The extracted path, its segment partition, and the attribution."""

    def __init__(self, nodes: Sequence[CausalNode],
                 segments: Sequence[Segment], makespan_ns: float):
        #: Path nodes in chronological order (root first).
        self.nodes = list(nodes)
        #: Contiguous partition of [0, makespan].
        self.segments = list(segments)
        self.makespan_ns = makespan_ns

    def attribution(self) -> Dict[str, float]:
        """Nanoseconds per category, every category present (0.0 if idle),
        in the fixed :data:`~.causality.CATEGORIES` order."""
        per_cat: Dict[str, List[float]] = {cat: [] for cat in CATEGORIES}
        for seg in self.segments:
            per_cat[seg.category].append(seg.duration_ns)
        return {cat: math.fsum(spans) for cat, spans in per_cat.items()}

    def verify(self) -> None:
        """Assert the attribution covers the makespan exactly.

        Checks the partition structurally (contiguous from 0 to makespan)
        and numerically (the signed endpoint sum, which telescopes without
        rounding, equals the makespan).  Raises SimulationError otherwise.
        """
        cursor = 0.0
        endpoints: List[float] = []
        for seg in self.segments:
            if seg.start_ns != cursor:
                raise SimulationError(
                    f"critical path not contiguous: segment starts at "
                    f"{seg.start_ns} ns, expected {cursor} ns")
            if seg.end_ns < seg.start_ns:
                raise SimulationError(
                    f"critical path segment has negative duration: {seg!r}")
            endpoints.append(seg.end_ns)
            endpoints.append(-seg.start_ns)
            cursor = seg.end_ns
        total = math.fsum(endpoints)
        if total != self.makespan_ns or cursor != self.makespan_ns:
            raise SimulationError(
                f"attribution does not sum to the makespan: "
                f"{total} ns != {self.makespan_ns} ns")


def extract_critical_path(recorder: CausalityRecorder,
                          makespan_ns: float) -> CriticalPath:
    """Walk the DAG backward from the makespan-defining node.

    Deterministic: the terminal is the max-(end, id) node, and every
    backward step follows the max-(end, id) parent — node ids are
    creation order, which is event order, which is seed-stable.
    """
    nodes = recorder.nodes
    if not nodes:
        segments = ([Segment(0.0, makespan_ns, BARRIER_SYNC, "root",
                             "no causal events")]
                    if makespan_ns > 0 else [])
        return CriticalPath([], segments, makespan_ns)

    terminal = max(nodes, key=lambda n: (n.end_ns, n.id))
    if terminal.end_ns > makespan_ns:
        raise SimulationError(
            f"causal node {terminal!r} ends after the makespan "
            f"({makespan_ns} ns)")

    # Backward walk; parents always have smaller ids (created earlier), so
    # this strictly descends and terminates.  Each chain entry pairs a
    # node with the edge kind joining it to its chosen (straggler) parent;
    # the root, having no parent, is charged as launch overhead.
    chain: List[Tuple[CausalNode, str]] = []
    node = terminal
    while True:
        if not node.parents:
            chain.append((node, _ROOT_KIND))
            break
        pid, kind = max(node.parents,
                        key=lambda pk: (nodes[pk[0]].end_ns, pk[0]))
        chain.append((node, kind))
        node = nodes[pid]
    chain.reverse()

    # Forward segment construction with a single cursor.  Overlapping
    # intervals (a child that started before its gating parent finished)
    # are clamped so the partition stays contiguous.
    segments: List[Segment] = []
    cursor = 0.0
    for node, kind in chain:
        if node.start_ns > cursor:
            segments.append(Segment(cursor, node.start_ns,
                                    EDGE_CATEGORY[kind], kind,
                                    node.label))
            cursor = node.start_ns
        if node.end_ns > cursor:
            segments.append(Segment(cursor, node.end_ns, node.category,
                                    "node", node.label))
            cursor = node.end_ns
    if makespan_ns > cursor:
        segments.append(Segment(cursor, makespan_ns, _TAIL_CATEGORY, "tail",
                                "final delivery"))

    path = CriticalPath([node for node, _ in chain], segments, makespan_ns)
    path.verify()
    return path


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------

def format_attribution_table(
        paths: Sequence[Tuple[str, CriticalPath]]) -> str:
    """Markdown table of per-category attribution, one column per system."""
    names = [name for name, _ in paths]
    atts = [cp.attribution() for _, cp in paths]
    lines = ["| category | " + " | ".join(names) + " |",
             "|---|" + "---|" * len(names)]
    for cat in CATEGORIES:
        cells = " | ".join(f"{att[cat]:.1f}" for att in atts)
        lines.append(f"| {cat} | {cells} |")
    totals = " | ".join(
        f"{math.fsum(att.values()):.1f}" for att in atts)
    makespans = " | ".join(f"{cp.makespan_ns:.1f}" for _, cp in paths)
    lines.append(f"| **total (ns)** | {totals} |")
    lines.append(f"| **makespan (ns)** | {makespans} |")
    return "\n".join(lines)


def format_report(name: str, path: CriticalPath, top: int = 10) -> str:
    """Deterministic single-system report: attribution + longest segments."""
    att = path.attribution()
    lines = [f"## Critical path — {name}",
             "",
             f"makespan: {path.makespan_ns:.1f} ns, "
             f"{len(path.nodes)} path nodes, "
             f"{len(path.segments)} segments",
             "",
             "| category | ns | share |",
             "|---|---|---|"]
    makespan = path.makespan_ns or 1.0
    for cat in CATEGORIES:
        lines.append(f"| {cat} | {att[cat]:.1f} | "
                     f"{100.0 * att[cat] / makespan:.2f}% |")
    lines.append(f"| **total** | {math.fsum(att.values()):.1f} | "
                 f"{100.0 * math.fsum(att.values()) / makespan:.2f}% |")
    longest = sorted(path.segments,
                     key=lambda s: (-s.duration_ns, s.start_ns))[:top]
    if longest:
        lines += ["", f"Longest segments (top {len(longest)}):", ""]
        for seg in longest:
            lines.append(f"- [{seg.start_ns:.1f}, {seg.end_ns:.1f}] "
                         f"{seg.duration_ns:.1f} ns {seg.category} "
                         f"({seg.kind}) {seg.label}")
    return "\n".join(lines)


def format_comparison(paths: Sequence[Tuple[str, CriticalPath]],
                      baseline: Optional[str] = None) -> str:
    """Cross-system comparison: joint table + per-category movement lines.

    ``baseline`` names the reference column (default: the first entry);
    every other system gets "X moved off/onto the critical path" lines.
    """
    if not paths:
        return "(no runs to compare)"
    base_name = baseline if baseline is not None else paths[0][0]
    base_att = dict(paths)[base_name].attribution()
    lines = ["## Attribution across systems", "",
             format_attribution_table(paths), ""]
    for name, cp in paths:
        if name == base_name:
            continue
        att = cp.attribution()
        for cat in CATEGORIES:
            delta = base_att[cat] - att[cat]
            if abs(delta) < 0.05:
                continue
            verb = ("moved off critical path" if delta > 0
                    else "moved onto critical path")
            lines.append(f"- {name} vs {base_name}: {cat} {verb}: "
                         f"{abs(delta):.1f} ns")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Perfetto surfacing
# ---------------------------------------------------------------------------

def annotate_tracer(tracer, path: CriticalPath,
                    process: str = "critical path") -> None:
    """Render the critical path into a trace as its own process row.

    Every segment becomes a complete slice (named by category) on a
    dedicated track, and consecutive path nodes are joined with Perfetto
    flow arrows (``ph: "s"``/``"f"``) so the causality renders in the UI.
    """
    track = tracer.track(process, "segments")
    for seg in path.segments:
        handle = tracer.begin(track, seg.category, seg.start_ns,
                              cat="critical_path",
                              args={"kind": seg.kind, "label": seg.label})
        tracer.end(handle, seg.end_ns)
    for i in range(len(path.nodes) - 1):
        src, dst = path.nodes[i], path.nodes[i + 1]
        tracer.flow_start(track, "critical", i + 1, src.end_ns,
                          cat="critical_path")
        tracer.flow_end(track, "critical", i + 1,
                        max(dst.start_ns, src.end_ns), cat="critical_path")
