"""Human-readable run reports.

``format_run_report`` turns a :class:`~repro.systems.base.RunResult` into a
compact text block — makespan, utilizations, merge statistics and a
Gantt-style kernel timeline — used by the examples and handy in a REPL.
"""

from __future__ import annotations

from typing import List


def format_run_report(result, gantt: bool = True, width: int = 48) -> str:
    """A multi-line summary of one system run."""
    lines: List[str] = [
        f"system: {result.system}",
        f"makespan: {result.makespan_ns / 1e3:.1f} us "
        f"({result.tbs_completed} TBs, {result.events} events)",
        f"link utilization (avg, both directions): "
        f"{result.average_bandwidth_utilization():.1%}",
        f"GPU SM-slot utilization: {result.gpu_utilization:.1%}",
    ]
    fp = {k[len("fastpath."):]: v for k, v in result.details.items()
          if k.startswith("fastpath.")}
    if fp:
        elided = fp.get("events_elided", 0.0)
        parts = [f"{int(elided):,} events elided"]
        if fp.get("analytic_ops"):
            parts.append(f"{int(fp['analytic_ops']):,} analytic collectives")
        if fp.get("kernel_launches"):
            parts.append(f"{int(fp['kernel_launches']):,} analytic kernels")
        lines.append("engine fast-path: " + ", ".join(parts))
    if result.merge_stats is not None:
        m = result.merge_stats.summary()
        lines.append(
            f"in-switch merging: {m['sessions_completed']:.0f} sessions, "
            f"{m['requests_merged']:.0f} merged, "
            f"{m['lru_evictions'] + m['timeout_evictions']:.0f} evicted, "
            f"avg wait {m['average_wait_us']:.1f} us")
    if gantt and result.timeline is not None and result.timeline.spans():
        lines.append("kernel timeline:")
        lines.append(result.timeline.render(width=width))
    return "\n".join(lines)
