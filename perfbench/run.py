#!/usr/bin/env python3
"""Simulator-cost benchmark: host CPU per simulated workload, layer by layer.

Run from the repository root:

    python3 perfbench/run.py --workload train-step|serve|matrix \\
        --seed N --seconds S --trace 0|1 [--ablate]

``--trace 0`` runs timed passes back to back for about ``--seconds``
seconds (every timing is process CPU, taken with tracing off) and reports
the end-to-end metrics, scaled to a reference host speed measured during
the passes (``hostspeed.py``).  ``--trace 1`` runs one untraced pass and
one traced pass and reports the per-layer metrics.  ``--ablate`` adds one pass
per fast-path layer with that layer disabled (leave-one-out) and reports
``fastpath.<layer>.saved_s``.  Every cell of every pass, ablation passes
included, is checked against a pass on the reference event path.

Human-readable lines go to standard output first; the last line is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.  See
``perfbench/README.md`` for the workloads and the metric map.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import time
from dataclasses import replace
from typing import Dict, List, Tuple

#: Input constructions per run; ``setup_s`` takes their median.
SETUP_REPEATS = 3

#: Timed passes per run, at least, however long they take, so that the
#: median is over more than one or two.
MIN_PASSES = 3

#: Fast-path layers the leave-one-out ablation disables in turn.
FASTPATH_LAYERS = ("calendar_queue", "link_windows", "analytic_collectives",
                   "analytic_kernels")

#: Environment variables that would change what is measured.
AMBIENT = ("REPRO_LEDGER", "REPRO_NO_FASTPATH")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("train-step", "serve", "matrix"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--ablate", action="store_true",
                        help="also time each fast-path layer disabled")
    return parser.parse_args(argv)


def timed_setup(factory, seed: int, workdir: str):
    """Build the workload's inputs ``SETUP_REPEATS`` times; returns the
    last instance and the median construction CPU seconds."""
    costs = []
    for _ in range(SETUP_REPEATS):
        start = time.process_time()
        workload = factory(seed, workdir)
        costs.append(time.process_time() - start)
    return workload, statistics.median(costs)


def timed_passes(workload, seconds: float) -> Tuple[list, float]:
    """Calibrated passes back to back.  After ``MIN_PASSES``, another
    starts only while it is expected to end within ``seconds`` of the
    first.  Returns the passes and the MB the calibration table holds."""
    from hostspeed import HostSpeed
    passes = []
    walls: List[float] = []
    speed = HostSpeed()
    start = time.perf_counter()
    with speed.installed():
        while True:
            gc.collect()    # start each pass from the same collector state
            t0 = time.perf_counter()
            run, calibrations = speed.measure(workload.run_pass)
            run.calibrations = calibrations
            passes.append(run.project())
            walls.append(time.perf_counter() - t0)
            elapsed = time.perf_counter() - start
            if (len(passes) >= MIN_PASSES
                    and elapsed + statistics.median(walls) > seconds):
                return passes, speed.table_mb


def reference_physics(workload) -> Dict[str, str]:
    """Cell physics on the reference event path (every layer off)."""
    from repro.common import fastpath
    with fastpath.overridden(fastpath.DISABLED):
        ref = workload.run_pass().project()
    return {cell.key: cell.physics for cell in ref.cells
            if cell.key not in ref.failures}


def pass_cpu_s(passes) -> float:
    """Median over passes of each pass's CPU at reference host speed
    (raw CPU for passes run without calibration)."""
    from hostspeed import reference_cpu_s
    return statistics.median(reference_cpu_s(p.cpu_s, p.calibrations)
                             for p in passes)


def run_scale(passes) -> float:
    """Reference-speed factor of the whole run, from every calibration
    loop of its passes."""
    from hostspeed import scale
    return scale([s for p in passes for s in p.calibrations])


def cell_cpu(passes, systems) -> Dict[str, float]:
    """Median over passes of each system's summed raw cell CPU seconds."""
    out = {}
    for system in systems:
        per_pass = [sum(c.cpu_s for c in p.cells if c.system == system)
                    for p in passes]
        out[f"cell.{system}.cpu_s"] = statistics.median(per_pass)
    return out


def traced_pass(factory, seed: int, workdir: str):
    """Input construction plus one pass with every layer span installed."""
    from repro import obs
    from tracing import Patcher, Tracer, install_spans, traced_profiler

    tracer, patcher = Tracer(), Patcher()
    profiler = traced_profiler(tracer)
    obs.install(profiler=profiler)
    install_spans(tracer, patcher)
    try:
        run = factory(seed, workdir).run_pass()
    finally:
        patcher.restore()
        obs.reset()
    tracer.counts["events.processed"] = profiler.events
    tracer.counts["matrix.tasks"] = run.tasks_executed
    return run.project(), tracer


def ablation(workload, base_cpu_s: float) -> Tuple[list, Dict[str, float]]:
    """One pass per fast-path layer with only that layer disabled."""
    from repro.common import fastpath
    passes, saved = [], {}
    for layer in FASTPATH_LAYERS:
        with fastpath.overridden(replace(fastpath.FastPathConfig(),
                                         **{layer: False})):
            run = workload.run_pass().project()
        run.config = f"without-{layer}"
        passes.append(run)
        saved[f"fastpath.{layer}.saved_s"] = run.cpu_s - base_cpu_s
    return passes, saved


def end_to_end_metrics(setup_s: float, timed: list,
                       peak_rss_mb: float) -> Dict[str, float]:
    """The ``--trace 0`` metrics, from the untraced passes, at reference
    host speed.  Set-up is too short to calibrate on its own, so it takes
    the speed of the whole run."""
    cpu_s = pass_cpu_s(timed)
    return {
        "setup_s": setup_s * run_scale(timed),
        "cpu_s": cpu_s,
        "sim_ns_per_cpu_s": statistics.median(p.sim_ns() for p in timed)
        / cpu_s,
        "peak_rss_mb": peak_rss_mb,
    }


def trace_metrics(tracer, timed: list, traced, divergent: list
                  ) -> Dict[str, float]:
    """The ``--trace 1`` metrics: per-layer figures of the traced pass,
    rates and cell CPU from the untraced pass."""
    from tracing import layer_metrics
    from workloads import ALL_SYSTEMS
    cpu_s = pass_cpu_s(timed)
    metrics = layer_metrics(tracer)
    metrics["events.per_cpu_s"] = metrics["events.processed"] / cpu_s
    metrics["fastpath.divergent_cells"] = len(divergent)
    metrics["trace.overhead"] = traced.cpu_s / cpu_s - 1.0
    metrics.update(cell_cpu(timed, ALL_SYSTEMS))
    return metrics


def print_table(title: str, metrics: Dict[str, float],
                units: Dict[str, str]) -> None:
    print(title)
    for name, value in metrics.items():
        print(f"  {name:<34} {value:>16.6g} {units.get(name, '')}")


def units_from_manifest(root: str) -> Dict[str, str]:
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        manifest = json.load(fh)
    units = {m["name"]: m["unit"]
             for m in manifest["end_to_end"] + manifest["per_layer"]}
    units.update({f"fastpath.{layer}.saved_s": "s"
                  for layer in FASTPATH_LAYERS})
    units["error_rate"] = "ratio"
    return units


def main(argv=None) -> int:
    args = parse_args(argv)
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print("perfbench: run from the repository root; src/repro is "
              "missing", file=sys.stderr)
        return 2
    for name in AMBIENT:
        os.environ.pop(name, None)
    sys.path.insert(0, src)

    import workloads
    from hostspeed import scale
    import_cpu_s = time.process_time()

    factory = workloads.WORKLOADS[args.workload]
    workdir = workloads.make_workdir(root)
    try:
        workload, build_cpu_s = timed_setup(factory, args.seed, workdir)
        table_mb = 0.0
        if args.trace:
            timed = [workload.run_pass().project()]
            traced, tracer = traced_pass(factory, args.seed, workdir)
            checked = timed + [traced]
        else:
            timed, table_mb = timed_passes(workload, args.seconds)
            checked = list(timed)
        peak_rss_mb = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0 - table_mb
        saved: Dict[str, float] = {}
        if args.ablate:
            # Ablation passes run uncalibrated: compare measured CPU.
            ablated, saved = ablation(workload, statistics.median(
                p.cpu_s - sum(p.calibrations) for p in timed))
            checked += ablated
        reference = reference_physics(workload)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass

    attempted, failed, divergent = workloads.check(checked, reference)
    for tag, reason in sorted(failed.items()):
        print(f"FAILED {tag}: {reason}")
    for key in divergent:
        print(f"DIVERGED {key}: physics differ from the reference event "
              f"path")
    units = units_from_manifest(root)
    if args.trace:
        metrics = trace_metrics(tracer, timed, traced, divergent)
    else:
        print(f"pass cpu_s, measured: {[round(p.cpu_s, 3) for p in timed]}")
        print(f"reference speed factor: "
              f"{[round(scale(p.calibrations), 3) for p in timed]}")
        print_table(f"{args.workload} seed={args.seed}: measured cell CPU, "
                    f"median of {len(timed)} passes",
                    {k: v for k, v in cell_cpu(
                        timed, workloads.ALL_SYSTEMS).items() if v > 0},
                    units)
        metrics = end_to_end_metrics(import_cpu_s + build_cpu_s, timed,
                                     peak_rss_mb)
    metrics.update(saved)
    print_table(f"{args.workload} seed={args.seed} trace={args.trace}",
                dict(metrics, error_rate=len(failed) / attempted), units)
    print(json.dumps({
        "correct": not failed,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
