#!/usr/bin/env python3
"""Engine fast-path benchmark: reference event path vs fast-path layers.

Times one full fig11 workload per system — LLaMA-7B layer graphs built
from the unscaled Table-I model, so at *full* token count, run with the
DEFAULT scale's tiling and collective chunking — with every fast-path
layer off and with all layers on, records
per-layer timings for the headline system, and — in the same process —
verifies the equivalence contract: the fast-path run must reproduce the
reference makespan, total compute, TB count, and GPU utilization to
*exact float equality* (any mismatch fails the benchmark immediately; a
fast wrong answer is worthless).

Writes ``BENCH_engine.json``:

* ``systems.<name>`` — {reference_s, fastpath_s, speedup, exact,
  events_reference, events_fastpath, details} per system (times are
  best-of-N process-CPU seconds; see ``timed_configs``);
* ``layers.<layer>`` — CPU time for the headline system with only that
  layer enabled (attribution of where the speedup comes from);
* ``events_per_cpu_second`` — engine throughput on the reference path
  (the raw event-loop figure of merit, independent of elision);
* ``headline`` — the headline system's speedup (the number the gate in
  ``check_regression.py --engine`` tracks).

Run:  PYTHONPATH=src python benchmarks/bench_engine.py \
          [--model LLaMA-7B] [--systems TP-NVLS CAIS CoCoNet T3] \
          [--training] [--out BENCH_engine.json]
"""

from __future__ import annotations

import argparse
import json
import time

from repro.common import fastpath
from repro.common.config import dgx_h100_config
from repro.experiments.runner import DEFAULT, layer_graphs, run_system
from repro.llm.models import TABLE_I

#: The system whose per-layer attribution and headline speedup we track.
HEADLINE = "TP-NVLS"

LAYERS = {
    "link_windows": dict(link_windows=True, analytic_collectives=False,
                         analytic_kernels=False),
    "analytic_collectives": dict(link_windows=False,
                                 analytic_collectives=True,
                                 analytic_kernels=False),
    "analytic_kernels": dict(link_windows=False, analytic_collectives=False,
                             analytic_kernels=True),
}


def observables(res):
    return (res.makespan_ns, res.compute_ns, res.tbs_completed,
            res.gpu_utilization)


def timed_run(system, graphs, cfg):
    start = time.process_time()
    res = run_system(system, graphs, cfg, DEFAULT)
    return res, time.process_time() - start


def timed_configs(system, graphs, cfg, configs, repeat=1):
    """Best-of-``repeat`` per config, in process-CPU seconds.

    CPU time (not wall clock) because the simulator is a single-threaded
    pure-Python process: it measures the same thing while being immune
    to scheduler preemption on loaded runners (wall-clock on a busy
    single-core CI box swings +/-30%).  Even CPU time drifts a few
    percent over a process's lifetime (allocator state), which would
    bias whichever config is measured last — so the repetitions are
    *interleaved* across configs and the minimum per config is kept
    (the standard robust estimator)."""
    results = {name: None for name in configs}
    best = {name: None for name in configs}
    for _ in range(max(1, repeat)):
        for name, fp_config in configs.items():
            with fastpath.overridden(fp_config):
                res, elapsed = timed_run(system, graphs, cfg)
            results[name] = res
            if best[name] is None or elapsed < best[name]:
                best[name] = elapsed
    return results, best


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--model", default="LLaMA-7B",
                        choices=sorted(TABLE_I))
    parser.add_argument("--systems", nargs="+",
                        default=["TP-NVLS", "CAIS", "CoCoNet", "T3"])
    parser.add_argument("--training", action="store_true",
                        help="benchmark the forward+backward graphs")
    parser.add_argument("--repeat", type=int, default=3,
                        help="repetitions per timing; the minimum is "
                             "reported (default: %(default)s)")
    parser.add_argument("--out", default="BENCH_engine.json")
    args = parser.parse_args()

    model = TABLE_I[args.model]
    cfg = dgx_h100_config()
    report = {
        "model": args.model,
        "training": args.training,
        "systems": {},
        "layers": {},
    }

    for system in args.systems:
        graphs = layer_graphs(model, cfg.num_gpus, system,
                              training=args.training)
        configs = {"reference": fastpath.DISABLED,
                   "fastpath": fastpath.FastPathConfig()}
        if system == HEADLINE:
            configs.update({layer: fastpath.FastPathConfig(**fields)
                            for layer, fields in LAYERS.items()})
        results, best = timed_configs(system, graphs, cfg, configs,
                                      args.repeat)
        ref, ref_s = results["reference"], best["reference"]
        fast, fast_s = results["fastpath"], best["fastpath"]
        exact = observables(fast) == observables(ref)
        row = {
            "reference_s": ref_s,
            "fastpath_s": fast_s,
            "speedup": ref_s / fast_s if fast_s > 0 else 0.0,
            "exact": exact,
            "events_reference": ref.events,
            "events_fastpath": fast.events,
            "details": {k: v for k, v in sorted(fast.details.items())
                        if k.startswith("fastpath.")},
        }
        report["systems"][system] = row
        print(f"{system:>8}: ref {ref_s:6.2f}s  fast {fast_s:6.2f}s  "
              f"x{row['speedup']:.2f}  exact={exact}")
        if not exact:
            print(f"  reference {observables(ref)}")
            print(f"  fast-path {observables(fast)}")
            print("EQUIVALENCE VIOLATION — benchmark aborted")
            return 1
        if system == HEADLINE:
            for layer in LAYERS:
                assert observables(results[layer]) == observables(ref), \
                    layer
                report["layers"][layer] = {"cpu_s": best[layer]}
                print(f"  {layer:>22}: {best[layer]:6.2f}s "
                      f"(x{ref_s / best[layer]:.2f})")

    headline = report["systems"].get(HEADLINE)
    if headline is not None:
        report["headline"] = headline["speedup"]
        h = report["systems"][HEADLINE]
        report["events_per_cpu_second"] = (
            h["events_reference"] / h["reference_s"])

    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"report: {args.out}")
    return 0


if __name__ == "__main__":
    import sys
    sys.exit(main())
