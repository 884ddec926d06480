#!/usr/bin/env python3
"""Time the experiment matrix: serial vs parallel vs cached.

Runs a fixed fig12-style matrix (one model, two sub-layers, four
systems at --quick scale) three ways and writes the timings to
``BENCH_experiments.json``:

* **serial** — ``jobs=1``, no cache: the pre-fan-out execution path.
* **parallel** — ``jobs=N`` (default: all cores) over worker processes.
* **cached** — second invocation against a warm on-disk cache; every
  task should be a hit, so this bounds the fixed cost of fingerprinting
  plus cache I/O.

On a single-core runner the parallel row only measures pool overhead;
the speedup column is meaningful on >= 2 cores.  The cached row must be
dramatically faster everywhere, and ``hits``/``misses`` are recorded so
CI can assert the reuse actually happened.

Run:  PYTHONPATH=src python benchmarks/bench_experiments.py \
          [--jobs N] [--repeat 2] [--out BENCH_experiments.json]
"""

import argparse
import json
import os
import shutil
import statistics
import tempfile
import time

from repro import obs
from repro.experiments import fig12_sublayer
from repro.experiments.cache import SimCache
from repro.experiments.parallel import ExecContext
from repro.experiments.runner import QUICK

MATRIX = dict(models=["LLaMA-7B"], sublayers=("L1", "L2"),
              systems=("TP-NVLS", "SP-NVLS", "CAIS-Base", "CAIS"))


def one_run(ctx: ExecContext) -> float:
    t0 = time.perf_counter()
    fig12_sublayer.run(QUICK, ctx=ctx, **MATRIX)
    return time.perf_counter() - t0


def timed(label: str, make_ctx, repeat: int) -> dict:
    times = [one_run(make_ctx()) for _ in range(repeat)]
    med = statistics.median(times)
    print(f"{label:>9}: {med * 1e3:8.1f} ms  "
          f"({[f'{t * 1e3:.1f}' for t in times]})")
    return {"median_s": med, "runs_s": times}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--jobs", type=int,
                        default=os.cpu_count() or 1,
                        help="workers for the parallel row")
    parser.add_argument("--repeat", type=int, default=2,
                        help="timed repetitions per configuration")
    parser.add_argument("--out", default="BENCH_experiments.json",
                        help="where to write the JSON report")
    args = parser.parse_args()

    cache_dir = tempfile.mkdtemp(prefix="bench_repro_cache_")
    try:
        one_run(ExecContext(jobs=1))     # warm imports and lru caches
        report = {
            "matrix": {k: list(v) for k, v in MATRIX.items()},
            "tasks": len(MATRIX["models"]) * len(MATRIX["sublayers"])
            * len(MATRIX["systems"]),
            "jobs": args.jobs,
            "cpu_count": os.cpu_count(),
            "serial": timed("serial", lambda: ExecContext(jobs=1),
                            args.repeat),
            "parallel": timed("parallel",
                              lambda: ExecContext(jobs=args.jobs),
                              args.repeat),
        }

        # Warm the cache once, then time hit-only invocations with the
        # metrics registry live so the report proves reuse happened.
        one_run(ExecContext(jobs=1, cache=SimCache(cache_dir)))
        obs.install(metrics=obs.MetricsRegistry())
        try:
            metrics = obs.current().metrics
            report["cached"] = timed(
                "cached",
                lambda: ExecContext(jobs=1, cache=SimCache(cache_dir)),
                args.repeat)
            report["cached"]["hits"] = metrics.counter("cache.hits").value
            report["cached"]["misses"] = \
                metrics.counter("cache.misses").value
        finally:
            obs.reset()

        serial = report["serial"]["median_s"]
        report["parallel"]["speedup"] = serial / report["parallel"]["median_s"]
        report["cached"]["speedup"] = serial / report["cached"]["median_s"]
        print(f"parallel speedup: {report['parallel']['speedup']:.2f}x   "
              f"cached speedup: {report['cached']['speedup']:.2f}x   "
              f"(hits={report['cached']['hits']:.0f})")
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
        print(f"wrote {args.out}")
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)


if __name__ == "__main__":
    main()
