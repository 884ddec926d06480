#!/usr/bin/env python3
"""Measure the observability layer's overhead on real CAIS runs.

The design contract (DESIGN.md, "Observability") is *zero-cost when
disabled*: instrumented hot paths capture the installed tracer/registry
at construction (``None`` when off) and guard every record with one
``is not None`` test, so a run without ``--trace``/``--metrics`` should be within noise
of a build that never had instrumentation.  This benchmark quantifies
both sides on two workloads:

* ``--workload sublayer`` — one CAIS L1 sublayer run, traced with
  Tracer + MetricsRegistry + SimProfiler (the original benchmark).
* ``--workload serving``  — a continuous-batching serving run with the
  new reporting sinks (TimeSeriesSink + RequestLog) against the
  disabled baseline, plus — for context, outside the budget — the full
  ``repro report`` stack that adds the PR-4 CausalityRecorder.  The
  causality DAG records every transfer/merge node and carries its own
  (pre-existing) cost; the <5% budget covers what *this* layer adds.
* ``--workload matrix``   — a ``run_matrix`` sweep with the full
  harness-telemetry stack (run ledger + progress board + meta-trace)
  against the bare runner.  The telemetry lives entirely outside the
  simulation, so beyond the <5% wall budget this mode asserts the
  summaries are *identical* (same makespans, same event counts) with
  telemetry on and off — the zero-event contract at matrix scale.

In both modes the **disabled** configuration runs with no sinks
installed (the default); the serving mode additionally checks the
stronger half of the contract — the sinks add **zero simulation
events**, so an enabled run is simulation-identical (same makespan,
same event count) to a disabled one — and asserts the enabled wall
overhead stays under ``--budget`` percent.

Run:  PYTHONPATH=src python benchmarks/obs_overhead.py \\
          [--workload serving] [--repeat 3] [--budget 5]
"""

import argparse
import contextlib
import io
import os
import statistics
import sys
import tempfile
import time

from repro import obs
from repro.common.config import dgx_h100_config
from repro.experiments.parallel import ExecContext, SimTask, run_matrix
from repro.experiments.runner import Scale
from repro.llm.graph import CommKind, GemmShape, Graph, LogicalOp, OpKind
from repro.llm.models import LLAMA_7B, ModelConfig
from repro.llm.serving import ServingSpec, simulate_serving
from repro.llm.tiling import TilingConfig
from repro.llm.tp import sublayer_graph
from repro.systems import make_system

TILING = TilingConfig(chunk_bytes=32768, red_chunk_bytes=8192)

#: Small-but-real serving workload: ~100 requests through a 4-GPU TP
#: group, enough iterations that per-iteration instrumentation costs
#: dominate the measurement rather than setup.
SERVING_MODEL = ModelConfig(name="bench-tiny", hidden=256, ffn_hidden=512,
                            heads=8, seq_len=64, batch=4, layers=4)
SERVING_SPEC = ServingSpec(model="bench-tiny", seed=7,
                           arrival_rate_rps=100_000.0, horizon_ms=1.0,
                           prompt_min=8, prompt_max=24,
                           output_min=1, output_max=3,
                           max_batch_requests=4)
SERVING_TILING = TilingConfig(tile=32, chunk_bytes=32768,
                              red_chunk_bytes=8192)


def sublayer_run(traced: bool) -> float:
    """Wall-clock seconds for one CAIS L1 run."""
    if traced:
        obs.install(tracer=obs.Tracer(), metrics=obs.MetricsRegistry(),
                    profiler=obs.SimProfiler())
    try:
        model = LLAMA_7B.scaled(0.125)
        system = make_system("CAIS", dgx_h100_config(), tiling=TILING)
        t0 = time.perf_counter()
        system.run([sublayer_graph(model, 8, "L1")])
        return time.perf_counter() - t0
    finally:
        obs.reset()


def serving_run(mode: str):
    """(wall seconds, makespan_ns, sim events) for one serving run.

    ``mode``: ``disabled`` (no sinks), ``sinks`` (TimeSeriesSink +
    RequestLog — the budgeted configuration), or ``report`` (the full
    ``repro report`` stack including the causality recorder).
    """
    if mode == "sinks":
        obs.install(timeseries=obs.TimeSeriesSink(window_ns=100_000.0),
                    request_log=obs.RequestLog())
    elif mode == "report":
        obs.install(timeseries=obs.TimeSeriesSink(window_ns=100_000.0),
                    request_log=obs.RequestLog(),
                    causality=obs.CausalityRecorder())
    try:
        system = make_system("TP-NVLS", dgx_h100_config(num_gpus=4, seed=1),
                             tiling=SERVING_TILING, jitter=False)
        t0 = time.perf_counter()
        serving = simulate_serving(system, SERVING_SPEC,
                                   model=SERVING_MODEL, style="basic")
        wall = time.perf_counter() - t0
        return wall, serving.run.makespan_ns, serving.run.events
    finally:
        obs.reset()


#: Matrix-mode sweep: a handful of tiny distinct tasks, all misses
#: (no cache), so every repetition simulates the same work and the
#: telemetry cost is the only difference between configurations.
MATRIX_TASKS = 8


def _matrix_tasks():
    scale = Scale(tokens_fraction=1.0, tiling=TILING)
    tasks = []
    for seed in range(MATRIX_TASKS):
        g = Graph("bench-matrix")
        g.add(LogicalOp(name="gemm0", kind=OpKind.GEMM,
                        gemm=GemmShape(256, 256, 256)))
        g.add(LogicalOp(name="ar0", kind=OpKind.COMM, deps=("gemm0",),
                        comm=CommKind.ALL_REDUCE, comm_bytes=1 << 16))
        tasks.append(SimTask(system="TP-NVLS", graphs=(g,),
                             config=dgx_h100_config(seed=seed),
                             scale=scale))
    return tasks


def matrix_run(telemetry: bool, workdir: str):
    """(wall seconds, summary identity) for one telemetry-on/off sweep.

    The identity is the tuple of (makespan, events) per task — what the
    zero-event contract requires to be independent of telemetry.
    """
    tasks = _matrix_tasks()
    if telemetry:
        os.environ[obs.LEDGER_ENV] = os.path.join(workdir, "ledger")
        ctx = ExecContext(jobs=1, progress=True,
                          meta_trace=os.path.join(workdir, "meta.json"))
    else:
        os.environ.pop(obs.LEDGER_ENV, None)
        ctx = ExecContext(jobs=1)
    try:
        t0 = time.perf_counter()
        # The board writes to stderr; capture it so the benchmark's own
        # output stays readable (the writes are still paid for).
        with contextlib.redirect_stderr(io.StringIO()):
            out = run_matrix(tasks, ctx)
        wall = time.perf_counter() - t0
        return wall, tuple((s.makespan_ns, s.events) for s in out)
    finally:
        os.environ.pop(obs.LEDGER_ENV, None)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload",
                        choices=("sublayer", "serving", "matrix"),
                        default="sublayer")
    parser.add_argument("--repeat", type=int, default=3,
                        help="timed repetitions per configuration")
    parser.add_argument("--budget", type=float, default=5.0,
                        help="serving mode: fail if the enabled overhead "
                             "exceeds this percent (default: %(default)s)")
    args = parser.parse_args()

    if args.workload == "sublayer":
        sublayer_run(False)                  # warm imports and caches
        disabled = [sublayer_run(False) for _ in range(args.repeat)]
        enabled = [sublayer_run(True) for _ in range(args.repeat)]
        d, e = statistics.median(disabled), statistics.median(enabled)
        print(f"observability disabled: {d * 1e3:8.1f} ms  (median of "
              f"{args.repeat}: {[f'{t * 1e3:.1f}' for t in disabled]})")
        print(f"observability enabled:  {e * 1e3:8.1f} ms  (median of "
              f"{args.repeat}: {[f'{t * 1e3:.1f}' for t in enabled]})")
        print(f"recording overhead:     {(e / d - 1) * 100:+8.1f} %")
        print("\nThe 'disabled' number is the shipping configuration; its "
              "only\nobservability cost is one attribute read per guarded "
              "site.")
        return 0

    if args.workload == "matrix":
        with tempfile.TemporaryDirectory() as workdir:
            matrix_run(False, workdir)       # warm imports and caches
            base = [matrix_run(False, workdir)
                    for _ in range(args.repeat)]
            # A fresh ledger subdir per repetition keeps append cost flat.
            full = [matrix_run(True, os.path.join(workdir, str(i)))
                    for i in range(args.repeat)]
        d = statistics.median(w for w, _ in base)
        e = statistics.median(w for w, _ in full)
        overhead = (e / d - 1) * 100
        print(f"matrix ({MATRIX_TASKS} tasks), telemetry off: "
              f"{d * 1e3:8.1f} ms  (median of {args.repeat}: "
              f"{[f'{w * 1e3:.1f}' for w, _ in base]})")
        print(f"matrix, ledger+board+meta-trace:  {e * 1e3:8.1f} ms  "
              f"(median of {args.repeat}: "
              f"{[f'{w * 1e3:.1f}' for w, _ in full]})")
        print(f"harness-telemetry overhead:       {overhead:+8.1f} %"
              f"  (budget {args.budget:g} %)")
        failures = 0
        outcomes = {key for _, key in base} | {key for _, key in full}
        if len(outcomes) != 1:
            print("FAIL: telemetry perturbed the simulations — distinct "
                  f"(makespan, events) sets: {len(outcomes)}")
            failures += 1
        else:
            print("simulations identical with telemetry on and off "
                  "(zero-event contract holds)")
        if overhead > args.budget:
            print(f"FAIL: telemetry overhead {overhead:+.1f} % exceeds "
                  f"the {args.budget:g} % budget")
            failures += 1
        return 1 if failures else 0

    serving_run("disabled")                  # warm imports and caches
    base = [serving_run("disabled") for _ in range(args.repeat)]
    full = [serving_run("sinks") for _ in range(args.repeat)]
    stack = [serving_run("report") for _ in range(args.repeat)]
    d = statistics.median(w for w, _, _ in base)
    e = statistics.median(w for w, _, _ in full)
    r = statistics.median(w for w, _, _ in stack)
    overhead = (e / d - 1) * 100

    print(f"serving, sinks disabled:  {d * 1e3:8.1f} ms  (median of "
          f"{args.repeat}: {[f'{w * 1e3:.1f}' for w, _, _ in base]})")
    print(f"serving, ts+reqlog:       {e * 1e3:8.1f} ms  (median of "
          f"{args.repeat}: {[f'{w * 1e3:.1f}' for w, _, _ in full]})")
    print(f"serving, + causality:     {r * 1e3:8.1f} ms  "
          f"({(r / d - 1) * 100:+.1f} % — PR-4 DAG, outside the budget)")
    print(f"sink recording overhead:  {overhead:+8.1f} %"
          f"  (budget {args.budget:g} %)")

    failures = 0
    # Zero-event contract: the sinks never touch the event queue or RNG,
    # so makespan and event count must match exactly run-for-run.
    spans = {(m, n) for _, m, n in base} | {(m, n) for _, m, n in full} \
        | {(m, n) for _, m, n in stack}
    if len(spans) != 1:
        print(f"FAIL: sinks perturbed the simulation — "
              f"(makespan, events) observed: {sorted(spans)}")
        failures += 1
    else:
        m, n = next(iter(spans))
        print(f"simulation identical across all runs: "
              f"makespan {m / 1e6:.3f} ms, {n} events")
    if overhead > args.budget:
        print(f"FAIL: enabled overhead {overhead:+.1f} % exceeds the "
              f"{args.budget:g} % budget")
        failures += 1
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
