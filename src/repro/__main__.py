"""Library command line: run one system on one workload and print a report.

Usage::

    python -m repro --system CAIS --model LLaMA-7B --workload L1
    python -m repro --system SP-NVLS --workload layer --training \\
        --scale 0.125 --seed 7
    python -m repro --system CAIS --workload L1 --trace out.json \\
        --metrics --profile
    python -m repro explain --workload L2 --systems CAIS TP-NVLS
    python -m repro report --faults --json faulted.json
    python -m repro diff clean.json faulted.json
    python -m repro ledger query --system CAIS
    python -m repro cache --gc
    python -m repro --list

The experiment harness (``python -m repro.experiments``) regenerates the
paper's tables/figures; this entry point is for ad-hoc single runs.

Observability flags (see README, "Observability"): ``--trace`` writes a
Chrome/Perfetto trace of the simulated hardware, ``--metrics`` /
``--metrics-out`` snapshot the counter/gauge/histogram registry, and
``--profile`` prints a host-time hotspot profile of the simulator itself.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
import time

from . import obs
from .common.config import dgx_h100_config
from .experiments.cli import add_run_flags, apply_run_flags
from .experiments.runner import Scale, layer_graphs, sublayer_for
from .llm.models import TABLE_I, by_name
from .llm.tiling import TilingConfig
from .llm.tp import SUBLAYERS
from .metrics.report import format_run_report
from .systems import SYSTEM_CLASSES, make_system

WORKLOADS = tuple(SUBLAYERS) + ("layer", "serving", "fleet")


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "explain":
        # Subcommand: critical-path attribution comparison across systems
        # (repro.experiments.explain) — everything after `explain` is its.
        from .experiments.explain import main as explain_main
        return explain_main(argv[1:])
    if argv and argv[0] == "report":
        # Subcommand: SLO run report for the serving workload
        # (repro.experiments.report).
        from .experiments.report import main as report_main
        return report_main(argv[1:])
    if argv and argv[0] == "diff":
        # Subcommand: attribute metric movement between two run reports
        # (repro.experiments.diff).
        from .experiments.diff import main as diff_main
        return diff_main(argv[1:])
    if argv and argv[0] == "ledger":
        # Subcommand: query/summarize/regress the cross-run ledger
        # (repro.experiments.ledger).
        from .experiments.ledger import main as ledger_main
        return ledger_main(argv[1:])
    if argv and argv[0] == "cache":
        # Subcommand: inspect/garbage-collect the simulation cache
        # (repro.experiments.cache).
        from .experiments.cache import main as cache_main
        return cache_main(argv[1:])
    parser = argparse.ArgumentParser(prog="python -m repro")
    parser.add_argument("--list", action="store_true",
                        help="list systems and models, then exit")
    parser.add_argument("--system", default="CAIS",
                        choices=sorted(SYSTEM_CLASSES))
    parser.add_argument("--model", default="LLaMA-7B",
                        choices=sorted(TABLE_I) + ["LLaMA-full"])
    parser.add_argument("--workload", default="L1", choices=WORKLOADS,
                        help="one Fig. 12 sub-layer, a full layer, the "
                             "continuous-batching serving stream, or a "
                             "multi-replica serving fleet")
    parser.add_argument("--training", action="store_true",
                        help="forward + backward (layer workload only)")
    parser.add_argument("--scale", type=float, default=0.125,
                        help="fraction of the model's tokens to simulate")
    parser.add_argument("--gpus", type=int, default=8)
    parser.add_argument("--seed", type=int, default=2026)
    parser.add_argument("--no-gantt", action="store_true",
                        help="omit the kernel timeline from the report")
    parser.add_argument("--trace", metavar="PATH", default=None,
                        help="write a Chrome/Perfetto trace of the run "
                             "(open at ui.perfetto.dev)")
    parser.add_argument("--metrics-out", metavar="PATH", default=None,
                        help="write the metrics snapshot to PATH")
    parser.add_argument("--profile", action="store_true",
                        help="print a host-time hotspot profile of the "
                             "simulator's event loop")
    add_run_flags(parser)
    parser.add_argument("--admission", default="none",
                        choices=("none", "shed", "defer"),
                        help="serving workload: SLO-aware admission "
                             "policy (default: %(default)s)")
    parser.add_argument("--slo-ttft-ms", type=float, default=None,
                        metavar="MS",
                        help="serving workload: TTFT SLO target driving "
                             "--admission and the attainment summary")
    parser.add_argument("--retry-budget", type=int, default=None,
                        metavar="N",
                        help="serving workload: per-request retransmit "
                             "budget before abort + re-prefill")
    parser.add_argument("--replicas", type=int, default=None, metavar="N",
                        help="fleet workload: TP-replica count "
                             "(default: the fig22 fleet size)")
    parser.add_argument("--fleet-policy", default="round-robin",
                        choices=("round-robin", "least-kv",
                                 "prefix-affinity"),
                        help="fleet workload: router load-balancing "
                             "policy (default: %(default)s)")
    parser.add_argument("--prefill-replicas", type=int, default=0,
                        metavar="P",
                        help="fleet workload: carve P replicas into a "
                             "prefill pool with KV handoff to the rest "
                             "(default: combined replicas)")
    args = parser.parse_args(argv)
    if args.admission != "none" and args.slo_ttft_ms is None:
        parser.error("--admission requires --slo-ttft-ms")

    fault_spec = apply_run_flags(args)
    if args.list:
        print("systems:", ", ".join(sorted(SYSTEM_CLASSES)))
        print("models: ", ", ".join(sorted(TABLE_I) + ["LLaMA-full"]))
        print("workloads:", ", ".join(WORKLOADS))
        return 0

    # Observability sinks must be installed before the harness is built —
    # components capture the current tracer/registry at construction.
    tracer = obs.Tracer() if args.trace else None
    metrics = (obs.MetricsRegistry()
               if (args.metrics or args.metrics_out) else None)
    profiler = obs.SimProfiler() if args.profile else None
    # A trace gets the causal DAG recorded too, so the exported file
    # carries the critical-path row and its flow arrows.
    causality = obs.CausalityRecorder() if args.trace else None

    config = dgx_h100_config(num_gpus=args.gpus, seed=args.seed)
    if args.faults:
        config = config.with_faults(fault_spec)
    scale = Scale(tokens_fraction=args.scale,
                  tiling=TilingConfig(chunk_bytes=32768,
                                      red_chunk_bytes=8192))
    model = scale.apply(by_name(args.model))
    with obs.installed(tracer=tracer, metrics=metrics, profiler=profiler,
                       causality=causality):
        system = make_system(args.system, config, tiling=scale.tiling)
        run_started = time.perf_counter()
        spec = None
        graphs = []
        if args.workload == "fleet":
            # The fleet path aggregates N independent replica runs; there
            # is no single RunResult to report, so it prints its own
            # summary and the shared flags (--ledger through the env var,
            # like the experiments CLI) apply per replica task.
            from .experiments.fig22_fleet import (fleet_spec_for,
                                                  format_fleet_summary,
                                                  run_fleet)
            fleet = fleet_spec_for(
                scale, 1.0, args.seed,
                replicas=(args.replicas if args.replicas is not None
                          else 4),
                policy=args.fleet_policy,
                prefill_replicas=args.prefill_replicas)
            fleet = dataclasses.replace(fleet, serving=dataclasses.replace(
                fleet.serving, model=args.model,
                retry_budget=args.retry_budget,
                **({"admission_policy": args.admission,
                    "slo_ttft_ms": args.slo_ttft_ms}
                   if args.admission != "none" else {})))
            result = run_fleet(args.system, fleet, config=config,
                               scale=scale)
            print(format_fleet_summary(result))
            if args.ledger:
                from .obs.ledger import RunLedger
                ledger = RunLedger(args.ledger)
                print(f"ledger: {ledger.path} "
                      f"({len(ledger)} record(s))")
            return 0
        if args.workload == "serving":
            from .experiments.fig20_serving import spec_for
            from .experiments.runner import style_for
            from .llm.serving import simulate_serving
            spec = dataclasses.replace(spec_for(scale, seed=args.seed),
                                       model=args.model,
                                       admission_policy=args.admission,
                                       slo_ttft_ms=args.slo_ttft_ms,
                                       retry_budget=args.retry_budget)
            serving = simulate_serving(system, spec, model=by_name(
                args.model), style=style_for(args.system))
            result = serving.run
            hiccups = f"{serving.evictions} evictions"
            if serving.shed:
                hiccups += f", {len(serving.shed)} shed"
            if serving.aborts:
                hiccups += f", {serving.aborts} aborts"
            print(f"serving: {len(serving.stats)} requests, "
                  f"{serving.total_output_tokens} tokens in "
                  f"{serving.iterations} iterations "
                  f"({hiccups}) -> "
                  f"{serving.tokens_per_s:,.0f} tokens/s, "
                  f"TTFT mean {serving.mean_ttft_ns() / 1e6:.2f} ms / "
                  f"p95 {serving.ttft_quantile_ns(0.95) / 1e6:.2f} ms, "
                  f"TPOT mean {serving.mean_tpot_ns() / 1e6:.2f} ms")
            if args.slo_ttft_ms is not None:
                slo_ns = args.slo_ttft_ms * 1e6
                print(f"SLO (TTFT <= {args.slo_ttft_ms:g} ms): "
                      f"{serving.slo_attainment(slo_ns):.1%} attainment "
                      f"of {len(serving.stats) + len(serving.shed)} "
                      f"offered")
        else:
            if args.workload == "layer":
                graphs = layer_graphs(model, args.gpus, args.system,
                                      args.training)
            else:
                graphs = [sublayer_for(model, args.gpus, args.system,
                                       args.workload)]
            result = system.run(graphs)
        run_wall_ms = (time.perf_counter() - run_started) * 1e3
        print(format_run_report(result, gantt=not args.no_gantt))
        if args.ledger:
            # Describe the run as the SimTask it is equivalent to, so a
            # direct run and the identical matrix task share a ledger
            # fingerprint (see experiments/ledger.py).
            from .experiments.ledger import record_for_result
            from .experiments.parallel import SimTask
            from .obs.ledger import RunLedger
            task = SimTask(system=args.system, graphs=tuple(graphs),
                           config=config, scale=scale, serving=spec)
            ledger = RunLedger(args.ledger)
            ledger.append(record_for_result(task, result,
                                            wall_ms=run_wall_ms))
            print(f"ledger: {ledger.path} ({len(ledger)} record(s))")
        if tracer is not None:
            from .obs.perfetto import write_chrome_trace
            write_chrome_trace(tracer, args.trace)
            print(f"trace: {args.trace} ({len(tracer.events())} events; "
                  f"open at https://ui.perfetto.dev)")
        if metrics is not None:
            payload = metrics.to_json()
            if args.metrics_out:
                with open(args.metrics_out, "w") as fh:
                    fh.write(payload + "\n")
                print(f"metrics: {args.metrics_out}")
            if args.metrics:
                print(payload)
        if profiler is not None:
            print(profiler.report())
    return 0


if __name__ == "__main__":
    sys.exit(main())
