"""``python -m repro explain`` — makespan attribution across systems.

Runs the same workload under two or more systems with a causal recorder
installed, extracts each run's critical path
(:mod:`repro.obs.critical_path`), and prints a deterministic report:
per-system attribution tables, the longest path segments, and a
cross-system comparison ("switch_merge moved off critical path: N ns").

The report is a pure function of (model, workload, systems, gpus, seed,
scale): same arguments, same seed — byte-identical output.  Runs are
executed directly (never through the experiment cache), because the cache
stores summaries, not causal DAGs.

Usage::

    python -m repro explain --workload L2 --systems CAIS TP-NVLS SP-NVLS
    python -m repro explain --model LLaMA-7B --gpus 4 --out explain.md
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Tuple

from .. import obs
from ..common.config import dgx_h100_config
from ..llm.models import TABLE_I, by_name
from ..llm.tiling import TilingConfig
from ..llm.tp import SUBLAYERS
from ..obs.critical_path import (CriticalPath, format_comparison,
                                 format_report)
from ..systems import SYSTEM_CLASSES, make_system
from .runner import Scale, sublayer_for

DEFAULT_SYSTEMS = ("CAIS", "TP-NVLS", "SP-NVLS")


def explain_runs(model_name: str, workload: str, systems: List[str],
                 gpus: int, seed: int,
                 scale: float) -> List[Tuple[str, CriticalPath]]:
    """Run each system on the workload and extract its critical path.

    Each run gets a fresh :class:`~repro.obs.causality.CausalityRecorder`,
    installed before the harness is built (components capture the recorder
    at construction); the caller's sinks are restored afterwards.
    """
    config = dgx_h100_config(num_gpus=gpus, seed=seed)
    run_scale = Scale(tokens_fraction=scale,
                      tiling=TilingConfig(chunk_bytes=32768,
                                          red_chunk_bytes=8192))
    model = run_scale.apply(by_name(model_name))
    paths: List[Tuple[str, CriticalPath]] = []
    for system in systems:
        graphs = [sublayer_for(model, gpus, system, workload)]
        with obs.installed(causality=obs.CausalityRecorder()):
            result = make_system(system, config,
                                 tiling=run_scale.tiling).run(graphs)
        if result.critical_path is None:
            raise RuntimeError(
                f"{system}: run produced no critical path (recorder "
                f"was installed — this is a bug)")
        paths.append((system, result.critical_path))
    return paths


def format_explain_report(model_name: str, workload: str, gpus: int,
                          seed: int, scale: float,
                          paths: List[Tuple[str, CriticalPath]],
                          top: int = 10) -> str:
    """The full deterministic report for one explain invocation."""
    lines = [f"# repro explain — {model_name} {workload}, "
             f"{gpus} GPUs, seed={seed}, scale={scale:g}", ""]
    for name, path in paths:
        lines += [format_report(name, path, top=top), ""]
    if len(paths) > 1:
        lines += [format_comparison(paths), ""]
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro explain",
        description="critical-path attribution comparison across systems")
    parser.add_argument("--model", default="LLaMA-7B",
                        choices=sorted(TABLE_I))
    parser.add_argument("--workload", default="L2", choices=SUBLAYERS,
                        help="one Fig. 12 sub-layer")
    parser.add_argument("--systems", nargs="+",
                        default=list(DEFAULT_SYSTEMS),
                        choices=sorted(SYSTEM_CLASSES), metavar="SYSTEM",
                        help="systems to compare; the first is the "
                             "comparison baseline (default: %(default)s)")
    parser.add_argument("--gpus", type=int, default=4)
    parser.add_argument("--seed", type=int, default=2026)
    parser.add_argument("--scale", type=float, default=0.125,
                        help="fraction of the model's tokens to simulate")
    parser.add_argument("--top", type=int, default=10,
                        help="longest segments listed per system")
    parser.add_argument("--out", metavar="PATH", default=None,
                        help="also write the report to PATH")
    args = parser.parse_args(argv)

    paths = explain_runs(args.model, args.workload, args.systems,
                         args.gpus, args.seed, args.scale)
    report = format_explain_report(args.model, args.workload, args.gpus,
                                   args.seed, args.scale, paths,
                                   top=args.top)
    print(report, end="")
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(report)
        print(f"report: {args.out}")
    return 0


if __name__ == "__main__":   # pragma: no cover - module CLI
    sys.exit(main())
