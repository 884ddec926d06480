"""Deterministic run reports for the serving workload (``repro report``).

A **run report** is the SLO-facing view of one continuous-batching serving
simulation: overall attainment against TTFT/TPOT targets, exact latency
tails, the per-window time series recorded by
:class:`repro.obs.TimeSeriesSink` with injected fault windows overlaid,
the per-request phase/category time breakdown from
:class:`repro.obs.RequestLog`, and a worst-request drill-down.

The report is a plain JSON-serializable dict (``schema`` versioned, see
DESIGN.md §10) and a pure function of the simulation outputs, which are a
pure function of the seed — so two same-seed runs produce byte-identical
report files, and ``repro diff`` (:mod:`.diff`) can attribute every metric
movement between two reports to specific windows and phases.

Entry points:

* :func:`run_report` — run one serving simulation with the time-series
  and request-log sinks installed and build its report.
* ``python -m repro report`` (:func:`main`) — CLI wrapper; renders the
  report for the terminal and optionally writes the JSON artifact.
* :func:`experiment_report` — the ``--report`` hook of
  ``python -m repro.experiments`` for fig19/fig20-style runs.
"""

from __future__ import annotations

import argparse
import json
import math
from typing import Dict, List, Optional, Sequence

from .. import obs
from ..common.config import dgx_h100_config
from ..obs.metrics import Histogram
from ..obs.requests import GROUPS, PHASE_KINDS
from .fig19_resilience import fault_spec_for
from .fig20_serving import spec_for
from .runner import DEFAULT, Scale, markdown_table, style_for

#: Report JSON schema version; bump on incompatible shape changes.
#: v2: summary.shed/aborts and per-window sheds/aborts counters joined
#: with the resilient-serving subsystem (DESIGN.md §12).
REPORT_SCHEMA = 2
REPORT_KIND = "repro-report"

#: Default SLO targets, calibrated so the quick fig20 stream lands
#: strictly between 0% and 100% attainment on every system (saturated
#: arrivals: early admissions meet the target, queued tail requests
#: do not) — a non-trivial starting point rather than a vacuous one.
DEFAULT_SLO_TTFT_MS = 3.0
DEFAULT_SLO_TPOT_MS = 0.75

#: Window-resident counters surfaced per report window, in column order:
#: (report key, time-series counter name).
_WINDOW_COUNTERS = (
    ("tokens", "serving.tokens"),
    ("iterations", "serving.iterations"),
    ("completions", "serving.requests_completed"),
    ("evictions", "serving.evictions"),
    ("sheds", "serving.shed"),
    ("aborts", "serving.aborts"),
    ("retries", "faults.retries"),
)


def _quantile(values: Sequence[float], q: float) -> float:
    """Nearest-rank quantile (same convention as the serving layer)."""
    if not values:
        return math.nan
    ordered = sorted(values)
    rank = max(0, math.ceil(q * len(ordered)) - 1)
    return ordered[min(rank, len(ordered) - 1)]


def _tail(values: Sequence[float]) -> Dict[str, float]:
    """The report's standard tail summary of one latency sample."""
    if not values:
        return {"p50": math.nan, "p90": math.nan, "p95": math.nan,
                "p99": math.nan, "mean": math.nan, "max": math.nan}
    return {
        "p50": _quantile(values, 0.50),
        "p90": _quantile(values, 0.90),
        "p95": _quantile(values, 0.95),
        "p99": _quantile(values, 0.99),
        "mean": sum(values) / len(values),
        "max": max(values),
    }


def _window_rows(snapshot: Dict, makespan_ns: float) -> List[Dict]:
    """Project a time-series snapshot into the report's window series."""
    marks = snapshot["marks"]

    def labels_for(lo: float, hi: float) -> List[str]:
        out = []
        for m in marks:
            end = m["end_ns"] if m["end_ns"] is not None else makespan_ns
            if m["start_ns"] < hi and end > lo:
                out.append(m["label"])
        return out

    rows = []
    for win in snapshot["windows"]:
        counters = win.get("counters", {})
        gauges = win.get("gauges", {})
        sketches = win.get("sketches", {})
        row: Dict[str, object] = {
            "index": win["index"],
            "start_ns": win["start_ns"],
            "end_ns": win["end_ns"],
        }
        for key, name in _WINDOW_COUNTERS:
            row[key] = counters.get(name, 0.0)
        kv = gauges.get("serving.kv_bytes")
        row["kv_peak_bytes"] = kv["peak"] if kv else 0.0
        batch = gauges.get("serving.batch_requests")
        row["batch_peak"] = batch["peak"] if batch else 0.0
        ttft = sketches.get("serving.ttft_ns")
        row["ttft_p95_ns"] = (Histogram.from_state(ttft).quantile(0.95)
                              if ttft else None)
        row["faults"] = labels_for(win["start_ns"], win["end_ns"])
        rows.append(row)
    return rows


def build_report(serving, *, slo_ttft_ms: float = DEFAULT_SLO_TTFT_MS,
                 slo_tpot_ms: float = DEFAULT_SLO_TPOT_MS,
                 worst_n: int = 5,
                 extra_run: Optional[Dict[str, object]] = None) -> Dict:
    """Build the report dict for one :class:`ServingResult`.

    The result's :class:`RunResult` carries the time-series sink and
    request log when they were installed for the run; either may be
    absent, in which case the corresponding sections are empty.
    """
    run = serving.run
    makespan = run.makespan_ns
    stats = serving.stats
    ttfts = [s.ttft_ns for s in stats]
    tpots = [s.tpot_ns for s in stats if s.output_len > 1]
    e2es = [s.e2e_ns for s in stats]

    slo_ttft_ns = slo_ttft_ms * 1e6
    slo_tpot_ns = slo_tpot_ms * 1e6

    def meets_slo(s) -> bool:
        return (s.ttft_ns <= slo_ttft_ns
                and (s.output_len <= 1 or s.tpot_ns <= slo_tpot_ns))

    good = [s for s in stats if meets_slo(s)]
    ttft_ok = sum(1 for s in stats if s.ttft_ns <= slo_ttft_ns)
    tpot_eligible = [s for s in stats if s.output_len > 1]
    tpot_ok = sum(1 for s in tpot_eligible if s.tpot_ns <= slo_tpot_ns)
    n = len(stats)

    report: Dict[str, object] = {
        "schema": REPORT_SCHEMA,
        "kind": REPORT_KIND,
        "run": dict(extra_run or {}),
        "summary": {
            "requests": n,
            "tokens": serving.total_output_tokens,
            "iterations": serving.iterations,
            "evictions": serving.evictions,
            "shed": len(serving.shed),
            "aborts": serving.aborts,
            "kv_peak_bytes": serving.peak_kv_bytes,
            "makespan_ns": makespan,
            "tokens_per_s": serving.tokens_per_s,
            "ttft_ns": _tail(ttfts),
            "tpot_ns": _tail(tpots),
            "e2e_ns": _tail(e2es),
        },
        "slo": {
            "ttft_ms": slo_ttft_ms,
            "tpot_ms": slo_tpot_ms,
            "ttft_attainment": ttft_ok / n if n else 0.0,
            "tpot_attainment": (tpot_ok / len(tpot_eligible)
                                if tpot_eligible else 1.0),
            "attainment": len(good) / n if n else 0.0,
            "goodput_tokens_per_s":
                (sum(s.output_len for s in good) / makespan * 1e9
                 if makespan > 0 else 0.0),
        },
    }

    # Engine health: event count, host-side throughput (wall-clock, so
    # volatile — excluded from `repro diff`'s tracked keys), and the
    # fast-path layer counters (deterministic, from run details).
    eps = None
    if run.network is not None and hasattr(run.network, "sim"):
        eps = run.network.sim.events_per_wall_second()
    report["engine"] = {
        "events": run.events,
        "events_per_wall_second": eps,
        "fastpath": {k[len("fastpath."):]: v
                     for k, v in run.details.items()
                     if k.startswith("fastpath.")},
    }

    ts = run.timeseries
    if ts is not None:
        snapshot = ts.snapshot(makespan)
        report["window_ns"] = snapshot["window_ns"]
        report["windows"] = _window_rows(snapshot, makespan)
        report["fault_windows"] = snapshot["marks"]
    else:
        report["window_ns"] = None
        report["windows"] = []
        report["fault_windows"] = []

    reqlog = run.request_log
    if reqlog is not None:
        records = reqlog.records()
        totals = {k: sum(r.phase_total_ns(k) for r in records)
                  for k in PHASE_KINDS}
        cats = {g: sum(r.category_total_ns(g) for r in records)
                for g in GROUPS}
        by_rid = {s.rid: s for s in stats}
        worst = sorted(records, key=lambda r: (-r.e2e_ns, r.rid))[:worst_n]
        report["phases"] = {"totals_ns": totals, "categories_ns": cats}
        report["worst_requests"] = [{
            "rid": r.rid,
            "arrival_ns": r.arrival_ns,
            "e2e_ns": r.e2e_ns,
            "ttft_ns": by_rid[r.rid].ttft_ns if r.rid in by_rid else None,
            "evictions": r.evictions,
            "queue_ns": r.phase_total_ns("queue"),
            "prefill_ns": r.phase_total_ns("prefill"),
            "decode_ns": r.phase_total_ns("decode"),
            "categories_ns": {g: r.category_total_ns(g) for g in GROUPS},
        } for r in worst]
    else:
        report["phases"] = {"totals_ns": {}, "categories_ns": {}}
        report["worst_requests"] = []
    return report


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

_TAIL_KEYS = ("p50", "p90", "p95", "p99", "mean", "max")


def validate_report(report: Dict) -> None:
    """Structural check of a report dict; raises ``ValueError`` on the
    first violation (the CI schema gate and ``repro diff`` both call
    this before trusting a file)."""
    def need(obj, key, types, where):
        if key not in obj:
            raise ValueError(f"report: missing {where}.{key}")
        if types is not None and not isinstance(obj[key], types):
            raise ValueError(
                f"report: {where}.{key} has type "
                f"{type(obj[key]).__name__}, expected "
                f"{'/'.join(t.__name__ for t in types)}")
        return obj[key]

    if not isinstance(report, dict):
        raise ValueError("report: not a JSON object")
    if report.get("kind") != REPORT_KIND:
        raise ValueError(f"report: kind is {report.get('kind')!r}, "
                         f"expected {REPORT_KIND!r}")
    if report.get("schema") != REPORT_SCHEMA:
        raise ValueError(f"report: schema {report.get('schema')!r} "
                         f"!= supported {REPORT_SCHEMA}")
    need(report, "run", (dict,), "")
    summary = need(report, "summary", (dict,), "")
    for key in ("requests", "tokens", "iterations", "evictions",
                "shed", "aborts"):
        need(summary, key, (int,), "summary")
    for key in ("makespan_ns", "tokens_per_s"):
        need(summary, key, (int, float), "summary")
    for key in ("ttft_ns", "tpot_ns", "e2e_ns"):
        tail = need(summary, key, (dict,), "summary")
        for t in _TAIL_KEYS:
            need(tail, t, (int, float), f"summary.{key}")
    slo = need(report, "slo", (dict,), "")
    for key in ("ttft_ms", "tpot_ms", "ttft_attainment",
                "tpot_attainment", "attainment", "goodput_tokens_per_s"):
        need(slo, key, (int, float), "slo")
    windows = need(report, "windows", (list,), "")
    for i, win in enumerate(windows):
        if not isinstance(win, dict):
            raise ValueError(f"report: windows[{i}] is not an object")
        for key in ("index", "start_ns", "end_ns", "tokens",
                    "completions", "evictions", "sheds", "aborts",
                    "retries"):
            need(win, key, (int, float), f"windows[{i}]")
        need(win, "faults", (list,), f"windows[{i}]")
    for i, mark in enumerate(need(report, "fault_windows", (list,), "")):
        need(mark, "start_ns", (int, float), f"fault_windows[{i}]")
        need(mark, "label", (str,), f"fault_windows[{i}]")
    phases = need(report, "phases", (dict,), "")
    need(phases, "totals_ns", (dict,), "phases")
    need(phases, "categories_ns", (dict,), "phases")
    need(report, "worst_requests", (list,), "")


# ---------------------------------------------------------------------------
# Rendering / serialization
# ---------------------------------------------------------------------------

def report_to_json(report: Dict) -> str:
    """Canonical byte-stable serialization (sorted keys, no whitespace).

    Host-wall-clock quantities are volatile (they change run to run even
    when the simulation is byte-identical), so — like volatile gauges in
    ``MetricsRegistry.snapshot`` — they are stripped from the serialized
    form and live only in the terminal rendering.
    """
    if "engine" in report:
        engine = dict(report["engine"])
        engine.pop("events_per_wall_second", None)
        report = dict(report, engine=engine)
    return json.dumps(report, sort_keys=True, separators=(",", ":"))


def write_report(report: Dict, path: str) -> None:
    validate_report(report)
    with open(path, "w") as fh:
        fh.write(report_to_json(report) + "\n")


def load_report(path: str) -> Dict:
    with open(path) as fh:
        report = json.load(fh)
    validate_report(report)
    return report


def _ms(ns: Optional[float]) -> object:
    if ns is None or (isinstance(ns, float) and math.isnan(ns)):
        return "-"
    return ns / 1e6


def format_report(report: Dict, max_window_rows: int = 40) -> str:
    """Deterministic terminal rendering of one report."""
    run = report["run"]
    summary = report["summary"]
    slo = report["slo"]
    title = " ".join(str(run[k]) for k in ("system", "model")
                     if k in run) or "serving run"
    hiccups = f"{summary['evictions']} evictions"
    if summary.get("shed"):
        hiccups += f", {summary['shed']} shed"
    if summary.get("aborts"):
        hiccups += f", {summary['aborts']} aborts"
    head = [f"### repro run report — {title} "
            f"(seed {run.get('seed', '?')}"
            + (f", fault intensity {run['fault_intensity']:g}"
               if run.get("fault_intensity") else "") + ")",
            "",
            f"{summary['requests']} requests, {summary['tokens']} tokens "
            f"in {summary['iterations']} iterations "
            f"({hiccups}) over "
            f"{summary['makespan_ns'] / 1e6:.2f} ms — "
            f"{summary['tokens_per_s']:,.0f} tokens/s",
            f"SLO (TTFT <= {slo['ttft_ms']:g} ms, TPOT <= "
            f"{slo['tpot_ms']:g} ms): TTFT {slo['ttft_attainment']:.1%}, "
            f"TPOT {slo['tpot_attainment']:.1%}, joint "
            f"{slo['attainment']:.1%}, goodput "
            f"{slo['goodput_tokens_per_s']:,.0f} tokens/s"]
    engine = report.get("engine") or {}
    if engine:
        line = f"engine: {engine['events']:,} events"
        eps = engine.get("events_per_wall_second")
        if eps:
            line += f" ({eps:,.0f}/s host)"
        fp = engine.get("fastpath") or {}
        if fp.get("events_elided"):
            line += f", fast-path elided {int(fp['events_elided']):,}"
        head.append(line)
    tails = markdown_table(
        ["metric (ms)"] + list(_TAIL_KEYS),
        [[name] + [_ms(summary[key][t]) for t in _TAIL_KEYS]
         for name, key in (("TTFT", "ttft_ns"), ("TPOT", "tpot_ns"),
                           ("E2E", "e2e_ns"))])
    blocks = ["\n".join(head), "#### Latency tails\n" + tails]

    totals = report["phases"]["totals_ns"]
    cats = report["phases"]["categories_ns"]
    if totals:
        blocks.append(
            "#### Phase time (ms, summed over requests)\n" +
            markdown_table(
                list(PHASE_KINDS) + [f"cat:{g}" for g in GROUPS],
                [[_ms(totals.get(k, 0.0)) for k in PHASE_KINDS] +
                 [_ms(cats.get(g, 0.0)) for g in GROUPS]]))

    windows = report["windows"]
    if windows:
        active = [w for w in windows
                  if w["tokens"] or w["completions"] or w["evictions"]
                  or w["retries"] or w["faults"]]
        shown = active[:max_window_rows]
        rows = [[int(w["index"]),
                 f"{w['start_ns'] / 1e3:.0f}",
                 int(w["tokens"]), int(w["completions"]),
                 int(w["evictions"]), int(w["retries"]),
                 f"{w['kv_peak_bytes'] / 1e6:.1f}",
                 int(w["batch_peak"]),
                 _ms(w["ttft_p95_ns"]),
                 ",".join(w["faults"]) if w["faults"] else ""]
                for w in shown]
        note = (f" ({len(active)} active of {len(windows)}; "
                f"first {len(shown)} shown)"
                if len(active) > len(shown)
                else f" ({len(active)} active of {len(windows)})")
        blocks.append(
            f"#### Windows — {report['window_ns'] / 1e3:.0f} us each"
            + note + "\n" +
            markdown_table(["w", "t (us)", "tok", "done", "evict", "retry",
                            "kv MB", "batch", "ttft p95 (ms)", "faults"],
                           rows))

    worst = report["worst_requests"]
    if worst:
        rows = []
        for r in worst:
            top = max(GROUPS, key=lambda g: r["categories_ns"].get(g, 0.0))
            rows.append([r["rid"], _ms(r["e2e_ns"]), _ms(r["ttft_ns"]),
                         _ms(r["queue_ns"]), _ms(r["prefill_ns"]),
                         _ms(r["decode_ns"]), r["evictions"], top])
        blocks.append(
            "#### Worst requests (by E2E)\n" +
            markdown_table(["rid", "e2e", "ttft", "queue", "prefill",
                            "decode", "evict", "top category"], rows))
    return "\n\n".join(blocks)


# ---------------------------------------------------------------------------
# Running
# ---------------------------------------------------------------------------

def run_report(system: str = "CAIS", scale: Scale = DEFAULT,
               seed: int = 2026, fault_intensity: float = 0.0,
               fault_seed: int = 0, window_ns: float = 100_000.0,
               slo_ttft_ms: float = DEFAULT_SLO_TTFT_MS,
               slo_tpot_ms: float = DEFAULT_SLO_TPOT_MS,
               worst_n: int = 5, admission_policy: str = "none",
               retry_budget: Optional[int] = None) -> Dict:
    """Run one serving simulation with reporting sinks and build its report.

    Uses the fig20 request stream; a positive ``fault_intensity`` applies
    the fig19 fault schedule on top (the "faulted fig19-style serving
    run").  ``admission_policy`` / ``retry_budget`` arm the resilient
    serving mechanisms (DESIGN.md §12) with the report's TTFT target as
    the admission SLO.  The previously-installed sinks are restored
    afterwards, so this can run inside the experiments CLI without
    clobbering its metrics registry.
    """
    from dataclasses import replace as dc_replace

    from ..llm.serving import simulate_serving
    from ..systems import make_system

    cfg = dgx_h100_config(seed=seed)
    if fault_intensity > 0.0:
        cfg = cfg.with_faults(fault_spec_for(fault_intensity, fault_seed))
    spec = spec_for(scale, seed)
    if admission_policy != "none" or retry_budget is not None:
        spec = dc_replace(spec, admission_policy=admission_policy,
                          slo_ttft_ms=slo_ttft_ms,
                          retry_budget=retry_budget)
    with obs.installed(timeseries=obs.TimeSeriesSink(window_ns=window_ns),
                       request_log=obs.RequestLog(),
                       causality=obs.CausalityRecorder()):
        instance = make_system(system, cfg, tiling=scale.tiling,
                               chunk_bytes=scale.coll_chunk_bytes)
        serving = simulate_serving(instance, spec,
                                   style=style_for(system))
    return build_report(
        serving, slo_ttft_ms=slo_ttft_ms, slo_tpot_ms=slo_tpot_ms,
        worst_n=worst_n,
        extra_run={"system": system, "model": spec.model, "seed": seed,
                   "scale": scale.tokens_fraction,
                   "fault_intensity": fault_intensity,
                   "fault_seed": fault_seed,
                   "workload": "serving"})


def experiment_report(experiment: str, scale: Scale, ctx=None) -> Dict:
    """The ``--report`` artifact for an experiments-CLI invocation.

    ``fig20_serving`` emits the fault-free serving report; ``fig19`` the
    faulted one (intensity 1.0, the sweep's peak, honoring an ambient
    ``--fault-seed``); ``fig21`` the faulted run with fig21's resilience
    mechanisms armed (shed admission, retry budget); ``fig22`` drills
    into the fleet's replica-0 stream at peak load.
    """
    fault_seed = (ctx.fault_spec.fault_seed
                  if ctx is not None and ctx.fault_spec is not None else 0)
    if experiment == "fig20_serving":
        return run_report(scale=scale)
    if experiment == "fig19":
        return run_report(scale=scale, fault_intensity=1.0,
                          fault_seed=fault_seed)
    if experiment == "fig21":
        from .fig21_faulted_serving import RETRY_BUDGET, SLO_TTFT_MS
        return run_report(scale=scale, fault_intensity=1.0,
                          fault_seed=fault_seed,
                          slo_ttft_ms=SLO_TTFT_MS,
                          admission_policy="shed",
                          retry_budget=RETRY_BUDGET)
    if experiment == "fig22":
        from .fig22_fleet import replica_zero_report
        return replica_zero_report(scale=scale)
    raise ValueError(
        f"--report supports fig19, fig20_serving, fig21 and fig22, "
        f"not {experiment!r}")


def main(argv=None) -> int:
    """``python -m repro report`` — run-and-render or render-from-file."""
    parser = argparse.ArgumentParser(
        prog="python -m repro report",
        description="SLO run report for the continuous-batching serving "
                    "workload (run one simulation, or render an existing "
                    "report JSON)")
    parser.add_argument("--from", dest="from_path", metavar="PATH",
                        default=None,
                        help="render an existing report JSON instead of "
                             "running a simulation")
    parser.add_argument("--system", default="CAIS")
    parser.add_argument("--scale", type=float, default=0.125,
                        help="tokens fraction (default: %(default)s)")
    parser.add_argument("--seed", type=int, default=2026)
    parser.add_argument("--faults", action="store_true",
                        help="inject the fig19 fault schedule")
    parser.add_argument("--fault-intensity", type=float, default=1.0,
                        metavar="X")
    parser.add_argument("--fault-seed", type=int, default=0, metavar="S")
    parser.add_argument("--window-us", type=float, default=100.0,
                        help="time-series window (default: %(default)s)")
    parser.add_argument("--slo-ttft-ms", type=float,
                        default=DEFAULT_SLO_TTFT_MS)
    parser.add_argument("--slo-tpot-ms", type=float,
                        default=DEFAULT_SLO_TPOT_MS)
    parser.add_argument("--admission", default="none",
                        choices=("none", "shed", "defer"),
                        help="SLO-aware admission policy (gates on the "
                             "--slo-ttft-ms target; default: %(default)s)")
    parser.add_argument("--retry-budget", type=int, default=None,
                        metavar="N",
                        help="per-request retransmit budget before abort "
                             "+ re-prefill (default: unbounded)")
    parser.add_argument("--worst", type=int, default=5, metavar="N",
                        help="worst-request rows (default: %(default)s)")
    parser.add_argument("--json", metavar="PATH", default=None,
                        help="also write the report JSON artifact")
    args = parser.parse_args(argv)

    if args.from_path:
        report = load_report(args.from_path)
    else:
        report = run_report(
            system=args.system,
            scale=Scale(tokens_fraction=args.scale),
            seed=args.seed,
            fault_intensity=(args.fault_intensity if args.faults else 0.0),
            fault_seed=args.fault_seed,
            window_ns=args.window_us * 1e3,
            slo_ttft_ms=args.slo_ttft_ms,
            slo_tpot_ms=args.slo_tpot_ms,
            worst_n=args.worst,
            admission_policy=args.admission,
            retry_budget=args.retry_budget)
    print(format_report(report))
    if args.json:
        write_report(report, args.json)
        print(f"\nreport: {args.json}")
    return 0


if __name__ == "__main__":   # pragma: no cover - manual entry point
    import sys
    sys.exit(main())
