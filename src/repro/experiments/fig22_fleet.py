"""Fig. 22 — fleet serving: goodput and SLO attainment vs offered load.

Not a figure from the paper: the paper evaluates one TP group at a time.
This experiment serves the fig20 request distribution through a *fleet*
of TP replicas behind the deterministic router of
:mod:`repro.llm.fleet`, sweeping offered load (as a fraction of the
stream's superset arrival rate) and comparing CAIS against the NVLS and
CoCoNet baselines on fleet goodput, SLO attainment, and shed rate.  One
extra row runs CAIS with disaggregated prefill/decode pools, where the
KV handoff between pools is charged as explicit fabric traffic.

Each replica is one independent simulation (``SimTask.replica``), fanned
out through :func:`repro.experiments.parallel.run_matrix` — cacheable per
replica and byte-identical across ``--jobs`` settings, because the
router's plan is a pure function of the :class:`FleetSpec` and the merge
is in task order.  The CI fleet-determinism job diffs exactly this
output.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Optional, Sequence, Tuple

from ..common.config import dgx_h100_config
from ..llm.fleet import (
    FleetResult,
    FleetSpec,
    ReplicaOutcome,
    ReplicaSpec,
    aggregate_fleet,
    decode_request_stats,
    plan_decode,
    plan_fleet,
)
from .fig20_serving import spec_for
from .parallel import ExecContext, RunSummary, SimTask, run_matrix
from .runner import DEFAULT, Scale, markdown_table

#: CAIS against the strongest barrier (NVLS) baselines and CoCoNet; the
#: FuseLib column adds nothing at fleet granularity (it tracks CoCoNet).
SYSTEMS = ("TP-NVLS", "SP-NVLS", "CoCoNet", "CAIS")

#: Offered load as a fraction of the stream's superset arrival rate
#: (1.0 = every candidate arrival; the thinned-Poisson generator makes
#: higher loads strict supersets of lower ones).
LOADS = (0.25, 0.5, 1.0)

#: Fleet-wide TTFT SLO driving both the shed admission gate on every
#: replica and the attainment/goodput columns.
SLO_TTFT_MS = 3.0

REPLICAS = 4


def fleet_spec_for(scale: Scale, load: float, seed: int = 2026, *,
                   replicas: int = REPLICAS,
                   policy: str = "round-robin",
                   prefill_replicas: int = 0) -> FleetSpec:
    """The experiment's fleet workload at one scale and offered load.

    The per-replica serving knobs are fig20's, with SLO-aware shed
    admission armed fleet-wide (PR 8's controller, running independently
    on every replica) so overload shows up as shed requests instead of
    an unbounded queue."""
    base = spec_for(scale, seed)
    serving = replace(base,
                      arrival_rate_rps=base.max_arrival_rate_rps * load,
                      admission_policy="shed",
                      slo_ttft_ms=SLO_TTFT_MS)
    return FleetSpec(serving=serving, replicas=replicas, policy=policy,
                     prefill_replicas=prefill_replicas)


def _outcome(rs: ReplicaSpec, summary: RunSummary) -> ReplicaOutcome:
    return ReplicaOutcome(
        role=rs.role, index=rs.index, makespan_ns=summary.makespan_ns,
        details=dict(summary.details),
        stats=decode_request_stats(summary.request_stats or ()))


def run_fleet(system: str, fleet: FleetSpec, *,
              config=None, scale: Scale = DEFAULT, model=None,
              ctx: Optional[ExecContext] = None,
              kwargs: Sequence[Tuple[str, object]] = ()) -> FleetResult:
    """Execute one fleet run: plan, fan replicas out, aggregate.

    Disaggregated fleets run two matrix waves — the prefill pool first,
    then the decode pool on the handoff-delayed warm stream the prefill
    outcomes imply.  The epoch-batched router makes both plans pure
    functions of the spec and stage-1 results, so the whole run is
    deterministic regardless of worker count."""
    plan = plan_fleet(fleet, model=model)
    cfg = config if config is not None else dgx_h100_config()

    def tasks_for(specs: Sequence[ReplicaSpec]) -> List[SimTask]:
        return [SimTask(system=system, graphs=(), config=cfg, scale=scale,
                        kwargs=tuple(kwargs), replica=rs) for rs in specs]

    outcomes = [_outcome(rs, summary) for rs, summary in
                zip(plan.stage1, run_matrix(tasks_for(plan.stage1), ctx))]
    if fleet.disaggregated:
        prefill_stats = [s for o in outcomes for s in o.stats]
        stage2 = plan_decode(plan, prefill_stats)
        outcomes += [_outcome(rs, summary) for rs, summary in
                     zip(stage2, run_matrix(tasks_for(stage2), ctx))]
    return aggregate_fleet(plan, outcomes)


def run(scale: Scale = DEFAULT, seed: int = 2026,
        systems: Sequence[str] = SYSTEMS,
        loads: Sequence[float] = LOADS,
        ctx: Optional[ExecContext] = None) -> Dict[str, Dict[str, float]]:
    """Returns {row label: fleet details} over shared request streams.

    Rows are ``{system} @{load}`` for the combined-replica sweep, plus a
    ``{system} disagg @{load}`` row for CAIS at peak load with a 2+2
    prefill/decode split."""
    out: Dict[str, Dict[str, float]] = {}
    for system in systems:
        for load in loads:
            fleet = fleet_spec_for(scale, load, seed)
            result = run_fleet(system, fleet, scale=scale, ctx=ctx)
            out[f"{system} @{load:.2f}"] = result.details()
    disagg = fleet_spec_for(scale, max(loads), seed, prefill_replicas=2)
    result = run_fleet("CAIS", disagg, scale=scale, ctx=ctx)
    out[f"CAIS disagg @{max(loads):.2f}"] = result.details()
    return out


def format_table(results: Dict[str, Dict[str, float]]) -> str:
    rows = []
    for label, cell in results.items():
        rows.append([
            label,
            cell.get("fleet.goodput_tokens_per_s", 0.0),
            f"{cell.get('fleet.slo_attainment', 0.0):.1%}",
            cell["fleet.tokens_per_s"],
            cell["fleet.ttft_p95_ns"] / 1e6,
            int(cell["fleet.offered"]),
            int(cell["fleet.shed"]),
            f"{cell['fleet.handoff_bytes'] / 1e6:.1f}",
        ])
    head = (f"### Fig. 22: fleet serving — {REPLICAS} replicas, "
            f"TTFT SLO {SLO_TTFT_MS:g} ms, shed admission\n" +
            markdown_table(
                ["fleet @load", "goodput tok/s", "SLO att.", "tokens/s",
                 "TTFT p95 (ms)", "offered", "shed", "handoff MB"],
                rows))
    peak = f"@{max(LOADS):.2f}"
    cais = results.get(f"CAIS {peak}", {}).get(
        "fleet.goodput_tokens_per_s", 0.0)
    others = {label: cell.get("fleet.goodput_tokens_per_s", 0.0)
              for label, cell in results.items()
              if label.endswith(peak) and not label.startswith("CAIS")}
    if cais > 0 and others and max(others.values()) > 0:
        best = max(others.values())
        tail = (f"\n\nAt peak load CAIS sustains {cais:,.0f} good "
                f"tokens/s — {cais / best:.2f}x the best baseline fleet "
                f"({max(others, key=others.get).split(' @')[0]}).")
    else:
        tail = ""
    return head + tail


def format_fleet_summary(result: FleetResult) -> str:
    """Terminal summary for ``python -m repro --workload fleet``."""
    fleet = result.fleet
    pools = (f"{fleet.prefill_replicas} prefill + "
             f"{fleet.decode_replicas} decode"
             if fleet.disaggregated else f"{fleet.replicas} replicas")
    lines = [f"fleet: {pools}, policy {fleet.policy}, "
             f"{result.offered} offered -> {len(result.stats)} finished, "
             f"{len(result.shed)} shed -> "
             f"{result.tokens_per_s:,.0f} tokens/s, "
             f"TTFT p95 {result.ttft_quantile_ns(0.95) / 1e6:.2f} ms"]
    if fleet.serving.slo_ttft_ms is not None:
        slo_ns = fleet.serving.slo_ttft_ms * 1e6
        lines.append(
            f"SLO (TTFT <= {fleet.serving.slo_ttft_ms:g} ms): "
            f"{result.slo_attainment(slo_ns):.1%} attainment, goodput "
            f"{result.goodput_tokens_per_s(slo_ns):,.0f} tokens/s")
    if fleet.disaggregated:
        lines.append(
            f"handoff: {len([s for s in result.stats if s.handoff_bytes])}"
            f" transfers, {result.handoff_bytes / 1e6:.1f} MB, "
            f"{result.handoff_ns_total / 1e6:.2f} ms total fabric time")
    per = ["  {role}[{idx}]: {reqs} reqs, {tok} tokens, "
           "{it} iters, kv peak {kv:.1f} MB".format(
               role=row["role"], idx=int(row["index"]),
               reqs=int(row["requests"]), tok=int(row["tokens"]),
               it=int(row["iterations"]),
               kv=row["kv_peak_bytes"] / 1e6)
           for row in result.per_replica]
    return "\n".join(lines + per)


def replica_zero_report(system: str = "CAIS", scale: Scale = DEFAULT,
                        seed: int = 2026,
                        window_ns: float = 100_000.0) -> Dict:
    """The ``--report`` artifact for fig22: replica 0's run under sinks.

    Reports are per-simulation (the sinks instrument one engine), so the
    fleet's report drills into its first replica's stream at peak load —
    the same requests that replica serves inside the full fig22 run, by
    the determinism of the router plan."""
    from .. import obs
    from ..llm.serving import simulate_serving
    from ..systems import make_system
    from .report import build_report
    from .runner import style_for

    fleet = fleet_spec_for(scale, max(LOADS), seed)
    plan = plan_fleet(fleet)
    rs = plan.stage1[0]
    cfg = dgx_h100_config(seed=seed)
    with obs.installed(timeseries=obs.TimeSeriesSink(window_ns=window_ns),
                       request_log=obs.RequestLog(),
                       causality=obs.CausalityRecorder()):
        instance = make_system(system, cfg, tiling=scale.tiling,
                               chunk_bytes=scale.coll_chunk_bytes)
        serving = simulate_serving(instance, rs.spec,
                                   style=style_for(system),
                                   requests=rs.to_requests())
    return build_report(
        serving, slo_ttft_ms=SLO_TTFT_MS,
        extra_run={"system": system, "model": fleet.serving.model,
                   "seed": seed, "scale": scale.tokens_fraction,
                   "workload": "fleet", "role": rs.role,
                   "replica": rs.index, "replicas": fleet.replicas,
                   "policy": fleet.policy})


if __name__ == "__main__":   # pragma: no cover - manual entry point
    print(format_table(run()))
