"""Fast-path equivalence: every layer reproduces the reference run.

DESIGN.md §11 states the equivalence contract per layer:

* ``calendar_queue``   — byte-identical (provably; property-tested in
  ``tests/properties/test_scheduler_equivalence.py``);
* ``link_windows``     — identical physics (per-chunk timestamps exact),
  only event counts and same-instant interleaving differ;
* ``analytic_collectives`` — exact-float makespans (the bypass replays a
  calibrated signature only after it validated to exact equality);
* ``analytic_kernels`` — bit-exact replication of the event path,
  including every RNG draw and busy-integral float.

These tests run real system workloads (scaled) with each layer toggled
and require the outputs to match the all-off reference to exact float
equality.  CAIS runs compare their whole physics: the canonical
``RunSummary.to_dict()`` minus ``events`` and the ``fastpath.*`` details.
Baseline runs compare four observables (makespan, total compute, TB
counts, GPU utilization), because the link-windows layer still changes
other physics of some ring, NVLS and T3 cells.  The kernel layer's conflict counter is pinned to zero on
graphs with parallel branches (training backward), guarding the
isolated-launch soloness analysis in ``BarrierRunner.run_graph``.
"""

import dataclasses
import json

import pytest

from repro.common import fastpath
from repro.common.config import dgx_h100_config
from repro.experiments.parallel import RunSummary
from repro.experiments.runner import layer_graphs
from repro.llm.models import LLAMA_7B
from repro.llm.tiling import TilingConfig
from repro.llm.tp import sublayer_graph
from repro.systems import make_system

SCALE = 0.125
TILING = TilingConfig(chunk_bytes=32768, red_chunk_bytes=8192)
SYSTEMS = ("TP-NVLS", "CAIS", "CoCoNet", "T3")

#: One config per layer with only that layer enabled, plus all-on.
LAYER_CONFIGS = {
    "calendar_queue": fastpath.FastPathConfig(
        calendar_queue=True, link_windows=False,
        analytic_collectives=False, analytic_kernels=False),
    "link_windows": fastpath.FastPathConfig(
        calendar_queue=False, link_windows=True,
        analytic_collectives=False, analytic_kernels=False),
    "analytic_collectives": fastpath.FastPathConfig(
        calendar_queue=False, link_windows=False,
        analytic_collectives=True, analytic_kernels=False),
    "analytic_kernels": fastpath.FastPathConfig(
        calendar_queue=False, link_windows=False,
        analytic_collectives=False, analytic_kernels=True),
    "all": fastpath.FastPathConfig(),
}


def _observables(res):
    return (res.makespan_ns, res.compute_ns, res.tbs_completed,
            res.gpu_utilization)


def _physics(res):
    """Canonical whole-run physics: the summary without ``events`` and the
    ``fastpath.*`` details, the only fields a fast-path layer may change."""
    out = RunSummary.from_result(res).to_dict()
    del out["events"]
    out["details"] = [kv for kv in out["details"]
                      if not kv[0].startswith("fastpath.")]
    return json.dumps(out, sort_keys=True)


def _compared(system, res):
    return _physics(res) if system == "CAIS" else _observables(res)


def _run(system, graphs, cfg=None):
    cfg = cfg or dgx_h100_config()
    return make_system(system, cfg, tiling=TILING).run(list(graphs))


@pytest.fixture(scope="module")
def layer_workload():
    model = LLAMA_7B.scaled(SCALE)
    cfg = dgx_h100_config()
    return model, cfg


@pytest.fixture(scope="module")
def references(layer_workload):
    """All-off reference outputs per (system, training)."""
    model, cfg = layer_workload
    out = {}
    with fastpath.overridden(fastpath.DISABLED):
        for system in SYSTEMS:
            for training in (False, True):
                graphs = layer_graphs(model, cfg.num_gpus, system,
                                      training=training)
                out[system, training] = _compared(
                    system, _run(system, graphs, cfg))
    return out


@pytest.mark.parametrize("layer", sorted(LAYER_CONFIGS))
@pytest.mark.parametrize("training", (False, True),
                         ids=("inference", "training"))
@pytest.mark.parametrize("system", SYSTEMS)
def test_layer_preserves_observables(references, layer_workload,
                                     system, training, layer):
    model, cfg = layer_workload
    graphs = layer_graphs(model, cfg.num_gpus, system, training=training)
    with fastpath.overridden(LAYER_CONFIGS[layer]):
        res = _run(system, graphs, cfg)
    assert _compared(system, res) == references[system, training]
    # The kernel mini-sim must never have fired into a non-isolated
    # frame: a nonzero conflict count means the soloness analysis let a
    # concurrent launch through (training graphs run dgrad+wgrad branches
    # in one event frame — the exact case the counter guards).
    assert res.details.get("fastpath.kernel_conflicts", 0.0) == 0.0


def test_kernel_fastpath_engages_and_elides_events(layer_workload):
    """The analytic kernel layer must actually fire on barrier-style
    runs (TP-NVLS layer graphs are chains of isolated kernels) and
    report the events it skipped."""
    model, cfg = layer_workload
    graphs = layer_graphs(model, cfg.num_gpus, "TP-NVLS", training=False)
    with fastpath.overridden(fastpath.DISABLED):
        ref = _run("TP-NVLS", graphs, cfg)
    with fastpath.overridden(LAYER_CONFIGS["analytic_kernels"]):
        fast = _run("TP-NVLS", graphs, cfg)
    assert fast.details.get("fastpath.kernel_launches", 0.0) > 0
    assert fast.details.get("fastpath.events_elided", 0.0) > 0
    assert fast.events < ref.events
    assert fast.makespan_ns == ref.makespan_ns


def test_kernel_fastpath_exact_with_jitter(layer_workload):
    """Jitter draws are replicated in the exact event-path order, so the
    mini-sim stays bit-exact with jitter enabled and a nonzero seed."""
    model, _ = layer_workload
    cfg = dgx_h100_config(seed=7)
    jcfg = dataclasses.replace(
        cfg, jitter=dataclasses.replace(cfg.jitter, tb_jitter=0.02))
    graphs = layer_graphs(model, jcfg.num_gpus, "TP-NVLS", training=True)
    with fastpath.overridden(fastpath.DISABLED):
        ref = _run("TP-NVLS", graphs, jcfg)
    with fastpath.overridden(LAYER_CONFIGS["analytic_kernels"]):
        fast = _run("TP-NVLS", graphs, jcfg)
    assert fast.details.get("fastpath.kernel_launches", 0.0) > 0
    assert _observables(fast) == _observables(ref)


@pytest.mark.parametrize("layer", sorted(LAYER_CONFIGS))
def test_serving_run_preserves_observables(layer):
    """fig20-style continuous-batching serving: per-layer equivalence
    of the whole request stream (TTFTs, makespan, token totals)."""
    from repro.llm.models import ModelConfig
    from repro.llm.serving import ServingSpec, simulate_serving

    tiny = ModelConfig(name="tiny", hidden=256, ffn_hidden=512, heads=8,
                       seq_len=64, batch=4, layers=4)
    spec = ServingSpec(model="tiny", seed=7, arrival_rate_rps=100_000.0,
                       horizon_ms=0.05, prompt_min=8, prompt_max=24,
                       output_min=1, output_max=3, max_batch_requests=4)

    def serve():
        cfg = dgx_h100_config(num_gpus=4, seed=1)
        system = make_system("TP-NVLS", cfg, tiling=TILING)
        return simulate_serving(system, spec, model=tiny, style="basic")

    with fastpath.overridden(fastpath.DISABLED):
        ref = serve()
    with fastpath.overridden(LAYER_CONFIGS[layer]):
        fast = serve()
    assert fast.run.makespan_ns == ref.run.makespan_ns
    assert fast.total_output_tokens == ref.total_output_tokens
    assert fast.iterations == ref.iterations
    assert ([s.ttft_ns for s in fast.stats]
            == [s.ttft_ns for s in ref.stats])


@pytest.mark.parametrize("layer", sorted(LAYER_CONFIGS))
def test_faulted_run_preserves_observables(layer_workload, layer):
    """fig19-style faulted runs: fault windows make links/executors
    ineligible for the fast path, and whatever remains eligible must
    still reproduce the reference exactly (retries included)."""
    from repro.common.config import FaultSpec

    model, _ = layer_workload
    cfg = dgx_h100_config().with_faults(
        FaultSpec(enabled=True, intensity=1.0, fault_seed=3))
    graphs = layer_graphs(model, cfg.num_gpus, "TP-NVLS", training=False)
    with fastpath.overridden(fastpath.DISABLED):
        ref = _run("TP-NVLS", graphs, cfg)
    with fastpath.overridden(LAYER_CONFIGS[layer]):
        fast = _run("TP-NVLS", graphs, cfg)
    assert _observables(fast) == _observables(ref)
    assert fast.details.get("fastpath.kernel_conflicts", 0.0) == 0.0


@pytest.mark.parametrize("layer", sorted(LAYER_CONFIGS))
def test_faulted_serving_run_preserves_observables(layer):
    """fig21-style faulted serving: the whole resilience stack — drop
    storms with retransmission, retry-budget aborts, SLO-aware shedding
    — must be invisible to the fast path: every per-request stat and
    every non-fastpath detail is exact-float-equal with --no-fastpath."""
    from repro.common.config import FaultSpec
    from repro.llm.models import ModelConfig
    from repro.llm.serving import ServingSpec, simulate_serving

    tiny = ModelConfig(name="tiny", hidden=256, ffn_hidden=512, heads=8,
                       seq_len=64, batch=4, layers=4)
    spec = ServingSpec(model="tiny", seed=5, arrival_rate_rps=100_000.0,
                       horizon_ms=0.05, prompt_min=8, prompt_max=24,
                       output_min=1, output_max=3, max_batch_requests=4,
                       admission_policy="shed", slo_ttft_ms=0.001,
                       retry_budget=1)

    def serve():
        cfg = dgx_h100_config(num_gpus=4, seed=1).with_faults(FaultSpec(
            enabled=True, intensity=1.0, fault_seed=5, msg_drop_rate=0.3))
        system = make_system("CAIS", cfg, tiling=TILING)
        return simulate_serving(system, spec, model=tiny, style="sp")

    with fastpath.overridden(fastpath.DISABLED):
        ref = serve()
    with fastpath.overridden(LAYER_CONFIGS[layer]):
        fast = serve()
    assert fast.run.makespan_ns == ref.run.makespan_ns
    assert fast.stats == ref.stats
    assert [s.rid for s in fast.shed] == [s.rid for s in ref.shed]
    assert (fast.aborts, fast.reprefill_tokens, fast.iterations) == \
        (ref.aborts, ref.reprefill_tokens, ref.iterations)
    strip = lambda d: {k: v for k, v in d.items()
                       if not k.startswith("fastpath.")}
    assert strip(fast.run.details) == strip(ref.run.details)
    # The recipe must actually exercise the resilience stack (aborts are
    # covered by the serving-invariant property tests; with this tight an
    # SLO most of the stream sheds before it can run long enough to
    # exhaust a retry budget).
    assert ref.shed
    assert ref.run.details["faults.retries"] > 0


def test_faulted_serving_disabled_run_carries_no_fastpath_details():
    """--no-fastpath byte-identity extends to faulted serving: with every
    layer off the result details carry no ``fastpath.*`` keys."""
    from repro.common.config import FaultSpec
    from repro.llm.models import ModelConfig
    from repro.llm.serving import ServingSpec, simulate_serving

    tiny = ModelConfig(name="tiny", hidden=256, ffn_hidden=512, heads=8,
                       seq_len=64, batch=4, layers=4)
    spec = ServingSpec(model="tiny", seed=5, arrival_rate_rps=100_000.0,
                       horizon_ms=0.05, prompt_min=8, prompt_max=24,
                       output_min=1, output_max=3, max_batch_requests=4,
                       admission_policy="shed", slo_ttft_ms=0.001,
                       retry_budget=1)
    cfg = dgx_h100_config(num_gpus=4, seed=1).with_faults(FaultSpec(
        enabled=True, intensity=1.0, fault_seed=5, msg_drop_rate=0.3))
    with fastpath.overridden(fastpath.DISABLED):
        res = simulate_serving(make_system("CAIS", cfg, tiling=TILING),
                               spec, model=tiny, style="sp")
    assert not any(k.startswith("fastpath.") for k in res.run.details)


def test_disabled_runs_carry_no_fastpath_details(layer_workload):
    """Byte-identity of the baseline: with every layer off, the result
    details contain no ``fastpath.*`` keys at all (a run is
    indistinguishable from a build that predates the fast-path)."""
    model, cfg = layer_workload
    graph = sublayer_graph(model, cfg.num_gpus, "L1")
    with fastpath.overridden(fastpath.DISABLED):
        res = _run("CAIS", [graph], cfg)
    assert not any(k.startswith("fastpath.") for k in res.details)


def test_sim_task_fingerprint_tracks_fastpath_layers():
    """Cache entries must not be shared across layer sets — except that
    the all-off fingerprint matches the pre-fast-path payload (so
    ``--no-fastpath`` reuses historical cache entries)."""
    from repro.experiments.parallel import SimTask
    from repro.experiments.runner import DEFAULT

    cfg = dgx_h100_config()
    task = SimTask(system="TP-NVLS", graphs=(), config=cfg, scale=DEFAULT)
    with fastpath.overridden(fastpath.DISABLED):
        off = task.fingerprint()
        assert "fastpath" not in task.payload()
    with fastpath.overridden(fastpath.FastPathConfig()):
        on = task.fingerprint()
    with fastpath.overridden(LAYER_CONFIGS["link_windows"]):
        windows_only = task.fingerprint()
    with fastpath.overridden(LAYER_CONFIGS["calendar_queue"]):
        calendar_only = task.fingerprint()
    assert len({off, on, windows_only}) == 3
    # The calendar queue is output-invariant, so it shares entries with
    # the all-off baseline... but a calendar-only config still has
    # any_enabled=True with an all-zero token, distinct from off.
    assert calendar_only != on
