"""Fast-path equivalence: every layer reproduces the reference run.

DESIGN.md §11 states the equivalence contract per layer:

* ``link_windows``     — the fused wire+switch hop: identical physics,
  only event counts differ;
* ``analytic_collectives`` — exact-float makespans (the bypass replays a
  calibrated signature only after it validated to exact equality);
* ``analytic_kernels`` — bit-exact replication of the event path,
  including every RNG draw and busy-integral float.

These tests run real system workloads (scaled) with each layer toggled
and require the outputs to match the all-off reference to exact float
equality.  Every system compares its whole physics: the canonical
``RunSummary.to_dict()`` minus ``events`` and the ``fastpath.*`` details.
The kernel layer's conflict counter is pinned to zero on graphs with
parallel branches (training backward), guarding the ``solo`` hint of the
dependency walk every runner shares
(``repro.llm.graph.GraphRunner.run_graph``).
"""

import dataclasses
import json
import re

import pytest

from repro.common import fastpath
from repro.common.config import dgx_h100_config
from repro.experiments.parallel import RunSummary
from repro.experiments.runner import QUICK, layer_graphs, sublayer_for
from repro.llm.models import LLAMA_7B, by_name
from repro.llm.tiling import TilingConfig
from repro.llm.tp import sublayer_graph
from repro.systems import make_system

SCALE = 0.125
TILING = TilingConfig(chunk_bytes=32768, red_chunk_bytes=8192)
SYSTEMS = ("TP-NVLS", "CAIS", "CoCoNet", "T3")

#: One config per layer with only that layer enabled, plus all-on.
LAYER_CONFIGS = {
    "link_windows": fastpath.FastPathConfig(
        link_windows=True, analytic_collectives=False,
        analytic_kernels=False),
    "analytic_collectives": fastpath.FastPathConfig(
        link_windows=False, analytic_collectives=True,
        analytic_kernels=False),
    "analytic_kernels": fastpath.FastPathConfig(
        link_windows=False, analytic_collectives=False,
        analytic_kernels=True),
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


def _run(system, graphs, cfg=None, jitter=True):
    cfg = cfg or dgx_h100_config()
    return make_system(system, cfg, tiling=TILING,
                       jitter=jitter).run(list(graphs))


def _run_counting_launches(system, graphs, cfg, jitter=True):
    """``_run`` that also returns the name of every kernel launched."""
    session = make_system(system, cfg, tiling=TILING,
                          jitter=jitter).session()
    executor = session.harness.executor
    launch = executor.launch_kernel
    names = []

    def counted(kernel, on_complete=None, isolated=False):
        names.append(kernel.name)
        launch(kernel, on_complete=on_complete, isolated=isolated)

    executor.launch_kernel = counted
    return session.run(list(graphs)), names


def _partition(name, first=0):
    """Whether ``name`` is a pipelined GEMM's row partition ``>= first``."""
    match = re.search(r"\.p(\d+)$", name)
    return match is not None and int(match.group(1)) >= first


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
                out[system, training] = _physics(_run(system, graphs, cfg))
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
    assert _physics(res) == references[system, training]
    # The kernel mini-sim must never have fired into a non-isolated
    # frame: a nonzero conflict count means the soloness analysis let a
    # concurrent launch through (training graphs run dgrad+wgrad branches
    # in one event frame — the exact case the counter guards).
    assert res.details.get("fastpath.kernel_conflicts", 0.0) == 0.0


@pytest.mark.parametrize("system", ("CAIS-Partial", "T3", "T3-NVLS",
                                    "FuseLib-NVLS"))
def test_default_layers_match_reference_on_quick_sublayer(system):
    """Default layers against the reference on the Mega-GPT-4B L1 QUICK
    sublayer at seed 1, on the whole physics.  Batched link windows,
    which serialized FIFO-link messages without a serialization-end
    event, changed the same-instant order of deliveries and moved the
    physics of all four cells."""
    model = QUICK.apply(by_name("Mega-GPT-4B"))
    cfg = dgx_h100_config(seed=1)
    graph = sublayer_for(model, cfg.num_gpus, system, "L1")
    physics = []
    for layers in (fastpath.DISABLED, fastpath.FastPathConfig()):
        with fastpath.overridden(layers):
            physics.append(_physics(make_system(
                system, cfg, tiling=QUICK.tiling,
                chunk_bytes=QUICK.coll_chunk_bytes).run([graph])))
    assert physics[1] == physics[0]


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


@pytest.mark.parametrize("jitter", (True, False),
                         ids=("jitter", "no-jitter"))
@pytest.mark.parametrize("system", ("CoCoNet", "FuseLib-NVLS"))
def test_pipelined_partitions_replay_analytically(layer_workload, system,
                                                  jitter):
    """Engagement pin: a forward layer's pipelined GEMMs start ``solo``
    and own the node, so every row partition takes the analytic kernel
    replay, like every other kernel of the layer, while the collective
    slices stay on the event path; the whole physics is still exact."""
    model, cfg = layer_workload
    graphs = layer_graphs(model, cfg.num_gpus, system, training=False)
    with fastpath.overridden(fastpath.DISABLED):
        ref = _run(system, graphs, cfg, jitter)
    with fastpath.overridden(LAYER_CONFIGS["analytic_kernels"]):
        fast, names = _run_counting_launches(system, graphs, cfg, jitter)
    assert _physics(fast) == _physics(ref)
    assert any(_partition(name, first=1) for name in names)
    assert fast.details["fastpath.kernel_launches"] == len(names)
    assert fast.events < ref.events
    assert fast.details.get("fastpath.kernel_conflicts", 0.0) == 0.0


def test_zero_link_latency_keeps_partitions_on_the_event_path(
        layer_workload):
    """A partition after the first launches behind its predecessors'
    queued slice events.  Its replay keeps the event path's order at the
    completion instant only if no event schedules another at its own
    instant, which a zero link latency allows, so such partitions then
    take the event path; the first launches on an empty queue and
    still replays."""
    model, cfg = layer_workload
    zero = dataclasses.replace(
        cfg, link=dataclasses.replace(cfg.link, latency_ns=0.0))
    graphs = layer_graphs(model, zero.num_gpus, "CoCoNet", training=False)
    with fastpath.overridden(fastpath.DISABLED):
        ref = _run("CoCoNet", graphs, zero)
    with fastpath.overridden(LAYER_CONFIGS["analytic_kernels"]):
        fast, names = _run_counting_launches("CoCoNet", graphs, zero)
    later = sum(_partition(name, first=1) for name in names)
    assert later > 0
    assert fast.details["fastpath.kernel_launches"] == len(names) - later
    assert _physics(fast) == _physics(ref)


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


def _fig20_first_request(system, seed=2026):
    """The first request of the fig20 QUICK stream, served on ``system``."""
    from repro.experiments.fig20_serving import spec_for
    from repro.experiments.runner import QUICK, style_for
    from repro.llm.models import by_name
    from repro.llm.serving import generate_requests, simulate_serving

    spec = spec_for(QUICK, seed)
    instance = make_system(system, dgx_h100_config(), tiling=QUICK.tiling,
                           chunk_bytes=QUICK.coll_chunk_bytes)
    return simulate_serving(instance, spec, model=by_name(spec.model),
                            style=style_for(system),
                            requests=generate_requests(spec)[:1]).run


def test_pipelined_collective_slices_take_the_event_path():
    """A software pipeline starts a collective slice and then launches the
    next GEMM partition in the same frame, so the slice is not isolated
    even when the event queue is empty.  Replaying it let the next
    slice's event-path link intervals land before the replay's own
    (``busy intervals must be recorded in order``); the analytic layer
    must leave pipelined slices on the event path and match the
    reference."""
    with fastpath.overridden(fastpath.DISABLED):
        ref = _fig20_first_request("CoCoNet-NVLS")
    with fastpath.overridden(LAYER_CONFIGS["analytic_collectives"]):
        fast = _fig20_first_request("CoCoNet-NVLS")
    assert _physics(fast) == _physics(ref)


def test_solo_collectives_replay_on_barrier_serving():
    """Engagement pin: collectives the graph walk starts ``solo`` on a
    barrier system still replay analytically during serving."""
    with fastpath.overridden(fastpath.FastPathConfig()):
        res = _fig20_first_request("TP-NVLS")
    assert res.details.get("fastpath.analytic_ops", 0.0) > 0


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
    assert len({off, on, windows_only}) == 3
