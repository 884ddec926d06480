"""End-to-end observability: full CAIS runs with tracing/metrics enabled.

Covers the acceptance bar for the obs subsystem: a traced run emits a
valid Chrome/Perfetto trace covering every instrumented component family,
and two same-seed runs produce byte-identical trace and metrics files
(everything is stamped with simulation time, never wall-clock).
"""

import json

import pytest

from repro import obs
from repro.common import fastpath
from repro.common.config import dgx_h100_config
from repro.llm.models import LLAMA_7B
from repro.llm.tiling import TilingConfig
from repro.llm.tp import sublayer_graph
from repro.obs.perfetto import (to_chrome_trace, validate_chrome_trace,
                                write_chrome_trace)
from repro.systems import make_system

TILING = TilingConfig(chunk_bytes=32768, red_chunk_bytes=8192)


@pytest.fixture(autouse=True)
def _clean_obs():
    obs.reset()
    yield
    obs.reset()


def _traced_run(trace_path):
    """One CAIS L1 run with all sinks installed; returns (result, tracer,
    metrics json string)."""
    tracer = obs.Tracer()
    metrics = obs.MetricsRegistry()
    obs.install(tracer=tracer, metrics=metrics)
    try:
        model = LLAMA_7B.scaled(0.125)
        system = make_system("CAIS", dgx_h100_config(), tiling=TILING)
        result = system.run([sublayer_graph(model, 8, "L1")])
        write_chrome_trace(tracer, str(trace_path))
        return result, tracer, metrics.to_json()
    finally:
        obs.reset()


def test_traced_run_covers_all_component_families(tmp_path):
    path = tmp_path / "trace.json"
    result, tracer, metrics_json = _traced_run(path)
    assert result.makespan_ns > 0

    # The emitted file is schema-valid (what Perfetto will load).
    loaded = json.loads(path.read_text())
    assert validate_chrome_trace(loaded) == []

    # Spans/instants from >= 4 instrumented component types.
    cats = {e.get("cat") for e in tracer.events()}
    assert {"tb", "tb-phase", "link", "switch", "merge",
            "kernel"} <= cats

    # Every hardware family got its own process row.
    processes = {p for p, _ in tracer.tracks()}
    assert any(p.startswith("GPU ") for p in processes)
    assert any(p.startswith("Switch ") for p in processes)
    assert "Fabric" in processes
    assert "Executor" in processes

    # The metrics snapshot saw real traffic.
    snap = json.loads(metrics_json)
    assert snap["counters"]["gpu.tbs_completed"] == result.tbs_completed
    assert snap["counters"]["link.messages"] > 0
    assert snap["counters"]["cais.merge.hits"] > 0
    assert snap["histograms"]["gpu.tb_issue_to_retire_ns"]["count"] > 0
    assert snap["gauges"]["sim.events_processed"]["value"] == result.events

    # The run result carries the registry into JSON exports.
    assert result.metrics is not None
    assert result.metrics.snapshot() == snap


def test_same_seed_runs_are_byte_identical(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    _, _, metrics_a = _traced_run(a)
    _, _, metrics_b = _traced_run(b)
    assert a.read_bytes() == b.read_bytes()
    assert metrics_a == metrics_b


def test_untraced_run_allocates_no_observability_state(tmp_path):
    """A run with no sinks installed must not record anything anywhere —
    the same workload as the traced test, observability off."""
    model = LLAMA_7B.scaled(0.125)
    system = make_system("CAIS", dgx_h100_config(), tiling=TILING)
    result = system.run([sublayer_graph(model, 8, "L1")])
    assert result.metrics is None
    assert obs.current().tracer is None
    tr = to_chrome_trace(obs.Tracer())       # empty tracer exports cleanly
    assert tr["traceEvents"] == []


def test_traced_and_untraced_runs_agree_on_physics(tmp_path):
    """Observability is read-only: enabling it must not perturb the
    simulated hardware in any way.

    Tracing forces the engine fast-path off (span emission needs every
    event), so the untraced reference runs with the fast-path disabled
    too — event counts are an engine detail, physics is the contract."""
    traced, _, _ = _traced_run(tmp_path / "t.json")
    model = LLAMA_7B.scaled(0.125)
    with fastpath.overridden(fastpath.DISABLED):
        plain = make_system("CAIS", dgx_h100_config(), tiling=TILING).run(
            [sublayer_graph(model, 8, "L1")])
    assert plain.makespan_ns == traced.makespan_ns
    assert plain.tbs_completed == traced.tbs_completed
    assert plain.events == traced.events


def test_fastpath_run_agrees_with_traced_physics(tmp_path):
    """The engine fast-path elides events but must not move physics: a
    default (fast-path on) run reproduces the traced makespan exactly."""
    traced, _, _ = _traced_run(tmp_path / "t.json")
    model = LLAMA_7B.scaled(0.125)
    fast = make_system("CAIS", dgx_h100_config(), tiling=TILING).run(
        [sublayer_graph(model, 8, "L1")])
    assert fast.makespan_ns == traced.makespan_ns
    assert fast.tbs_completed == traced.tbs_completed
    assert fast.events <= traced.events
