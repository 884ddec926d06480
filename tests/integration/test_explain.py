"""Integration tests for ``repro explain`` (causal attribution end-to-end).

These run real simulations at a small scale (gpus=4, scale=0.125, L2) and
check the acceptance properties of the explain layer:

* attribution sums exactly to the makespan for CAIS and two baselines,
* same-seed invocations produce byte-identical reports,
* switch-merge time appears on the TP-NVLS critical path and is strictly
  reduced under CAIS,
* runs without a recorder installed carry no causal state.
"""

import math

import pytest

from repro import obs
from repro.common.config import dgx_h100_config
from repro.experiments.explain import explain_runs, format_explain_report
from repro.experiments.runner import Scale, sublayer_for
from repro.llm.models import by_name
from repro.llm.tiling import TilingConfig
from repro.obs.causality import SWITCH_MERGE
from repro.systems import make_system

MODEL = "LLaMA-7B"
WORKLOAD = "L2"
SYSTEMS = ["CAIS", "TP-NVLS", "SP-NVLS"]
GPUS = 4
SEED = 2026
SCALE = 0.125


@pytest.fixture(autouse=True)
def _clean_obs():
    obs.reset()
    yield
    obs.reset()


@pytest.fixture(scope="module")
def paths():
    return explain_runs(MODEL, WORKLOAD, SYSTEMS, GPUS, SEED, SCALE)


def test_attribution_sums_exactly_to_makespan(paths):
    for name, path in paths:
        total = math.fsum(path.attribution().values())
        assert total == path.makespan_ns, name
        path.verify()


def test_same_seed_reports_are_byte_identical(paths):
    again = explain_runs(MODEL, WORKLOAD, SYSTEMS, GPUS, SEED, SCALE)
    first = format_explain_report(MODEL, WORKLOAD, GPUS, SEED, SCALE, paths)
    second = format_explain_report(MODEL, WORKLOAD, GPUS, SEED, SCALE, again)
    assert first == second
    assert first.startswith("# repro explain")


def test_cais_reduces_switch_merge_on_critical_path(paths):
    merge = {name: path.attribution()[SWITCH_MERGE] for name, path in paths}
    # The NVLS baselines pay in-switch reduction latency on the critical
    # path; CAIS's compute-aware scheduling keeps (most of) it off.
    assert merge["TP-NVLS"] > 0
    assert merge["SP-NVLS"] > 0
    assert merge["CAIS"] < merge["TP-NVLS"]
    assert merge["CAIS"] < merge["SP-NVLS"]


def _one_run(with_recorder: bool):
    config = dgx_h100_config(num_gpus=GPUS, seed=SEED)
    scale = Scale(tokens_fraction=SCALE,
                  tiling=TilingConfig(chunk_bytes=32768,
                                      red_chunk_bytes=8192))
    model = scale.apply(by_name(MODEL))
    graphs = [sublayer_for(model, GPUS, "CAIS", WORKLOAD)]
    if with_recorder:
        obs.install(causality=obs.CausalityRecorder())
    try:
        return make_system("CAIS", config, tiling=scale.tiling).run(graphs)
    finally:
        obs.reset()


def test_recorder_is_simulation_invariant():
    """Recording causality must not perturb the simulation itself."""
    plain = _one_run(with_recorder=False)
    traced = _one_run(with_recorder=True)
    assert traced.makespan_ns == plain.makespan_ns


def test_run_without_recorder_has_no_explain_surface():
    result = _one_run(with_recorder=False)
    assert result.critical_path is None
    assert not [k for k in result.details if k.startswith("explain.")]


def test_run_with_recorder_folds_attribution_into_details(paths):
    result = _one_run(with_recorder=True)
    assert result.critical_path is not None
    keys = [k for k in result.details if k.startswith("explain.")]
    assert keys
    total = math.fsum(result.details[k] for k in keys)
    assert total == result.makespan_ns


def test_explain_runs_keeps_the_callers_sinks():
    """Each system's recorder is installed for its run only: a registry
    the caller installed is still installed afterwards."""
    reg = obs.MetricsRegistry()
    obs.install(metrics=reg)
    before = obs.current()
    explain_runs(MODEL, "L1", ["TP-NVLS"], gpus=8, seed=1, scale=0.03125)
    assert obs.current() is before
    assert obs.current().metrics is reg
