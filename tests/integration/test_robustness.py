"""Robustness / failure-injection tests.

CAIS's coordination and the merge unit must stay live and correct under
conditions the steady-state experiments never hit: extreme scheduler skew,
straggler GPUs, a single switch plane, minimal GPU counts, and starved
merge tables.
"""

from dataclasses import replace

import pytest

from repro.common.config import FaultSpec, JitterSpec, dgx_h100_config
from repro.experiments import fig20_serving, fig21_faulted_serving
from repro.experiments.fig19_resilience import fault_spec_for
from repro.experiments.runner import QUICK
from repro.llm.models import LLAMA_7B, by_name
from repro.llm.serving import generate_requests, simulate_serving
from repro.llm.tiling import TilingConfig
from repro.llm.tp import sublayer_graph
from repro.systems import make_system

TILING = TilingConfig(chunk_bytes=32768, red_chunk_bytes=8192)


def run_cais(config, scale=0.125, which="L1", system="CAIS"):
    model = LLAMA_7B.scaled(scale)
    graph = sublayer_graph(model, config.num_gpus, which)
    return make_system(system, config, tiling=TILING).run([graph])


def test_extreme_scheduler_skew_still_completes():
    """50 us launch skew (25x default) forces the sync-table timeouts to
    carry forward progress; the run must still complete correctly."""
    cfg = dgx_h100_config()
    cfg = replace(cfg, jitter=JitterSpec(tb_jitter=0.3,
                                         gpu_skew_ns=50_000.0,
                                         dispatch_shuffle_window=128))
    res = run_cais(cfg)
    assert res.tbs_completed > 0
    assert res.merge_stats.sessions_completed > 0


def test_extreme_skew_costs_but_does_not_break():
    cfg = dgx_h100_config()
    skewed = replace(cfg, jitter=JitterSpec(tb_jitter=0.3,
                                            gpu_skew_ns=50_000.0,
                                            dispatch_shuffle_window=128))
    base = run_cais(cfg).makespan_ns
    slow = run_cais(skewed).makespan_ns
    assert slow > base * 0.9          # may hide some skew, never free
    assert slow < base * 3.0          # bounded degradation, no livelock


def test_single_switch_plane():
    """All traffic through one plane: quarter the fabric bandwidth."""
    cfg = dgx_h100_config()
    cfg = replace(cfg, num_switches=1)
    res = run_cais(cfg)
    assert res.tbs_completed > 0
    four = run_cais(dgx_h100_config()).makespan_ns
    assert res.makespan_ns > four     # less bandwidth must cost time


def test_two_gpu_minimum():
    cfg = dgx_h100_config(num_gpus=2)
    res = run_cais(cfg)
    assert res.tbs_completed > 0
    assert res.merge_stats.sessions_completed > 0


def test_starved_merge_table_is_slow_but_live():
    """A 2-entry table cannot hold a single reduction sub-chunk session:
    everything bypasses or evicts, and the run must still finish."""
    cfg = dgx_h100_config().with_merge_entries(2)
    res = run_cais(cfg)
    assert res.tbs_completed > 0
    summary = res.merge_stats.summary()
    assert summary["bypasses"] + summary["lru_evictions"] + \
        summary["timeout_evictions"] > 0


def test_all_sublayers_under_all_cais_variants():
    cfg = dgx_h100_config()
    for which in ("L2", "L3", "L4"):
        for system in ("CAIS", "CAIS-Base", "CAIS-w/o-Coord"):
            res = run_cais(cfg, which=which, system=system)
            assert res.tbs_completed > 0, (which, system)


def test_zero_jitter_configuration():
    cfg = dgx_h100_config()
    cfg = replace(cfg, jitter=JitterSpec(tb_jitter=0.0, gpu_skew_ns=0.0,
                                         dispatch_shuffle_window=1))
    res = run_cais(cfg)
    assert res.tbs_completed > 0


# ----------------------------------------------------------------------
# Fault injection (repro.faults): the run must survive an actively
# hostile fabric — dropped/corrupted messages, degraded and downed
# links, straggling GPUs — and still produce the same completed work.
# ----------------------------------------------------------------------
def test_faulted_cais_run_completes_correctly():
    base_cfg = dgx_h100_config()
    faulted = base_cfg.with_faults(
        FaultSpec(enabled=True, intensity=0.5, fault_seed=0))
    base = run_cais(base_cfg)
    res = run_cais(faulted)
    # Completion and correctness: every thread block the fault-free run
    # retires must also retire under faults (recovery, not loss).
    assert res.tbs_completed == base.tbs_completed
    assert res.merge_stats.sessions_completed > 0
    # The resilience machinery actually exercised: messages were lost and
    # retransmitted, corrupted copies were discarded unacked.
    assert res.details["faults.messages_dropped"] > 0
    assert res.details["faults.retries"] > 0
    assert res.details["faults.corrupt_discards"] > 0
    # Faults cost time, but recovery is bounded — no timeout cascades.
    assert res.makespan_ns > base.makespan_ns
    assert res.makespan_ns < base.makespan_ns * 4.0


def test_faulted_run_is_reproducible():
    cfg = dgx_h100_config().with_faults(
        FaultSpec(enabled=True, intensity=0.5, fault_seed=7))
    a = run_cais(cfg)
    b = run_cais(cfg)
    assert a.makespan_ns == b.makespan_ns
    assert dict(a.details) == dict(b.details)


def test_nvls_unit_failure_falls_back_to_ring():
    """Killing every in-switch compute unit early must degrade TP-NVLS to
    ring collectives — slower, but complete and accounted for."""
    spec = FaultSpec(enabled=True, intensity=1.0, fault_seed=0,
                     nvls_fail_rate=1.0, link_degrade_rate=0.0,
                     link_down_rate=0.0, plane_fail_rate=0.0,
                     gpu_straggler_rate=0.0, sm_throttle_rate=0.0,
                     msg_drop_rate=0.0, msg_corrupt_rate=0.0,
                     fault_window_ns=20_000.0, horizon_ns=50_000.0)
    base_cfg = dgx_h100_config()
    base = run_cais(base_cfg, system="TP-NVLS")
    res = run_cais(base_cfg.with_faults(spec), system="TP-NVLS")
    assert res.tbs_completed == base.tbs_completed
    assert res.details["faults.nvls_unit_failures"] == base_cfg.num_switches
    assert res.details["faults.nvls_fallbacks"] > 0
    assert res.makespan_ns > base.makespan_ns   # ring is the slow path


@pytest.mark.parametrize("stream", ["fig20", "fig21"])
def test_faulted_serving_ends_with_its_last_request(stream):
    """The serving loop quiesces the fault machinery when its last request
    finishes, so the makespan is that request's finish.  On the fig20
    stream the watchdog used to trip after the stream had completed
    (``DeadlockError``, finished=2); on the fig21 stream (shed admission)
    the run went on to the next fault timer."""
    spec_for = (fig20_serving.spec_for if stream == "fig20"
                else fig21_faulted_serving.spec_for)
    spec = spec_for(QUICK, 2026)
    cfg = dgx_h100_config(seed=2026).with_faults(fault_spec_for(1.0, 0))
    system = make_system("TP-NVLS", cfg, tiling=QUICK.tiling,
                         chunk_bytes=QUICK.coll_chunk_bytes)
    res = simulate_serving(system, spec, model=by_name(spec.model),
                           style="basic",
                           requests=generate_requests(spec)[:2])
    assert len(res.stats) == 2
    assert res.run.makespan_ns == max(s.finish_ns for s in res.stats)
