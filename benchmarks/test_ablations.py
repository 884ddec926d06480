"""Ablation benches for the design choices DESIGN.md calls out.

Not figures from the paper — these probe the reproduction's own design
knobs: reduction packetization granularity, the asymmetric-overlap
dispatch policy, and the merging-aware TB ordering.
"""

from repro.common.config import dgx_h100_config
from repro.llm.models import LLAMA_7B
from repro.llm.tiling import TilingConfig
from repro.llm.tp import sublayer_graph
from repro.experiments.runner import QUICK
from repro.systems import make_system


def _run_cais(tiling, **kwargs):
    model = LLAMA_7B.scaled(QUICK.tokens_fraction)
    graph = sublayer_graph(model, 8, "L1")
    system = make_system("CAIS", dgx_h100_config(), tiling=tiling, **kwargs)
    return system.run([graph])


def test_reduction_packetization_granularity(once):
    """Sub-chunk size trades merge-session footprint against message
    count; 8 KB (the default) should be competitive with the extremes."""
    def sweep():
        out = {}
        for red_chunk in (4096, 8192, 32768):
            tiling = TilingConfig(chunk_bytes=32768,
                                  red_chunk_bytes=red_chunk)
            out[red_chunk] = _run_cais(tiling).makespan_ns
        return out

    results = once(sweep)
    print()
    for red_chunk, makespan in results.items():
        print(f"  red_chunk={red_chunk >> 10}KB: {makespan / 1e3:.1f} us")
    default = results[8192]
    # Whole-tile sessions (32 KB) monopolize the 40 KB table and lose.
    assert results[32768] > default * 0.98
    assert default < min(results.values()) * 1.15


def test_asymmetric_overlap_policy(once):
    """Fair-share dispatch (asymmetric kernel overlapping) vs the same
    system with kernel phases left to barrier scheduling (CAIS-Base)."""
    def pair():
        tiling = TilingConfig(chunk_bytes=32768, red_chunk_bytes=8192)
        model = LLAMA_7B.scaled(QUICK.tokens_fraction)
        graph = sublayer_graph(model, 8, "L1")
        cfg = dgx_h100_config()
        full = make_system("CAIS", cfg, tiling=tiling).run([graph])
        base = make_system("CAIS-Base", cfg, tiling=tiling).run([graph])
        return full.makespan_ns, base.makespan_ns

    full, base = once(pair)
    print(f"\n  overlap: {full / 1e3:.1f} us, barriers: {base / 1e3:.1f} us")
    assert full < base


def test_merge_aware_ordering(once):
    """Home-rotated TB ordering vs row-major (coordination ablation)."""
    from repro.experiments.parallel import AblationSpec, SimTask, \
        _run_ablation

    def wait_ns(features):
        model = LLAMA_7B.scaled(QUICK.tokens_fraction)
        task = SimTask(system="CAIS",
                       graphs=(sublayer_graph(model, 8, "L1"),),
                       config=dgx_h100_config(), scale=QUICK,
                       ablation=AblationSpec.of(features))
        return _run_ablation(task).merge_stats.average_wait_ns()

    def pair():
        return (wait_ns({"prelaunch", "preaccess", "throttle", "order"}),
                wait_ns({"prelaunch", "preaccess", "throttle"}))

    ordered, row_major = once(pair)
    print(f"\n  wait with ordering: {ordered / 1e3:.2f} us, "
          f"row-major: {row_major / 1e3:.2f} us")
    assert ordered < row_major


def test_eviction_policy_lru_vs_fifo(once):
    """Merge-table eviction policy ablation under a constrained table.

    LRU (the paper's policy) keeps hot, nearly-complete sessions resident;
    FIFO evicts by allocation age.  With coordination aligning arrivals the
    two are close, but LRU should never be meaningfully worse.
    """
    from repro.cais.dataflow import CaisRunner
    from repro.cais import compiler as cais_compiler
    from repro.llm import tiling as llm_tiling
    from repro.systems import Harness, Session

    def pair():
        out = {}
        for policy in ("lru", "fifo"):
            llm_tiling.reset_tensor_ids()
            cais_compiler.reset_group_ids()
            model = LLAMA_7B.scaled(QUICK.tokens_fraction)
            graph = sublayer_graph(model, 8, "L1")
            cfg = dgx_h100_config().with_merge_entries(64)
            harness = Harness(cfg, merge=True, sync_tables=True,
                              traffic_control=True, fair_share=True,
                              merge_eviction_policy=policy)
            runner = CaisRunner(harness, tiling=QUICK.tiling)
            out[policy] = Session("CAIS", harness, runner).run(
                [graph]).makespan_ns
        return out

    results = once(pair)
    print(f"\n  lru: {results['lru'] / 1e3:.1f} us, "
          f"fifo: {results['fifo'] / 1e3:.1f} us")
    assert results["lru"] <= results["fifo"] * 1.05
