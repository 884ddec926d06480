"""Figure-level determinism of the parallel runner and the result cache.

The acceptance bar for the fan-out work: ``--jobs N`` must produce tables
byte-identical to ``--jobs 1``, and a cached re-run must reproduce them
while skipping every simulation.  Exercised on a small fig12 slice (one
model, two sub-layers, three systems) so the suite stays fast.
"""

import dataclasses

from repro import obs
from repro.experiments import fig12_sublayer
from repro.experiments.cache import SimCache
from repro.experiments.parallel import ExecContext
from repro.experiments.runner import QUICK

SLICE = dict(models=["LLaMA-7B"], sublayers=("L1", "L2"),
             systems=("TP-NVLS", "CAIS-Base", "CAIS"))


def _table(ctx):
    return fig12_sublayer.format_table(
        fig12_sublayer.run(QUICK, ctx=ctx, **SLICE))


def test_parallel_jobs_match_serial_table():
    serial = _table(ExecContext(jobs=1))
    fanned = _table(ExecContext(jobs=4))
    assert fanned == serial


def test_cached_rerun_reproduces_table_without_simulating(tmp_path):
    first = _table(ExecContext(jobs=1, cache=SimCache(root=str(tmp_path))))
    obs.install(metrics=obs.MetricsRegistry())
    try:
        metrics = obs.current().metrics
        # Fresh SimCache instance: everything must come off disk.
        second = _table(ExecContext(jobs=1,
                                    cache=SimCache(root=str(tmp_path))))
        assert second == first
        assert metrics.counter("cache.hits").value == 6   # 1 model x 2 x 3
        assert metrics.counter("cache.misses").value == 0
        assert metrics.histogram("experiments.task_wall_ms").count == 0
    finally:
        obs.reset()


def test_cache_keeps_runs_separate_across_scales(tmp_path):
    cache = SimCache(root=str(tmp_path))
    ctx = ExecContext(jobs=1, cache=cache)
    _table(ctx)
    obs.install(metrics=obs.MetricsRegistry())
    try:
        metrics = obs.current().metrics
        fig12_sublayer.run(dataclasses.replace(QUICK, tokens_fraction=0.25), ctx=ctx, **SLICE)
        assert metrics.counter("cache.hits").value == 0
    finally:
        obs.reset()
