"""Fast-path equivalence sweeps, too wide for tier-1.

Each compares whole physics with every layer off: the canonical
``RunSummary.to_dict()`` minus ``events`` and the ``fastpath.*`` details.

* Analytic kernels over the software-pipeline baselines.  CoCoNet,
  FuseLib and their NVLS variants pipeline each GEMM with its collective
  in row partitions, and the analytic kernel layer replays those
  partitions when the pipeline owns the node (DESIGN.md §11 Layer 4).
  192 cells: 4 systems x seeds {1, 5} x {Mega-GPT-4B, LLaMA-7B} at QUICK
  scale x TB jitter on/off x {L1-L4, forward layer, forward+backward},
  with only ``analytic_kernels`` on.
* The fused wire+switch hop (``link_windows``, DESIGN.md §11 Layer 2)
  over every system.  208 cells: 13 systems x {L1-L4} x {Mega-GPT-4B,
  LLaMA-7B} at QUICK scale x seeds {1, 2026}, each run with only
  ``link_windows`` on and with every default layer on.

They run with the other tests under ``benchmarks/``:

    PYTHONPATH=src python -m pytest -q benchmarks/test_fastpath_sweep.py
"""

import json

import pytest

from repro.common import fastpath
from repro.common.config import dgx_h100_config
from repro.experiments.parallel import RunSummary
from repro.experiments.runner import QUICK, layer_graphs, sublayer_for
from repro.llm.models import by_name
from repro.llm.tp import SUBLAYERS
from repro.systems import SYSTEM_CLASSES, make_system

SYSTEMS = ("CoCoNet", "FuseLib", "CoCoNet-NVLS", "FuseLib-NVLS")
MODELS = ("Mega-GPT-4B", "LLaMA-7B")
SEEDS = (1, 5)
KERNELS_ONLY = fastpath.FastPathConfig(
    calendar_queue=False, link_windows=False,
    analytic_collectives=False, analytic_kernels=True)
HOP_ONLY = fastpath.FastPathConfig(
    calendar_queue=False, link_windows=True,
    analytic_collectives=False, analytic_kernels=False)


def _physics(res):
    out = RunSummary.from_result(res).to_dict()
    del out["events"]
    out["details"] = [kv for kv in out["details"]
                      if not kv[0].startswith("fastpath.")]
    return json.dumps(out, sort_keys=True)


def _workloads(model, tp, system):
    for which in SUBLAYERS:
        yield which, [sublayer_for(model, tp, system, which)]
    yield "forward", layer_graphs(model, tp, system, training=False)
    yield "forward+backward", layer_graphs(model, tp, system, training=True)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("model_name", MODELS)
@pytest.mark.parametrize("system", SYSTEMS)
def test_analytic_kernels_match_reference(system, model_name, seed):
    model = QUICK.apply(by_name(model_name))
    cfg = dgx_h100_config(seed=seed)
    mismatches, replays = [], 0.0
    for jitter in (True, False):
        for name, graphs in _workloads(model, cfg.num_gpus, system):
            runs = {}
            for label, layers in (("ref", fastpath.DISABLED),
                                  ("fast", KERNELS_ONLY)):
                with fastpath.overridden(layers):
                    runs[label] = make_system(
                        system, cfg, tiling=QUICK.tiling,
                        chunk_bytes=QUICK.coll_chunk_bytes,
                        jitter=jitter).run(list(graphs))
            fast = runs["fast"]
            if _physics(fast) != _physics(runs["ref"]):
                mismatches.append(f"{name} jitter={jitter}")
            assert fast.details.get("fastpath.kernel_conflicts", 0.0) == 0.0
            replays += fast.details.get("fastpath.kernel_launches", 0.0)
    assert not mismatches
    assert replays > 0


@pytest.mark.parametrize("seed", (1, 2026))
@pytest.mark.parametrize("model_name", MODELS)
@pytest.mark.parametrize("system", sorted(SYSTEM_CLASSES))
def test_fused_hop_matches_reference(system, model_name, seed):
    model = QUICK.apply(by_name(model_name))
    cfg = dgx_h100_config(seed=seed)
    mismatches = []
    for which in SUBLAYERS:
        graph = sublayer_for(model, cfg.num_gpus, system, which)
        runs = {}
        for label, layers in (("ref", fastpath.DISABLED),
                              ("hop", HOP_ONLY),
                              ("default", fastpath.FastPathConfig())):
            with fastpath.overridden(layers):
                runs[label] = make_system(
                    system, cfg, tiling=QUICK.tiling,
                    chunk_bytes=QUICK.coll_chunk_bytes).run([graph])
        assert runs["hop"].details.get("fastpath.events_elided", 0.0) > 0
        for label in ("hop", "default"):
            if _physics(runs[label]) != _physics(runs["ref"]):
                mismatches.append(f"{which} {label}")
    assert not mismatches
