"""A finished run leaves no cyclic garbage.

``Simulator.run`` pauses Python's cyclic collector for the length of a
run.  That is only safe while reference counting alone frees a finished
run: a harness unwires its node when it renders its result, and run-time
callbacks hold no reference cycles.  Here each run executes with the
collector off; once its result is dropped, one collection must find no
object whose type or function is defined under ``repro``.

The wide version (every system x every sublayer and layer workload x
faults off/on, plus a fleet) is ``benchmarks/test_cyclic_garbage_sweep.py``.
When this fails, DESIGN.md §11 ("The cyclic collector") describes how to
find the reference that closes the new cycle.
"""

import gc
import types

import pytest

from repro.common import fastpath
from repro.common.config import dgx_h100_config
from repro.experiments.fig19_resilience import fault_spec_for
from repro.experiments.fig20_serving import spec_for
from repro.experiments.runner import QUICK, style_for
from repro.llm.models import LLAMA_7B, by_name
from repro.llm.serving import generate_requests, simulate_serving
from repro.llm.tiling import TilingConfig
from repro.llm.tp import sublayer_graph
from repro.systems import SYSTEM_CLASSES, make_system

SEED = 2026
TILING = TilingConfig(chunk_bytes=32768, red_chunk_bytes=8192)


def _defined_in(obj) -> str:
    """``module.qualname`` of a function's or method's code, else of the
    object's type."""
    if isinstance(obj, types.MethodType):
        obj = obj.__func__
    if not isinstance(obj, types.FunctionType):
        obj = type(obj)
    return f"{obj.__module__}.{obj.__qualname__}"


def repro_garbage(run):
    """What only the cyclic collector would free, among objects defined
    under ``repro``, after ``run()``'s result is dropped."""
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        result = run()
        del result
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
        found = sorted({name for name in map(_defined_in, gc.garbage)
                        if name.startswith("repro.")})
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        if was_enabled:
            gc.enable()
    return found


def config(faults: bool):
    cfg = dgx_h100_config(seed=SEED)
    return cfg.with_faults(fault_spec_for(1.0, 0)) if faults else cfg


def serve(system: str, faults: bool, requests: int = 2):
    """The first ``requests`` requests of the fig20 QUICK stream."""
    spec = spec_for(QUICK, SEED)
    instance = make_system(system, config(faults), tiling=QUICK.tiling,
                           chunk_bytes=QUICK.coll_chunk_bytes)
    return simulate_serving(instance, spec, model=by_name(spec.model),
                            style=style_for(system),
                            requests=generate_requests(spec)[:requests])


@pytest.mark.parametrize("system", sorted(SYSTEM_CLASSES))
def test_finished_sublayer_run_leaves_no_cyclic_garbage(system):
    graph = sublayer_graph(LLAMA_7B.scaled(0.125), 8, "L1")
    with fastpath.overridden(fastpath.FastPathConfig()):
        leaked = repro_garbage(lambda: make_system(
            system, config(False), tiling=TILING).run([graph]))
    assert leaked == []


@pytest.mark.parametrize("faults", [False, True],
                         ids=["faults_off", "faults_on"])
@pytest.mark.parametrize("system", ["CAIS", "TP-NVLS"])
def test_finished_serving_run_leaves_no_cyclic_garbage(system, faults):
    """Covers the serving loop, merge sessions and their timers, and the
    fault machinery (injector, watchdog, retransmitter, NVLS fallback)."""
    with fastpath.overridden(fastpath.FastPathConfig()):
        leaked = repro_garbage(lambda: serve(system, faults))
    assert leaked == []
