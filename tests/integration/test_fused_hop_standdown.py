"""Where the fast-path layers must stand down.

The ``link_windows`` fast-path layer (DESIGN.md §11) fuses each up link's
delivery with its switch's fixed hop.  The CAIS goldens pin where it
engages (``fastpath.events_elided``); these tests pin where it must not:
with fault injection configured, with a tracer installed and with a
causality recorder installed.  In each case no up link is fused, no link
reports an elided hop, and the whole physics equals the reference event
path's.

The analytic layers (collective replay and kernel replay) engage on
TP-NVLS and must stand down in the same three cases and under a metrics
registry: no run detail reports a calibration, a replayed collective or
a replayed kernel launch, and the whole physics equals the reference
event path's.
"""

import json
from contextlib import contextmanager

import pytest

from repro import obs
from repro.common import fastpath
from repro.common.config import FaultSpec, dgx_h100_config
from repro.experiments.parallel import RunSummary
from repro.llm.models import LLAMA_7B
from repro.llm.tiling import TilingConfig
from repro.llm.tp import sublayer_graph
from repro.obs.causality import CausalityRecorder
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import Tracer
from repro.systems import make_system

TILING = TilingConfig(chunk_bytes=32768, red_chunk_bytes=8192)
GRAPH = sublayer_graph(LLAMA_7B.scaled(0.125), 8, "L1")

#: How each case makes the hop stand down: a config change or an
#: observability sink installed before the harness is built.
CASES = {
    "faults": (FaultSpec(enabled=True, fault_seed=3), {}),
    "tracer": (None, {"tracer": Tracer}),
    "causality": (None, {"causality": CausalityRecorder}),
}


def _physics(result):
    """The summary without ``events`` and the ``fastpath.*`` details."""
    out = RunSummary.from_result(result).to_dict()
    del out["events"]
    out["details"] = [kv for kv in out["details"]
                      if not kv[0].startswith("fastpath.")]
    return json.dumps(out, sort_keys=True)


def _system(config, name="CAIS"):
    return make_system(name, config, tiling=TILING)


def test_default_build_fuses_every_up_link():
    """The control: with nothing to stand down for, every up link is
    fused, so the cases below test a real stand-down."""
    with fastpath.overridden(fastpath.FastPathConfig()):
        network = _system(dgx_h100_config()).session().harness.network
    assert all(link._fused_hop is not None
               for link in network.up_links.values())


@contextmanager
def _installed(sinks, layers):
    """Fresh observability sinks and a fast-path config for one run."""
    with obs.installed(**{name: sink() for name, sink in sinks.items()}), \
            fastpath.overridden(layers):
        yield


@pytest.mark.parametrize("case", sorted(CASES))
def test_fused_hop_stands_down(case):
    faults, sinks = CASES[case]
    config = dgx_h100_config()
    if faults is not None:
        config = config.with_faults(faults)
    # The reference carries the same sinks: a causality recorder adds its
    # critical-path attribution to the details.
    with _installed(sinks, fastpath.DISABLED):
        reference = _physics(_system(config).run([GRAPH]))
    with _installed(sinks, fastpath.FastPathConfig()):
        session = _system(config).session()
        network = session.harness.network
        fused = [link.name for link in network.up_links.values()
                 if link._fused_hop is not None]
        result = session.run([GRAPH])
    assert fused == []
    assert sum(link.fastpath_events_elided
               for link in network.all_links()) == 0
    assert _physics(result) == reference


#: The fused hop's cases plus a metrics registry, under which the fused
#: hop still engages but the analytic layers must not.
ANALYTIC_CASES = dict(CASES, metrics=(None, {"metrics": MetricsRegistry}))
#: Run details that only an engaged analytic layer reports.
ANALYTIC_KEYS = ("fastpath.calibrations", "fastpath.analytic_ops",
                 "fastpath.kernel_launches")


def test_default_build_engages_the_analytic_layers():
    """The control: with nothing to stand down for, TP-NVLS calibrates
    its collectives and replays kernel launches, so the cases below test
    a real stand-down."""
    with fastpath.overridden(fastpath.FastPathConfig()):
        result = _system(dgx_h100_config(), "TP-NVLS").run([GRAPH])
    assert result.details["fastpath.calibrations"] == 2
    assert result.details["fastpath.kernel_launches"] == 3


@pytest.mark.parametrize("case", sorted(ANALYTIC_CASES))
def test_analytic_layers_stand_down(case):
    faults, sinks = ANALYTIC_CASES[case]
    config = dgx_h100_config()
    if faults is not None:
        config = config.with_faults(faults)
    with _installed(sinks, fastpath.DISABLED):
        reference = _physics(_system(config, "TP-NVLS").run([GRAPH]))
    with _installed(sinks, fastpath.FastPathConfig()):
        result = _system(config, "TP-NVLS").run([GRAPH])
    assert [k for k in ANALYTIC_KEYS if k in result.details] == []
    assert _physics(result) == reference
