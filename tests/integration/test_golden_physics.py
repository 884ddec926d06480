"""Golden physics pin: whole-run summaries, ``events`` included.

Three small runs must reproduce, byte for byte, the canonical
``RunSummary.to_dict()`` JSON committed in ``golden/``: a CAIS serving
session on the first request of the fig20 QUICK stream, and CAIS and
TP-NVLS on the scaled L1 sublayer.  The fast-versus-reference
equivalence tests compare two paths of one build, so they cannot see a
change to code both paths share (link arbitration, tiling tables, switch
dispatch, the sync protocol); these files can.

Regenerate them only for an intended change of physics or event count::

    PYTHONPATH=src python tests/integration/test_golden_physics.py
"""

import json
import os

import pytest

from repro.common import fastpath
from repro.common.config import dgx_h100_config
from repro.experiments.fig20_serving import spec_for
from repro.experiments.parallel import RunSummary
from repro.experiments.runner import QUICK, style_for
from repro.llm.models import LLAMA_7B, by_name
from repro.llm.serving import generate_requests, simulate_serving
from repro.llm.tiling import TilingConfig
from repro.llm.tp import sublayer_graph
from repro.systems import make_system

GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                          "golden")
SEED = 2026
TILING = TilingConfig(chunk_bytes=32768, red_chunk_bytes=8192)


def cais_serving():
    spec = spec_for(QUICK, SEED)
    system = make_system("CAIS", dgx_h100_config(seed=SEED),
                         tiling=QUICK.tiling,
                         chunk_bytes=QUICK.coll_chunk_bytes)
    return simulate_serving(system, spec, model=by_name(spec.model),
                            style=style_for("CAIS"),
                            requests=generate_requests(spec)[:1]).run


def sublayer(system):
    graph = sublayer_graph(LLAMA_7B.scaled(0.125), 8, "L1")
    return make_system(system, dgx_h100_config(seed=SEED),
                       tiling=TILING).run([graph])


RUNS = {
    "cais_serving_fig20_quick": cais_serving,
    "sublayer_L1_CAIS": lambda: sublayer("CAIS"),
    "sublayer_L1_TP-NVLS": lambda: sublayer("TP-NVLS"),
}


def canonical(name):
    """Canonical summary JSON of run ``name`` with every fast-path layer
    at its default."""
    with fastpath.overridden(fastpath.FastPathConfig()):
        result = RUNS[name]()
    return json.dumps(RunSummary.from_result(result).to_dict(),
                      sort_keys=True, indent=1) + "\n"


def golden_path(name):
    return os.path.join(GOLDEN_DIR, f"{name}.json")


@pytest.mark.parametrize("name", sorted(RUNS))
def test_run_matches_golden_summary(name):
    with open(golden_path(name)) as fh:
        assert canonical(name) == fh.read()


if __name__ == "__main__":
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    for run_name in sorted(RUNS):
        with open(golden_path(run_name), "w") as out:
            out.write(canonical(run_name))
        print("wrote", golden_path(run_name))
