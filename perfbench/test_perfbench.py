"""Tests of the benchmark itself: failure accounting, span self time,
host-speed scaling, metric names, and count determinism of the traced run.

Run from the repository root:  PYTHONPATH=src python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import os
import re
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import hostspeed  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import Cell, Pass, check  # noqa: E402


def manifest():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def cells(physics):
    return [Cell(key=key, system=key, cpu_s=1.0, physics=value)
            for key, value in physics.items()]


def test_planted_physics_mismatch_raises_error_rate():
    reference = {"CAIS": "a", "TP-NVLS": "b"}
    clean = Pass(cells=cells(reference), cpu_s=2.0)
    assert check([clean], reference) == (2, {}, [])

    planted = Pass(cells=cells({"CAIS": "x", "TP-NVLS": "b"}), cpu_s=2.0)
    attempted, failed, divergent = check([planted], reference)
    assert attempted == 2 and list(failed) == ["0:CAIS"]
    assert divergent == ["CAIS"]

    # A baseline's divergence is reported, not failed.
    planted = Pass(cells=cells({"CAIS": "a", "TP-NVLS": "x"}), cpu_s=2.0)
    assert check([planted], reference) == (2, {}, ["TP-NVLS"])


def test_raise_replay_and_nondeterminism_fail():
    reference = {"CAIS": "a", "TP-NVLS": "b"}
    raised = Pass(cells=[Cell(key="CAIS", system="CAIS",
                              error="Traceback\nValueError: boom\n"),
                         Cell(key="TP-NVLS", system="TP-NVLS",
                              physics="b")],
                  cpu_s=1.0, failures={"TP-NVLS": "cache replay missed"})
    _, failed, _ = check([raised], reference)
    assert failed == {"0:CAIS": "ValueError: boom",
                      "0:TP-NVLS": "cache replay missed"}

    first = Pass(cells=cells({"CAIS": "a", "TP-NVLS": "y"}), cpu_s=1.0)
    second = Pass(cells=cells({"CAIS": "a", "TP-NVLS": "z"}), cpu_s=1.0)
    _, failed, _ = check([first, second], reference)
    assert failed == {"1:TP-NVLS": "physics differ between passes"}
    # Passes under another fast-path config have their own baseline.
    second.config = "without-link_windows"
    assert check([first, second], reference)[1] == {}


def test_self_time_of_nested_spans():
    ticks = iter([0.0, 1.0, 3.0, 4.0, 5.0, 10.0, 20.0, 21.5])
    tracer = Tracer(clock=lambda: next(ticks))
    tracer.enter("a")        # 0
    tracer.enter("b")        # 1
    tracer.exit()            # 3   b: 2 s
    tracer.enter("c")        # 4
    tracer.exit()            # 5   c: 1 s
    tracer.exit()            # 10  a: 10 s, children 3 s
    tracer.enter("b")        # 20
    tracer.exit()            # 21.5
    assert tracer.total_s == {"a": 10.0, "b": 3.5, "c": 1.0}
    assert tracer.self_s == {"a": 7.0, "b": 3.5, "c": 1.0}
    assert tracer.calls == {"a": 1, "b": 2, "c": 1}


def test_reference_cpu_drops_the_loops_and_scales():
    # 10 s of CPU, 0.5 s of it in loops that ran at half the reference
    # speed: 9.5 s at reference speed is 4.75 s.
    loops = [2 * hostspeed.REFERENCE_S] * 125
    assert abs(hostspeed.reference_cpu_s(10.0, loops) - 4.75) < 1e-9
    assert hostspeed.reference_cpu_s(3.0, []) == 3.0
    passes = [Pass(cells=[], cpu_s=10.0, calibrations=loops),
              Pass(cells=[], cpu_s=3.0)]
    assert run.run_scale(passes) == 0.5


def test_host_speed_calibrates_during_a_pass():
    speed = hostspeed.HostSpeed()
    assert speed.calibrate() > 0

    def spin():
        end = time.process_time() + 0.6
        while time.process_time() < end:
            pass
        return "done"

    with speed.installed():
        result, loops = speed.measure(spin)
    assert result == "done"
    assert loops and all(t > 0 for t in loops)


def test_serve_streams_share_one_shape():
    from repro.llm.serving import Request
    first = Request(rid=0, arrival_ns=0.0, prompt_len=200, output_len=4)
    rest = [Request(rid=i, arrival_ns=1.0, prompt_len=128,
                    output_len=8 if i == 3 else 2) for i in range(1, 8)]
    # max(4, 1 + 8) iterations; 1 + 7 * 128 prefill rows fill 8 tiles.
    assert workloads.serve_shape([first] + rest) == (9, 8)
    for seed in (1, 2, 3):
        _, requests = workloads.serve_stream(seed)
        assert workloads.serve_shape(requests) == workloads.SERVE_SHAPE


def test_metric_names_are_valid_and_in_manifest():
    doc = manifest()
    end_to_end = [m["name"] for m in doc["end_to_end"]]
    per_layer = [m["name"] for m in doc["per_layer"]]
    names = end_to_end + per_layer
    assert len(names) == len(set(names))
    for name in names:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name), name

    timed = [Pass(cells=cells({"CAIS": "a"}), cpu_s=2.0)]
    timed[0].cells[0].makespan_ns = 5.0
    e2e = run.end_to_end_metrics(1.0, timed, 64.0)
    assert list(e2e) == end_to_end
    traced = Pass(cells=cells({"CAIS": "a"}), cpu_s=3.0)
    layer = run.trace_metrics(Tracer(), timed, traced, [])
    assert sorted(layer) == sorted(per_layer)
    assert layer["trace.overhead"] == 0.5
    for layer_name in run.FASTPATH_LAYERS:
        name = f"fastpath.{layer_name}.saved_s"
        assert re.fullmatch(r"[A-Za-z0-9_.-]+", name)


class TinyStep(workloads.TrainStep):
    """An L1 sublayer at a small scale: the traced path in a second."""

    def __init__(self, seed, workdir):
        from repro.common.config import dgx_h100_config
        from repro.experiments.runner import QUICK, sublayer_for
        from repro.llm.models import TABLE_I
        self.config = dgx_h100_config(seed=seed)
        model = QUICK.apply(TABLE_I["Mega-GPT-4B"]).scaled(0.25)
        self.graphs = {s: [sublayer_for(model, self.config.num_gpus, s,
                                        "L1")]
                       for s in workloads.PAIR}


def test_traced_counts_repeat_exactly(tmp_path):
    untraced = TinyStep(7, str(tmp_path)).run_pass().project()
    counts = []
    for _ in range(2):
        traced, tracer = run.traced_pass(TinyStep, 7, str(tmp_path))
        assert [c.physics for c in traced.cells] == \
            [c.physics for c in untraced.cells]
        counts.append((dict(tracer.calls), dict(tracer.counts)))
    assert counts[0] == counts[1]
    calls, tallies = counts[0]
    assert calls["merge.process"] > 0 and calls["link.send"] > 0
    assert tallies["events.processed"] > 0
    assert "serving.commit" not in calls and "matrix.run" not in calls
