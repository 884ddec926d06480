"""The benchmark's three workloads: inputs made from the seed, one pass each.

Every workload is a closed loop with a single caller: cells run back to
back in this process, with no worker pool and no threads.  A pass returns
one :class:`Cell` per simulation, carrying the host CPU seconds of that
cell and the run's *physics*: the canonical ``RunSummary.to_dict()`` minus
``events`` and the ``fastpath.*`` detail keys, which are the only fields
the fast-path layers may change.  The physics of every cell is compared
with a pass on the reference event path (``fastpath.DISABLED``).
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile
import time
import traceback
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro.common.config import dgx_h100_config
from repro.experiments import parallel
from repro.experiments.cache import SimCache
from repro.experiments.fig20_serving import spec_for
from repro.experiments.parallel import ExecContext, RunSummary, SimTask
from repro.experiments.runner import (
    BASELINES,
    QUICK,
    layer_graphs,
    run_system,
    style_for,
    sublayer_for,
)
from repro.llm.models import TABLE_I, by_name
from repro.llm.serving import generate_requests, simulate_serving
from repro.llm.tp import SUBLAYERS
from repro.systems import make_system

#: Every system a cell can run, in report order.
ALL_SYSTEMS = ("CAIS",) + BASELINES

#: The paper's own comparison: CAIS against the NVLS barrier baseline.
PAIR = ("CAIS", "TP-NVLS")

#: Systems whose cells fail when their physics differ from the reference
#: event path.  The link-windows and analytic-collectives layers each
#: change the physics of some ring, NVLS and T3 cells (makespan and
#: utilization; which cells depends on seed and scale), so until they are
#: fixed a baseline cell's divergence is counted in
#: ``fastpath.divergent_cells`` instead of failing the run.  CAIS cells
#: have matched the reference on every workload and seed tried.
EXACT_SYSTEMS = frozenset({"CAIS"})

#: ``serve`` stream size.  The fig20 quick stream's request count and
#: token totals vary about 2x across seeds, which would make per-pass CPU
#: a function of the seed; the workload therefore takes the first
#: ``SERVE_REQUESTS`` requests of the first seed-derived stream whose
#: totals fall in these bands, so every seed serves the same amount of
#: work in a different order and mix.
SERVE_REQUESTS = 8
SERVE_OUTPUT_TOKENS = 40
SERVE_PROMPT_TOKENS = (1240, 1320)
#: Shape of every kept stream: serving iterations, and 128-token tiles
#: of the prefill rows of iteration 2 (see :func:`serve_shape`).  One
#: iteration or one such tile costs CAIS about 48k events, so equal
#: token totals alone leave a pass at 390k, 438k or 487k events
#: depending on the seed.
SERVE_SHAPE = (9, 9)
#: Stride between the candidate stream seeds derived from the workload
#: seed (the first candidate is the workload seed itself).
SERVE_SEED_STRIDE = 1_000_003

#: ``matrix`` models: one of each Table-I family.  Mega-GPT-8B, the
#: third, is left out so that a run holds several passes of the matrix.
MATRIX_MODELS = ("Mega-GPT-4B", "LLaMA-7B")


def physics(summary: RunSummary) -> str:
    """Canonical JSON of the fields the fast path must leave unchanged."""
    out = summary.to_dict()
    del out["events"]
    out["details"] = [kv for kv in out["details"]
                      if not kv[0].startswith("fastpath.")]
    return json.dumps(out, sort_keys=True)


@dataclass
class Cell:
    """One simulation of a pass."""

    key: str
    system: str
    cpu_s: float = 0.0
    makespan_ns: float = 0.0
    #: Canonical physics; ``None`` when the cell raised.
    physics: Optional[str] = None
    #: The live result, kept until :meth:`Pass.project` so that a traced
    #: pass projects it outside the traced region.
    result: object = None
    error: Optional[str] = None


@dataclass
class Pass:
    """All cells of one pass plus failures found while running it."""

    cells: List[Cell]
    cpu_s: float
    failures: Dict[str, str] = field(default_factory=dict)
    #: Simulations the matrix runner executed (cache misses).
    tasks_executed: int = 0
    #: Fast-path config the pass ran under; passes of one config must
    #: agree cell by cell.
    config: str = "default"
    #: CPU seconds of each calibration loop run during a timed pass;
    #: empty when the pass was not calibrated (see ``hostspeed.py``).
    calibrations: List[float] = field(default_factory=list)

    def project(self) -> "Pass":
        """Turn live results into physics (outside any timed region)."""
        for cell in self.cells:
            if cell.result is not None:
                summary = RunSummary.from_result(cell.result)
                cell.physics = physics(summary)
                cell.makespan_ns = summary.makespan_ns
                cell.result = None
        return self

    def sim_ns(self) -> float:
        return sum(cell.makespan_ns for cell in self.cells)


def _timed_cell(key: str, system: str, simulate: Callable[[], object]
                ) -> Cell:
    cell = Cell(key=key, system=system)
    start = time.process_time()
    try:
        cell.result = simulate()
    except Exception:   # noqa: BLE001 - a failed cell is counted, not fatal
        cell.error = traceback.format_exc()
    cell.cpu_s = time.process_time() - start
    return cell


class TrainStep:
    """One LLaMA-7B forward+backward layer, CAIS and TP-NVLS.  The paper's
    comparison: links, switches, the merge unit, remote-TB issue and
    tiling do nearly all the work.  QUICK scale keeps a pass near 5 s of
    CPU, so that a run holds several passes and their median rides out
    bursts of host contention."""

    name = "train-step"

    def __init__(self, seed: int, workdir: str) -> None:
        self.config = dgx_h100_config(seed=seed)
        model = QUICK.apply(TABLE_I["LLaMA-7B"])
        self.graphs = {system: layer_graphs(model, self.config.num_gpus,
                                            system, training=True)
                       for system in PAIR}

    def run_pass(self) -> Pass:
        cells = [_timed_cell(system, system, lambda s=system: run_system(
                     s, self.graphs[s], self.config, QUICK))
                 for system in PAIR]
        return Pass(cells=cells, cpu_s=sum(c.cpu_s for c in cells))


def serve_shape(requests) -> Tuple[int, int]:
    """``(iterations, prefill tiles of iteration 2)`` of ``requests``.

    The cut's requests all arrive within 0.2 ms, well inside the first
    iteration (about 0.6 ms of simulated time), so the first request runs
    alone in iteration 1 and the others join at iteration 2, beside the
    first one's decode row.
    """
    first, rest = requests[0], requests[1:]
    iterations = max([first.output_len] + [1 + r.output_len for r in rest])
    rows = 1 + sum(r.prompt_len for r in rest)
    return iterations, -(-rows // QUICK.tiling.tile)


def serve_stream(seed: int) -> Tuple[object, list]:
    """The ``serve`` inputs for ``seed``: a fig20 quick spec and the
    request list cut from its stream (see :data:`SERVE_REQUESTS`)."""
    lo, hi = SERVE_PROMPT_TOKENS
    for attempt in range(100_000):
        spec = spec_for(QUICK, seed + attempt * SERVE_SEED_STRIDE)
        requests = generate_requests(spec)[:SERVE_REQUESTS]
        if (len(requests) == SERVE_REQUESTS
                and sum(r.output_len for r in requests)
                == SERVE_OUTPUT_TOKENS
                and lo <= sum(r.prompt_len for r in requests) <= hi
                and serve_shape(requests) == SERVE_SHAPE):
            return spec, requests
    raise RuntimeError(f"no serve stream of the reference size for "
                       f"seed {seed}")


class Serve:
    """A fig20 quick request stream served to completion on CAIS and
    TP-NVLS: many tiny decode iterations, each rebuilding its graph and
    kernels, so it is the most event-heavy workload."""

    name = "serve"

    def __init__(self, seed: int, workdir: str) -> None:
        self.config = dgx_h100_config(seed=seed)
        self.spec, self.requests = serve_stream(seed)
        self.model = by_name(self.spec.model)

    def _serve(self, system: str):
        instance = make_system(system, self.config, tiling=QUICK.tiling,
                               chunk_bytes=QUICK.coll_chunk_bytes)
        return simulate_serving(instance, self.spec, model=self.model,
                                style=style_for(system),
                                requests=self.requests).run

    def run_pass(self) -> Pass:
        cells = [_timed_cell(system, system,
                             lambda s=system: self._serve(s))
                 for system in PAIR]
        return Pass(cells=cells, cpu_s=sum(c.cpu_s for c in cells))


@contextmanager
def _task_timer(runs: List[Tuple[int, float]]) -> Iterator[None]:
    """Record ``(id(task), cpu_s)`` for each simulation the matrix runner
    executes."""
    inner = parallel._execute_task_observed

    def timed(task):
        start = time.process_time()
        try:
            return inner(task)
        finally:
            runs.append((id(task), time.process_time() - start))
    parallel._execute_task_observed = timed
    try:
        yield
    finally:
        parallel._execute_task_observed = inner


class Matrix:
    """The fig12 sublayer matrix at QUICK scale over the nine baselines
    and :data:`MATRIX_MODELS` (72 tasks) through ``run_matrix`` into a
    fresh on-disk cache, then replayed once from that cache.  Many short
    simulations give harness and graph build, fingerprinting and the cache
    a real share; CAIS never runs here."""

    name = "matrix"

    def __init__(self, seed: int, workdir: str) -> None:
        self.workdir = workdir
        config = dgx_h100_config(seed=seed)
        self.tasks: List[SimTask] = []
        self.keys: List[str] = []
        for model_name in MATRIX_MODELS:
            model = QUICK.apply(TABLE_I[model_name])
            for which in SUBLAYERS:
                for system in BASELINES:
                    graph = sublayer_for(model, config.num_gpus, system,
                                         which)
                    self.tasks.append(SimTask(system=system, graphs=(graph,),
                                              config=config, scale=QUICK))
                    self.keys.append(f"{model_name}/{which}/{system}")

    def run_pass(self) -> Pass:
        root = tempfile.mkdtemp(prefix="matrix-", dir=self.workdir)
        runs: List[Tuple[int, float]] = []
        failures: Dict[str, str] = {}
        start = time.process_time()
        try:
            with _task_timer(runs):
                cold = parallel.run_matrix(
                    self.tasks, ExecContext(jobs=1, cache=SimCache(root)))
                executed = len(runs)
                # A second cache object on the same directory, so the
                # replay reads every entry back from disk.
                warm = parallel.run_matrix(
                    self.tasks, ExecContext(jobs=1, cache=SimCache(root)))
        except Exception:   # noqa: BLE001 - every cell of the pass fails
            error = traceback.format_exc()
            return Pass(cells=[Cell(key=k, system=t.system, error=error)
                               for k, t in zip(self.keys, self.tasks)],
                        cpu_s=time.process_time() - start)
        finally:
            shutil.rmtree(root, ignore_errors=True)
        cpu_s = time.process_time() - start
        cpu_by_task = dict(runs[:executed])
        missed = {task_id for task_id, _ in runs[executed:]}
        cells = []
        for key, task, summary, again in zip(self.keys, self.tasks, cold,
                                             warm):
            cells.append(Cell(key=key, system=task.system,
                              cpu_s=cpu_by_task.get(id(task), 0.0),
                              makespan_ns=summary.makespan_ns,
                              physics=physics(summary)))
            if id(task) in missed:
                failures[key] = "cache replay missed"
            elif (json.dumps(again.to_dict(), sort_keys=True)
                  != json.dumps(summary.to_dict(), sort_keys=True)):
                failures[key] = "cache replay differs from the cold summary"
        return Pass(cells=cells, cpu_s=cpu_s, failures=failures,
                    tasks_executed=executed)


WORKLOADS = {cls.name: cls for cls in (TrainStep, Serve, Matrix)}


def check(passes: List[Pass], reference: Dict[str, str]
          ) -> Tuple[int, Dict[str, str], List[str]]:
    """Count attempted cells, name every failed one, list divergent ones.

    A cell fails if it raised, if its pass recorded a failure for it (a
    matrix replay miss or mismatch), or if its physics differ from the
    first pass run under the same fast-path config (nondeterminism).  A
    cell *diverges* if its physics differ from ``reference`` (the
    reference event path's physics by cell key); a divergent cell of an
    :data:`EXACT_SYSTEMS` system also fails.  Returns ``(attempted,
    {"<pass>:<key>": reason}, sorted divergent keys)``.
    """
    attempted = 0
    failed: Dict[str, str] = {}
    divergent = set()
    first: Dict[Tuple[str, str], Optional[str]] = {}
    for index, run in enumerate(passes):
        for cell in run.cells:
            attempted += 1
            tag = f"{index}:{cell.key}"
            baseline = first.setdefault((run.config, cell.key), cell.physics)
            if cell.error is not None:
                failed[tag] = cell.error.strip().splitlines()[-1]
            elif cell.key in run.failures:
                failed[tag] = run.failures[cell.key]
            elif cell.physics != baseline:
                failed[tag] = "physics differ between passes"
            elif cell.physics != reference.get(cell.key):
                divergent.add(cell.key)
                if cell.system in EXACT_SYSTEMS:
                    failed[tag] = ("physics differ from the reference "
                                   "event path")
    return attempted, failed, sorted(divergent)


def make_workdir(root: str) -> str:
    """A private scratch directory inside the checkout."""
    base = os.path.join(root, ".perfbench_work")
    os.makedirs(base, exist_ok=True)
    return tempfile.mkdtemp(prefix="run-", dir=base)
