"""The two command lines' shared flags, driven through their ``main()``.

``--no-fastpath`` and ``--ledger`` change the process (an environment
variable each, and the fast-path config), so every test here restores
both; each also checks that the observability context its caller had
installed is installed again when ``main()`` returns.
"""

import json
import os

import pytest

from repro import obs
from repro.__main__ import main as repro_main
from repro.common import fastpath
from repro.experiments.__main__ import main as experiments_main
from repro.obs.ledger import LEDGER_ENV, RunLedger

#: A TP-NVLS L1 run small enough for tier-1 (well under a second).
SMALL_RUN = ["--system", "TP-NVLS", "--workload", "L1",
             "--scale", "0.03125", "--no-gantt"]


@pytest.fixture(autouse=True)
def _restore_process(monkeypatch):
    monkeypatch.delenv(LEDGER_ENV, raising=False)
    monkeypatch.delenv("REPRO_NO_FASTPATH", raising=False)
    saved = fastpath.config()
    obs.reset()
    yield
    fastpath.set_config(saved)
    obs.reset()


@pytest.fixture
def caller_context():
    """A registry the caller installed; main() must not record into it."""
    reg = obs.MetricsRegistry()
    obs.install(metrics=reg)
    return obs.current()


def _trailing_json(out: str) -> dict:
    return json.loads(out[out.index("\n{") + 1:])


def test_single_run_metrics_faults_and_ledger(tmp_path, capsys,
                                              caller_context):
    ledger_dir = str(tmp_path / "ledger")
    assert repro_main(SMALL_RUN + ["--metrics", "--faults",
                                   "--fault-seed", "3",
                                   "--ledger", ledger_dir]) == 0
    out = capsys.readouterr().out
    assert _trailing_json(out)["counters"]["faults.retries"] > 0
    records = RunLedger(ledger_dir).records()
    assert len(records) == 1                 # appended once, not twice
    assert records[0]["spec"]["faults"]["enabled"] is True
    assert records[0]["spec"]["faults"]["fault_seed"] == 3
    assert obs.current() is caller_context
    assert caller_context.metrics.snapshot() == \
        obs.MetricsRegistry().snapshot()


def test_experiments_hw_metrics(tmp_path, capsys, caller_context):
    assert experiments_main(["hw", "--metrics",
                             "--cache-dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "hardware overhead" in out
    assert set(_trailing_json(out)) == {"counters", "gauges",
                                        "histograms"}
    assert obs.current() is caller_context


def test_single_run_no_fastpath(capsys, caller_context):
    assert repro_main(SMALL_RUN + ["--no-fastpath"]) == 0
    assert "makespan:" in capsys.readouterr().out
    assert fastpath.config() == fastpath.DISABLED
    assert obs.current() is caller_context


def test_experiments_no_fastpath(tmp_path, capsys, caller_context):
    assert experiments_main(["hw", "--no-fastpath",
                             "--cache-dir", str(tmp_path)]) == 0
    capsys.readouterr()
    assert fastpath.config() == fastpath.DISABLED
    assert os.environ["REPRO_NO_FASTPATH"] == "1"   # for pool workers
    assert obs.current() is caller_context
