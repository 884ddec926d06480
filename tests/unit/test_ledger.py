"""Unit tests for the cross-run ledger (repro.obs.ledger +
repro.experiments.ledger).

Covers the record schema contract, the volatile-field quarantine
(same-seed re-runs append byte-identical stable sections), atomic
concurrent appends from real worker processes, and the query/summarize/
regress logic the ``repro ledger`` CLI exposes.  Matrix-level coverage
(hit-records on warm re-runs, meta-trace validity) lives in
tests/integration/test_ledger_matrix.py.
"""

import json
import multiprocessing
import os

import pytest

from repro.common.config import dgx_h100_config
from repro.experiments.ledger import (filter_records, record_for_task,
                                      regress_check, summarize_records,
                                      summary_metrics, task_spec)
from repro.experiments.parallel import SimTask, _execute_task
from repro.experiments.runner import Scale
from repro.llm.graph import CommKind, GemmShape, Graph, LogicalOp, OpKind
from repro.llm.tiling import TilingConfig
from repro.obs.ledger import (LEDGER_ENV, LEDGER_SCHEMA, RunLedger,
                              build_record, ledger_from_env, stable_line,
                              stable_view, validate_record)

SCALE = Scale(tokens_fraction=1.0,
              tiling=TilingConfig(chunk_bytes=32768, red_chunk_bytes=8192))


def tiny_task(system="TP-NVLS", seed=2026) -> SimTask:
    g = Graph("tiny")
    g.add(LogicalOp(name="gemm0", kind=OpKind.GEMM,
                    gemm=GemmShape(256, 256, 256)))
    g.add(LogicalOp(name="ar0", kind=OpKind.COMM, deps=("gemm0",),
                    comm=CommKind.ALL_REDUCE, comm_bytes=1 << 16))
    return SimTask(system=system, graphs=(g,),
                   config=dgx_h100_config(seed=seed), scale=SCALE)


def valid_record(fp_char="a", makespan=123.0, cache_hit=False,
                 wall_ms=7.5):
    return build_record(
        fingerprint=fp_char * 64,
        spec={"system": "CAIS", "workload": "graphs", "seed": 1},
        metrics={"makespan_ns": makespan, "events": 10},
        details={"x": 1.0},
        cache_hit=cache_hit, wall_ms=wall_ms)


# ---------------------------------------------------------------------------
# Record schema
# ---------------------------------------------------------------------------

class TestRecordSchema:
    def test_build_record_is_schema_valid(self):
        validate_record(valid_record())   # must not raise

    def test_volatile_carries_provenance(self):
        vol = valid_record(cache_hit=True, wall_ms=3.25)["volatile"]
        assert vol["cache_hit"] is True
        assert vol["wall_ms"] == 3.25
        assert vol["pid"] == os.getpid()
        assert "recorded_unix" in vol and "git_rev" in vol
        assert vol["tools"]["python"].count(".") == 2

    @pytest.mark.parametrize("key", ["schema", "kind", "fingerprint",
                                     "spec", "metrics", "details",
                                     "volatile"])
    def test_missing_section_rejected(self, key):
        rec = valid_record()
        del rec[key]
        with pytest.raises(ValueError, match="missing|kind|schema"):
            validate_record(rec)

    def test_wrong_kind_and_schema_rejected(self):
        rec = valid_record()
        rec["kind"] = "something-else"
        with pytest.raises(ValueError, match="kind"):
            validate_record(rec)
        rec = valid_record()
        rec["schema"] = LEDGER_SCHEMA + 1
        with pytest.raises(ValueError, match="schema"):
            validate_record(rec)

    def test_bad_fingerprint_rejected(self):
        rec = valid_record()
        rec["fingerprint"] = "xyz"
        with pytest.raises(ValueError, match="fingerprint"):
            validate_record(rec)

    def test_non_numeric_metrics_rejected(self):
        rec = valid_record()
        rec["metrics"]["makespan_ns"] = "fast"
        with pytest.raises(ValueError, match="makespan_ns"):
            validate_record(rec)

    def test_missing_volatile_fields_rejected(self):
        rec = valid_record()
        del rec["volatile"]["cache_hit"]
        with pytest.raises(ValueError, match="cache_hit"):
            validate_record(rec)


# ---------------------------------------------------------------------------
# Volatile quarantine
# ---------------------------------------------------------------------------

class TestStableView:
    def test_stable_view_strips_only_volatile(self):
        rec = valid_record()
        view = stable_view(rec)
        assert "volatile" not in view
        assert set(view) == {"schema", "kind", "fingerprint", "spec",
                             "metrics", "details"}

    def test_stable_line_ignores_volatile_differences(self):
        a = valid_record(cache_hit=False, wall_ms=100.0)
        b = valid_record(cache_hit=True, wall_ms=0.5)
        assert a["volatile"] != b["volatile"]
        assert stable_line(a) == stable_line(b)

    def test_stable_line_sees_metric_differences(self):
        assert stable_line(valid_record(makespan=1.0)) != \
            stable_line(valid_record(makespan=2.0))

    def test_rerun_records_are_byte_identical(self):
        """Five same-seed re-runs of one task -> one stable line."""
        task = tiny_task()
        lines = set()
        for _ in range(5):
            summary, wall_ms = _execute_task(task)
            rec = record_for_task(task, summary, cache_hit=False,
                                  wall_ms=wall_ms)
            validate_record(rec)
            lines.add(stable_line(rec))
        assert len(lines) == 1

    def test_different_seeds_get_different_fingerprints(self):
        fps = {tiny_task(seed=s).fingerprint() for s in range(3)}
        assert len(fps) == 3


# ---------------------------------------------------------------------------
# Spec digest
# ---------------------------------------------------------------------------

class TestTaskSpec:
    def test_spec_names_the_run(self):
        spec = task_spec(tiny_task(seed=7))
        assert spec["system"] == "TP-NVLS"
        assert spec["workload"] == "graphs"
        assert spec["seed"] == 7
        assert spec["graphs"] == ["tiny"]
        assert spec["serving"] is None and spec["ablation"] is None
        assert spec["scale"]["tiling"]["chunk_bytes"] == 32768
        assert spec["faults"]["enabled"] is False

    def test_spec_is_json_serializable(self):
        json.dumps(task_spec(tiny_task()), sort_keys=True)

    def test_summary_metrics_match_record(self):
        task = tiny_task()
        summary, wall = _execute_task(task)
        rec = record_for_task(task, summary, cache_hit=False, wall_ms=wall)
        assert rec["metrics"] == summary_metrics(summary)
        assert rec["metrics"]["makespan_ns"] == summary.makespan_ns
        assert rec["fingerprint"] == task.fingerprint()


# ---------------------------------------------------------------------------
# Store
# ---------------------------------------------------------------------------

class TestRunLedger:
    def test_append_and_read_round_trip(self, tmp_path):
        led = RunLedger(str(tmp_path / "led"))
        rec = valid_record()
        led.append(rec)
        assert len(led) == 1
        assert led.records() == [rec]

    def test_corrupt_and_foreign_lines_skipped(self, tmp_path):
        led = RunLedger(str(tmp_path / "led"))
        led.append(valid_record())
        with open(led.path, "a") as fh:
            fh.write("not json at all\n")
            fh.write('{"kind": "something-else"}\n')
            fh.write("\n")
        led.append(valid_record(fp_char="b"))
        recs = led.records()
        assert len(recs) == 2
        assert {r["fingerprint"][0] for r in recs} == {"a", "b"}

    def test_append_validates(self, tmp_path):
        led = RunLedger(str(tmp_path / "led"))
        with pytest.raises(ValueError):
            led.append({"kind": "wrong"})
        assert len(led) == 0

    def test_unwritable_root_warns_and_drops(self, tmp_path):
        target = tmp_path / "blocked"
        target.write_text("a file, not a directory")
        led = RunLedger(str(target))
        with pytest.warns(RuntimeWarning, match="unwritable"):
            led.append(valid_record())
        # Second append stays silent (warn-once) and still doesn't raise.
        led.append(valid_record())
        assert led.records() == []

    def test_stale_schema_dirs(self, tmp_path):
        root = tmp_path / "led"
        led = RunLedger(str(root))
        led.append(valid_record())
        (root / "v0").mkdir()
        assert [p.name for p in led.stale_schema_dirs()] == ["v0"]

    def test_ledger_from_env(self, tmp_path, monkeypatch):
        monkeypatch.delenv(LEDGER_ENV, raising=False)
        assert ledger_from_env() is None
        monkeypatch.setenv(LEDGER_ENV, str(tmp_path / "led"))
        led = ledger_from_env()
        assert isinstance(led, RunLedger)
        assert led.root == tmp_path / "led"


def _append_worker(args):
    root, worker_id, count = args
    led = RunLedger(root)
    for i in range(count):
        led.append(build_record(
            fingerprint=f"{worker_id:x}" * 64,
            spec={"worker": worker_id},
            metrics={"makespan_ns": float(i), "events": i},
            cache_hit=False, wall_ms=1.0))
    return worker_id


class TestConcurrentAppends:
    def test_parallel_process_appends_interleave_whole_lines(self, tmp_path):
        """4 processes x 25 records, one shared file: every line intact."""
        root = str(tmp_path / "led")
        with multiprocessing.Pool(4) as pool:
            pool.map(_append_worker, [(root, w, 25) for w in range(4)])
        led = RunLedger(root)
        recs = led.records()
        assert len(recs) == 100
        # No fragmented/corrupt lines: the reader validated every one.
        per_worker = {}
        for rec in recs:
            per_worker.setdefault(rec["spec"]["worker"], 0)
            per_worker[rec["spec"]["worker"]] += 1
        assert per_worker == {0: 25, 1: 25, 2: 25, 3: 25}


# ---------------------------------------------------------------------------
# Query / summarize / regress
# ---------------------------------------------------------------------------

class TestQuerySummarize:
    def _records(self):
        a = valid_record(fp_char="a", makespan=10.0)
        b = valid_record(fp_char="b", makespan=20.0, cache_hit=True,
                         wall_ms=0.0)
        b["spec"]["system"] = "TP-NVLS"
        b["spec"]["seed"] = 2
        return [a, b]

    def test_filter_by_system_seed_fingerprint(self):
        recs = self._records()
        assert filter_records(recs, system="CAIS") == [recs[0]]
        assert filter_records(recs, seed=2) == [recs[1]]
        assert filter_records(recs, fingerprint="bb") == [recs[1]]
        assert filter_records(recs, workload="serving") == []

    def test_summarize_groups_and_rates(self):
        groups = summarize_records(self._records())
        assert [(g["system"], g["runs"]) for g in groups] == \
            [("CAIS", 1), ("TP-NVLS", 1)]
        hit = next(g for g in groups if g["system"] == "TP-NVLS")
        assert hit["cache_hit_rate"] == 1.0
        assert hit["sim_wall_ms_total"] == 0.0


def replica_task(role="replica", index=0, seed=2026) -> SimTask:
    from repro.llm.fleet import ReplicaSpec
    from repro.llm.serving import ServingSpec
    spec = ServingSpec(model="Mega-GPT-4B", seed=seed)
    replica = ReplicaSpec(role=role, index=index, spec=spec,
                          requests=((0, 0.0, 8, 2, False),))
    return SimTask(system="CAIS", graphs=(),
                   config=dgx_h100_config(seed=seed), scale=SCALE,
                   replica=replica)


class TestFleetRole:
    """Satellite: fleet runs must not alias single-session serving."""

    def test_replica_task_spec_carries_fleet_role(self):
        spec = task_spec(replica_task(role="prefill", index=2))
        assert spec["workload"] == "fleet"
        assert spec["role"] == "prefill[2]"
        assert spec["model"] == "Mega-GPT-4B"
        # The per-replica serving spec is what ran, so it is recorded.
        assert spec["serving"]["model"] == "Mega-GPT-4B"
        json.dumps(spec, sort_keys=True)   # digest stays serializable

    def test_non_fleet_specs_have_no_role(self):
        assert task_spec(tiny_task())["role"] is None

    def test_summarize_keys_on_fleet_role(self):
        def rec_for(task, makespan):
            return build_record(
                fingerprint=task.fingerprint(), spec=task_spec(task),
                metrics={"makespan_ns": makespan, "events": 1},
                cache_hit=False, wall_ms=1.0)

        records = [rec_for(replica_task(role="replica", index=0), 10.0),
                   rec_for(replica_task(role="replica", index=1), 20.0),
                   rec_for(replica_task(role="prefill", index=0), 30.0)]
        groups = summarize_records(records)
        # Three fleet records, three rollup rows — roles never alias.
        assert [(g["workload"], g["role"]) for g in groups] == \
            [("fleet", "prefill[0]"), ("fleet", "replica[0]"),
             ("fleet", "replica[1]")]
        assert all(g["runs"] == 1 for g in groups)

    def test_summarize_mixes_roled_and_roleless_records(self):
        fleet_rec = build_record(
            fingerprint="d" * 64,
            spec=task_spec(replica_task()),
            metrics={"makespan_ns": 5.0, "events": 1},
            cache_hit=False, wall_ms=1.0)
        groups = summarize_records([valid_record(), fleet_rec])
        # None-roled legacy records sort alongside roled ones (no
        # None-vs-str comparison), each in its own group.
        assert [(g["system"], g["workload"], g["role"]) for g in groups] \
            == [("CAIS", "fleet", "replica[0]"),
                ("CAIS", "graphs", None)]


class TestRegress:
    def test_empty_ledger_is_a_problem(self):
        assert regress_check([]) != []

    def test_clean_history_passes(self):
        recs = [valid_record(makespan=10.0),
                valid_record(makespan=10.0, cache_hit=True, wall_ms=0.0)]
        assert regress_check(recs) == []

    def test_determinism_drift_detected(self):
        recs = [valid_record(makespan=10.0), valid_record(makespan=11.0)]
        problems = regress_check(recs)
        assert any("drift" in p for p in problems)

    def test_replay_divergence_named_as_cache_problem(self):
        recs = [valid_record(makespan=10.0),
                valid_record(makespan=11.0, cache_hit=True, wall_ms=0.0)]
        problems = regress_check(recs)
        assert any("replay" in p for p in problems)

    def test_throughput_canary(self):
        # 10 events over 1000 s is catastrophically slow vs any reference.
        slow = build_record(fingerprint="c" * 64, spec={},
                            metrics={"makespan_ns": 1.0, "events": 10},
                            cache_hit=False, wall_ms=1e6)
        bench = {"events_per_cpu_second": 100_000.0}
        problems = regress_check([slow], engine_bench=bench)
        assert any("throughput" in p for p in problems)
        # The same record passes when the envelope is absent.
        assert regress_check([slow]) == []

    def test_expensive_hits_flagged_against_baseline(self):
        lazy_hit = valid_record(cache_hit=True, wall_ms=5000.0)
        problems = regress_check([lazy_hit], baseline_bench={"rows": []})
        assert any("replays" in p for p in problems)
