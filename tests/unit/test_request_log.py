"""Unit tests for per-request span records (repro.obs.requests)."""

import pytest

from repro.obs.causality import (CausalityRecorder, GEMM_COMPUTE,
                                 LINK_SERIALIZATION, QUEUEING_WAIT,
                                 RETRANSMIT)
from repro.obs.requests import (GROUPS, PHASE_DECODE, PHASE_KINDS,
                                PHASE_PREFILL, PHASE_QUEUE, RequestLog,
                                RequestRecord, category_shares)


# ---------------------------------------------------------------------------
# Phase tiling
# ---------------------------------------------------------------------------

def test_phases_tile_arrival_to_finish():
    rec = RequestRecord(rid=1, arrival_ns=100.0, prompt_len=16, output_len=2)
    # A gap between arrival (100) and the first iteration (150) becomes an
    # implicit queue phase.
    rec.phase(PHASE_PREFILL, 150.0, 200.0, tokens=1)
    rec.phase(PHASE_DECODE, 200.0, 260.0, tokens=1)
    rec.close(260.0, first_token_ns=200.0)
    assert [p.kind for p in rec.phases] == [PHASE_QUEUE, PHASE_PREFILL,
                                            PHASE_DECODE]
    assert rec.e2e_ns == 160.0
    assert sum(p.duration_ns for p in rec.phases) == pytest.approx(rec.e2e_ns)
    assert rec.phase_total_ns(PHASE_QUEUE) == 50.0
    assert rec.phase_total_ns(PHASE_PREFILL) == 50.0
    assert rec.phase_total_ns(PHASE_DECODE) == 60.0


def test_gap_between_iterations_becomes_queue_phase():
    rec = RequestRecord(rid=2, arrival_ns=0.0, prompt_len=8, output_len=2)
    rec.phase(PHASE_PREFILL, 0.0, 10.0, tokens=1)
    # Evicted, re-admitted 30ns later.
    rec.event("evicted", 10.0)
    rec.phase(PHASE_PREFILL, 40.0, 55.0, tokens=1)
    rec.close(55.0, first_token_ns=55.0)
    kinds = [p.kind for p in rec.phases]
    assert kinds == [PHASE_PREFILL, PHASE_QUEUE, PHASE_PREFILL]
    assert rec.phases[1].duration_ns == 30.0
    assert rec.phases[1].categories == {"queue": 30.0}
    assert rec.evictions == 1
    assert rec.events == [("evicted", 10.0)]


def test_phase_before_cursor_raises():
    rec = RequestRecord(rid=3, arrival_ns=0.0, prompt_len=8, output_len=1)
    rec.phase(PHASE_PREFILL, 0.0, 20.0)
    with pytest.raises(ValueError, match="before the recorded timeline"):
        rec.phase(PHASE_DECODE, 10.0, 30.0)


def test_phase_end_before_start_raises():
    rec = RequestRecord(rid=4, arrival_ns=0.0, prompt_len=8, output_len=1)
    with pytest.raises(ValueError, match="before it starts"):
        rec.phase(PHASE_PREFILL, 10.0, 5.0)


def test_close_mismatch_raises_but_eps_slack_is_clamped():
    rec = RequestRecord(rid=5, arrival_ns=0.0, prompt_len=8, output_len=1)
    rec.phase(PHASE_PREFILL, 0.0, 100.0)
    with pytest.raises(ValueError, match="phases end at"):
        rec.close(150.0, first_token_ns=None)
    # Sub-epsilon float drift from schedule_at round-trips is tolerated.
    rec2 = RequestRecord(rid=6, arrival_ns=0.0, prompt_len=8, output_len=1)
    rec2.phase(PHASE_PREFILL, 0.0, 100.0)
    rec2.phase(PHASE_DECODE, 100.0 - 5e-4, 120.0)
    rec2.close(120.0, first_token_ns=120.0)
    assert rec2.phases[-1].start_ns == 100.0  # clamped, no overlap


def test_to_dict_is_json_shaped_and_sorted():
    rec = RequestRecord(rid=7, arrival_ns=0.0, prompt_len=4, output_len=1)
    rec.phase(PHASE_PREFILL, 0.0, 10.0, tokens=1,
              categories={"comm": 4.0, "compute": 6.0})
    rec.close(10.0, first_token_ns=10.0)
    d = rec.to_dict()
    assert d["rid"] == 7
    assert list(d["phases"][0]["categories"]) == ["comm", "compute"]
    assert d["phases"][0]["tokens"] == 1


# ---------------------------------------------------------------------------
# category_shares
# ---------------------------------------------------------------------------

def _recorder_with(nodes):
    cz = CausalityRecorder()
    for cat, start, end in nodes:
        cz.node(cat, start, end, f"{cat} node")
    return cz


def test_category_shares_is_exact_partition():
    cz = _recorder_with([
        (GEMM_COMPUTE, 0.0, 60.0),        # compute: 60 busy
        (LINK_SERIALIZATION, 0.0, 30.0),  # comm: 30 busy
        (QUEUEING_WAIT, 50.0, 60.0),      # queue: 10 busy
    ])
    shares = category_shares(cz, 0, 0.0, 100.0)
    assert sum(shares.values()) == pytest.approx(100.0)
    # Proportional to busy time: 60/100, 30/100, 10/100 of the wall 100.
    assert shares["compute"] == pytest.approx(60.0)
    assert shares["comm"] == pytest.approx(30.0)
    assert shares["queue"] == pytest.approx(10.0)
    assert set(shares) <= set(GROUPS)


def test_category_shares_clips_nodes_to_interval():
    cz = _recorder_with([
        (GEMM_COMPUTE, -50.0, 50.0),   # only [0, 50] overlaps
        (RETRANSMIT, 50.0, 150.0),     # only [50, 100] overlaps
    ])
    shares = category_shares(cz, 0, 0.0, 100.0)
    assert shares["compute"] == pytest.approx(50.0)
    assert shares["fault"] == pytest.approx(50.0)


def test_category_shares_respects_start_index():
    cz = _recorder_with([(GEMM_COMPUTE, 0.0, 100.0)])
    mark = len(cz)
    cz.node(LINK_SERIALIZATION, 0.0, 100.0, "later comm")
    shares = category_shares(cz, mark, 0.0, 100.0)
    # Only the node recorded after the mark participates.
    assert shares == {"comm": pytest.approx(100.0)}


def test_category_shares_no_work_falls_back_to_queue():
    cz = CausalityRecorder()
    assert category_shares(cz, 0, 0.0, 40.0) == {"queue": 40.0}


def test_category_shares_empty_interval_is_empty():
    cz = _recorder_with([(GEMM_COMPUTE, 0.0, 10.0)])
    assert category_shares(cz, 0, 5.0, 5.0) == {}


# ---------------------------------------------------------------------------
# RequestLog
# ---------------------------------------------------------------------------

def test_request_log_open_get_and_sorted_records():
    log = RequestLog()
    log.open(3, 30.0, 8, 1)
    log.open(1, 10.0, 8, 1)
    assert log.get(3).arrival_ns == 30.0
    assert [r.rid for r in log.records()] == [1, 3]
    with pytest.raises(ValueError, match="already has an open record"):
        log.open(1, 99.0, 8, 1)


def test_request_log_snapshot_roundtrips_through_to_dict():
    log = RequestLog()
    rec = log.open(0, 0.0, 4, 1)
    rec.phase(PHASE_PREFILL, 0.0, 10.0, tokens=1)
    rec.close(10.0, first_token_ns=10.0)
    snap = log.snapshot()
    assert len(snap) == 1
    assert snap[0] == rec.to_dict()


def test_phase_kind_constants_cover_report_order():
    assert PHASE_KINDS == (PHASE_QUEUE, PHASE_PREFILL, PHASE_DECODE)
    assert GROUPS == ("compute", "comm", "queue", "fault")
