"""Unit tests for the discrete-event engine."""

import gc

import pytest

from repro.common.events import Event, Simulator
from repro.common.errors import SimulationError


def test_events_fire_in_time_order():
    sim = Simulator()
    fired = []
    sim.schedule(10.0, fired.append, "late")
    sim.schedule(5.0, fired.append, "early")
    sim.schedule(7.5, fired.append, "middle")
    sim.run()
    assert fired == ["early", "middle", "late"]
    assert sim.now == 10.0


def test_equal_time_events_fire_in_scheduling_order():
    sim = Simulator()
    fired = []
    for i in range(5):
        sim.schedule(3.0, fired.append, i)
    sim.run()
    assert fired == [0, 1, 2, 3, 4]


def test_schedule_in_the_past_raises():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule(-1.0, lambda: None)


def test_cancelled_event_does_not_fire():
    sim = Simulator()
    fired = []
    ev = sim.timer(5.0, fired.append, "dead")
    sim.schedule(6.0, fired.append, "alive")
    ev.cancel()
    sim.run()
    assert fired == ["alive"]


def test_cancel_is_idempotent():
    sim = Simulator()
    ev = sim.timer(1.0, lambda: None)
    ev.cancel()
    ev.cancel()
    sim.run()
    assert sim.events_processed == 0


def test_events_scheduled_from_callbacks_run():
    sim = Simulator()
    fired = []

    def chain(n):
        fired.append(n)
        if n < 3:
            sim.schedule(1.0, chain, n + 1)

    sim.schedule(0.0, chain, 0)
    sim.run()
    assert fired == [0, 1, 2, 3]
    assert sim.now == 3.0


def test_run_until_stops_before_future_events():
    sim = Simulator()
    fired = []
    sim.schedule(5.0, fired.append, "a")
    sim.schedule(50.0, fired.append, "b")
    sim.run(until=10.0)
    assert fired == ["a"]
    assert sim.now == 10.0
    sim.run()
    assert fired == ["a", "b"]


def test_run_until_advances_clock_when_queue_empty():
    sim = Simulator()
    sim.run(until=123.0)
    assert sim.now == 123.0


@pytest.mark.parametrize("until, queued", [
    (3.0, True), (float("inf"), False), (float("nan"), True),
], ids=["behind-now", "inf", "nan"])
def test_run_until_rejects_a_bound_behind_the_clock_or_not_finite(
        until, queued):
    """A bound behind the clock would move it backwards, ``inf`` would
    park it at infinity for every later schedule, and NaN would run with
    no bound at all: each raises, naming the value, and leaves the
    simulator as it was."""
    sim = Simulator()
    fired = []
    sim.schedule(10.0, fired.append, "first")
    sim.run()
    if queued:
        sim.schedule(5.0, fired.append, "next")
    with pytest.raises(SimulationError, match=str(until)):
        sim.run(until=until)
    assert sim.now == 10.0
    assert fired == ["first"]
    sim.run()
    assert fired == (["first", "next"] if queued else ["first"])


def test_run_max_events_limits_work():
    sim = Simulator()
    fired = []
    for i in range(10):
        sim.schedule(float(i), fired.append, i)
    sim.run(max_events=4)
    assert fired == [0, 1, 2, 3]


def test_schedule_at_absolute_time():
    sim = Simulator()
    fired = []
    sim.schedule_at(42.0, fired.append, "x")
    sim.run()
    assert sim.now == 42.0 and fired == ["x"]


def test_step_returns_false_when_empty():
    sim = Simulator()
    assert sim.step() is False


def test_drain_cancelled_compacts_queue():
    sim = Simulator()
    evs = [sim.timer(float(i), lambda: None) for i in range(10)]
    for ev in evs[:8]:
        ev.cancel()
    sim.drain_cancelled()
    assert sim.pending() == 2


def test_run_is_not_reentrant():
    sim = Simulator()

    def recurse():
        sim.run()

    sim.schedule(1.0, recurse)
    with pytest.raises(SimulationError):
        sim.run()


#: run() arguments selecting the fused loop and the general loop.
RUN_LOOPS = {"fused": {}, "general": {"until": 10.0}}


@pytest.fixture
def collector_state():
    """Restore the cyclic collector's setting after the test."""
    was_enabled = gc.isenabled()
    yield
    if was_enabled:
        gc.enable()
    else:
        gc.disable()


@pytest.mark.parametrize("loop", sorted(RUN_LOOPS))
@pytest.mark.parametrize("enabled", [True, False])
def test_run_pauses_the_cyclic_collector(loop, enabled, collector_state):
    """Callbacks run with the collector paused, and run() hands the
    caller's setting back, also when the caller had it off."""
    if enabled:
        gc.enable()
    else:
        gc.disable()
    sim = Simulator()
    seen = []
    sim.schedule(1.0, lambda: seen.append(gc.isenabled()))
    sim.schedule(2.0, lambda: seen.append(gc.isenabled()))
    sim.run(**RUN_LOOPS[loop])
    assert seen == [False, False]
    assert gc.isenabled() is enabled


@pytest.mark.parametrize("loop", sorted(RUN_LOOPS))
def test_run_restores_the_collector_when_a_callback_raises(
        loop, collector_state):
    gc.enable()
    sim = Simulator()

    def boom():
        raise RuntimeError("boom")

    sim.schedule(1.0, boom)
    with pytest.raises(RuntimeError):
        sim.run(**RUN_LOOPS[loop])
    assert gc.isenabled()


def test_cancelling_a_fired_event_counts_nothing():
    sim = Simulator()
    ev = sim.timer(1.0, lambda: None)
    sim.run()
    ev.cancel()
    assert ev.cancelled
    assert sim.cancelled_pending() == 0
    assert sim.cancelled_fraction() == 0.0


@pytest.mark.parametrize("drive", ["run", "run_max", "step"])
def test_self_cancel_inside_callback_counts_nothing(drive):
    """Two events cancel themselves while a third is still queued: the
    queue holds no cancelled event, so the fraction must read 0 (it read
    2.0 when fired events were counted)."""
    sim = Simulator()
    own = {}
    fractions = []

    def self_cancel(name):
        own[name].cancel()
        fractions.append(sim.cancelled_fraction())

    own["a"] = sim.timer(1.0, self_cancel, "a")
    own["b"] = sim.timer(2.0, self_cancel, "b")
    sim.schedule(3.0, lambda: None)
    if drive == "run":
        sim.run(until=2.5)
    elif drive == "run_max":
        sim.run(max_events=2)
    else:
        sim.step()
        sim.step()
    assert sim.pending() == 1
    assert sim.cancelled_pending() == 0
    assert fractions == [0.0, 0.0]


def test_cancelled_pending_counts_queued_cancels_until_skipped():
    sim = Simulator()
    dead = sim.timer(1.0, lambda: None)
    sim.schedule(2.0, lambda: None)
    dead.cancel()
    assert sim.cancelled_pending() == 1
    assert sim.cancelled_fraction() == 0.5
    sim.run()
    assert sim.cancelled_pending() == 0


def test_schedule_at_with_reserved_seq_orders_by_reservation():
    """A timer queued under a reserved sequence number fires where one
    scheduled at the reservation would have, among same-instant events."""
    sim = Simulator()
    fired = []
    sim.schedule_at(5.0, fired.append, "first")
    reserved = sim.seq_allocated
    sim.advance_seq(1)
    sim.schedule_at(5.0, fired.append, "third")
    sim.timer_at(5.0, fired.append, "second", seq=reserved)
    sim.run()
    assert fired == ["first", "second", "third"]
    assert sim.seq_allocated == 3


# Queue entries -------------------------------------------------------


def test_schedule_queues_a_plain_tuple_and_returns_none():
    """A plain event is the tuple ``(time, seq, callback, args)``; no
    Event object is built for it."""
    sim = Simulator()
    fired = []
    assert sim.schedule(2.0, fired.append, "a") is None
    assert sim.schedule_at(1.0, fired.append, "b") is None
    assert sorted(sim._heap) == [(1.0, 1, fired.append, ("b",)),
                                 (2.0, 0, fired.append, ("a",))]
    sim.run()
    assert fired == ["b", "a"]


def test_timer_returns_an_event_on_a_timer_entry():
    """A timer is queued as ``(time, seq, None, event)``; the event fires
    its callback, and cancelling it after it fired counts nothing."""
    sim = Simulator()
    fired = []
    ev = sim.timer(3.0, fired.append, "t")
    at = sim.timer_at(4.0, fired.append, "u")
    assert isinstance(ev, Event) and isinstance(at, Event)
    assert (ev.time, ev.seq, ev.args) == (3.0, 0, ("t",))
    assert (at.time, at.seq, at.args) == (4.0, 1, ("u",))
    assert sim._heap[0] == (3.0, 0, None, ev)
    sim.run()
    assert fired == ["t", "u"]
    ev.cancel()
    at.cancel()
    assert sim.cancelled_pending() == 0


def test_cancelled_timer_is_skipped_among_plain_events():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, fired.append, "a")
    dead = sim.timer(1.0, fired.append, "dead")
    sim.schedule_at(1.0, fired.append, "b")
    dead.cancel()
    sim.run()
    assert fired == ["a", "b"]
    assert sim.events_processed == 2 and sim.cancelled_pending() == 0


@pytest.mark.parametrize("arm", [
    lambda sim, bad: sim.schedule(bad, lambda: None),
    lambda sim, bad: sim.schedule_at(bad, lambda: None),
    lambda sim, bad: sim.timer(bad, lambda: None),
    lambda sim, bad: sim.timer_at(bad, lambda: None),
], ids=["schedule", "schedule_at", "timer", "timer_at"])
@pytest.mark.parametrize("bad", [float("nan"), -1.0])
def test_scheduling_rejects_nan_and_past_times(arm, bad):
    """NaN passes ``x < 0`` and ``x < now``; a NaN event would leave the
    clock at NaN, after which no monotonicity check can fire."""
    sim = Simulator()
    with pytest.raises(SimulationError):
        arm(sim, bad)
    assert sim.pending() == 0 and sim.now == 0.0
