"""Property tests: every way of running the engine fires the same events.

The engine fires events in ``(time, seq)`` order, skipping cancelled
timers.  These tests drive the simulator through randomized
schedule/cancel/step scripts generated by hypothesis and require the
observable firing sequence to match a reference queue written here, and
the fused ``run()`` loop to match ``run(max_events=k)`` and ``step()``.
Scripts mix plain events with cancellable timers, the two kinds of queue
entry, and cancel only timers.
"""

from __future__ import annotations

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.events import Simulator

# One scripted operation: (kind, value).
#   ("push", delay)    — schedule a recording callback `delay` ns ahead
#   ("push_at", dt)    — schedule at absolute time now + dt (exact)
#   ("timer", delay)   — the same as "push", on a cancellable timer
#   ("timer_at", dt)   — the same as "push_at", on a cancellable timer
#   ("cancel", k)      — cancel the k-th oldest still-armed timer
#   ("run", n)         — fire up to n events
_DELAYS = st.floats(min_value=0.0, max_value=1e6,
                    allow_nan=False, allow_infinity=False)
_OPS = st.lists(
    st.one_of(
        st.tuples(st.sampled_from(["push", "push_at", "timer",
                                   "timer_at"]), _DELAYS),
        st.tuples(st.just("cancel"), st.integers(0, 30)),
        st.tuples(st.just("run"), st.integers(1, 20)),
    ),
    min_size=1, max_size=60)


def _execute(script):
    """Run one script on a fresh simulator; returns the firing log, the
    final clock and the fired count."""
    sim = Simulator()
    log = []
    armed = []

    def fire(tag):
        log.append((sim.now, tag))

    tag = 0
    for kind, value in script:
        if kind == "push":
            sim.schedule(value, fire, tag)
            tag += 1
        elif kind == "push_at":
            sim.schedule_at(sim.now + value, fire, tag)
            tag += 1
        elif kind == "timer":
            armed.append(sim.timer(value, fire, tag))
            tag += 1
        elif kind == "timer_at":
            armed.append(sim.timer_at(sim.now + value, fire, tag))
            tag += 1
        elif kind == "cancel":
            live = [e for e in armed if not e.cancelled]
            if live:
                live[value % len(live)].cancel()
        elif kind == "run":
            for _ in range(value):
                if not sim.step():
                    break
    sim.run()
    return log, sim.now, sim.events_processed


class _Timer:
    """A reference-queue timer: only its cancelled flag."""

    cancelled = False


def _reference(script):
    """The same script on a reference queue: a plain list, fired in
    ``(time, seq)`` order, skipping cancelled timers.  ``seq`` counts
    pushes, so it is also the tag ``_execute`` logs."""
    now = 0.0
    queue = []      # (time, seq, _Timer or None)
    armed = []
    log = []

    def step():
        nonlocal now
        while queue:
            entry = min(queue, key=lambda e: e[:2])
            queue.remove(entry)
            time, seq, timer = entry
            if timer is not None and timer.cancelled:
                continue
            now = time
            log.append((now, seq))
            return True
        return False

    seq = 0
    for kind, value in script:
        if kind in ("push", "push_at", "timer", "timer_at"):
            timer = None
            if kind.startswith("timer"):
                timer = _Timer()
                armed.append(timer)
            queue.append((now + value, seq, timer))
            seq += 1
        elif kind == "cancel":
            live = [t for t in armed if not t.cancelled]
            if live:
                live[value % len(live)].cancelled = True
        elif kind == "run":
            for _ in range(value):
                if not step():
                    break
    while step():
        pass
    return log, now, len(log)


@settings(max_examples=200, deadline=None)
@given(_OPS)
def test_simulator_fires_like_a_reference_queue(script):
    assert _execute(script) == _reference(script)


def test_schedule_at_avoids_cumulative_drift():
    """Regression: chained absolute schedules land on exact timestamps.

    A periodic process that re-schedules itself with a *relative* delay
    accumulates float rounding (``0.1 + 0.1 + 0.1 != 0.3``); one that
    precomputes ``t_k = k * period`` and uses ``schedule_at`` must fire at
    exactly those floats.  This is the contract the analytic kernel
    fast-path relies on when it schedules its completion at a precomputed
    absolute ``t_end``.
    """
    period, n = 0.1, 50
    targets = [k * period for k in range(1, n + 1)]
    # The relative chain provably drifts off the absolute timeline.
    acc, drifted = 0.0, False
    for t in targets:
        acc += period
        drifted = drifted or (acc != t)
    assert drifted

    sim = Simulator()
    fired = []

    def tick(k):
        fired.append(sim.now)
        if k + 1 < len(targets):
            sim.schedule_at(targets[k + 1], tick, k + 1)

    sim.schedule_at(targets[0], tick, 0)
    sim.run()
    assert fired == targets


@settings(max_examples=100, deadline=None)
@given(st.floats(min_value=1.0, max_value=1e12,
                 allow_nan=False, allow_infinity=False),
       st.floats(min_value=0.0, max_value=1e6,
                 allow_nan=False, allow_infinity=False))
def test_schedule_at_never_perturbs_timestamps(base, offset):
    """For arbitrary (base, offset), an event scheduled at an absolute
    time fires at *exactly* that float."""
    target = base + offset  # an arbitrary representable float >= base
    assert not math.isnan(target)
    sim = Simulator()
    fired = []
    sim.schedule(base, lambda: None)   # advance the clock first
    sim.run()
    sim.schedule_at(target, lambda: fired.append(sim.now))
    sim.run()
    assert fired == [target]


# Fused run loop vs the general loop -----------------------------------
#
# ``Simulator.run()`` with no options pops straight off the heap in a
# fused loop; ``run(max_events=k)`` and ``step()`` take the general
# loop.  A script seeds a few events, plain or timers; each fired event
# then performs actions drawn from the script: schedule children (plain
# or timers, at the same instant or later, relative or absolute), cancel
# an earlier timer (possibly one that already fired), or cancel itself
# (a no-op for a plain event, which cannot be cancelled).

_ACTIONS = st.lists(
    st.one_of(
        st.tuples(st.sampled_from(["child", "timer"]),
                  st.sampled_from([0.0, 0.0, 0.5, 1.0, 3.0, 250.0])),
        st.tuples(st.sampled_from(["child_at", "timer_at"]),
                  st.sampled_from([0.0, 2.0, 7.5])),
        st.tuples(st.just("cancel"), st.integers(0, 50)),
        st.tuples(st.just("self_cancel"), st.just(0)),
    ),
    min_size=1, max_size=4)

_SCRIPTS = st.tuples(
    st.lists(st.tuples(st.sampled_from([0.0, 0.0, 1.0, 2.0, 5.0, 40.0]),
                       st.booleans()),
             min_size=1, max_size=12),
    st.lists(_ACTIONS, min_size=1, max_size=12),
    st.integers(0, 3),
)

#: Events one script may create, so that cascades stay finite.
_EVENT_BUDGET = 120


def _cascade(script, drive: str, chunk: int = 1):
    """Fire ``script`` run one of three ways; returns the firing log
    of ``(time, seq)`` pairs, the final clock, the fired count and the
    cancelled-pending count left on the drained queue."""
    seeds, plans, depth_cap = script
    sim = Simulator()
    log = []
    seqs = []       # per event: the sequence number it was queued under
    timers = []     # per event: its Event when a timer, else None

    def add(kind, when, depth):
        index = len(seqs)
        seqs.append(sim.seq_allocated)
        timer = None
        if kind == "child":
            sim.schedule(when, fire, index, depth)
        elif kind == "child_at":
            sim.schedule_at(sim.now + when, fire, index, depth)
        elif kind == "timer":
            timer = sim.timer(when, fire, index, depth)
        else:
            timer = sim.timer_at(sim.now + when, fire, index, depth)
        timers.append(timer)

    def fire(index, depth):
        log.append((sim.now, seqs[index]))
        for kind, value in plans[index % len(plans)]:
            if kind == "cancel":
                armed = [t for t in timers if t is not None]
                if armed:
                    armed[value % len(armed)].cancel()
            elif kind == "self_cancel":
                if timers[index] is not None:
                    timers[index].cancel()
            elif depth < depth_cap and len(seqs) < _EVENT_BUDGET:
                add(kind, value, depth + 1)

    for delay, timer in seeds:
        add("timer" if timer else "child", delay, 0)
    if drive == "run":
        sim.run()
    elif drive == "chunks":
        while sim.pending():
            sim.run(max_events=chunk)
    else:
        while sim.step():
            pass
    return log, sim.now, sim.events_processed, sim.cancelled_pending()


@settings(max_examples=200, deadline=None)
@given(_SCRIPTS, st.integers(1, 5))
def test_fused_loop_fires_like_the_general_loop(script, chunk):
    fused = _cascade(script, "run")
    assert fused[3] == 0      # a drained queue holds no cancelled events
    assert _cascade(script, "chunks", chunk) == fused
    assert _cascade(script, "step") == fused
