"""Unit tests for causal event recording (repro.obs.causality)."""

import pytest

from repro import obs
from repro.common.events import Simulator
from repro.obs.causality import (CATEGORIES, EDGE_CATEGORY, GEMM_COMPUTE,
                                 LINK_SERIALIZATION, NO_CAUSE,
                                 CausalityRecorder)


@pytest.fixture(autouse=True)
def _clean_obs():
    obs.reset()
    yield
    obs.reset()


# ---------------------------------------------------------------------------
# Recorder basics
# ---------------------------------------------------------------------------

def test_node_ids_are_creation_order():
    cz = CausalityRecorder()
    a = cz.node(GEMM_COMPUTE, 0.0, 10.0, "a")
    b = cz.node(LINK_SERIALIZATION, 10.0, 12.0, "b", parents=((a, "queue"),))
    assert (a, b) == (0, 1)
    assert len(cz) == 2
    assert cz.get(b).parents == [(a, "queue")]


def test_no_cause_parents_are_filtered():
    cz = CausalityRecorder()
    n = cz.node(GEMM_COMPUTE, 0.0, 1.0, "n",
                parents=((NO_CAUSE, "dep"), (NO_CAUSE, "slot")))
    assert cz.get(n).parents == []


def test_node_rejects_negative_duration():
    cz = CausalityRecorder()
    with pytest.raises(ValueError):
        cz.node(GEMM_COMPUTE, 10.0, 5.0, "bad")


def test_every_edge_kind_maps_to_a_category():
    for kind, category in EDGE_CATEGORY.items():
        assert category in CATEGORIES, (kind, category)


# ---------------------------------------------------------------------------
# The disabled path
# ---------------------------------------------------------------------------

def test_default_ambient_is_null():
    assert obs.current().causality is None
    # Without a recorder a timer still carries a cause: NO_CAUSE.
    assert Simulator().timer(1.0, lambda: None).cause == NO_CAUSE


# ---------------------------------------------------------------------------
# Ambient propagation through the simulator
# ---------------------------------------------------------------------------

def test_event_callbacks_inherit_the_schedulers_cause():
    cz = CausalityRecorder()
    obs.install(causality=cz)
    sim = Simulator()
    seen = []

    def child():
        seen.append(cz.current)

    def parent():
        cz.current = cz.node(GEMM_COMPUTE, 0.0, sim.now, "parent")
        sim.schedule(5.0, child)
        sim.schedule(9.0, child)

    sim.schedule(1.0, parent)
    sim.run()
    # Both children observe the parent's node as their ambient cause.
    assert seen == [0, 0]


def test_sibling_events_do_not_leak_causes():
    cz = CausalityRecorder()
    obs.install(causality=cz)
    sim = Simulator()
    seen = {}

    def mark(name):
        seen[name] = cz.current

    def a():
        cz.current = cz.node(GEMM_COMPUTE, 0.0, sim.now, "a")
        sim.schedule(10.0, mark, "from-a")

    def b():
        # Scheduled from the root (cause NO_CAUSE); runs after a() set
        # the ambient — the restore on dispatch must reset it.
        mark("from-root")

    sim.schedule(1.0, a)
    sim.schedule(2.0, b)
    sim.run()
    assert seen["from-root"] == NO_CAUSE
    assert seen["from-a"] == 0


def test_events_without_a_recorder_carry_no_cause():
    sim = Simulator()
    ev = sim.timer(1.0, lambda: None)
    assert ev.cause == NO_CAUSE
    sim.run()
