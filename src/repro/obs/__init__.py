"""Unified observability layer: tracing, metrics, self-profiling.

Cooperating pieces, all off by default and zero-cost when off:

* :class:`Tracer` — structured spans/instants/counters on per-component
  tracks, exportable to Chrome/Perfetto JSON (:mod:`.perfetto`).
* :class:`MetricsRegistry` — named counters, gauges, and log-scale
  histograms with deterministic snapshots (:mod:`.metrics`).
* :class:`SimProfiler` — host-time hotspot profile of the simulator's own
  event loop (:mod:`.profiler`).
* :class:`CausalityRecorder` — causal event DAG behind ``repro explain``
  (:mod:`.causality`).
* :class:`TimeSeriesSink` — fixed sim-time windows of counters/gauges/
  quantile sketches for SLO reporting (:mod:`.timeseries`).
* :class:`RequestLog` — per-request span records for the serving
  workload (:mod:`.requests`).
* :class:`RunLedger` — append-only cross-run record of completed
  simulations behind ``repro ledger`` (:mod:`.ledger`).  Unlike the
  sinks above it is activated ambiently via the ``REPRO_LEDGER``
  environment variable (so matrix pool workers inherit it), not via
  :func:`install`.

The installed sinks live in one frozen :class:`ObsContext`, read with
:func:`current`; a field that is ``None`` is off.  Components capture
the sinks they use once, at construction (``sinks = obs.current()``),
and guard each instrumented site with ``is not None``, so a sink must be
installed before the harness is built.  :func:`installed` scopes an
install to a ``with`` block — see DESIGN.md, "Observability".
"""

from __future__ import annotations

import dataclasses
from contextlib import contextmanager
from typing import Iterator, Optional

from .causality import CausalityRecorder
from .ledger import LEDGER_ENV, LEDGER_SCHEMA, RunLedger, ledger_from_env
from .metrics import (Counter, EmptyDistributionWarning, Gauge, Histogram,
                      MetricsRegistry, merge_histogram_states,
                      reset_empty_distribution_warnings)
from .profiler import SimProfiler
from .requests import RequestLog
from .timeseries import TimeSeriesSink
from .tracer import Tracer

__all__ = [
    "CausalityRecorder", "Counter", "EmptyDistributionWarning", "Gauge",
    "Histogram", "LEDGER_ENV", "LEDGER_SCHEMA", "MetricsRegistry",
    "ObsContext", "RequestLog", "RunLedger", "SimProfiler",
    "TimeSeriesSink", "Tracer", "current", "install", "installed",
    "ledger_from_env", "merge_histogram_states", "reset",
    "reset_empty_distribution_warnings",
]


@dataclasses.dataclass(frozen=True)
class ObsContext:
    """The installed observability sinks; ``None`` means that sink is off."""

    tracer: Optional[Tracer] = None
    metrics: Optional[MetricsRegistry] = None
    profiler: Optional[SimProfiler] = None
    causality: Optional[CausalityRecorder] = None
    timeseries: Optional[TimeSeriesSink] = None
    request_log: Optional[RequestLog] = None


_OFF = ObsContext()
_current = _OFF


def current() -> ObsContext:
    """The installed context (every field ``None`` when nothing is)."""
    return _current


def install(**sinks) -> ObsContext:
    """Set the named sinks, leaving the others; returns the previous
    context.

    ``install(tracer=None)`` turns the tracer off.  Call it *before*
    building a harness: components capture the sinks at construction.
    """
    global _current
    prev = _current
    _current = dataclasses.replace(prev, **sinks)
    return prev


def reset() -> None:
    """Turn every sink off."""
    global _current
    _current = _OFF


@contextmanager
def installed(**sinks) -> Iterator[ObsContext]:
    """:func:`install` for the length of a ``with`` block, restoring the
    previous context on exit and on exception."""
    global _current
    prev = install(**sinks)
    try:
        yield _current
    finally:
        _current = prev
