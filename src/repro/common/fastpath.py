"""Global fast-path configuration for the simulation engine.

Four composable acceleration layers (see DESIGN.md §11), each of which is
*equivalence-preserving* in a precisely stated sense:

* ``calendar_queue`` — bucketed event scheduler in
  :class:`repro.common.events.Simulator`, off by default: it never measured
  faster than the binary heap, whose push and pop the engine inlines.
  Fires events in exactly the same ``(time, seq)`` order as the heap, so
  enabling it never changes any output byte.
* ``link_windows`` — the fused wire+switch hop
  (:mod:`repro.interconnect.network`): an up link's serialization end
  schedules one event straight to the switch's dispatch at arrival + hop,
  instead of a delivery that schedules the hop.  The name is historical;
  the batched serialization windows it once also enabled are gone.  Only
  event *count* differs; the whole-run physics has matched the reference
  on every cell tried.
* ``analytic_collectives`` — calibrated completion times for uncongested
  collective phases (:mod:`repro.collectives.analytic`), validated online
  against the event path on a deterministic sample of ops.  The one
  default layer not exact everywhere: replay can move a train-step
  TP-NVLS makespan by one ULP.
* ``analytic_kernels`` — exact arithmetic evaluation of isolated
  pure-compute kernel launches (:mod:`repro.gpu.executor`): the SM slot
  pipeline is replayed in a specialized loop drawing the *same* RNG values
  in the *same* order as the event path, so every timestamp, jitter draw,
  and busy-integral float is reproduced bit-for-bit with two heap
  operations per thread block instead of two full engine events.

The process-global config is read once per :class:`Simulator`/harness
construction.  ``repro --no-fastpath`` (or ``REPRO_NO_FASTPATH=1``) forces
the reference event path everywhere, which is the byte-identity baseline CI
compares against.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import Iterator, Optional

#: Occurrences of a collective signature simulated on the event path
#: before the analytic bypass may engage: the first calibrates, the
#: remaining ``VALIDATE_OCCURRENCES - 1`` must reproduce the calibrated
#: makespan to exact float equality or the signature is blacklisted.
VALIDATE_OCCURRENCES = 2


@dataclass(frozen=True)
class FastPathConfig:
    """Which acceleration layers are active, plus their tuning knobs."""

    #: Use the calendar-queue scheduler instead of the binary heap.
    calendar_queue: bool = False
    #: Fuse each up link's delivery with its switch's fixed hop.
    link_windows: bool = True
    #: Bypass event-level simulation for validated uncongested collectives.
    analytic_collectives: bool = True
    #: Evaluate isolated pure-compute kernel launches arithmetically
    #: (bit-exact replication of the event path, including RNG draws).
    analytic_kernels: bool = True

    @property
    def any_enabled(self) -> bool:
        return (self.calendar_queue or self.link_windows
                or self.analytic_collectives or self.analytic_kernels)

    def cache_token(self) -> str:
        """Stable fingerprint component for result caches.

        Calendar-queue choice is provably output-invariant so it is *not*
        part of the token; the other layers change event counts (the
        fused hop) or skip simulation entirely (analytic), so cached
        summaries must not be shared across those modes.  An enabled
        kernel layer reads ``-k2`` since it also replays software
        pipelines' GEMM partitions, which changed the event counts of
        the overlap baselines' summaries; an enabled ``link_windows``
        reads ``w2`` since it no longer batches serialization windows,
        which changed event counts and some baseline physics.
        """
        return (f"fp:w{2 if self.link_windows else 0}"
                f"-a{int(self.analytic_collectives)}"
                f"-k{2 if self.analytic_kernels else 0}"
                f"-v{VALIDATE_OCCURRENCES}")


DISABLED = FastPathConfig(calendar_queue=False, link_windows=False,
                          analytic_collectives=False,
                          analytic_kernels=False)


def _from_env() -> FastPathConfig:
    if os.environ.get("REPRO_NO_FASTPATH", "").strip() not in ("", "0"):
        return DISABLED
    return FastPathConfig()


_config: FastPathConfig = _from_env()


def config() -> FastPathConfig:
    """The process-global fast-path configuration."""
    return _config


def set_config(cfg: FastPathConfig) -> FastPathConfig:
    """Install ``cfg`` globally; returns the previous config."""
    global _config
    previous = _config
    _config = cfg
    return previous


def disable_all() -> FastPathConfig:
    """Force the reference event path everywhere (``--no-fastpath``)."""
    return set_config(DISABLED)


@contextmanager
def overridden(cfg: Optional[FastPathConfig] = None,
               **overrides) -> Iterator[FastPathConfig]:
    """Temporarily install ``cfg`` (or field overrides) — test helper."""
    new = cfg if cfg is not None else replace(_config, **overrides)
    previous = set_config(new)
    try:
        yield new
    finally:
        set_config(previous)
