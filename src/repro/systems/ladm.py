"""LADM: locality-centric TB scheduling (Khairy et al., MICRO'20).

LADM places thread blocks to maximize data locality *within* a GPU (or
multi-chip module), which reduces remote-access volume by a modest factor,
but it is communication-unaware: there are no collective algorithms, no
in-switch computing, and no compute-communication overlap.  Partial-result
aggregation therefore happens by **direct remote reads**: every GPU pulls
every peer's partial tensor and reduces locally — (K-1) x tensor bytes per
GPU instead of the ~1x an in-switch AllReduce moves.  That traffic blow-up
is why the paper reports CAIS ~7.6x faster (Section V-A).

The locality benefit is modelled as a fraction of remote chunks satisfied
locally (``locality_fraction``).
"""

from __future__ import annotations

import itertools
from typing import Callable, Optional

from ..common.errors import WorkloadError
from ..gpu.remote_ops import Transport
from ..interconnect.message import Address
from ..llm.graph import CommKind
from .base import Harness

_run_ids = itertools.count(1)
_LADM_BASE = 1 << 58


class DirectComm:
    """Collectives realized as unmerged direct remote reads.

    LADM has no collective library: consumers are replicated and read the
    producer's data remotely on demand, so *every* aggregation — whether a
    graph says AllReduce or ReduceScatter+AllGather — degenerates to each
    GPU pulling every peer's full partial tensor and reducing locally
    ((K-1) x tensor bytes per GPU).  ``locality_fraction`` models the share
    of accesses LADM's placement turns local (it cannot reduce aggregation
    traffic itself — every remote byte is semantically needed).
    """

    def __init__(self, harness: Harness, chunk_bytes: int = 262144,
                 locality_fraction: float = 0.05):
        if not 0 <= locality_fraction < 1:
            raise WorkloadError(
                f"locality_fraction must be in [0,1): {locality_fraction}")
        self.harness = harness
        self.chunk_bytes = chunk_bytes
        self.locality_fraction = locality_fraction
        self.k = harness.config.num_gpus

    def run(self, kind: CommKind, nbytes: int,
            on_complete: Callable[[], None], on_chunk=None,
            isolated: bool = False) -> None:
        if nbytes <= 0 or nbytes % self.k:
            raise WorkloadError(f"bad collective size {nbytes}")
        run_id = next(_run_ids)
        # Every GPU reads every peer's full partial tensor (AR semantics);
        # RS/AG in the graph are collective *algorithms* LADM cannot run.
        per_peer_bytes = nbytes
        chunks = -(-per_peer_bytes // self.chunk_bytes)
        fetched = max(1, int(round(chunks * (1 - self.locality_fraction))))
        state = {"left": self.k * (self.k - 1) * fetched}

        def one_done(_value) -> None:
            state["left"] -= 1
            if state["left"] == 0:
                on_complete()

        for gpu in self.harness.executor.gpus:
            for peer in range(self.k):
                if peer == gpu.index:
                    continue
                for c in range(fetched):
                    offset = (_LADM_BASE + run_id * (1 << 40) +
                              (gpu.index * self.k + peer) * (1 << 32) +
                              c * self.chunk_bytes)
                    gpu.memory.fetch_remote(
                        Address(peer, offset), self.chunk_bytes,
                        mergeable=False, expected=1, on_ready=one_done)
