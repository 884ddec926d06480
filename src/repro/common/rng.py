"""Deterministic per-component random streams.

Every stochastic effect in the simulator (thread-block execution jitter,
per-GPU clock skew, scheduler tie-breaking) draws from a named stream so that

* runs are reproducible for a fixed master seed, and
* adding a new consumer of randomness does not perturb existing streams
  (each stream is seeded independently from the master seed and its name).
"""

from __future__ import annotations

import hashlib
from typing import Dict, List

import numpy as np

#: Raw doubles a buffered stream draws from its generator at a time.  64
#: spread a refill's numpy call to about 30 ns a draw while keeping few
#: drawn-but-unserved doubles alive per harness.
BUFFER_DOUBLES = 64


class UniformBuffer:
    """Uniform draws on one stream, served from raw doubles drawn ahead.

    ``Generator.random(n)`` consumes the same bits as ``n`` scalar draws,
    and numpy computes ``uniform(low, high)`` as
    ``low + (high - low) * random()``, so the values served here equal the
    stream's scalar ``Generator.uniform`` sequence bit for bit, at a
    fraction of the cost of one numpy call per value.  Once a stream is
    buffered, draw from it only through its buffer: the generator itself
    runs ahead by the doubles not yet served.
    """

    __slots__ = ("_gen", "_buf", "_pos")

    def __init__(self, gen: np.random.Generator) -> None:
        self._gen = gen
        self._buf: List[float] = []
        self._pos = 0

    def uniform(self, low: float, high: float) -> float:
        """The next value, equal to ``gen.uniform(low, high)``."""
        pos = self._pos
        buf = self._buf
        if pos == len(buf):
            buf = self._buf = self._gen.random(BUFFER_DOUBLES).tolist()
            pos = 0
        self._pos = pos + 1
        return low + (high - low) * buf[pos]

    def uniforms(self, low: float, high: float, n: int) -> List[float]:
        """The next ``n`` values, as ``n`` calls of :meth:`uniform` return
        them: the buffered doubles first, then the rest drawn at once
        (numpy's elementwise multiply and add round exactly as the scalar
        expression does)."""
        span = high - low
        pos = self._pos
        head = self._buf[pos:pos + n]
        self._pos = pos + len(head)
        out = [low + span * u for u in head]
        if len(out) < n:
            rest = self._gen.random(n - len(out))
            out.extend((low + span * rest).tolist())
        return out


class RngPool:
    """Factory of independent, deterministically seeded RNG streams."""

    def __init__(self, master_seed: int = 0):
        if master_seed < 0:
            raise ValueError(f"seed must be non-negative, got {master_seed}")
        self.master_seed = master_seed
        self._streams: dict = {}
        self._buffers: Dict[str, UniformBuffer] = {}

    def stream(self, name: str) -> np.random.Generator:
        """Return the RNG stream for ``name``, creating it on first use.

        The same ``(master_seed, name)`` pair always yields an identical
        stream regardless of creation order.
        """
        if name not in self._streams:
            digest = hashlib.sha256(
                f"{self.master_seed}:{name}".encode()).digest()
            seed = int.from_bytes(digest[:8], "little")
            self._streams[name] = np.random.default_rng(seed)
        return self._streams[name]

    def buffered(self, name: str) -> UniformBuffer:
        """The :class:`UniformBuffer` of stream ``name`` (one per stream)."""
        buf = self._buffers.get(name)
        if buf is None:
            buf = self._buffers[name] = UniformBuffer(self.stream(name))
        return buf

    def jitter(self, name: str, magnitude: float) -> float:
        """One multiplicative jitter factor in ``[1-magnitude, 1+magnitude]``,
        drawn through the stream's buffer.

        Used for thread-block execution-time variability; ``magnitude=0``
        disables jitter, draws nothing and always returns exactly 1.0.
        """
        if magnitude == 0.0:
            return 1.0
        return 1.0 + self.buffered(name).uniform(-magnitude, magnitude)
