"""Append-only cross-run ledger of completed simulations.

Per-run observability (traces, ``explain``, ``report``/``diff``) dies
with the process that produced it; the **run ledger** is the layer that
survives.  Every completed simulation — a direct ``python -m repro`` run
or one :class:`~repro.experiments.parallel.SimTask` of a matrix sweep —
appends exactly one canonical-JSON record to a schema-versioned JSONL
file under ``.repro_ledger/``, so the history of runs across working
sessions (and across PRs, in CI artifacts) becomes a queryable dataset:
``python -m repro ledger query/summarize/regress``.

Record model (``LEDGER_SCHEMA``-versioned)::

    {
      "schema": 1, "kind": "repro-run-record",
      "fingerprint": "<SimTask cache fingerprint, sha256 hex>",
      "spec":    {...}   # what ran: system/seed/scale/tiling/faults/...
      "metrics": {...}   # deterministic headline scalars (makespan, ...)
      "details": {...}   # deterministic run details (explain.*, faults.*)
      "volatile": {...}  # wall time, cache hit/miss, git rev, tools, pid
    }

Everything outside the ``volatile`` section is a pure function of the
simulation inputs, so two same-seed runs append **byte-identical stable
sections** (:func:`stable_line`) — the convention volatile gauges and
``report_to_json`` already follow (DESIGN.md §11/§13).  Wall-clock
quantities, the cache hit flag (an execution accident, not a property of
the run), the git revision, and tool versions are quarantined in
``volatile``.

Writes are atomic and concurrent-safe: one ``os.write`` of one complete
line on an ``O_APPEND`` descriptor, serialized by an ``flock`` where the
platform has one, so pool workers from
:func:`~repro.experiments.parallel.run_matrix` can append directly.
Like the simulation cache, the ledger is an observer, never a
correctness dependency — I/O failures warn and are swallowed, corrupt
lines are skipped on read.

Activation is ambient via the ``REPRO_LEDGER`` environment variable
(the CLIs' ``--ledger`` flag sets it), so worker processes inherit the
choice exactly like ``REPRO_NO_FASTPATH``; when unset,
:func:`ledger_from_env` returns ``None`` and nothing in this module runs
on any hot path.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
import warnings
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional

try:                              # POSIX; Windows falls back to O_APPEND
    import fcntl
except ImportError:               # pragma: no cover - platform specific
    fcntl = None  # type: ignore[assignment]

#: Bump on any incompatible change to the record shape; old records stay
#: on disk under their own ``v<N>/`` directory and are never read again.
LEDGER_SCHEMA = 1

#: Environment variable naming the ledger root; set by ``--ledger`` so
#: that pool workers inherit it regardless of start method.
LEDGER_ENV = "REPRO_LEDGER"

RECORD_KIND = "repro-run-record"

#: The quarantined section: everything that may legitimately differ
#: between two same-seed runs of the same code.
VOLATILE_KEY = "volatile"

#: Keys every record must carry (``volatile`` included — a record with
#: no provenance is useless for auditing).
_REQUIRED = ("schema", "kind", "fingerprint", "spec", "metrics",
             "details", VOLATILE_KEY)


def _canonical_json(payload: Dict[str, Any]) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def validate_record(record: Dict[str, Any]) -> None:
    """Structural check; raises ``ValueError`` naming the first problem."""
    if not isinstance(record, dict):
        raise ValueError("ledger record: not a JSON object")
    for key in _REQUIRED:
        if key not in record:
            raise ValueError(f"ledger record: missing {key!r}")
    if record["kind"] != RECORD_KIND:
        raise ValueError(f"ledger record: kind is {record['kind']!r}, "
                         f"expected {RECORD_KIND!r}")
    if record["schema"] != LEDGER_SCHEMA:
        raise ValueError(f"ledger record: schema {record['schema']!r} "
                         f"!= supported {LEDGER_SCHEMA}")
    fp = record["fingerprint"]
    if not (isinstance(fp, str) and len(fp) == 64
            and all(c in "0123456789abcdef" for c in fp)):
        raise ValueError(f"ledger record: fingerprint {fp!r} is not a "
                         f"sha256 hex digest")
    for key in ("spec", "metrics", "details", VOLATILE_KEY):
        if not isinstance(record[key], dict):
            raise ValueError(f"ledger record: {key!r} must be an object, "
                             f"got {type(record[key]).__name__}")
    metrics = record["metrics"]
    for key in ("makespan_ns", "events"):
        if not isinstance(metrics.get(key), (int, float)):
            raise ValueError(f"ledger record: metrics.{key} missing or "
                             f"non-numeric")
    vol = record[VOLATILE_KEY]
    if not isinstance(vol.get("cache_hit"), bool):
        raise ValueError("ledger record: volatile.cache_hit missing")
    if not isinstance(vol.get("wall_ms"), (int, float)):
        raise ValueError("ledger record: volatile.wall_ms missing")


def stable_view(record: Dict[str, Any]) -> Dict[str, Any]:
    """The record without its ``volatile`` section — the part that must
    be byte-identical across same-seed re-runs."""
    return {k: v for k, v in record.items() if k != VOLATILE_KEY}


def stable_line(record: Dict[str, Any]) -> str:
    """Canonical one-line JSON of :func:`stable_view` (comparison key for
    the determinism gate and ``ledger regress``)."""
    return _canonical_json(stable_view(record))


_GIT_REV: Optional[str] = None


def git_rev() -> str:
    """Current git revision (memoized; ``"unknown"`` outside a checkout).

    Provenance only — it lives in the volatile section, so record
    identity never depends on it.
    """
    global _GIT_REV
    if _GIT_REV is None:
        try:
            out = subprocess.run(
                ["git", "rev-parse", "HEAD"], capture_output=True,
                text=True, timeout=5.0, check=False)
            _GIT_REV = out.stdout.strip() if out.returncode == 0 else \
                "unknown"
        except (OSError, subprocess.SubprocessError):
            _GIT_REV = "unknown"
    return _GIT_REV


def tool_versions() -> Dict[str, str]:
    """Interpreter/package versions recorded for provenance."""
    from .. import __version__
    return {
        "python": "%d.%d.%d" % sys.version_info[:3],
        "repro": __version__,
    }


def build_record(*, fingerprint: str, spec: Dict[str, Any],
                 metrics: Dict[str, Any],
                 details: Optional[Dict[str, Any]] = None,
                 cache_hit: bool, wall_ms: float) -> Dict[str, Any]:
    """Assemble one schema-valid record; the caller appends it.

    ``spec``/``metrics``/``details`` must already be deterministic
    JSON-serializable primitives (the caller owns the digest policy —
    see :func:`repro.experiments.ledger.record_for_task`); this function
    contributes only the envelope and the volatile provenance section.
    """
    record = {
        "schema": LEDGER_SCHEMA,
        "kind": RECORD_KIND,
        "fingerprint": fingerprint,
        "spec": spec,
        "metrics": metrics,
        "details": dict(details or {}),
        VOLATILE_KEY: {
            "cache_hit": bool(cache_hit),
            "wall_ms": float(wall_ms),
            "recorded_unix": time.time(),
            "git_rev": git_rev(),
            "tools": tool_versions(),
            "pid": os.getpid(),
        },
    }
    validate_record(record)
    return record


class RunLedger:
    """Append-only JSONL store under ``root/v<LEDGER_SCHEMA>/runs.jsonl``."""

    def __init__(self, root: str = ".repro_ledger"):
        self.root = Path(root)
        self.path = self.root / f"v{LEDGER_SCHEMA}" / "runs.jsonl"
        self._warned = False

    def append(self, record: Dict[str, Any]) -> None:
        """Validate and atomically append one record (one line).

        The write is a single ``os.write`` on an ``O_APPEND`` descriptor
        under an exclusive ``flock`` (where available), so concurrent
        pool workers interleave whole lines, never fragments.  I/O
        failures warn once and are swallowed — the ledger must never
        take a simulation down.
        """
        validate_record(record)
        data = (_canonical_json(record) + "\n").encode()
        try:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            fd = os.open(str(self.path),
                         os.O_CREAT | os.O_WRONLY | os.O_APPEND, 0o644)
            try:
                if fcntl is not None:
                    fcntl.flock(fd, fcntl.LOCK_EX)
                os.write(fd, data)
            finally:
                if fcntl is not None:
                    try:
                        fcntl.flock(fd, fcntl.LOCK_UN)
                    except OSError:
                        pass
                os.close(fd)
        except OSError as exc:
            if not self._warned:
                self._warned = True
                warnings.warn(f"run ledger at {self.path} is unwritable "
                              f"({exc}); records are being dropped",
                              RuntimeWarning, stacklevel=2)

    def iter_records(self) -> Iterator[Dict[str, Any]]:
        """Parsed records in append order; corrupt/foreign lines skipped."""
        try:
            fh = open(self.path)
        except OSError:
            return
        with fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                    validate_record(record)
                except (ValueError, TypeError):
                    continue
                yield record

    def records(self) -> List[Dict[str, Any]]:
        return list(self.iter_records())

    def stale_schema_dirs(self) -> List[Path]:
        """Sibling ``v<N>/`` directories from older/newer schemas."""
        if not self.root.is_dir():
            return []
        keep = self.path.parent.name
        return sorted(p for p in self.root.iterdir()
                      if p.is_dir() and p.name != keep)

    def __len__(self) -> int:
        return sum(1 for _ in self.iter_records())


def ledger_from_env() -> Optional[RunLedger]:
    """The ambient ledger: a :class:`RunLedger` rooted at ``$REPRO_LEDGER``
    when that is set and non-empty, else ``None``.

    Resolved per call (cheap: one ``getenv``) so tests and CLIs can flip
    the variable without process-lifetime caching surprises.
    """
    root = os.environ.get(LEDGER_ENV)
    if not root:
        return None
    return RunLedger(root)
