"""Content-addressed simulation-result cache.

Every ``run_system()`` call in the experiment harness is a *pure function*
of its inputs: the simulator is deterministic for a fixed master seed
(PR 1's byte-identity tests pin this down), and each run builds a fresh
engine.  That makes simulation results safe to reuse: two tasks with the
same (system + kwargs, graph structure, :class:`SystemConfig`,
:class:`TilingConfig`/scale, seed) fingerprint *must* produce the same
:class:`~repro.experiments.parallel.RunSummary`, so the harness never has
to simulate the same run twice — across figures (fig11/fig15/fig16 share
baseline runs) or across invocations (the on-disk layer).

The fingerprint is the SHA-256 of a canonical JSON rendering of the task
payload.  Anything that can change a simulation outcome must be in the
payload; anything that cannot (how many utilization windows a figure asks
the summary to pre-compute) must stay out, so figures share entries — see
:func:`repro.experiments.parallel.summary_satisfies` for the summary-shape
check done at lookup time instead.

The on-disk layer lives under ``<root>/<CACHE_SCHEMA>/`` (default root
``.repro_cache/``); bumping :data:`CACHE_SCHEMA` when the summary format
or the simulation model changes invalidates stale entries wholesale.
Corrupt or unreadable entries are treated as misses, never as errors.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
import os
import shutil
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

#: Bump on any change to the RunSummary schema *or* to the simulation
#: model's observable behaviour — on-disk entries from older schemas are
#: simply never looked up again.
CACHE_SCHEMA = "v7"   # v7: a serving run ends when its last request
                      # finishes, so faulted and admission-gated serving
                      # makespans moved (v6: merge-unit timers are armed
                      # once per session, so CAIS summaries count their
                      # early fires in ``events``; v5: SimTask grew the
                      # fleet replica field and RunSummary the
                      # per-request stats rows; v4: ServingSpec grew
                      # resilience fields)


def canonical(value: Any) -> Any:
    """Reduce ``value`` to deterministic JSON-serializable primitives.

    Supports the types that appear in task payloads: scalars, strings,
    enums, dataclasses (by field), mappings, and iterables (frozensets are
    sorted so iteration order cannot leak into the fingerprint).
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, enum.Enum):
        return value.value
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {f.name: canonical(getattr(value, f.name))
                for f in dataclasses.fields(value)}
    if isinstance(value, dict):
        return {str(k): canonical(v) for k, v in sorted(value.items())}
    if isinstance(value, (frozenset, set)):
        return sorted(canonical(v) for v in value)
    if isinstance(value, (list, tuple)):
        return [canonical(v) for v in value]
    raise TypeError(f"cannot canonicalize {type(value).__name__} "
                    f"for cache fingerprinting: {value!r}")


def fingerprint(payload: Dict[str, Any]) -> str:
    """SHA-256 hex digest of the canonical JSON rendering of ``payload``."""
    blob = json.dumps(canonical(payload), sort_keys=True,
                      separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


class SimCache:
    """Two-level (memory + disk) store of summary dicts by fingerprint.

    ``root=None`` keeps the cache purely in-memory (one process
    lifetime); otherwise entries persist under ``root/CACHE_SCHEMA/`` as
    one JSON file per fingerprint, written atomically so a killed run
    never leaves a half-written entry behind.
    """

    def __init__(self, root: Optional[str] = ".repro_cache"):
        self._memory: Dict[str, Dict[str, Any]] = {}
        self._root: Optional[Path] = (
            Path(root) / CACHE_SCHEMA if root is not None else None)

    @property
    def root(self) -> Optional[Path]:
        """Directory of the on-disk layer (None when memory-only)."""
        return self._root

    def _path(self, fp: str) -> Path:
        assert self._root is not None
        return self._root / fp[:2] / f"{fp}.json"

    def lookup(self, fp: str) -> Optional[Dict[str, Any]]:
        """The stored summary dict for ``fp``, or None on a miss."""
        hit = self._memory.get(fp)
        if hit is not None:
            return hit
        if self._root is None:
            return None
        try:
            with open(self._path(fp)) as fh:
                payload = json.load(fh)
        except (OSError, ValueError):
            return None
        if not isinstance(payload, dict):
            return None
        self._memory[fp] = payload
        return payload

    def store(self, fp: str, summary: Dict[str, Any]) -> None:
        """Record ``summary`` under ``fp`` in memory and (atomically) on
        disk.  Disk failures are swallowed — the cache is an accelerator,
        never a correctness dependency."""
        self._memory[fp] = summary
        if self._root is None:
            return
        path = self._path(fp)
        tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            with open(tmp, "w") as fh:
                json.dump(summary, fh, sort_keys=True)
            os.replace(tmp, path)
        except OSError:
            try:
                tmp.unlink()
            except OSError:
                pass

    def __len__(self) -> int:
        return len(self._memory)


# ---------------------------------------------------------------------------
# Introspection: ``python -m repro cache``
# ---------------------------------------------------------------------------

def scan_cache(root: str = ".repro_cache") -> List[Dict[str, Any]]:
    """Per-schema inventory of an on-disk cache root.

    One row per ``<root>/<schema>/`` directory: entry count, total bytes,
    age of the newest entry, and whether the schema is stale (anything
    other than the current :data:`CACHE_SCHEMA`).  Unreadable entries
    still count toward size — stale junk is exactly what ``--gc`` is for.
    """
    base = Path(root)
    rows: List[Dict[str, Any]] = []
    if not base.is_dir():
        return rows
    for schema_dir in sorted(p for p in base.iterdir() if p.is_dir()):
        entries = 0
        total_bytes = 0
        newest = 0.0
        for path in schema_dir.rglob("*.json"):
            try:
                stat = path.stat()
            except OSError:
                continue
            entries += 1
            total_bytes += stat.st_size
            newest = max(newest, stat.st_mtime)
        rows.append({
            "schema": schema_dir.name,
            "stale": schema_dir.name != CACHE_SCHEMA,
            "entries": entries,
            "bytes": total_bytes,
            "newest_age_s": max(0.0, time.time() - newest) if entries
            else None,
        })
    return rows


def gc_stale(root: str = ".repro_cache") -> List[str]:
    """Delete every stale-schema directory under ``root``; returns the
    schema names evicted.  The current schema's entries are never
    touched — they are content-addressed and individually cheap, so age
    alone is no reason to evict them."""
    evicted: List[str] = []
    for row in scan_cache(root):
        if not row["stale"]:
            continue
        shutil.rmtree(Path(root) / row["schema"], ignore_errors=True)
        evicted.append(row["schema"])
    return evicted


def _fmt_bytes(n: int) -> str:
    for unit in ("B", "KiB", "MiB", "GiB"):
        if n < 1024 or unit == "GiB":
            return f"{n:,.1f} {unit}" if unit != "B" else f"{n:,d} B"
        n /= 1024
    return f"{n:,.1f} GiB"   # pragma: no cover - loop always returns


def main(argv=None) -> int:
    """``python -m repro cache`` — inspect / garbage-collect the cache."""
    import argparse
    parser = argparse.ArgumentParser(
        prog="python -m repro cache",
        description="list on-disk simulation-cache entries by schema; "
                    "--gc evicts stale-schema directories")
    parser.add_argument("--dir", default=".repro_cache", metavar="DIR",
                        help="cache root (default: %(default)s)")
    parser.add_argument("--gc", action="store_true",
                        help="delete stale-schema directories")
    parser.add_argument("--json", action="store_true",
                        help="emit the inventory as JSON")
    args = parser.parse_args(argv)

    rows = scan_cache(args.dir)
    if args.json:
        print(json.dumps(rows, sort_keys=True, separators=(",", ":")))
    elif not rows:
        print(f"cache at {args.dir}: empty (no schema directories)")
    else:
        from .runner import markdown_table
        print(f"### repro cache — {args.dir} (current schema "
              f"{CACHE_SCHEMA})")
        print(markdown_table(
            ["schema", "status", "entries", "size", "newest entry"],
            [[r["schema"],
              "stale" if r["stale"] else "current",
              r["entries"],
              _fmt_bytes(r["bytes"]),
              (f"{r['newest_age_s']:,.0f} s ago"
               if r["newest_age_s"] is not None else "-")]
             for r in rows]))
    if args.gc:
        evicted = gc_stale(args.dir)
        if evicted:
            print(f"evicted stale schema(s): {', '.join(evicted)}")
        else:
            print("nothing stale to evict")
    return 0


if __name__ == "__main__":   # pragma: no cover - manual entry point
    import sys
    sys.exit(main())
