"""Structured event tracer with Chrome/Perfetto-compatible semantics.

The tracer records three shapes of data, all stamped with *simulation* time
(never wall-clock, so traces are byte-identical across same-seed runs):

* **spans** — ``begin``/``end`` pairs on a *track*; nested spans on one
  track must close in LIFO order (TB phases do).  Overlapping lifetimes on
  one track (merge-table entries, NVLS sessions) use **async spans**
  (``async_begin``/``async_end``) keyed by an id instead.
* **instants** — point events (a message enqueued, a switch dispatch).
* **counters** — sampled numeric series (queue depth over time).

A *track* is a (process, thread) pair registered once via :meth:`track`;
the export maps processes to Perfetto process rows (one per GPU, switch,
or fabric) and threads to the rows inside them (one per SM slot, switch
port, or merge-table bank).

Zero-cost-when-disabled contract: components capture the installed
tracer at construction (``None`` when tracing is off) and guard every call
with ``is not None``, so a disabled run pays one identity test per
potential event (see DESIGN.md, "Observability").
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple


class Tracer:
    """Recording tracer; see the module docstring for the data model."""

    def __init__(self) -> None:
        # (process, thread) -> track index; registration order fixes the
        # pid/tid numbering, which keeps exports deterministic.
        self._tracks: Dict[Tuple[str, str], int] = {}
        self._track_names: List[Tuple[str, str]] = []
        self._events: List[dict] = []
        # handle -> (track, name, cat, args, start_ns); insertion order is
        # open order, which flush() uses to report stragglers stably.
        self._open: Dict[int, Tuple[int, str, str, Optional[dict], float]] = {}
        self._next_handle = 0

    # ------------------------------------------------------------------
    # Track registry
    # ------------------------------------------------------------------
    def track(self, process: str, thread: str) -> int:
        """Register (or look up) the track for a process/thread pair."""
        key = (process, thread)
        idx = self._tracks.get(key)
        if idx is None:
            idx = len(self._track_names)
            self._tracks[key] = idx
            self._track_names.append(key)
        return idx

    def tracks(self) -> List[Tuple[str, str]]:
        """Registered (process, thread) pairs in registration order."""
        return list(self._track_names)

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def begin(self, track: int, name: str, ts_ns: float,
              cat: str = "", args: Optional[dict] = None) -> int:
        """Open a span; returns a handle for :meth:`end`."""
        handle = self._next_handle
        self._next_handle += 1
        self._open[handle] = (track, name, cat, args, ts_ns)
        return handle

    def end(self, handle: int, ts_ns: float) -> None:
        """Close a span opened by :meth:`begin` (emits one complete event).

        An unknown or already-closed handle is an instrumentation bug in
        the caller; name the handle and what *is* open instead of letting
        a bare ``KeyError`` escape with no context.
        """
        entry = self._open.pop(handle, None)
        if entry is None:
            open_names = sorted({rec[1] for rec in self._open.values()})
            raise ValueError(
                f"Tracer.end: handle {handle} is unknown or already "
                f"closed; open spans: {open_names or '(none)'}")
        track, name, cat, args, start = entry
        self._emit_complete(track, name, cat, args, start, ts_ns)

    def instant(self, track: int, name: str, ts_ns: float,
                cat: str = "", args: Optional[dict] = None) -> None:
        ev = {"ph": "i", "name": name, "ts": ts_ns / 1e3, "track": track,
              "s": "t"}
        if cat:
            ev["cat"] = cat
        if args:
            ev["args"] = args
        self._events.append(ev)

    def counter(self, track: int, name: str, ts_ns: float,
                value: float) -> None:
        self._events.append({"ph": "C", "name": name, "ts": ts_ns / 1e3,
                             "track": track, "args": {"value": value}})

    def async_begin(self, track: int, name: str, aid: int, ts_ns: float,
                    cat: str = "", args: Optional[dict] = None) -> None:
        ev = {"ph": "b", "name": name, "ts": ts_ns / 1e3, "track": track,
              "id": aid, "cat": cat or "async"}
        if args:
            ev["args"] = args
        self._events.append(ev)

    def async_end(self, track: int, name: str, aid: int, ts_ns: float,
                  cat: str = "", args: Optional[dict] = None) -> None:
        ev = {"ph": "e", "name": name, "ts": ts_ns / 1e3, "track": track,
              "id": aid, "cat": cat or "async"}
        if args:
            ev["args"] = args
        self._events.append(ev)

    def flow_start(self, track: int, name: str, fid: int, ts_ns: float,
                   cat: str = "") -> None:
        """Open a flow arrow (Perfetto renders it from here to the
        matching :meth:`flow_end` with the same id)."""
        self._events.append({"ph": "s", "name": name, "ts": ts_ns / 1e3,
                             "track": track, "id": fid,
                             "cat": cat or "flow"})

    def flow_end(self, track: int, name: str, fid: int, ts_ns: float,
                 cat: str = "") -> None:
        """Terminate a flow arrow started by :meth:`flow_start`."""
        self._events.append({"ph": "f", "name": name, "ts": ts_ns / 1e3,
                             "track": track, "id": fid, "bp": "e",
                             "cat": cat or "flow"})

    # ------------------------------------------------------------------
    # Teardown
    # ------------------------------------------------------------------
    def flush(self, ts_ns: float) -> int:
        """Close every still-open span at ``ts_ns``, marked unterminated.

        Returns the number of spans flushed.  Mirrors
        :meth:`repro.metrics.timeline.Timeline.flush`: a run that tears
        down with work in flight keeps those spans in the trace instead of
        silently dropping them.
        """
        flushed = 0
        for handle in sorted(self._open):
            track, name, cat, args, start = self._open[handle]
            merged = dict(args) if args else {}
            merged["unterminated"] = True
            self._emit_complete(track, name, cat, merged, start,
                                max(ts_ns, start))
            flushed += 1
        self._open.clear()
        return flushed

    def open_spans(self) -> int:
        """Spans begun but not yet ended (0 after :meth:`flush`)."""
        return len(self._open)

    def events(self) -> List[dict]:
        """Recorded events (internal form; see :mod:`.perfetto` to export)."""
        return list(self._events)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _emit_complete(self, track: int, name: str, cat: str,
                       args: Optional[dict], start_ns: float,
                       end_ns: float) -> None:
        ev = {"ph": "X", "name": name, "ts": start_ns / 1e3,
              "dur": (end_ns - start_ns) / 1e3, "track": track}
        if cat:
            ev["cat"] = cat
        if args:
            ev["args"] = args
        self._events.append(ev)
