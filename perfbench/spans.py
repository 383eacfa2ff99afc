"""In-memory spans, self times and Chrome trace-event output.

The benchmark records a span around each call it makes into a layer
(and, in the traced server, around the calls the launcher wraps).
Spans stay in memory and are written once, at the end, as Chrome
trace-event JSON that Perfetto and chrome://tracing open.  Only the
stdlib is used.

A span's *self time* is its duration minus the part of its interval
covered by its direct child spans (children are spans opened on the
same thread while it was open).
"""

from __future__ import annotations

import contextlib
import functools
import gc
import json
import os
import threading
import time
from typing import (Callable, Dict, Iterable, Iterator, List, Optional,
                    Sequence, Tuple)

from common import out_dir, write_json


class Span:
    __slots__ = ("sid", "name", "start", "end", "parent", "tid", "args")

    def __init__(self, sid: int, name: str, start: float,
                 parent: Optional[int], tid: int,
                 args: Optional[dict] = None) -> None:
        self.sid = sid
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.tid = tid
        self.args = args or {}

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Thread-safe span recorder; parents come from a per-thread stack."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._next = 0

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, **args) -> Span:
        stack = self._stack()
        with self._lock:
            sid = self._next
            self._next += 1
        span = Span(sid, name, time.perf_counter(),
                    stack[-1] if stack else None, threading.get_ident(),
                    args)
        stack.append(sid)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] == span.sid:
            stack.pop()
        with self._lock:
            self.spans.append(span)

    @contextlib.contextmanager
    def span(self, name: str, **args) -> Iterator[Span]:
        span = self.open(name, **args)
        try:
            yield span
        finally:
            self.close(span)

    def add(self, name: str, start: float, end: float, **args) -> Span:
        """Record a span measured elsewhere (e.g. a client request)."""
        with self._lock:
            sid = self._next
            self._next += 1
            span = Span(sid, name, start, None, threading.get_ident(), args)
            span.end = end
            self.spans.append(span)
        return span

    def wrap(self, owner: object, attr: str, name: str,
             args_of: Optional[Callable[..., dict]] = None) -> None:
        """Replace ``owner.attr`` with a version that records a span.

        ``args_of(*args, **kwargs)`` may return span arguments (e.g. a
        request id) taken from the call.
        """
        inner = getattr(owner, attr)
        tracer = self

        @functools.wraps(inner)
        def wrapper(*args, **kwargs):
            with tracer.span(name, **(args_of(*args, **kwargs)
                                      if args_of else {})):
                return inner(*args, **kwargs)

        setattr(owner, attr, wrapper)

    def named(self, name: str) -> List[Span]:
        return [s for s in self.spans if s.name == name]


def _covered(intervals: Iterable[Tuple[float, float]]) -> float:
    """Length of the union of ``(start, end)`` intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Span id -> duration minus the union of its children's intervals
    (each child clipped to the parent's interval)."""
    by_id = {s.sid: s for s in spans}
    children: Dict[int, List[Tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None and s.parent in by_id:
            parent = by_id[s.parent]
            lo, hi = max(s.start, parent.start), min(s.end, parent.end)
            if hi > lo:
                children.setdefault(s.parent, []).append((lo, hi))
    return {s.sid: s.duration - _covered(children.get(s.sid, ()))
            for s in spans}


def layer_rows(spans: Sequence[Span]) -> List[Dict[str, float]]:
    """Per span name: calls, total seconds and self seconds."""
    selfs = self_times(spans)
    rows: Dict[str, Dict[str, float]] = {}
    for s in spans:
        row = rows.setdefault(s.name, {"layer": s.name, "calls": 0,
                                       "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += s.duration
        row["self_s"] += selfs[s.sid]
    return sorted(rows.values(), key=lambda r: -r["self_s"])


def format_layer_table(rows: Sequence[Dict[str, float]]) -> str:
    if not rows:
        return "(no spans)"
    width = max(len("layer"), *(len(r["layer"]) for r in rows))
    lines = [f"{'layer':<{width}}  {'calls':>7}  {'total s':>9}  "
             f"{'self s':>9}"]
    for r in rows:
        lines.append(f"{r['layer']:<{width}}  {int(r['calls']):>7d}  "
                     f"{r['total_s']:>9.4f}  {r['self_s']:>9.4f}")
    return "\n".join(lines)


def chrome_events(spans: Sequence[Span], pid: int,
                  origin: float) -> List[dict]:
    """Complete ("X") trace events; ``origin`` is the zero timestamp."""
    return [{"name": s.name, "cat": s.name.split(".")[0], "ph": "X",
             "ts": (s.start - origin) * 1e6, "dur": s.duration * 1e6,
             "pid": pid, "tid": s.tid,
             "args": {"id": s.sid, "parent": s.parent, **s.args}}
            for s in spans]


def write_chrome_trace(path: str, events: List[dict]) -> None:
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    tmp = f"{path}.tmp"
    with open(tmp, "w") as handle:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)
    os.replace(tmp, path)


class GcMonitor:
    """Counts collections and their pause time through ``gc.callbacks``."""

    def __init__(self) -> None:
        self.collections = 0
        self.pause_s = 0.0
        self._start: Optional[float] = None

    def _callback(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._start = time.perf_counter()
        elif self._start is not None:
            self.pause_s += time.perf_counter() - self._start
            self.collections += 1
            self._start = None

    def __enter__(self) -> "GcMonitor":
        gc.callbacks.append(self._callback)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        gc.callbacks.remove(self._callback)


def write_trace_outputs(workload: str, seed: int, tracer: Tracer,
                        origin: float, report: Dict[str, object],
                        extra_events: Sequence[dict] = (),
                        extra_spans: Sequence[Span] = ()) -> None:
    """Chrome trace, per-layer self-time table and JSON report.

    ``extra_spans``/``extra_events`` come from another process (the
    traced server); their self times are computed on their own.
    """
    base = os.path.join(out_dir(), f"{workload}-seed{seed}")
    events = chrome_events(tracer.spans, os.getpid(), origin)
    write_chrome_trace(f"{base}.trace.json", events + list(extra_events))
    rows = sorted(layer_rows(tracer.spans) + layer_rows(extra_spans),
                  key=lambda r: -r["self_s"])
    write_json(f"{base}.report.json", {**report, "layers": rows})
    with open(f"{base}.layers.txt", "w") as handle:
        handle.write(format_layer_table(rows) + "\n")
