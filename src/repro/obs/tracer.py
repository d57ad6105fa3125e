"""Cross-layer span tracer emitting Chrome-tracing / Perfetto events.

Lanes follow the Chrome convention: a *process* (pid) per node (plus one
synthetic "fabric" process per cluster for network flows) and a *thread*
(tid) per core, with a dedicated NIC lane.  Counter tracks ("C" events)
carry link bandwidth, core/uncore frequency and per-node memory-stall
fraction so interference is visible next to the spans that suffer it.

All timestamps are simulated seconds, converted to integer-ish
microseconds at record time (Chrome's native unit); nothing reads the
wall clock, so identical runs yield byte-identical traces.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.obs.export import chrome_trace_json

__all__ = ["SpanHandle", "SpanTracer"]


def _us(t: float) -> float:
    """Seconds → microseconds, with a stable float round.

    Rounding to 1/1000 µs keeps the JSON compact and reproducible while
    preserving nanosecond resolution (well below any modelled latency).
    """
    return round(t * 1e6, 3)


class SpanHandle:
    """An open span; finished (and recorded) via :meth:`SpanTracer.finish`."""

    __slots__ = ("pid", "tid", "name", "cat", "start", "args")

    def __init__(self, pid: int, tid: int, name: str, cat: str,
                 start: float, args: Optional[dict]):
        self.pid = pid
        self.tid = tid
        self.name = name
        self.cat = cat
        self.start = start
        self.args = args


class SpanTracer:
    """Accumulates Chrome-format trace events in memory."""

    def __init__(self) -> None:
        self._events: List[dict] = []
        # Last value per counter series, to drop no-op samples.
        self._counter_last: Dict[Tuple[int, str], float] = {}
        self._named_procs: Dict[int, str] = {}
        self._named_threads: Dict[Tuple[int, int], str] = {}

    def __len__(self) -> int:
        return len(self._events)

    # -- lane naming (Chrome metadata events) ------------------------------
    def name_process(self, pid: int, name: str) -> None:
        if self._named_procs.get(pid) == name:
            return
        self._named_procs[pid] = name
        self._events.append({
            "name": "process_name", "ph": "M", "pid": pid, "tid": 0,
            "args": {"name": name}})

    def name_thread(self, pid: int, tid: int, name: str) -> None:
        if self._named_threads.get((pid, tid)) == name:
            return
        self._named_threads[(pid, tid)] = name
        self._events.append({
            "name": "thread_name", "ph": "M", "pid": pid, "tid": tid,
            "args": {"name": name}})

    # -- spans --------------------------------------------------------------
    def begin(self, pid: int, tid: int, name: str, cat: str,
              start: float, **args) -> SpanHandle:
        """Open a span; nothing is recorded until :meth:`finish`."""
        return SpanHandle(pid, tid, name, cat, start, args or None)

    def finish(self, handle: SpanHandle, end: float, **extra) -> None:
        args = handle.args
        if extra:
            args = dict(args or {})
            args.update(extra)
        self.complete(handle.pid, handle.tid, handle.name, handle.cat,
                      handle.start, end, args)

    def complete(self, pid: int, tid: int, name: str, cat: str,
                 start: float, end: float,
                 args: Optional[dict] = None) -> None:
        """Record a closed span as a Chrome "X" (complete) event."""
        event = {"name": name, "cat": cat, "ph": "X", "pid": pid,
                 "tid": tid, "ts": _us(start),
                 "dur": max(0.0, _us(end) - _us(start))}
        if args:
            event["args"] = args
        self._events.append(event)

    # -- instants and counters ---------------------------------------------
    def instant(self, pid: int, tid: int, name: str, ts: float,
                cat: str = "event", args: Optional[dict] = None) -> None:
        event = {"name": name, "cat": cat, "ph": "i", "pid": pid,
                 "tid": tid, "ts": _us(ts), "s": "t"}
        if args:
            event["args"] = args
        self._events.append(event)

    def counter(self, pid: int, name: str, ts: float, value: float) -> None:
        """Sample a counter track, skipping consecutive identical values."""
        key = (pid, name)
        value = round(float(value), 6)
        if self._counter_last.get(key) == value:
            return
        self._counter_last[key] = value
        self._events.append({
            "name": name, "ph": "C", "pid": pid, "tid": 0,
            "ts": _us(ts), "args": {"value": value}})

    # -- export -------------------------------------------------------------
    def to_payload(self) -> dict:
        return {"traceEvents": list(self._events),
                "displayTimeUnit": "ms"}

    def to_json(self) -> str:
        # Compact separators: traces get large and Perfetto doesn't care.
        return chrome_trace_json(list(self._events))

    def export(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_json())
            fh.write("\n")
