"""Chrome-tracing JSON emission, validation, and summarisation.

Single home for the serialisation format of
:class:`~repro.obs.tracer.SpanTracer` traces, so CI can validate any
produced trace without loading it into Perfetto.
"""

from __future__ import annotations

import json
from typing import Dict, List

__all__ = ["chrome_trace_json", "validate_chrome_trace",
           "summarize_chrome_trace", "render_trace_summary"]


def chrome_trace_json(events: List[dict]) -> str:
    """Serialise *events* in the compact Chrome tracing envelope."""
    payload = {"traceEvents": events, "displayTimeUnit": "ms"}
    return json.dumps(payload, separators=(",", ":"))


_REQUIRED_BY_PHASE = {
    "X": ("ts", "dur"),
    "B": ("ts",),
    "E": ("ts",),
    "i": ("ts",),
    "C": ("ts", "args"),
    "M": ("args",),
}


def validate_chrome_trace(payload) -> List[str]:
    """Structural checks on a Chrome trace; returns a list of problems.

    Accepts the parsed payload (dict) or raw JSON text.  Checks: the
    ``traceEvents`` envelope, per-event required fields, non-negative
    timestamps, and non-negative durations on complete events.
    """
    problems: List[str] = []
    if isinstance(payload, (str, bytes)):
        try:
            payload = json.loads(payload)
        except json.JSONDecodeError as exc:
            return [f"not valid JSON: {exc}"]
    if not isinstance(payload, dict):
        return ["top level is not an object"]
    events = payload.get("traceEvents")
    if not isinstance(events, list):
        return ["missing traceEvents list"]
    for idx, event in enumerate(events):
        if not isinstance(event, dict):
            problems.append(f"event {idx}: not an object")
            continue
        phase = event.get("ph")
        if phase is None:
            problems.append(f"event {idx}: missing ph")
            continue
        for field in _REQUIRED_BY_PHASE.get(phase, ()):
            if field not in event:
                problems.append(
                    f"event {idx} ({phase} {event.get('name')!r}): "
                    f"missing {field}")
        ts = event.get("ts")
        if ts is not None and ts < 0:
            problems.append(
                f"event {idx} ({event.get('name')!r}): negative ts {ts}")
        if phase == "X":
            dur = event.get("dur")
            if dur is not None and dur < 0:
                problems.append(
                    f"event {idx} ({event.get('name')!r}): "
                    f"negative dur {dur}")
    return problems


def summarize_chrome_trace(payload) -> Dict[str, object]:
    """Aggregate statistics for ``repro trace-summary``."""
    if isinstance(payload, (str, bytes)):
        payload = json.loads(payload)
    events = payload.get("traceEvents", [])
    by_phase: Dict[str, int] = {}
    by_cat: Dict[str, Dict[str, object]] = {}
    lanes = set()
    counter_tracks = set()
    t_min, t_max = None, 0.0
    for event in events:
        phase = event.get("ph", "?")
        by_phase[phase] = by_phase.get(phase, 0) + 1
        ts = event.get("ts")
        if ts is not None:
            t_min = ts if t_min is None else min(t_min, ts)
            t_max = max(t_max, ts + event.get("dur", 0.0))
        if phase in ("X", "B", "i"):
            lanes.add((event.get("pid", 0), event.get("tid", 0)))
            cat = event.get("cat", "?")
            stats = by_cat.setdefault(
                cat, {"events": 0, "total_dur_us": 0.0})
            stats["events"] += 1
            stats["total_dur_us"] += event.get("dur", 0.0)
        elif phase == "C":
            counter_tracks.add(event.get("name", "?"))
    return {
        "events": len(events),
        "by_phase": dict(sorted(by_phase.items())),
        "by_category": {k: {"events": v["events"],
                            "total_dur_us": round(v["total_dur_us"], 3)}
                        for k, v in sorted(by_cat.items())},
        "lanes": len(lanes),
        "counter_tracks": sorted(counter_tracks),
        "span_us": round((t_max - (t_min or 0.0)), 3) if events else 0.0,
    }


def render_trace_summary(summary: Dict[str, object]) -> str:
    lines = [
        f"events        : {summary['events']}",
        f"lanes         : {summary['lanes']}",
        f"span          : {summary['span_us'] / 1e3:.3f} ms",
        "phases        : " + ", ".join(
            f"{k}={v}" for k, v in summary["by_phase"].items()),
    ]
    if summary["by_category"]:
        lines.append("categories    :")
        for cat, stats in summary["by_category"].items():
            lines.append(
                f"  {cat:<12} {stats['events']:>7} events  "
                f"{stats['total_dur_us'] / 1e3:>10.3f} ms")
    if summary["counter_tracks"]:
        lines.append("counter tracks:")
        for name in summary["counter_tracks"]:
            lines.append(f"  {name}")
    return "\n".join(lines)
