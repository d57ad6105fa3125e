"""Span tracer + Chrome-trace export/validation helpers."""

import json

from repro.obs.export import (chrome_trace_json, render_trace_summary,
                              summarize_chrome_trace, validate_chrome_trace)
from repro.obs.tracer import SpanTracer


def test_complete_span_microseconds():
    tr = SpanTracer()
    tr.complete(1, 2, "work", "task", 0.001, 0.0035, {"n": 3})
    (event,) = tr.to_payload()["traceEvents"]
    assert event["ph"] == "X"
    assert event["ts"] == 1000.0
    assert event["dur"] == 2500.0
    assert event["pid"] == 1 and event["tid"] == 2
    assert event["args"] == {"n": 3}


def test_begin_finish_records_only_on_finish():
    tr = SpanTracer()
    handle = tr.begin(0, 0, "open", "task", 1.0, a=1)
    assert len(tr) == 0
    tr.finish(handle, 2.0, b=2)
    (event,) = tr.to_payload()["traceEvents"]
    assert event["args"] == {"a": 1, "b": 2}
    assert event["dur"] == 1e6


def test_instant_and_counter_events():
    tr = SpanTracer()
    tr.instant(1, 5, "fault", 0.5, cat="fault", args={"k": "v"})
    tr.counter(1, "bw GB/s", 0.5, 3.0)
    events = tr.to_payload()["traceEvents"]
    assert events[0]["ph"] == "i" and events[0]["s"] == "t"
    assert events[1]["ph"] == "C"
    assert events[1]["args"]["value"] == 3.0


def test_counter_dedups_consecutive_identical_values():
    tr = SpanTracer()
    tr.counter(1, "x", 0.0, 1.0)
    tr.counter(1, "x", 0.1, 1.0)     # dropped
    tr.counter(1, "x", 0.2, 2.0)
    tr.counter(2, "x", 0.3, 2.0)     # different pid: kept
    assert len(tr) == 3


def test_metadata_naming_dedups():
    tr = SpanTracer()
    tr.name_process(1, "node0")
    tr.name_process(1, "node0")
    tr.name_thread(1, 3, "core3")
    tr.name_thread(1, 3, "core3")
    events = tr.to_payload()["traceEvents"]
    assert [e["name"] for e in events] == ["process_name", "thread_name"]


def test_tracer_export_is_valid_chrome_trace(tmp_path):
    tr = SpanTracer()
    tr.name_process(1, "n0")
    tr.complete(1, 0, "a", "task", 0.0, 1.0)
    tr.instant(1, 0, "b", 0.5)
    tr.counter(1, "c", 0.5, 1.0)
    path = tmp_path / "t.json"
    tr.export(path)
    text = path.read_text()
    assert validate_chrome_trace(text) == []
    assert json.loads(text)["displayTimeUnit"] == "ms"


def test_validate_catches_problems():
    assert validate_chrome_trace("not json") != []
    assert validate_chrome_trace({"nope": 1}) != []
    bad_dur = {"traceEvents": [
        {"ph": "X", "name": "x", "ts": 0.0, "dur": -1.0,
         "pid": 0, "tid": 0}]}
    problems = validate_chrome_trace(bad_dur)
    assert any("negative dur" in p for p in problems)
    missing = {"traceEvents": [{"ph": "X", "name": "x", "pid": 0,
                                "tid": 0}]}
    assert any("missing" in p for p in validate_chrome_trace(missing))


def test_chrome_trace_json_is_compact():
    events = [{"name": "e", "ph": "X", "ts": 0.0, "dur": 1.0,
               "pid": 0, "tid": 0}]
    compact = json.dumps({"traceEvents": events, "displayTimeUnit": "ms"},
                         separators=(",", ":"))
    assert chrome_trace_json(events) == compact
    tr = SpanTracer()
    tr.complete(0, 0, "e", "task", 0.0, 1e-6)
    assert tr.to_json() == chrome_trace_json(tr.to_payload()["traceEvents"])


def test_summary_counts_and_render():
    tr = SpanTracer()
    tr.complete(1, 0, "a", "task", 0.0, 0.002)
    tr.complete(1, 1, "b", "transfer", 0.001, 0.003)
    tr.instant(2, 0, "f", 0.001, cat="fault")
    tr.counter(1, "bw", 0.0, 1.0)
    summary = summarize_chrome_trace(tr.to_payload())
    assert summary["events"] == 4
    assert summary["by_phase"] == {"C": 1, "X": 2, "i": 1}
    assert summary["by_category"]["task"]["events"] == 1
    assert summary["counter_tracks"] == ["bw"]
    assert summary["lanes"] == 3
    text = render_trace_summary(summary)
    assert "counter tracks" in text and "task" in text
