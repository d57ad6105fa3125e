"""Unified observability: metrics registry, cross-layer tracer,
interference attribution (see docs/OBSERVABILITY.md).

Strictly opt-in: nothing here runs unless a :class:`Telemetry` is
installed via :func:`telemetry_context`; the disabled path is a single
``None`` check at every instrumentation site.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    ".attribution": ("TransferLog", "TransferSample", "attribution_report",
                     "render_attribution"),
    ".context": ("active_telemetry", "clear_telemetry", "install_telemetry"),
    ".export": ("chrome_trace_json", "render_trace_summary",
                "summarize_chrome_trace", "validate_chrome_trace"),
    ".metrics": ("Counter", "Gauge", "Histogram", "MetricsRegistry",
                 "metric_key"),
    ".telemetry": ("Telemetry", "telemetry_context"),
    ".tracer": ("SpanHandle", "SpanTracer"),
})

__all__ = [
    "Telemetry", "telemetry_context",
    "active_telemetry", "install_telemetry", "clear_telemetry",
    "MetricsRegistry", "Counter", "Gauge", "Histogram", "metric_key",
    "SpanTracer", "SpanHandle",
    "chrome_trace_json", "validate_chrome_trace",
    "summarize_chrome_trace", "render_trace_summary",
    "TransferLog", "TransferSample", "attribution_report",
    "render_attribution",
]
