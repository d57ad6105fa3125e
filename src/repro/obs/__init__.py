"""Unified observability: metrics registry, cross-layer tracer,
interference attribution (see docs/OBSERVABILITY.md).

Strictly opt-in: nothing here runs unless a :class:`Telemetry` is
installed via :func:`telemetry_context`; the disabled path is a single
``None`` check at every instrumentation site.
"""

from repro.obs.attribution import (TransferLog, TransferSample,
                                   attribution_report, render_attribution)
from repro.obs.context import (active_telemetry, clear_telemetry,
                               install_telemetry)
from repro.obs.export import (chrome_trace_json, render_trace_summary,
                              summarize_chrome_trace, validate_chrome_trace)
from repro.obs.metrics import (Counter, Gauge, Histogram, MetricsRegistry,
                               metric_key)
from repro.obs.telemetry import Telemetry, telemetry_context
from repro.obs.tracer import SpanHandle, SpanTracer

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
