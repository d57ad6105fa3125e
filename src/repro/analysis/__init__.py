"""Statistics and model-fitting helpers for experiment results."""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    ".stats": (
        "NonFiniteSampleWarning", "SummaryStats", "summarize", "median",
        "decile_band", "bootstrap_ci",
    ),
    ".fitting": (
        "fit_latency_frequency", "detect_ridge", "crossover_index",
        "relative_change",
    ),
})

__all__ = [
    "NonFiniteSampleWarning", "SummaryStats", "summarize", "median",
    "decile_band", "bootstrap_ci",
    "fit_latency_frequency", "detect_ridge", "crossover_index",
    "relative_change",
]
