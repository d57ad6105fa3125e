"""Statistics and feature-detection helpers for experiment results."""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    ".stats": (
        "NonFiniteSampleWarning", "SummaryStats", "summarize", "mean",
        "median", "quantile", "decile_band",
    ),
    ".fitting": ("detect_ridge", "crossover_index"),
})

__all__ = [
    "NonFiniteSampleWarning", "SummaryStats", "summarize", "mean",
    "median", "quantile", "decile_band",
    "detect_ridge", "crossover_index",
]
