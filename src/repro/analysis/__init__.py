"""Statistics and feature-detection helpers for experiment results."""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    ".stats": (
        "NonFiniteSampleWarning", "SummaryStats", "summarize", "median",
        "decile_band", "bootstrap_ci",
    ),
    ".fitting": ("detect_ridge", "crossover_index"),
})

__all__ = [
    "NonFiniteSampleWarning", "SummaryStats", "summarize", "median",
    "decile_band", "bootstrap_ci",
    "detect_ridge", "crossover_index",
]
