"""Distributed task-graph applications for §6 (Figure 10)."""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    ".cg": ("CGResult", "run_cg"),
    ".gemm": ("GEMMResult", "run_gemm"),
})

__all__ = ["CGResult", "run_cg", "GEMMResult", "run_gemm"]
