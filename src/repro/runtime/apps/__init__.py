"""Distributed task-runtime applications for §6 (Figure 10)."""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    ".cg": ("run_cg",),
    ".gemm": ("run_gemm",),
    ".harness": ("TwoRankResult",),
})

__all__ = ["run_cg", "run_gemm", "TwoRankResult"]
