"""Computation kernels executed on the simulated machine.

The paper's computational workloads, reduced to their roofline
characteristics and executed chunk-by-chunk on simulated cores:

* :mod:`repro.kernels.roofline` — the executor: a kernel is a stream of
  (flops, bytes) chunks; each chunk's duration is the maximum of its
  compute time (at the core's live frequency) and its memory time (a
  fluid flow through the NUMA path), with stall cycles accounted.
* :mod:`repro.kernels.stream` — STREAM COPY / TRIAD (§4.1) and the
  tunable-arithmetic-intensity TRIAD with the paper's *cursor* (§4.5).
* :mod:`repro.kernels.prime` — the CPU-bound naive prime counter (§3.2).
* :mod:`repro.kernels.avx` — the AVX-512 weak-scaling FLOP kernel (§3.3).
* :mod:`repro.kernels.blas` — tile-level (flops, bytes) cost models for
  GEMM/GEMV/AXPY/DOT, used by the task-based runtime applications (§6).
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    ".roofline": (
        "Kernel", "KernelRun", "KernelStats", "run_kernel",
        "arithmetic_intensity",
    ),
    ".stream": (
        "copy_kernel", "triad_kernel", "tunable_triad",
        "cursor_for_intensity", "intensity_of_cursor", "STREAM_ARRAY_BYTES",
    ),
    ".prime": ("prime_kernel", "prime_workload_ops"),
    ".avx": ("avx_kernel",),
    ".blas": (
        "gemm_tile_cost", "gemv_tile_cost", "axpy_cost", "dot_cost",
        "TileCost",
    ),
})

__all__ = [
    "Kernel", "KernelRun", "KernelStats", "run_kernel",
    "arithmetic_intensity",
    "copy_kernel", "triad_kernel", "tunable_triad",
    "cursor_for_intensity", "intensity_of_cursor", "STREAM_ARRAY_BYTES",
    "prime_kernel", "prime_workload_ops", "avx_kernel",
    "gemm_tile_cost", "gemv_tile_cost", "axpy_cost", "dot_cost", "TileCost",
]
