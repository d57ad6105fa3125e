"""repro — reproduction of "Interferences between Communications and
Computations in Distributed HPC Systems" (Denis, Jeannot, Swartvagher,
ICPP 2021).

The package simulates distributed HPC nodes (NUMA topology, DVFS/turbo
frequencies, fluid memory-bandwidth sharing, InfiniBand-style NICs, an
MPI-like message library and a StarPU-like task runtime) and ships the
paper's complete interference benchmark suite on top.

Quick start::

    from repro import Cluster, CommWorld, PingPong

    cluster = Cluster("henri", n_nodes=2)
    world = CommWorld(cluster, comm_placement="near")
    result = PingPong(world).run(size=4, reps=30)
    print(f"latency: {result.median_latency * 1e6:.2f} us")

Per-figure experiment entry points live in :mod:`repro.core.experiments`
(``fig1a`` … ``fig10``), and ``python -m repro`` runs them from the
command line.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.hardware": (
        "BILLY", "BORA", "HENRI", "PYXIS", "Cluster", "CoreActivity",
        "Machine", "MachineSpec", "available_presets", "get_preset",
    ),
    "repro.kernels": (
        "Kernel", "copy_kernel", "prime_kernel", "avx_kernel", "run_kernel",
        "triad_kernel", "tunable_triad",
    ),
    "repro.mpi": ("CommWorld", "P2PContext", "PingPong", "PingPongResult"),
    "repro.core": ("experiments",),
    "repro.core.placement": ("Placement",),
    "repro.core.results": ("ExperimentResult", "Series"),
    "repro.core.sidebyside": (
        "SideBySideConfig", "run_duration_protocol", "run_throughput_protocol",
    ),
    "repro.runtime": ("PollingSpec", "RuntimeComm", "RuntimeSystem"),
    "repro.runtime.apps": ("run_cg", "run_gemm"),
})

__version__ = "1.0.0"

__all__ = [
    "HENRI", "BORA", "BILLY", "PYXIS",
    "Cluster", "Machine", "MachineSpec", "CoreActivity",
    "available_presets", "get_preset",
    "Kernel", "copy_kernel", "triad_kernel", "tunable_triad",
    "prime_kernel", "avx_kernel", "run_kernel",
    "CommWorld", "P2PContext", "PingPong", "PingPongResult",
    "experiments", "Placement", "ExperimentResult", "Series",
    "SideBySideConfig", "run_throughput_protocol", "run_duration_protocol",
    "RuntimeSystem", "RuntimeComm", "PollingSpec",
    "run_cg", "run_gemm",
    "__version__",
]
