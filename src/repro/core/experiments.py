"""One entry point per paper figure and table.

Every function returns an :class:`~repro.core.results.ExperimentResult`
whose series correspond to the curves of the figure.  All functions take
a ``spec`` (cluster preset) and accept reduced sweep parameters so tests
can run quickly; the defaults regenerate the full figures.

Index (see DESIGN.md §5):

========  ==========================================================
fig1      latency/bandwidth vs constant core & uncore frequencies
fig2      frequency traces: comm only / idle / comm + compute
fig3a     AVX compute duration & latency vs computing cores
fig3bc    frequency traces under AVX load (4 vs 20 cores)
fig4a/b   STREAM contention vs latency / bandwidth (data near, thread far)
fig5      all placement combinations × {latency, bandwidth}
table1    placement summary: a view of fig5's eight sweeps
fig6a/b   message-size sweep at 5 / 35 computing cores
fig7a/b   arithmetic-intensity sweep (cursor) vs latency / bandwidth
runtime_overhead   §5.2 runtime-vs-MPI latency overhead
fig8      runtime latency vs data/thread NUMA placement
fig9      runtime latency vs worker-polling backoff
fig10     CG vs GEMM: sending bandwidth + memory stalls vs workers
========  ==========================================================

Each public entry point registers itself in
:mod:`repro.core.registry` via the :func:`~repro.core.registry.experiment`
decorator — the registry (not this docstring or the CLI) is the single
source of truth for names, ``--fast`` profiles, and capabilities.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence

from repro.analysis.fitting import crossover_index, detect_ridge
from repro.core.campaign import CampaignJournal, SweepGuard
from repro.core.executor import PointSpec, stat_row, value_row
from repro.core.placement import (
    ALL_PLACEMENTS, Placement, comm_core_for, data_numa_for,
)
from repro.core.registry import experiment
from repro.core.results import ExperimentResult, Series
from repro.core.sidebyside import (
    SideBySideConfig, run_duration_protocol, run_throughput_protocol,
    start_kernels,
)
from repro.hardware.presets import MachineSpec, get_preset
from repro.hardware.topology import Cluster
from repro.kernels.avx import avx_kernel
from repro.kernels.prime import prime_kernel
from repro.kernels.stream import (
    intensity_of_cursor, triad_kernel, tunable_triad,
)
from repro.mpi.comm import CommWorld
from repro.mpi.pingpong import BANDWIDTH_SIZE, LATENCY_SIZE, PingPong
from repro.sim.trace import PeriodicSampler

__all__ = [
    "fig1", "fig1a", "fig1b", "fig2", "fig3a", "fig3bc",
    "fig4a", "fig4b", "fig5", "table1", "fig6a", "fig6b",
    "fig7a", "fig7b", "runtime_overhead", "fig8", "fig9", "fig10",
    "default_core_counts", "default_size_sweep",
]

US = 1e6   # seconds -> microseconds
GB = 1e9


def _spec(spec: MachineSpec | str) -> MachineSpec:
    return get_preset(spec) if isinstance(spec, str) else spec


def default_core_counts(spec: MachineSpec | str = "henri") -> List[int]:
    """The computing-core sweep used by the §4 figures."""
    s = _spec(spec)
    top = s.n_cores - 1            # one core reserved for the comm thread
    counts = [0, 1, 2, 3, 5, 8, 11, 14, 17, 20, 22, 25, 28, 31, 33, 35]
    counts = sorted({min(c, top) for c in counts})
    if top not in counts:
        counts.append(top)
    return counts


def default_size_sweep() -> List[int]:
    """Message sizes, 4 B .. 64 MB (the paper's NetPIPE-style range)."""
    return [4, 64, 256, 1024, 4096, 16384, 65536, 262144,
            1048576, 4194304, 16777216, 67108864]


# ---------------------------------------------------------------------------
# §3.1  Figure 1 — constant frequencies
# ---------------------------------------------------------------------------

def _fig1_point(params: dict) -> dict:
    """One (frequency corner, message size) ping-pong point."""
    s = _spec(params["spec"])
    size = params["size"]
    cluster = Cluster(s, n_nodes=2)
    world = CommWorld(cluster, comm_placement="near")
    for m in cluster.machines:
        m.freq.set_userspace(params["core_hz"])
        m.set_uncore(params["uncore_hz"])
    res = PingPong(world).run(size, reps=params["reps"])
    corner = params["corner"]
    return {f"latency_{corner}": [stat_row(size, res.latencies)],
            f"bandwidth_{corner}": [
                stat_row(size, [size / t for t in res.latencies])]}


def fig1(spec: MachineSpec | str = "henri",
         sizes: Optional[Sequence[int]] = None,
         reps: int = 15,
         journal: Optional[CampaignJournal] = None) -> ExperimentResult:
    """Ping-pong latency/bandwidth for the four frequency corners.

    Each (corner, size) point runs behind a :class:`SweepGuard`: a point
    killed by fault injection is annotated in ``result.failures`` while
    the rest of the figure completes, and with a *journal* the sweep is
    checkpointed/resumable point by point.  Points are independent
    :class:`PointSpec` tasks, so ``--jobs`` fans them out over a
    process pool with byte-identical results.
    """
    s = _spec(spec)
    if sizes is None:
        sizes = default_size_sweep()
    lo_core, hi_core = s.freq.allowed_range
    corners = [
        (hi_core, s.uncore.max_hz),
        (hi_core, s.uncore.min_hz),
        (lo_core, s.uncore.max_hz),
        (lo_core, s.uncore.min_hz),
    ]
    result = ExperimentResult(
        name="fig1", title="Impact of constant frequencies on network "
        "performance")
    guard = SweepGuard(result, journal)
    specs: List[PointSpec] = []
    for core_hz, uncore_hz in corners:
        key = f"core{core_hz/1e9:.1f}_uncore{uncore_hz/1e9:.1f}"
        result.new_series(f"latency_{key}",
                          xlabel="message size (B)",
                          ylabel="latency (s)")
        result.new_series(f"bandwidth_{key}",
                          xlabel="message size (B)",
                          ylabel="bandwidth (B/s)")
        for size in sizes:
            specs.append(PointSpec(
                experiment="fig1", key=f"{key}/size={size}",
                runner="repro.core.experiments:_fig1_point",
                params=dict(spec=spec, corner=key, core_hz=core_hz,
                            uncore_hz=uncore_hz, size=size, reps=reps)))
    guard.run_specs(specs)

    # Headline observations (paper: 1.8 µs vs 3.1 µs; ~10.5 vs 10.1 GB/s).
    # The paper's fig-1a latency anchors correspond to the idle-machine
    # uncore (its minimum): only the core frequency is swept.
    def observations():
        hi = f"core{hi_core/1e9:.1f}_uncore{s.uncore.min_hz/1e9:.1f}"
        lo = f"core{lo_core/1e9:.1f}_uncore{s.uncore.min_hz/1e9:.1f}"
        result.observe("latency_high_core_s", result[f"latency_{hi}"].at(4))
        result.observe("latency_low_core_s", result[f"latency_{lo}"].at(4))
        umax = f"core{hi_core/1e9:.1f}_uncore{s.uncore.max_hz/1e9:.1f}"
        umin = f"core{hi_core/1e9:.1f}_uncore{s.uncore.min_hz/1e9:.1f}"
        big = max(sizes)
        result.observe("bandwidth_uncore_max",
                       result[f"bandwidth_{umax}"].at(big))
        result.observe("bandwidth_uncore_min",
                       result[f"bandwidth_{umin}"].at(big))
    _guarded_observations(result, observations)
    return result


def _guarded_observations(result: ExperimentResult,
                          body: Callable[[], None]) -> None:
    """Compute derived observations; when sweep points failed (fault
    injection) the inputs may be missing — note why in
    ``meta["observations_error"]`` (the report prints it) instead of
    losing the figure.  The note is not a point failure."""
    if result.failures:
        try:
            body()
        except Exception as err:
            result.meta["observations_error"] = \
                f"{type(err).__name__}: {err}"
    else:
        body()


def _fold_sweeps(result: ExperimentResult,
                 parts: Dict[str, ExperimentResult]) -> None:
    """Fold sub-sweep results into *result*: their point failures (keyed
    ``part/point``) and their summed ``meta["sweep"]`` tallies."""
    tallies: dict = {}
    for label, part in parts.items():
        for key, info in part.failures.items():
            result.failures[f"{label}/{key}"] = info
        for key, value in part.meta.get("sweep", {}).items():
            tallies[key] = value if key == "trials" \
                else tallies.get(key, 0) + value
    result.meta["sweep"] = tallies


@experiment(title="Constant frequencies vs latency",
            tags=("paper", "frequency"),
            params=("sizes", "reps"),
            fast=dict(sizes=[4, 65536, 67108864], reps=6))
def fig1a(spec: MachineSpec | str = "henri", **kw) -> ExperimentResult:
    """Ping-pong latency at each pinned core frequency (the fig1 sweep
    relabelled to its latency half)."""
    res = fig1(spec, **kw)
    res.name, res.title = "fig1a", "Constant frequencies vs latency"
    return res


@experiment(title="Constant frequencies vs bandwidth",
            tags=("paper", "frequency"),
            params=("sizes", "reps"),
            fast=dict(sizes=[4, 65536, 67108864], reps=6))
def fig1b(spec: MachineSpec | str = "henri", **kw) -> ExperimentResult:
    """Ping-pong bandwidth at each pinned core frequency (the fig1
    sweep relabelled to its bandwidth half)."""
    res = fig1(spec, **kw)
    res.name, res.title = "fig1b", "Constant frequencies vs bandwidth"
    return res


# ---------------------------------------------------------------------------
# §3.2  Figure 2 — frequency traces with CPU-bound computation
# ---------------------------------------------------------------------------

_OBS = "obs:"


def _shipped(values: Dict[str, float]) -> dict:
    """A point's scalars that are not curves, as ``obs:<name>`` rows."""
    return {_OBS + name: [value_row(0, v)] for name, v in values.items()}


def _observe_shipped(result: ExperimentResult) -> None:
    """Move shipped scalars from *result*'s series to observations."""
    for key in [k for k in result.series if k.startswith(_OBS)]:
        result.observe(key[len(_OBS):], result.series.pop(key).median[0])


def _traced_world(spec: MachineSpec | str, sample_period: float):
    """(world, sampler): two far-placed nodes, node 0's cores sampled."""
    cluster = Cluster(_spec(spec), n_nodes=2)
    world = CommWorld(cluster, comm_placement="far")
    m0 = cluster.machine(0)
    probes = {f"core{c.id}": (lambda cid=c.id: m0.freq.core_hz(cid) / 1e9)
              for c in m0.cores}
    # Every probe reads m0's frequency model only: one epoch source
    # buys batched (or probe-skipping) sampling, see sim.trace.
    sampler = PeriodicSampler(cluster.sim, probes, period=sample_period,
                              epoch_sources=(m0.freq,)).start()
    return world, sampler


def _fig2_point(params: dict) -> dict:
    """Phases A (comm only), B (idle), C (comm + prime on n cores)."""
    phase = params["phase_seconds"]
    world, sampler = _traced_world(params["spec"], params["sample_period"])
    sim = world.sim
    pingpong = PingPong(world)
    lat_a: List[float] = []
    lat_c: List[float] = []

    # Phase A: communications only.
    proc = sim.process(pingpong.process(
        LATENCY_SIZE, 0, out=lat_a, warmup=0,
        more=lambda _it: sim.now < phase))
    sim.run(until=phase)
    sim.run(until=proc)
    if not proc.ok:   # re-raise the ping-pong's transport failure
        _ = proc.value

    # Phase B: everything idle (the comm threads sleep too).
    from repro.hardware.frequency import CoreActivity
    t_b0 = sim.now
    for rank in world.ranks:
        rank.machine.set_core_activity(rank.comm_core, CoreActivity.IDLE)
    sim.run(until=t_b0 + phase)
    for rank in world.ranks:
        rank.machine.set_core_activity(rank.comm_core, CoreActivity.SCALAR,
                                       uncore_active=False)

    # Phase C: communications + prime counting on n_compute cores.
    t_c0 = sim.now
    runs = start_kernels(world, params["n_compute"], prime_kernel, 0, None)
    proc = sim.process(pingpong.process(
        LATENCY_SIZE, 0, out=lat_c, warmup=0,
        more=lambda _it: sim.now < t_c0 + phase))
    sim.run(until=t_c0 + phase)
    sim.run(until=proc)
    if not proc.ok:
        _ = proc.value
    for run in runs:
        run.request_stop()
    trace = sampler.stop()
    sim.run()

    comm_key = f"core{world.rank(0).comm_core}"
    means: Dict[str, float] = {}
    for name, (t0, t1) in (("A", (0.0, phase)), ("B", (t_b0, t_c0)),
                           ("C", (t_c0, t_c0 + phase))):
        means[f"comm_core_ghz_{name}"] = trace.mean(comm_key, t0, t1)
        means[f"compute_core_ghz_{name}"] = trace.mean("core0", t0, t1)
    # x=0: alone, x=1: together.
    return {"latency": [stat_row(0, lat_a), stat_row(1, lat_c)],
            **_shipped(means)}


@experiment(title="Frequency traces: comm only / idle / comm + compute",
            tags=("paper", "frequency"),
            fast=dict(phase_seconds=0.04))
def fig2(spec: MachineSpec | str = "henri", n_compute: int = 20,
         phase_seconds: float = 0.12, sample_period: float = 2e-3,
         journal: Optional[CampaignJournal] = None) -> ExperimentResult:
    """Phases A (comm only), B (idle), C (comm + prime on n cores)."""
    result = ExperimentResult(
        name="fig2",
        title="Frequency variations: (A) comm only, (B) idle, "
              "(C) comm + compute")
    lat = result.new_series("latency", ylabel="latency (s)")
    SweepGuard(result, journal).run_specs([PointSpec(
        experiment="fig2", key=f"n={n_compute}",
        runner="repro.core.experiments:_fig2_point",
        params=dict(spec=spec, n_compute=n_compute,
                    phase_seconds=phase_seconds,
                    sample_period=sample_period))])
    _observe_shipped(result)

    def observations():
        result.observe("latency_alone_s", lat.at(0))
        result.observe("latency_together_s", lat.at(1))
    _guarded_observations(result, observations)
    return result


# ---------------------------------------------------------------------------
# §3.3  Figure 3 — AVX-512 computations
# ---------------------------------------------------------------------------

def _fig3a_point(params: dict) -> dict:
    """One AVX weak-scaling point (duration + latency, alone/together)."""
    n = params["n"]
    cfg = SideBySideConfig(
        spec=params["spec"], n_compute_cores=n, kernel_factory=avx_kernel,
        message_size=LATENCY_SIZE, reps=params["reps"], sweeps=1)
    out = run_duration_protocol(cfg)
    rows = {
        "compute_alone": [value_row(n, out.compute_alone_duration)],
        "compute_together": [value_row(n, out.compute_together_duration)],
        "latency_alone": [stat_row(n, out.comm_alone.latencies)],
    }
    if out.comm_together is not None:
        rows["latency_together"] = [stat_row(n, out.comm_together.latencies)]
    return rows


@experiment(title="AVX512 compute duration & latency vs computing cores",
            tags=("paper", "frequency"),
            fast=dict(core_counts=(4, 20), reps=5))
def fig3a(spec: MachineSpec | str = "henri",
          core_counts: Sequence[int] = (2, 4, 8, 12, 16, 20),
          reps: int = 12,
          journal: Optional[CampaignJournal] = None) -> ExperimentResult:
    """AVX weak scaling: compute duration and latency, alone/together."""
    result = ExperimentResult(
        name="fig3a", title="Impact of AVX512 computations on network "
        "latency")
    guard = SweepGuard(result, journal)
    dur_alone = result.new_series("compute_alone",
                                  xlabel="computing cores",
                                  ylabel="duration (s)")
    result.new_series("compute_together", xlabel="computing cores",
                      ylabel="duration (s)")
    result.new_series("latency_alone", xlabel="computing cores",
                      ylabel="latency (s)")
    result.new_series("latency_together", xlabel="computing cores",
                      ylabel="latency (s)")
    guard.run_specs([
        PointSpec(experiment="fig3a", key=f"n={n}",
                  runner="repro.core.experiments:_fig3a_point",
                  params=dict(spec=spec, n=n, reps=reps))
        for n in core_counts])

    def observations():
        result.observe("duration_4_cores_s",
                       dur_alone.at(4) if 4 in core_counts else None)
        result.observe("duration_20_cores_s",
                       dur_alone.at(20) if 20 in core_counts else None)
    _guarded_observations(result, observations)
    return result


def _fig3bc_point(params: dict) -> dict:
    """AVX kernels on n cores per node beside latency ping-pongs."""
    world, sampler = _traced_world(params["spec"], params["sample_period"])
    sim = world.sim
    runs = start_kernels(world, params["n_compute"], avx_kernel, 0, 1)
    lats: List[float] = []
    proc = sim.process(PingPong(world).process(
        LATENCY_SIZE, 0, out=lats, warmup=0,
        more=lambda _it: any(not r.process.triggered for r in runs)))
    for r in runs:
        sim.run(until=r.process)
    trace = sampler.stop()
    sim.run()
    if not proc.ok:   # re-raise the ping-pong's transport failure
        _ = proc.value
    duration = max(r.stats.duration for r in runs)
    comm_key = f"core{world.rank(0).comm_core}"
    return {**_shipped({
        "compute_duration_s": duration,
        "comm_core_ghz": trace.mean(comm_key, 0, duration),
        "avx_core_ghz": trace.mean("core0", 0, duration)}),
        _OBS + "latency_together_s": [stat_row(0, lats)]}


@experiment(title="Frequency traces under AVX load",
            tags=("paper", "frequency"), index_key="fig3b/c",
            fast=dict(n_compute=4))
def fig3bc(spec: MachineSpec | str = "henri", n_compute: int = 4,
           sample_period: float = 2e-3,
           journal: Optional[CampaignJournal] = None) -> ExperimentResult:
    """Frequency trace while AVX computations run beside communications."""
    result = ExperimentResult(
        name="fig3bc",
        title=f"Frequency trace, {n_compute} AVX512 computing cores")
    SweepGuard(result, journal).run_specs([PointSpec(
        experiment="fig3bc", key=f"n={n_compute}",
        runner="repro.core.experiments:_fig3bc_point",
        params=dict(spec=spec, n_compute=n_compute,
                    sample_period=sample_period))])
    _observe_shipped(result)
    return result


# ---------------------------------------------------------------------------
# §4  Figures 4-7 — memory contention
# ---------------------------------------------------------------------------

def _contention_point(params: dict) -> dict:
    """One core-count point of a fig4/fig5 contention sweep."""
    n = params["n"]
    cfg = SideBySideConfig(
        spec=params["spec"], n_compute_cores=n,
        placement=params["placement"],
        kernel_factory=params["kernel_factory"],
        message_size=params["message_size"], reps=params["reps"])
    out = run_throughput_protocol(cfg)
    rows = {"comm_alone": [stat_row(n, out.comm_alone.latencies)]}
    if out.comm_together is not None:
        rows["comm_together"] = [stat_row(n, out.comm_together.latencies)]
    else:
        rows["comm_together"] = [stat_row(n, out.comm_alone.latencies)]
    if out.compute_alone_bw_per_core:
        rows["compute_alone"] = [stat_row(n, out.compute_alone_bw_per_core)]
        rows["compute_together"] = [
            stat_row(n, out.compute_together_bw_per_core)]
    return rows


def _contention_sweep(name: str, title: str, message_size: int,
                      placement: Placement,
                      spec: MachineSpec | str = "henri",
                      core_counts: Optional[Sequence[int]] = None,
                      reps: int = 12,
                      kernel_factory: Callable = triad_kernel,
                      journal: Optional[CampaignJournal] = None,
                      ) -> ExperimentResult:
    """Shared driver for the fig4/fig5 sweeps."""
    if core_counts is None:
        core_counts = default_core_counts(spec)
    result = ExperimentResult(name=name, title=title)
    result.meta["placement"] = placement
    result.meta["message_size"] = message_size
    guard = SweepGuard(result, journal)
    lat_alone = result.new_series("comm_alone", xlabel="computing cores",
                                  ylabel="latency (s)")
    lat_tog = result.new_series("comm_together", xlabel="computing cores",
                                ylabel="latency (s)")
    result.new_series("compute_alone", xlabel="computing cores",
                      ylabel="bytes/s per core")
    result.new_series("compute_together", xlabel="computing cores",
                      ylabel="bytes/s per core")
    guard.run_specs([
        PointSpec(experiment=name, key=f"n={n}",
                  runner="repro.core.experiments:_contention_point",
                  params=dict(spec=spec, n=n, placement=placement,
                              kernel_factory=kernel_factory,
                              message_size=message_size, reps=reps))
        for n in core_counts])

    # Derived observations.
    def observations():
        base_lat = lat_alone.median[0]
        result.observe("latency_baseline_s", base_lat)
        result.observe(
            "comm_impact_from_cores",
            crossover_index(lat_tog.x, lat_tog.median, base_lat,
                            threshold=0.15, direction="above"))
        if len(lat_tog) > 0:
            result.observe("latency_max_ratio",
                           max(lat_tog.median) / base_lat)
    _guarded_observations(result, observations)
    return result


@experiment(title="Memory-bound computations vs network latency",
            tags=("paper", "contention"),
            params=("core_counts", "reps"),
            fast=dict(core_counts=[0, 3, 5, 12, 20, 26, 31, 35], reps=6))
def fig4a(spec: MachineSpec | str = "henri", **kw) -> ExperimentResult:
    """Latency under STREAM contention (data near NIC, thread far)."""
    return _contention_sweep(
        "fig4a", "Memory-bound computations vs network latency",
        LATENCY_SIZE, Placement("near", "far"), spec, **kw)


@experiment(title="Memory-bound computations vs network bandwidth",
            tags=("paper", "contention"),
            params=("core_counts", "reps"),
            fast=dict(core_counts=[0, 3, 5, 12, 20, 26, 31, 35], reps=4))
def fig4b(spec: MachineSpec | str = "henri", **kw) -> ExperimentResult:
    """Bandwidth under STREAM contention (data near NIC, thread far)."""
    return _fig4b_sweep("fig4b",
                        "Memory-bound computations vs network bandwidth",
                        spec, **kw)


def _bandwidth_views(res: ExperimentResult, size: int) -> None:
    """Add ``*_bw`` bandwidth views of the comm latency series."""
    for key in ("comm_alone", "comm_together"):
        lat = res.series[key]
        bw = res.new_series(key + "_bw", xlabel=lat.xlabel,
                            ylabel="bytes/s")
        for x, p10, med, p90 in zip(lat.x, lat.p10, lat.median, lat.p90):
            bw.x.append(x)
            bw.median.append(size / med)
            bw.p10.append(size / p90)
            bw.p90.append(size / p10)


def _fig4b_sweep(name: str, title: str, spec: MachineSpec | str = "henri",
                 **kw) -> ExperimentResult:
    """Figure 4b's sweep and bandwidth observations, journaled as
    *name* (the ablations run it on overridden machine specs)."""
    res = _contention_sweep(name, title, BANDWIDTH_SIZE,
                            Placement("near", "far"), spec, **kw)
    _bandwidth_views(res, BANDWIDTH_SIZE)
    base_bw = res["comm_alone_bw"].median[0]
    res.observe("bandwidth_baseline", base_bw)
    res.observe("bandwidth_min_ratio",
                min(res["comm_together_bw"].median) / base_bw)
    res.observe("bandwidth_impact_from_cores",
                crossover_index(res["comm_together_bw"].x,
                                res["comm_together_bw"].median,
                                base_bw, threshold=0.05,
                                direction="below"))
    return res


@experiment(title="All placement combinations × {latency, bandwidth}",
            tags=("paper", "contention"), multi_result=True, plot=False,
            index_key="fig5a–f", params=("core_counts", "reps"),
            fast=dict(core_counts=[0, 5, 20, 35], reps=4))
def fig5(spec: MachineSpec | str = "henri",
         **kw) -> Dict[str, ExperimentResult]:
    """All placement combinations × {latency, bandwidth} (6 new panels +
    the two fig4 panels, as the paper lays them out)."""
    results: Dict[str, ExperimentResult] = {}
    for placement in ALL_PLACEMENTS:
        for metric, size in (("latency", LATENCY_SIZE),
                             ("bandwidth", BANDWIDTH_SIZE)):
            key = f"{placement.key}_{metric}"
            results[key] = _contention_sweep(
                f"fig5_{key}",
                f"{metric.capitalize()}, data {placement.data}, thread "
                f"{placement.comm_thread}",
                size, placement, spec, **kw)
    return results


@experiment(title="Placement impact summary (paper Table 1)",
            tags=("paper", "contention"), plot=False,
            renderer="repro.core.report:render_table1",
            params=("core_counts", "reps"),
            fast=dict(core_counts=[0, 5, 20, 35], reps=4))
def table1(spec: MachineSpec | str = "henri", **kw) -> ExperimentResult:
    """Qualitative summary of placement impact (paper Table 1): a view
    of :func:`fig5`'s eight sweeps, one row per placement.

    The sweeps run under fig5's names, so on a journal that already
    holds fig5's points every one of them replays instead of running.
    """
    parts = fig5(spec, **kw)
    result = ExperimentResult(name="table1",
                              title="Impact of data and communication "
                              "thread placement (summary)")
    _fold_sweeps(result, parts)
    rows = result.meta["rows"] = []

    def observations():
        for placement in ALL_PLACEMENTS:
            lat = parts[f"{placement.key}_latency"].observations
            bw = parts[f"{placement.key}_bandwidth"]
            rows.append({
                "data": placement.data,
                "comm_thread": placement.comm_thread,
                "latency_impact_from_cores": lat["comm_impact_from_cores"],
                "latency_max_ratio": lat["latency_max_ratio"],
                # alone / slowest together latency = min bw ratio
                "bandwidth_min_ratio":
                    bw.observations["latency_baseline_s"]
                    / max(bw["comm_together"].median),
            })
    _guarded_observations(result, observations)
    return result


def _size_point(params: dict) -> dict:
    """One message-size point of a fig6 sweep."""
    size = params["size"]
    cfg = SideBySideConfig(
        spec=params["spec"], n_compute_cores=params["n_compute"],
        placement=Placement("near", "far"), message_size=size,
        reps=params["reps"])
    out = run_throughput_protocol(cfg)
    return {
        "comm_alone": [
            stat_row(size, [size / t for t in out.comm_alone.latencies])],
        "comm_together": [
            stat_row(size, [size / t for t in out.comm_together.latencies])],
        "compute_alone": [stat_row(size, out.compute_alone_bw_per_core)],
        "compute_together": [
            stat_row(size, out.compute_together_bw_per_core)],
    }


def _size_experiment(name: str, n_compute: int,
                     spec: MachineSpec | str = "henri",
                     sizes: Optional[Sequence[int]] = None,
                     reps: int = 10,
                     journal: Optional[CampaignJournal] = None,
                     ) -> ExperimentResult:
    """Fig 6 driver: sweep the transmitted size at fixed core count."""
    if sizes is None:
        sizes = default_size_sweep()
    result = ExperimentResult(
        name=name,
        title=f"Impact of message size with {n_compute} computing cores")
    guard = SweepGuard(result, journal)
    comm_alone = result.new_series("comm_alone", xlabel="message size (B)",
                                   ylabel="bandwidth (B/s)")
    comm_tog = result.new_series("comm_together",
                                 xlabel="message size (B)",
                                 ylabel="bandwidth (B/s)")
    st_alone = result.new_series("compute_alone",
                                 xlabel="message size (B)",
                                 ylabel="bytes/s per core")
    st_tog = result.new_series("compute_together",
                               xlabel="message size (B)",
                               ylabel="bytes/s per core")
    guard.run_specs([
        PointSpec(experiment=name, key=f"size={size}",
                  runner="repro.core.experiments:_size_point",
                  params=dict(spec=spec, n_compute=n_compute, size=size,
                              reps=reps))
        for size in sizes])

    # Thresholds (paper: comms degrade from 64 KB @5 cores / 128 B @35;
    # STREAM from 4 KB in both).
    def observations():
        comm_ratio = [t / a
                      for t, a in zip(comm_tog.median, comm_alone.median)]
        result.observe("comm_degraded_from_size",
                       crossover_index(comm_tog.x, comm_ratio, 1.0, 0.08,
                                       "below"))
        st_ratio = [t / a for t, a in zip(st_tog.median, st_alone.median)]
        result.observe("stream_degraded_from_size",
                       crossover_index(st_tog.x, st_ratio, 1.0, 0.02,
                                       "below"))
    _guarded_observations(result, observations)
    return result


@experiment(title="Message-size sweep at 5 computing cores",
            tags=("paper", "contention"),
            params=("sizes", "reps"),
            fast=dict(sizes=[4, 1024, 4096, 65536, 1048576, 67108864],
                      reps=4))
def fig6a(spec: MachineSpec | str = "henri", **kw) -> ExperimentResult:
    """Message-size sweep with 5 computing cores."""
    return _size_experiment("fig6a", 5, spec, **kw)


@experiment(title="Message-size sweep at 35 computing cores",
            tags=("paper", "contention"),
            params=("sizes", "reps"),
            fast=dict(sizes=[4, 128, 1024, 4096, 65536, 1048576,
                             67108864], reps=4))
def fig6b(spec: MachineSpec | str = "henri", n_compute: Optional[int] = None,
          **kw) -> ExperimentResult:
    """Message-size sweep with (almost) all cores computing."""
    if n_compute is None:
        n_compute = _spec(spec).n_cores - 1
    return _size_experiment("fig6b", n_compute, spec, **kw)


def _intensity_point(params: dict) -> dict:
    """One arithmetic-intensity point of a fig7 sweep.

    The tunable-triad kernel factory closes over the cursor *inside*
    the runner (a lambda cannot cross a process boundary; the cursor
    and element count can).
    """
    cursor = params["cursor"]
    elems = params["elems"]
    intensity = intensity_of_cursor(cursor)
    cfg = SideBySideConfig(
        spec=params["spec"], n_compute_cores=params["n_compute"],
        placement=Placement("near", "far"),
        kernel_factory=lambda: tunable_triad(cursor, elems=elems),
        message_size=params["message_size"], reps=params["reps"],
        sweeps=params["sweeps"], warmup_reps=params["warmup_reps"])
    out = run_duration_protocol(cfg)
    rows = {"comm_alone": [stat_row(intensity, out.comm_alone.latencies)]}
    if out.comm_together is not None and len(out.comm_together.latencies):
        rows["comm_together"] = [
            stat_row(intensity, out.comm_together.latencies)]
    else:
        rows["comm_together"] = [
            stat_row(intensity, out.comm_alone.latencies)]
    rows["compute_alone"] = [
        value_row(intensity, out.compute_alone_duration)]
    rows["compute_together"] = [
        value_row(intensity, out.compute_together_duration)]
    return rows


def _intensity_experiment(name: str, message_size: int,
                          spec: MachineSpec | str = "henri",
                          cursors: Optional[Sequence[int]] = None,
                          n_compute: Optional[int] = None,
                          reps: int = 10,
                          elems: int = 2_000_000,
                          sweeps: int = 1,
                          warmup_reps: int = 1,
                          journal: Optional[CampaignJournal] = None,
                          ) -> ExperimentResult:
    """Fig 7 driver: sweep arithmetic intensity via the cursor."""
    s = _spec(spec)
    if cursors is None:
        cursors = [1, 2, 4, 8, 16, 24, 36, 48, 60, 72, 96, 144, 240, 480]
    if n_compute is None:
        n_compute = s.n_cores - 1
    result = ExperimentResult(
        name=name, title="Impact of memory pressure (tunable arithmetic "
        "intensity)")
    guard = SweepGuard(result, journal)
    comm_alone = result.new_series("comm_alone",
                                   xlabel="arithmetic intensity (flop/B)",
                                   ylabel="latency (s)")
    comm_tog = result.new_series("comm_together",
                                 xlabel="arithmetic intensity (flop/B)",
                                 ylabel="latency (s)")
    result.new_series("compute_alone",
                      xlabel="arithmetic intensity (flop/B)",
                      ylabel="duration (s)")
    result.new_series("compute_together",
                      xlabel="arithmetic intensity (flop/B)",
                      ylabel="duration (s)")
    guard.run_specs([
        PointSpec(experiment=name, key=f"cursor={cursor}",
                  runner="repro.core.experiments:_intensity_point",
                  params=dict(spec=spec, cursor=cursor, elems=elems,
                              n_compute=n_compute,
                              message_size=message_size, reps=reps,
                              sweeps=sweeps, warmup_reps=warmup_reps))
        for cursor in cursors])

    # Ridge: intensity where communication recovers its nominal value.
    def observations():
        if message_size > 1024:
            values = [message_size / m for m in comm_tog.median]
        else:
            nominal = comm_alone.median[0]
            values = [nominal / m for m in comm_tog.median]
        result.observe("ridge_flop_per_byte",
                       detect_ridge(comm_tog.x, values))
    _guarded_observations(result, observations)
    return result


@experiment(title="Arithmetic-intensity sweep vs latency",
            tags=("paper", "contention"),
            params=("cursors", "n_compute", "reps", "elems", "sweeps",
                    "warmup_reps"),
            fast=dict(cursors=[1, 8, 24, 48, 72, 96, 144, 480], reps=4,
                      elems=1_000_000))
def fig7a(spec: MachineSpec | str = "henri", **kw) -> ExperimentResult:
    """Intensity sweep vs latency."""
    res = _intensity_experiment("fig7a", LATENCY_SIZE, spec, **kw)
    res.title += " - latency"
    return res


@experiment(title="Arithmetic-intensity sweep vs bandwidth",
            tags=("paper", "contention"),
            params=("cursors", "n_compute", "reps", "elems", "sweeps",
                    "warmup_reps"),
            fast=dict(cursors=[1, 8, 24, 72, 144, 480], reps=3,
                      elems=2_000_000, sweeps=3))
def fig7b(spec: MachineSpec | str = "henri", **kw) -> ExperimentResult:
    """Intensity sweep vs bandwidth.

    Several sweeps of fixed work per point so that multiple 64 MB
    ping-pongs fit inside the computation window.
    """
    kw.setdefault("sweeps", 4)
    kw.setdefault("elems", 4_000_000)
    res = _intensity_experiment("fig7b", BANDWIDTH_SIZE, spec, **kw)
    res.title += " - bandwidth"
    _bandwidth_views(res, BANDWIDTH_SIZE)
    return res


# ---------------------------------------------------------------------------
# §5  Runtime-system experiments
# ---------------------------------------------------------------------------

def _runtime_pingpong(world: CommWorld, comm, size: int, reps: int,
                      data_numa_a: int, data_numa_b: int,
                      warmup: int = 2) -> List[float]:
    """Ping-pong through the runtime comm layer; one-way latencies."""
    sim = world.sim
    buf_a = world.rank(0).buffer(size, data_numa_a, "rt_pp_a")
    buf_b = world.rank(1).buffer(size, data_numa_b, "rt_pp_b")
    lats: List[float] = []

    def loop():
        for it in range(warmup + reps):
            s = comm.isend(0, 1, buf_a, tag=1)
            r = comm.irecv(1, 0, buf_b, tag=1)
            rec = yield r.done
            if it >= warmup:
                lats.append(rec.duration)
            s2 = comm.isend(1, 0, buf_b, tag=2)
            r2 = comm.irecv(0, 1, buf_a, tag=2)
            rec2 = yield r2.done
            if it >= warmup:
                lats.append(rec2.duration)

    proc = sim.process(loop())
    sim.run()
    if not proc.ok:  # pragma: no cover
        _ = proc.value
    return lats


def _runtime_latency_point(params: dict) -> dict:
    """One §5.2/§5.3 latency ping-pong on a fresh two-node cluster.

    The comm thread sits ``thread`` (near/far) from the NIC.  With
    ``runtime`` the ping-pong crosses the task runtime's comm layer (no
    workers polling: the paused baseline) on buffers ``data`` from the
    NIC; without it, plain MPI.
    """
    from repro.runtime.mpi_layer import RuntimeComm

    s = _spec(params["spec"])
    reps = params["reps"]
    cluster = Cluster(s, n_nodes=2)
    world = CommWorld(cluster, comm_cores={
        m.node_id: comm_core_for(m, params["thread"])
        for m in cluster.machines})
    if params["runtime"]:
        comm = RuntimeComm(world, n_workers=0)
        numa_a, numa_b = (data_numa_for(m, params["data"])
                          for m in cluster.machines)
        lats = _runtime_pingpong(world, comm, LATENCY_SIZE, reps,
                                 numa_a, numa_b)
    else:
        lats = PingPong(world).run(LATENCY_SIZE, reps=reps).latencies
    return {params["series"]: [stat_row(0, lats)]}


def _runtime_latency_sweep(result: ExperimentResult, points,
                           spec: MachineSpec | str, reps: int,
                           journal: Optional[CampaignJournal]) -> None:
    """Run ``(series, runtime, thread, data)`` latency points into
    *result*, observing each series' median as ``<series>_latency_s``."""
    for series, _runtime, _thread, _data in points:
        result.new_series(series, ylabel="latency (s)")
    SweepGuard(result, journal).run_specs([
        PointSpec(experiment=result.name, key=series,
                  runner="repro.core.experiments:_runtime_latency_point",
                  params=dict(spec=spec, reps=reps, series=series,
                              runtime=runtime, thread=thread, data=data))
        for series, runtime, thread, data in points])

    def observations():
        for series, _runtime, _thread, _data in points:
            result.observe(f"{series}_latency_s", result[series].median[0])
    _guarded_observations(result, observations)


@experiment(title="Task-runtime latency overhead (§5.2)",
            tags=("paper", "runtime"), index_key="§5.2",
            fast=dict(reps=10))
def runtime_overhead(spec: MachineSpec | str = "henri",
                     reps: int = 20,
                     journal: Optional[CampaignJournal] = None
                     ) -> ExperimentResult:
    """§5.2: latency of a runtime-level ping-pong vs plain MPI."""
    result = ExperimentResult(name="runtime_overhead",
                              title="Task-runtime latency overhead (§5.2)")
    _runtime_latency_sweep(result, [("plain", False, "far", "near"),
                                    ("runtime", True, "far", "near")],
                           spec, reps, journal)
    def overhead():
        obs = result.observations
        result.observe("overhead_s",
                       obs["runtime_latency_s"] - obs["plain_latency_s"])
    _guarded_observations(result, overhead)
    return result


@experiment(title="Runtime latency vs data/thread NUMA placement",
            tags=("paper", "runtime"),
            fast=dict(reps=10))
def fig8(spec: MachineSpec | str = "henri",
         reps: int = 15,
         journal: Optional[CampaignJournal] = None) -> ExperimentResult:
    """§5.3: runtime latency vs data locality × comm-thread placement."""
    result = ExperimentResult(
        name="fig8", title="Data locality and thread placement with the "
        "runtime (close/far from the NIC)")
    _runtime_latency_sweep(
        result, [(f"data_{data}_thread_{thread}", True, thread, data)
                 for thread in ("near", "far") for data in ("near", "far")],
        spec, reps, journal)
    return result


def _fig9_point(params: dict) -> dict:
    """One (backoff, size) point of the polling-interference sweep."""
    from repro.runtime.mpi_layer import RuntimeComm
    from repro.runtime.scheduler import PollingSpec

    backoff = params["backoff"]
    if backoff == "paused":
        polling = PollingSpec(paused=True)
    else:
        polling = PollingSpec(backoff_max_nops=int(backoff))
    size = params["size"]
    s = _spec(params["spec"])
    cluster = Cluster(s, n_nodes=2)
    world = CommWorld(cluster, comm_placement="far")
    comm = RuntimeComm(world, polling=polling)
    for rt in comm.runtimes.values():
        rt.start()
    numa = cluster.machine(0).nic_numa.id
    lats = _runtime_pingpong(world, comm, size, params["reps"],
                             numa, numa)
    for rt in comm.runtimes.values():
        rt.shutdown()
    return {params["series"]: [stat_row(size, lats)]}


@experiment(title="Runtime latency vs worker-polling backoff",
            tags=("paper", "runtime"),
            fast=dict(sizes=[4, 1024], reps=8))
def fig9(spec: MachineSpec | str = "henri",
         sizes: Optional[Sequence[int]] = None,
         backoffs: Sequence[object] = (2, 32, 10000, "paused"),
         reps: int = 12,
         journal: Optional[CampaignJournal] = None) -> ExperimentResult:
    """§5.4: impact of worker polling on runtime latency."""
    if sizes is None:
        sizes = [4, 64, 1024, 16384]
    result = ExperimentResult(
        name="fig9", title="Impact of polling workers on network latency")
    guard = SweepGuard(result, journal)
    keys = []
    for backoff in backoffs:
        key = "paused" if backoff == "paused" else f"backoff_{backoff}"
        keys.append((backoff, key))
        result.new_series(key, xlabel="message size (B)",
                          ylabel="latency (s)")
    guard.run_specs([
        PointSpec(experiment="fig9", key=f"{key}/size={size}",
                  runner="repro.core.experiments:_fig9_point",
                  params=dict(spec=spec, backoff=backoff, series=key,
                              size=size, reps=reps))
        for backoff, key in keys for size in sizes])

    def observations():
        for _backoff, key in keys:
            result.observe(f"{key}_latency_4B_s", result[key].at(4))
    _guarded_observations(result, observations)
    return result


# ---------------------------------------------------------------------------
# §6  Figure 10 — CG and GEMM
# ---------------------------------------------------------------------------

def _fig10_point(params: dict) -> dict:
    """One worker-count point: CG and GEMM at ``nw`` workers.

    An app runs when its ``cg_kwargs``/``gemm_kwargs`` entry is present.
    Optional ``runtime`` overrides :class:`~repro.runtime.runtime.RuntimeSpec`
    fields (how an ablation switches a runtime mechanism off) and
    ``fields`` names the reported result attributes (default: sending
    bandwidth and stall fraction); rows are keyed ``<app>_<field>``,
    with ``sending_bandwidth`` shortened to ``sending_bw``.
    """
    from repro.runtime.apps import run_cg, run_gemm

    spec = params["spec"]
    nw = params["nw"]
    runtime = params.get("runtime")
    if runtime is not None:
        from dataclasses import replace

        from repro.runtime.runtime import runtime_spec_for
        runtime = replace(runtime_spec_for(_spec(spec)), **runtime)
    fields = params.get("fields", ("sending_bandwidth", "stall_fraction"))
    rows = {}
    for app, run in (("cg", run_cg), ("gemm", run_gemm)):
        kwargs = params.get(f"{app}_kwargs")
        if kwargs is None:
            continue
        res = run(spec=spec, n_workers=nw, runtime=runtime, **kwargs)
        for name in fields:
            key = "sending_bw" if name == "sending_bandwidth" else name
            rows[f"{app}_{key}"] = [value_row(nw, getattr(res, name))]
    return rows


def _fig10_sweep(result: ExperimentResult, spec: MachineSpec | str,
                 worker_counts: Sequence[int],
                 journal: Optional[CampaignJournal], **params) -> None:
    """Run :func:`_fig10_point` over *worker_counts* (capped at the
    machine's worker cores) into *result*; *params* extend each point's."""
    max_workers = _spec(spec).n_cores - 2
    SweepGuard(result, journal).run_specs([
        PointSpec(experiment=result.name, key=f"workers={nw}",
                  runner="repro.core.experiments:_fig10_point",
                  params=dict(spec=spec, nw=nw, **params))
        for nw in dict.fromkeys(min(n, max_workers)
                                for n in worker_counts)])


@experiment(title="CG vs GEMM: sending bandwidth + memory stalls",
            tags=("paper", "runtime"),
            fast=dict(worker_counts=(1, 8, 16, 24, 34)))
def fig10(spec: MachineSpec | str = "henri",
          worker_counts: Sequence[int] = (1, 2, 4, 8, 16, 24, 30, 34),
          cg_kwargs: Optional[dict] = None,
          gemm_kwargs: Optional[dict] = None,
          journal: Optional[CampaignJournal] = None) -> ExperimentResult:
    """§6: normalized sending bandwidth + memory stalls vs worker count."""
    cg_kwargs = dict(cg_kwargs or {})
    gemm_kwargs = dict(gemm_kwargs or {})
    result = ExperimentResult(
        name="fig10",
        title="Network performance and memory stalls of CG and GEMM")
    cg_stall = result.new_series("cg_stall_fraction", xlabel="workers",
                                 ylabel="fraction")
    gm_stall = result.new_series("gemm_stall_fraction", xlabel="workers",
                                 ylabel="fraction")
    result.new_series("cg_sending_bw", xlabel="workers", ylabel="bytes/s")
    result.new_series("gemm_sending_bw", xlabel="workers",
                      ylabel="bytes/s")
    _fig10_sweep(result, spec, worker_counts, journal,
                 cg_kwargs=cg_kwargs, gemm_kwargs=gemm_kwargs)

    # Normalized views + headline numbers.
    def observations():
        for key in ("cg_sending_bw", "gemm_sending_bw"):
            raw = result.series[key]
            norm = result.new_series(key + "_norm", xlabel="workers",
                                     ylabel="normalized")
            if not raw.median:
                raise ValueError(f"series {key!r} is empty")
            peak = max(raw.median)
            for x, v in zip(raw.x, raw.median):
                norm.add_value(x, v / peak if peak > 0 else 0.0)
        result.observe("cg_bw_loss",
                       1.0 - result["cg_sending_bw_norm"].median[-1])
        result.observe("gemm_bw_loss",
                       1.0 - result["gemm_sending_bw_norm"].median[-1])
        result.observe("cg_stall_max", max(cg_stall.median))
        result.observe("gemm_stall_max", max(gm_stall.median))
    _guarded_observations(result, observations)
    return result
