"""Ablation studies: turn individual interference mechanisms off.

DESIGN.md names four modelling mechanisms as the load-bearing pieces of
the reproduction.  Each ablation disables exactly one of them and
re-runs the experiment whose shape depends on it, quantifying how much
of the paper's effect that mechanism carries:

* ``no_pio_colocation``  — zero the PIO co-location penalty → Figure 4a's
  latency doubling disappears.
* ``no_dma_derating``    — make the NIC's DMA engines insensitive to
  memory latency → Figure 4b's early (3-core) bandwidth onset moves to
  the point where the max-min share binds.
* ``no_dma_priority``    — give DMA flows weight 1 (just another core) →
  the asymptotic bandwidth under full contention collapses far below the
  paper's ~1/3.
* ``no_stack_stall``     — keep the runtime's software stack immune to
  memory pressure → CG's §6 sending-bandwidth collapse shrinks towards
  GEMM's.
* ``no_scheduler_locality`` — locality-blind eager list → GEMM's memory
  stalls inflate once workers span both sockets (about half the bytes
  cross a socket, 3/4 leave the local NUMA node).  At ``--fast``'s 8
  workers, all on NUMA node 0, it inverts: locality only orders the
  hand-out (NUMA-0 tiles first), so demand piles onto one memory
  controller at a time and the baseline stalls more.

A mechanism is switched off as plain data: the §4 ablations run the
Figure 4 sweep on a :class:`~repro.hardware.presets.MachineSpec` with
one field overridden, the §6 ones hand
:func:`~repro.core.experiments._fig10_point` a ``runtime`` dict of
:class:`~repro.runtime.runtime.RuntimeSpec` overrides.  Each variant is
an ordinary point sweep journaled as ``<ablation>_baseline`` /
``<ablation>_ablated``, so ablations get ``--jobs``, ``--resume``,
``--trials`` and the point cache like any figure.  The experiments
carry the ``ablation`` tag and stay out of ``repro run all``.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, Optional, Sequence

from repro.core import experiments as E
from repro.core.campaign import CampaignJournal
from repro.core.placement import Placement
from repro.core.registry import experiment
from repro.core.results import ExperimentResult, Series
from repro.hardware.presets import ContentionSpec, MachineSpec
from repro.mpi.pingpong import LATENCY_SIZE

__all__ = [
    "no_pio_colocation_experiment", "no_dma_derating_experiment",
    "no_dma_priority_experiment", "no_stack_stall_experiment",
    "no_scheduler_locality_experiment",
]

_CORES = [0, 3, 5, 12, 20, 26, 31, 35]
_FAST = dict(core_counts=[0, 12, 20, 35], reps=3)


def _append(dst: Series, src: Series, x: Optional[float] = None) -> None:
    """Append *src*'s points (relabelled at *x* if given) to *dst*."""
    xs = src.x if x is None else [float(x)] * len(src.x)
    dst.x.extend(xs)
    dst.median.extend(src.median)
    dst.p10.extend(src.p10)
    dst.p90.extend(src.p90)


def _combined(name: str, title: str,
              parts: Dict[str, ExperimentResult]) -> ExperimentResult:
    """Merge per-variant results into one comparable result: series and
    observations are prefixed ``baseline_`` / ``ablated_``."""
    result = ExperimentResult(name=name, title=title)
    for variant, res in parts.items():
        for key, s in res.series.items():
            _append(result.new_series(f"{variant}_{key}", xlabel=s.xlabel,
                                      ylabel=s.ylabel), s)
        for key, value in res.observations.items():
            result.observe(f"{variant}_{key}", value)
    E._fold_sweeps(result, parts)
    return result


def _fig4_ablation(name: str, title: str, sweep: Callable,
                   ablate: Callable[[MachineSpec], MachineSpec],
                   spec: MachineSpec | str,
                   core_counts: Optional[Sequence[int]], reps: int,
                   journal: Optional[CampaignJournal]) -> ExperimentResult:
    """A Figure 4 *sweep* on *spec* and on ``ablate(spec)``."""
    counts = list(core_counts) if core_counts is not None else _CORES
    variants = {"baseline": spec, "ablated": ablate(E._spec(spec))}
    return _combined(name, title, {
        variant: sweep(f"{name}_{variant}", title, vspec,
                       core_counts=counts, reps=reps, journal=journal)
        for variant, vspec in variants.items()})


def _fig4a_sweep(name: str, title: str, spec: MachineSpec | str,
                 **kw) -> ExperimentResult:
    return E._contention_sweep(name, title, LATENCY_SIZE,
                               Placement("near", "far"), spec, **kw)


@experiment(name="no_pio_colocation",
            title="Ablation: PIO co-location penalty off (Figure 4a)",
            tags=("ablation", "contention"), in_all=False, plot=False,
            fast=_FAST)
def no_pio_colocation_experiment(spec: MachineSpec | str = "henri",
                                 core_counts: Optional[Sequence[int]] = None,
                                 reps: int = 6,
                                 journal: Optional[CampaignJournal] = None
                                 ) -> ExperimentResult:
    """Figure 4a's latency doubling with the PIO penalty zeroed."""
    return _fig4_ablation(
        "no_pio_colocation",
        "Ablation: PIO co-location penalty off (Figure 4a)", _fig4a_sweep,
        lambda s: s.with_overrides(
            contention=ContentionSpec(mc_coef=0.0, link_coef=0.0)),
        spec, core_counts, reps, journal)


@experiment(name="no_dma_derating",
            title="Ablation: DMA latency de-rating off (Figure 4b)",
            tags=("ablation", "contention"), in_all=False, plot=False,
            fast=_FAST)
def no_dma_derating_experiment(spec: MachineSpec | str = "henri",
                               core_counts: Optional[Sequence[int]] = None,
                               reps: int = 4,
                               journal: Optional[CampaignJournal] = None
                               ) -> ExperimentResult:
    """Figure 4b's early bandwidth onset with DMA de-rating disabled."""
    return _fig4_ablation(
        "no_dma_derating",
        "Ablation: DMA latency de-rating off (Figure 4b)", E._fig4b_sweep,
        lambda s: s.with_overrides(
            nic=dataclasses.replace(s.nic, dma_eff_gamma=0.0)),
        spec, core_counts, reps, journal)


@experiment(name="no_dma_priority",
            title="Ablation: NIC DMA priority off (Figure 4b)",
            tags=("ablation", "contention"), in_all=False, plot=False,
            fast=_FAST)
def no_dma_priority_experiment(spec: MachineSpec | str = "henri",
                               core_counts: Optional[Sequence[int]] = None,
                               reps: int = 4,
                               journal: Optional[CampaignJournal] = None
                               ) -> ExperimentResult:
    """Figure 4b's asymptote with the NIC arbitrating like a core."""
    return _fig4_ablation(
        "no_dma_priority",
        "Ablation: NIC DMA priority off (Figure 4b)", E._fig4b_sweep,
        lambda s: s.with_overrides(
            nic=dataclasses.replace(s.nic, dma_weight=1.0)),
        spec, core_counts, reps, journal)


def _runtime_ablation(name: str, spec: MachineSpec | str,
                      worker_counts: Sequence[int], off: dict,
                      journal: Optional[CampaignJournal], **params
                      ) -> Dict[str, ExperimentResult]:
    """The fig10 point runner with and without the *off* runtime
    overrides, one sweep per variant."""
    parts = {}
    for variant, extra in (("baseline", {}), ("ablated", {"runtime": off})):
        part = ExperimentResult(name=f"{name}_{variant}", title=name)
        E._fig10_sweep(part, spec, worker_counts, journal, **params, **extra)
        parts[variant] = part
    return parts


@experiment(name="no_stack_stall",
            title="Ablation: runtime stack stalling off (CG, §6)",
            tags=("ablation", "runtime"), in_all=False, plot=False,
            fast=dict(worker_counts=(1, 16), n=30_000, iterations=2))
def no_stack_stall_experiment(spec: MachineSpec | str = "henri",
                              worker_counts: Sequence[int] = (1, 16, 34),
                              n: int = 120_000,
                              iterations: int = 3,
                              journal: Optional[CampaignJournal] = None
                              ) -> ExperimentResult:
    """CG's sending-bandwidth collapse with stack stalling disabled."""
    parts = _runtime_ablation(
        "no_stack_stall", spec, worker_counts, {"stack_stall_k": 0.0},
        journal, cg_kwargs=dict(n=n, iterations=iterations))
    result = ExperimentResult(
        name="no_stack_stall",
        title="Ablation: runtime stack stalling off (CG, §6)")
    E._fold_sweeps(result, parts)
    for variant, part in parts.items():
        bw = result.new_series(f"{variant}_sending_bw", xlabel="workers",
                               ylabel="bytes/s")
        if "cg_sending_bw" in part.series:
            _append(bw, part["cg_sending_bw"])

    def observations():
        for variant in parts:
            bw = result[f"{variant}_sending_bw"].median
            result.observe(f"{variant}_bw_retained", min(bw) / max(bw))
    E._guarded_observations(result, observations)
    return result


@experiment(name="no_scheduler_locality",
            title="Ablation: locality-blind task scheduler (GEMM, §6)",
            tags=("ablation", "runtime"), in_all=False, plot=False,
            fast=dict(n_workers=8, n=1024))
def no_scheduler_locality_experiment(spec: MachineSpec | str = "henri",
                                     n_workers: int = 34,
                                     n: int = 4096,
                                     tile: int = 128,
                                     journal: Optional[CampaignJournal] = None
                                     ) -> ExperimentResult:
    """GEMM memory stalls with the locality-aware scheduler blinded."""
    parts = _runtime_ablation(
        "no_scheduler_locality", spec, [n_workers],
        {"scheduler_locality": False}, journal,
        gemm_kwargs=dict(n=n, tile=tile),
        fields=("stall_fraction", "duration"))
    result = ExperimentResult(
        name="no_scheduler_locality",
        title="Ablation: locality-blind task scheduler (GEMM, §6)")
    E._fold_sweeps(result, parts)
    stalls = result.new_series("stall_fraction", xlabel="variant",
                               ylabel="fraction")
    duration = result.new_series("duration", xlabel="variant", ylabel="s")

    def observations():
        for i, (variant, part) in enumerate(parts.items()):
            _append(stalls, part["gemm_stall_fraction"], x=i)
            _append(duration, part["gemm_duration"], x=i)
            result.observe(f"{variant}_stall_fraction", stalls.median[i])
            result.observe(f"{variant}_duration", duration.median[i])
        base, blind = duration.median
        if base > 0:
            result.observe("slowdown", blind / base)
    E._guarded_observations(result, observations)
    return result
