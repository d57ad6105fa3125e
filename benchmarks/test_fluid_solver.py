"""Micro-benchmarks of the incremental fluid solver.

Unlike the figure benchmarks, these stress the solver directly.  The
drivers live in ``benchmarks/microbench.py``, next to this file; the
end-to-end and per-layer benchmark of the figure sweeps is
``perfbench/run.py``.

* ``test_fluid_component_churn``: a many-component
  flow graph (one shared bus per "socket", fig10-style) driven by a
  churn of start/complete/capacity events.  With global recomputation
  this is quadratic in the number of components — the incremental
  solver re-solves only the touched component, so the event cost stays
  flat as components are added.
* ``test_fluid_wide_component_resolve``: one wide fabric component
  re-solved repeatedly under trunk-capacity wiggles — the rate solver
  on wide components and the dirty-component memo.
* ``test_fluid_tiny_components``: 1–2-flow component churn — the rate
  solver's per-solve overhead on the smallest components.
* ``test_sampler_dense``: dense periodic sampling
  under activity churn — the epoch-batched sampler.
"""

from conftest import note, run_once

from microbench import churn, churn_wide, sampler_dense, tiny_components

N_COMPONENTS = 16
FLOWS_PER_COMPONENT = 12
ROUNDS = 40

WIDE_FLOWS = 128
WIDE_ROUNDS = 6
WIDE_WIGGLES = 40


def test_fluid_component_churn(benchmark):
    events, sim_seconds = run_once(
        benchmark, lambda: churn(N_COMPONENTS, FLOWS_PER_COMPONENT, ROUNDS))
    note(benchmark, components=N_COMPONENTS,
         flows=N_COMPONENTS * FLOWS_PER_COMPONENT * ROUNDS,
         events=events, simulated_seconds=round(sim_seconds, 3))
    assert events > N_COMPONENTS * FLOWS_PER_COMPONENT * ROUNDS


def test_fluid_wide_component_resolve(benchmark):
    events, sim_seconds = run_once(
        benchmark,
        lambda: churn_wide(per=WIDE_FLOWS, rounds=WIDE_ROUNDS,
                           wiggles=WIDE_WIGGLES))
    note(benchmark, flows=WIDE_FLOWS * WIDE_ROUNDS,
         wiggles=WIDE_ROUNDS * WIDE_WIGGLES,
         events=events, simulated_seconds=round(sim_seconds, 3))
    assert events > WIDE_FLOWS * WIDE_ROUNDS


def test_fluid_tiny_components(benchmark):
    events, sim_seconds = run_once(benchmark, tiny_components)
    note(benchmark, events=events,
         simulated_seconds=round(sim_seconds, 3))
    assert events > 0


def test_sampler_dense(benchmark):
    samples, sim_seconds = run_once(benchmark, sampler_dense)
    note(benchmark, samples=samples,
         simulated_seconds=round(sim_seconds, 3))
    assert samples > 0
