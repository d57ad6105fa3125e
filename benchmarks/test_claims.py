"""The paper's claims at benchmark resolution.

One benchmark per ``"bench"`` check of the claims table
(:data:`repro.core.record.CLAIMS`).  :data:`BENCH_RUNS` gives every
run id its parameters.  Each run executes once per session, timed by
the first check that reads it; every check attaches the paper's and the
measured value to the benchmark report.

    pytest benchmarks/test_claims.py --benchmark-only
"""

import pytest

from conftest import note, run_once

from repro.core.record import checks
from repro.core.registry import run_experiment

_FIG1_SIZES = [4, 256, 4096, 65536, 1048576, 16777216, 67108864]
_FIG4_CORES = [0, 1, 2, 3, 5, 8, 12, 17, 20, 23, 26, 29, 32, 35]
_FIG5_CORES = [0, 5, 12, 20, 28, 35]
_FIG6_SIZES = [4, 128, 1024, 4096, 65536, 1048576, 16777216, 67108864]

#: Run id (``<experiment>[@<preset>][/<variant>]``) -> experiment kwargs.
BENCH_RUNS = {
    "fig1a": dict(sizes=_FIG1_SIZES, reps=10),
    "fig1b": dict(sizes=_FIG1_SIZES, reps=6),
    "fig2": dict(n_compute=20, phase_seconds=0.1),
    "fig3a": dict(core_counts=(2, 4, 8, 12, 16, 20), reps=8),
    "fig3bc": dict(n_compute=4, phase_seconds=0.15),
    "fig3bc/n20": dict(n_compute=20, phase_seconds=0.25),
    "fig4a": dict(core_counts=_FIG4_CORES, reps=6),
    "fig4b": dict(core_counts=_FIG4_CORES, reps=5),
    # Full-machine STREAM on the other clusters (billy and pyxis have 64
    # cores, bora 36).
    "fig4b@billy": dict(core_counts=[0, 3, 5, 12, 20, 28, 40, 63], reps=3),
    "fig4b@pyxis": dict(core_counts=[0, 3, 5, 12, 20, 28, 40, 63], reps=3),
    "fig4b@bora": dict(core_counts=[0, 3, 5, 12, 20, 28, 35], reps=3),
    "fig5": dict(core_counts=_FIG5_CORES, reps=4),
    "table1": dict(core_counts=_FIG5_CORES, reps=4),
    "fig6a": dict(sizes=_FIG6_SIZES, reps=4),
    "fig6b": dict(sizes=_FIG6_SIZES, reps=4),
    "fig7a": dict(cursors=[1, 2, 4, 8, 16, 24, 36, 48, 72, 96, 144, 480],
                  reps=5, elems=1_000_000),
    "fig7b": dict(cursors=[1, 4, 48, 72, 96, 480], reps=3),
    # Up to 80 flop/B: billy's ridge sits near 20 flop/B.
    "fig7b@billy": dict(cursors=[1, 72, 144, 240, 960], reps=3,
                        elems=2_000_000, sweeps=3),
    "runtime_overhead": dict(reps=15),
    "runtime_overhead@billy": dict(reps=15),
    "runtime_overhead@pyxis": dict(reps=15),
    "fig8": dict(reps=15),
    "fig9": dict(sizes=[4, 64, 1024, 16384], reps=10),
    "fig10": dict(worker_counts=(1, 2, 4, 8, 16, 24, 30, 34)),
}

_results = {}


def _run_missing(run_ids):
    """Run each not-yet-run id once, at its :data:`BENCH_RUNS` kwargs."""
    for run_id in run_ids:
        if run_id not in _results:
            experiment, _, preset = run_id.split("/")[0].partition("@")
            _results[run_id] = run_experiment(
                experiment, spec=preset or "henri",
                overrides=BENCH_RUNS[run_id])


@pytest.mark.parametrize("check", checks("bench"), ids=lambda c: c.name)
def test_claim(benchmark, check):
    run_once(benchmark, _run_missing, check.runs)
    value = check.evaluate(_results)
    note(benchmark, paper=check.paper, measured=value)
    assert check.holds(value), \
        f"{check.name}: {value!r} outside [{check.lo!r}, {check.hi!r}]"
