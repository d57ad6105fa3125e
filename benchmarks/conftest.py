"""Shared helpers for the figure-regeneration benchmarks.

Every benchmark regenerates one paper figure/table at medium resolution,
asserts the paper's qualitative shape, and reports the headline numbers
through pytest-benchmark's ``extra_info`` so that
``pytest benchmarks/ --benchmark-only`` prints a paper-vs-measured view.

Benchmarks run each figure exactly once (``pedantic(rounds=1)``): the
simulator is deterministic, and a figure is minutes of simulated time —
statistical repetition happens *inside* the experiment (the paper's
median/decile protocol), not across benchmark rounds.
"""

import pytest


def run_once(benchmark, func, *args, **kwargs):
    """Run *func* once under pytest-benchmark and return its result."""
    return benchmark.pedantic(func, args=args, kwargs=kwargs,
                              rounds=1, iterations=1, warmup_rounds=0)


def note(benchmark, **info):
    """Attach paper-vs-measured numbers to the benchmark report."""
    for key, value in info.items():
        if isinstance(value, float):
            value = float(f"{value:.4g}")
        benchmark.extra_info[key] = value
