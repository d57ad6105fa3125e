"""Tests for the analysis helpers (stats, feature detection)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import (
    SummaryStats, crossover_index, decile_band, detect_ridge, median,
    summarize,
)
from repro.core.htmlreport import bootstrap_ci


# -- stats ----------------------------------------------------------------

def test_summarize_basic():
    s = summarize([1.0, 2.0, 3.0, 4.0, 5.0])
    assert s.median == 3.0
    assert s.p10 <= s.median <= s.p90
    assert s.n == 5


def test_summarize_empty_rejected():
    with pytest.raises(ValueError):
        summarize([])


def test_median_and_band():
    samples = list(range(100))
    assert median(samples) == pytest.approx(49.5)
    lo, hi = decile_band(samples)
    assert lo == pytest.approx(9.9)
    assert hi == pytest.approx(89.1)


def test_bootstrap_ci_contains_median():
    rng = np.random.default_rng(0)
    samples = rng.normal(10.0, 1.0, size=200)
    lo, hi = bootstrap_ci(samples, confidence=0.95)
    assert lo <= np.median(samples) <= hi
    assert hi - lo < 1.0  # tight with 200 samples


def test_bootstrap_validation():
    with pytest.raises(ValueError):
        bootstrap_ci([])
    with pytest.raises(ValueError):
        bootstrap_ci([1.0], confidence=1.5)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(min_value=-1e6, max_value=1e6),
                min_size=1, max_size=50))
def test_summarize_ordering_invariant(samples):
    s = summarize(samples)
    assert s.p10 <= s.median <= s.p90
    assert min(samples) <= s.median <= max(samples)


# -- feature detection --------------------------------------------------

def test_crossover_above_and_below():
    xs = [1, 2, 3, 4, 5]
    rising = [1.0, 1.0, 1.05, 1.3, 2.0]
    assert crossover_index(xs, rising, 1.0, 0.1, "above") == 4
    falling = [1.0, 0.99, 0.95, 0.7, 0.4]
    assert crossover_index(xs, falling, 1.0, 0.1, "below") == 4
    assert crossover_index(xs, [1.0] * 5, 1.0, 0.1, "above") is None
    with pytest.raises(ValueError):
        crossover_index(xs, rising, 1.0, 0.1, "sideways")
    with pytest.raises(ValueError):
        crossover_index([1], [1.0, 2.0], 1.0)


def test_detect_ridge():
    intensities = [0.1, 0.5, 1, 2, 4, 6, 8, 16]
    # Bandwidth recovering to a plateau of 10 around intensity 6.
    values = [4, 4, 4, 5, 7, 9.2, 9.9, 10]
    assert detect_ridge(intensities, values) == pytest.approx(6)
    assert detect_ridge(intensities, [0] * 8) is None
    with pytest.raises(ValueError):
        detect_ridge([1], [1])
