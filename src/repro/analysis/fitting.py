"""Feature detection on experiment series.

* :func:`detect_ridge` — finds the arithmetic-intensity ridge where a
  sweep stops being memory-bound (§4.5's 6 flop/B boundary).
* :func:`crossover_index` — first index where a series degrades past a
  relative threshold (e.g. "bandwidth impacted from 3 computing cores").
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

__all__ = ["detect_ridge", "crossover_index"]


def crossover_index(xs: Sequence[float], values: Sequence[float],
                    baseline: float, threshold: float = 0.10,
                    direction: str = "above") -> Optional[float]:
    """First x where *values* deviates from *baseline* by > threshold.

    ``direction="above"`` looks for values rising past
    ``baseline*(1+threshold)`` (latency degradation); ``"below"`` for
    values dropping under ``baseline*(1-threshold)`` (bandwidth
    degradation).  Returns None if never crossed.
    """
    if direction not in ("above", "below"):
        raise ValueError("direction must be 'above' or 'below'")
    xs = list(xs)
    values = list(values)
    if len(xs) != len(values):
        raise ValueError("xs and values must have the same length")
    for x, v in zip(xs, values):
        if direction == "above" and v > baseline * (1 + threshold):
            return x
        if direction == "below" and v < baseline * (1 - threshold):
            return x
    return None


def detect_ridge(intensities: Sequence[float], values: Sequence[float],
                 recovered_fraction: float = 0.9) -> Optional[float]:
    """Intensity where *values* (e.g. network bandwidth under compute)
    recovers to *recovered_fraction* of its final (CPU-bound) plateau.

    Assumes the sweep is ordered by increasing intensity and that the
    last point is fully CPU-bound.
    """
    intens = np.asarray(intensities, dtype=float)
    vals = np.asarray(values, dtype=float)
    if intens.size != vals.size or intens.size < 2:
        raise ValueError("need >= 2 matching points")
    plateau = vals[-1]
    if plateau <= 0:
        return None
    for x, v in zip(intens, vals):
        if v >= plateau * recovered_fraction:
            return float(x)
    return None
