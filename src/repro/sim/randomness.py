"""Deterministic random streams and the measurement-noise model.

The paper plots medians with first/last-decile bands over several runs.
The simulator itself is deterministic, so run-to-run variability is
emulated with controlled multiplicative noise applied to measured
durations.  Each named stream is an independent generator seeded from a
master seed and the stream name, so adding a new stream never perturbs
existing ones.

A stream is a :class:`~repro.analysis.rng.Generator`, re-exported here:
pure Python, and bit for bit the draws of numpy 2.x's
``numpy.random.default_rng(seed)``.  It lives in :mod:`repro.analysis`
so the HTML report's bootstrap can draw from the same generator without
loading the simulator.  So a run needs no numpy, and its bytes do not
depend on which numpy is installed.
"""

from __future__ import annotations

import hashlib
import math
from typing import Dict

from repro.analysis.rng import Generator

__all__ = ["RandomStreams", "Generator", "noisy"]


class RandomStreams:
    """A family of independent, reproducible RNG streams."""

    def __init__(self, seed: int = 0):
        self.seed = int(seed)
        self._streams: Dict[str, Generator] = {}

    def stream(self, name: str) -> Generator:
        """Return (creating if needed) the generator for *name*."""
        gen = self._streams.get(name)
        if gen is None:
            digest = hashlib.sha256(
                f"{self.seed}:{name}".encode()).digest()
            gen = Generator(int.from_bytes(digest[:8], "little"))
            self._streams[name] = gen
        return gen

    def spawn(self, name: str) -> "RandomStreams":
        """Derive an independent sub-family (for nested components)."""
        digest = hashlib.sha256(f"{self.seed}:spawn:{name}".encode()).digest()
        return RandomStreams(int.from_bytes(digest[:8], "little"))


def noisy(value: float, rel_sigma: float, rng: Generator) -> float:
    """Multiplicative log-normal noise around *value*.

    ``rel_sigma`` is the approximate relative standard deviation; the
    log-normal keeps durations strictly positive and right-skewed, which
    matches real latency distributions (occasional slow outliers, hard
    floor on the fast side).
    """
    if rel_sigma <= 0:
        return value
    sigma = math.log1p(rel_sigma)
    return value * rng.lognormal(-0.5 * sigma * sigma, sigma)
