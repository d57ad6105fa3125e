"""The pure-Python generator, order statistics and bootstrap against
numpy.

``repro.analysis.rng.Generator`` must draw exactly what numpy 2.x's
``default_rng(seed)`` draws, ``repro.analysis.stats``' ``mean``,
``median`` and ``quantile`` must return exactly numpy's floats, and
``repro.core.htmlreport.bootstrap_ci`` exactly numpy's interval: every
committed digest and the report goldens were produced with numpy.
numpy stays a test dependency for these comparisons.
"""

import hashlib
import itertools
import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.stats import mean, median, quantile, summarize
from repro.analysis.ziggurat import KI
from repro.core.htmlreport import bootstrap_ci
from repro.hardware.presets import available_presets, get_preset
from repro.sim.randomness import Generator, RandomStreams, noisy

NAMES = ("net", "loss", "plan", "worker0", "worker33", "kernel.triad.5",
         "kernel.avx512.17")


def _child_seed(seed: int, name: str) -> int:
    digest = hashlib.sha256(f"{seed}:{name}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


def _interleaved(gen, i: int):
    """Draw *i* of an interleaved sequence: every method, varied args."""
    kind = i % 7
    if kind == 0:
        return gen.lognormal(-0.5 * 0.05 ** 2, 0.05)
    if kind == 1:
        return gen.standard_normal()
    if kind == 2:
        return gen.random()
    if kind == 3:
        return gen.uniform(0.3 * i, 0.9 * i + 1.0)
    if kind == 4:
        return int(gen.integers(0, 1 + i % 9))   # span 0 draws nothing
    if kind == 5:
        return int(gen.integers(-5, (1, 2**31, 2**32 - 6, 2**32 - 5)[i % 4]))
    return gen.lognormal(0.1, 1.5)


@pytest.mark.parametrize("seed", [0, 1, 7, 42, 2**31 + 3])
def test_streams_draw_what_numpy_draws(seed):
    streams = RandomStreams(seed)
    for name in NAMES:
        ours = streams.stream(name)
        theirs = np.random.default_rng(_child_seed(seed, name))
        got = [_interleaved(ours, i) for i in range(3000)]
        want = [_interleaved(theirs, i) for i in range(3000)]
        assert got == want, (seed, name)
        # Both generators are left in the same state, buffered half too.
        assert [ours.integers(0, 5) for _ in range(9)] == \
            [int(theirs.integers(0, 5)) for _ in range(9)]


def test_noisy_draws_what_numpy_lognormal_draws():
    sigma = np.log1p(0.05)
    theirs = np.random.default_rng(_child_seed(3, "net"))
    ours = RandomStreams(3).stream("net")
    want = [2e-6 * float(theirs.lognormal(mean=-0.5 * sigma * sigma,
                                          sigma=sigma))
            for _ in range(5000)]
    assert [noisy(2e-6, 0.05, ours) for _ in range(5000)] == want


class _Tap(Generator):
    """Records every 64-bit output, to see which ziggurat path ran."""

    __slots__ = ("raw",)

    def __init__(self, seed):
        super().__init__(seed)
        self.raw = []

    def _next64(self):
        value = super()._next64()
        self.raw.append(value)
        return value


def test_ziggurat_reaches_every_layer_the_wedges_and_the_tail():
    seed = _child_seed(0, "ziggurat")
    tap = _Tap(seed)
    layers, wedge, tail = set(), 0, 0
    got = []
    for _ in range(60_000):
        start = len(tap.raw)
        got.append(tap.standard_normal())
        first = tap.raw[start]
        idx, rabs = first & 0xFF, (first >> 9) & 0xFFFFFFFFFFFFF
        layers.add(idx)
        if rabs >= KI[idx]:
            if idx == 0:
                tail += 1
            else:
                wedge += 1
    assert got == np.random.default_rng(seed).standard_normal(60_000) \
        .tolist()
    assert len(layers) == 256
    assert wedge > 100 and tail > 0


@pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 - 1])
def test_seed_sequence_words(seed):
    """Seeds of one and two 32-bit entropy words."""
    ours = Generator(seed)
    theirs = np.random.default_rng(seed)
    assert [ours.random() for _ in range(50)] == theirs.random(50).tolist()


def test_seed_outside_64_bits_is_rejected():
    for seed in (-1, 2**64):
        with pytest.raises(ValueError, match="64-bit"):
            Generator(seed)


def test_integer_ranges():
    """Spans of one value (no draw), small spans, and the 32-bit edge;
    each draw is followed by a 64-bit one, so the buffered half shows."""
    ours, theirs = Generator(11), np.random.default_rng(11)
    for low, high in [(0, 1), (3, 4), (0, 2), (-7, 100), (0, 2**31 + 1),
                      (0, 2**32 - 1), (0, 2**32), (-2**31, 2**31)]:
        for _ in range(40):
            assert ours.integers(low, high) == int(theirs.integers(low,
                                                                   high))
            assert ours.random() == theirs.random()
    for low, high in [(1, 1), (0, 2**32 + 1)]:
        with pytest.raises(ValueError, match="range"):
            ours.integers(low, high)


@pytest.mark.parametrize("name", available_presets())
def test_preset_noise_log1p_matches_numpy(name):
    """``noisy`` takes sigma from ``math.log1p``; numpy's ufunc (SIMD on
    some hosts) and libm disagree on some inputs, but not on these."""
    noise = get_preset(name).noise
    assert math.log1p(noise) == float(np.log1p(noise))


# -- order statistics ---------------------------------------------------------

QUANTILES = (0.0, 0.025, 0.1, 0.5, 0.9, 0.975, 1.0)


def _bits(x: float) -> bytes:
    """*x*'s IEEE bytes, so ``0.0`` and ``-0.0`` differ; every NaN
    reads alike (numpy hands back the sample's own NaN)."""
    return b"nan" if x != x else struct.pack("<d", x)


def _assert_numpy_exact(values, q_extra=()):
    arr = np.asarray(values, dtype=float)
    assert _bits(mean(values)) == _bits(float(np.mean(arr)))
    assert _bits(median(values)) == _bits(float(np.median(arr)))
    # numpy's partition leaves equal zeros of opposite sign in no fixed
    # order, so a quantile between them has no fixed sign: with both
    # zeros in the sample, quantiles compare as numbers.
    signs = {math.copysign(1.0, v) for v in values if v == 0}
    q_key = float if len(signs) == 2 else _bits
    for q in QUANTILES + tuple(q_extra):
        assert q_key(quantile(values, q)) == \
            q_key(float(np.quantile(arr, q))), q
    s = summarize(values)
    assert _bits(s.median) == _bits(float(np.median(arr)))
    assert (q_key(s.p10), q_key(s.p90)) == \
        (q_key(float(np.quantile(arr, 0.1))),
         q_key(float(np.quantile(arr, 0.9))))


_FLOATS = st.floats(min_value=-1e9, max_value=1e9, allow_nan=False,
                    width=64)


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.integers(1, 20), st.integers(120, 140),
                 st.integers(1, 400))
       .flatmap(lambda n: st.lists(_FLOATS, min_size=n, max_size=n)),
       st.floats(0.0, 1.0))
def test_order_statistics_match_numpy(values, q):
    _assert_numpy_exact(values, (q,))


@pytest.mark.parametrize("n", [1, 2, 3, 7, 8, 9, 15, 16, 17, 127, 128,
                               129, 135, 136, 137, 255, 256, 257, 1000,
                               3000, 8191, 8192, 8193, 20000])
def test_order_statistics_at_block_edges(n):
    """Sizes around the pairwise sum's 8-lane and 128-value blocks, and
    past numpy's 8192-element buffer."""
    rng = np.random.default_rng(n)
    _assert_numpy_exact((rng.lognormal(0.0, 2.0, n) * 1e-6).tolist())


def test_order_statistics_of_signed_zeros():
    """numpy's median is the mean of the middle value(s), a sum that
    starts from +0.0, so ``median([-0.0]) == 0.0`` down to the sign."""
    for n in range(1, 5):
        for row in itertools.product((0.0, -0.0, 1.0, -1.0), repeat=n):
            _assert_numpy_exact(list(row))
    assert _bits(median([-0.0])) == _bits(0.0)
    assert _bits(median([-0.0, -0.0])) == _bits(0.0)


def test_quantile_of_infinities_matches_numpy():
    """The lerp runs at the clamped top too, as numpy's does, so a
    sample ending in inf has a NaN 100th percentile (inf - inf)."""
    inf = math.inf
    with np.errstate(invalid="ignore"):
        for row in ([inf], [-inf], [inf, inf], [-inf, inf], [1.0, inf],
                    [-inf, -inf, 1.0], [-0.0], [2.0, -0.0, -0.0]):
            for q in QUANTILES + (1 / 3,):
                assert _bits(quantile(row, q)) == \
                    _bits(float(np.quantile(np.asarray(row), q))), (row, q)


def test_median_and_quantile_propagate_nan_and_reject_empty():
    assert math.isnan(median([1.0, float("nan"), 2.0]))
    assert math.isnan(quantile([float("nan"), 1.0], 0.5))
    for fn in (mean, median, lambda v: quantile(v, 0.5)):
        with pytest.raises(ValueError, match="empty"):
            fn([])


# -- the report's bootstrap ---------------------------------------------------

def _numpy_bootstrap_ci(samples, confidence=0.95, n_boot=2000, seed=0):
    """The numpy bootstrap ``bootstrap_ci`` replaced: the reference."""
    arr = np.asarray(samples, dtype=float)
    rng = np.random.default_rng(seed)
    idx = rng.integers(0, arr.size, size=(n_boot, arr.size))
    medians = np.median(arr[idx], axis=1)
    lo = (1 - confidence) / 2
    return (float(np.quantile(medians, lo)),
            float(np.quantile(medians, 1 - lo)))


_SPECIAL = (0.0, -0.0, 1.5, -2.0, math.inf, -math.inf, math.nan)


@pytest.mark.parametrize("n", [*range(1, 12), 20, 50, 130])
def test_bootstrap_ci_is_numpy_bit_for_bit(n):
    rng = np.random.default_rng(1000 + n)
    samples = [
        rng.lognormal(0.0, 1.0, n).tolist(),
        rng.integers(0, 3, n).astype(float).tolist(),      # ties
        rng.choice(_SPECIAL[:4], n).tolist(),              # +-0.0
        rng.choice(_SPECIAL[:6], n).tolist(),              # +-inf
        rng.choice(_SPECIAL, n).tolist(),                  # NaN too
    ]
    options = [{}, {"confidence": 0.8}, {"n_boot": 1},
               {"n_boot": 37, "seed": 7},
               {"confidence": 0.5, "n_boot": 500, "seed": 2**40 + 1}]
    with np.errstate(invalid="ignore"):
        for values, kwargs in itertools.product(samples, options):
            got = bootstrap_ci(values, **kwargs)
            want = _numpy_bootstrap_ci(values, **kwargs)
            assert [_bits(x) for x in got] == [_bits(x) for x in want], \
                (values, kwargs, got, want)
