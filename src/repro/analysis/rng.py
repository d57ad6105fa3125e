"""numpy's ``default_rng(seed)`` in pure Python, bit for bit.

:class:`Generator` draws exactly what numpy 2.x's
``numpy.random.default_rng(seed)`` draws for the calls this package
makes: SeedSequence seeding, the PCG64 XSL-RR step with its buffered
32-bit halves, ``random``/``uniform``, ``integers`` via Lemire's
bounded integers, and the ziggurat ``standard_normal`` (tables in
:mod:`repro.analysis.ziggurat`) under ``lognormal``.  ``exp`` and
``log1p`` are libm's, as in numpy's C sampler.

It is stdlib only and lives outside :mod:`repro.sim`, so both the
simulator's noise streams (:mod:`repro.sim.randomness`) and the HTML
report's bootstrap (:mod:`repro.core.htmlreport`) draw from it without
numpy, and the report still loads no simulator module.
``tests/test_randomness.py`` checks every method against numpy.
"""

from __future__ import annotations

import math
from typing import List, Optional

from repro.analysis.ziggurat import FI, INV_R, KI, R, WI

__all__ = ["Generator"]

_MASK32 = (1 << 32) - 1
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645

# numpy.random.SeedSequence hash constants (pool of 4 32-bit words).
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


def _seed_state(seed: int) -> List[int]:
    """``SeedSequence(seed).generate_state(4, numpy.uint64)`` for a
    64-bit *seed* (one or two 32-bit entropy words)."""
    if not 0 <= seed <= _MASK64:
        raise ValueError(f"seed must be a 64-bit unsigned int, got {seed}")
    entropy = [seed & _MASK32, seed >> 32] if seed > _MASK32 else [seed]
    hash_const = _INIT_A

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * hash_const & _MASK32
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        value = (_MIX_L * x - _MIX_R * y) & _MASK32
        return value ^ value >> 16

    pool = [hashmix(entropy[i] if i < len(entropy) else 0)
            for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    hash_const = _INIT_B
    words = []
    for i in range(8):
        value = pool[i % 4] ^ hash_const
        hash_const = hash_const * _MULT_B & _MASK32
        value = value * hash_const & _MASK32
        words.append(value ^ value >> 16)
    return [words[i] | words[i + 1] << 32 for i in range(0, 8, 2)]


class Generator:
    """numpy's ``default_rng(seed)``, for the draws this package makes."""

    __slots__ = ("_state", "_inc", "_half")

    def __init__(self, seed: int):
        s0, s1, i0, i1 = _seed_state(seed)
        inc = ((i0 << 64 | i1) << 1 | 1) & _MASK128
        # pcg64_set_seed: step from 0 (giving inc), add the seed, step.
        self._state = ((inc + (s0 << 64 | s1)) * _PCG_MULT + inc) & _MASK128
        self._inc = inc
        self._half: Optional[int] = None  # upper half buffered by next32

    def _next64(self) -> int:
        state = self._state = (self._state * _PCG_MULT + self._inc) \
            & _MASK128
        rot = state >> 122
        x = ((state >> 64) ^ state) & _MASK64
        return ((x >> rot) | (x << (64 - rot))) & _MASK64

    def _next32(self) -> int:
        half = self._half
        if half is not None:
            self._half = None
            return half
        value = self._next64()
        self._half = value >> 32
        return value & _MASK32

    def random(self) -> float:
        """Uniform on [0, 1) with 53 random bits."""
        return (self._next64() >> 11) * (1.0 / 9007199254740992.0)

    def uniform(self, low: float, high: float) -> float:
        low = float(low)
        return low + (float(high) - low) * self.random()

    def integers(self, low: int, high: int) -> int:
        """An int in ``[low, high)``, a range of at most 2**32 values:
        Lemire's unbiased multiply-and-reject on 32-bit draws."""
        span = high - 1 - low
        if not 0 <= span <= _MASK32:
            raise ValueError(f"integer range [{low}, {high}) is empty or "
                             f"wider than 2**32")
        if span == 0:
            return low
        if span == _MASK32:
            return low + self._next32()
        excl = span + 1
        m = self._next32() * excl
        if m & _MASK32 < excl:
            threshold = (_MASK32 - span) % excl
            while m & _MASK32 < threshold:
                m = self._next32() * excl
        return low + (m >> 32)

    def standard_normal(self) -> float:
        """numpy's 256-layer ziggurat."""
        while True:
            r = self._next64()
            idx = r & 0xFF
            r >>= 8
            rabs = (r >> 1) & 0xFFFFFFFFFFFFF
            x = rabs * WI[idx]
            if r & 1:
                x = -x
            if rabs < KI[idx]:
                return x
            if idx == 0:
                while True:
                    # 1 - U keeps log1p away from log(0).
                    xx = -INV_R * math.log1p(-self.random())
                    yy = -math.log1p(-self.random())
                    if yy + yy > xx * xx:
                        return -(R + xx) if (rabs >> 8) & 1 else R + xx
            elif (FI[idx - 1] - FI[idx]) * self.random() + FI[idx] \
                    < math.exp(-0.5 * x * x):
                return x

    def lognormal(self, mean: float, sigma: float) -> float:
        return math.exp(mean + sigma * self.standard_normal())
