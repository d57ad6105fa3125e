"""DVFS model: per-core frequency with turbo bins, AVX licenses and
governors, plus the dynamic uncore frequency.

The model follows §3 of the paper:

* Idle cores sit at the minimum frequency (ondemand-style behaviour,
  Figure 2 phase B).
* Active cores run at the turbo frequency determined by the number of
  active cores *on the same socket* (weak all-core turbo, Figure 2
  phases A/C).
* Cores executing AVX-512 use the (lower) AVX-512 license table, but do
  **not** drag down non-AVX cores on the same socket (§3.3: the
  communication core stays at 2.5 GHz while 20 AVX cores run at 2.3 GHz).
* The ``userspace`` governor pins all cores to a constant frequency
  (§3.1's experiments with ``cpupower``).
* The uncore frequency ramps with the number of *memory-active* cores on
  the socket; a lone communication thread does not ramp it (this is what
  makes the latency slightly *better* when computation runs side by side,
  §3.2).  It can also be pinned, as the paper does with Likwid.
"""

from __future__ import annotations

import enum
from typing import Dict, Optional

from repro.hardware.presets import MachineSpec
from repro.sim.trace import EpochSource

__all__ = ["CoreActivity", "FrequencyModel"]


class CoreActivity(enum.Enum):
    """What a core is currently executing, for frequency purposes."""

    IDLE = "idle"
    SCALAR = "scalar"      # ordinary integer/FP work, also the comm thread
    AVX512 = "avx512"      # wide-vector work under the AVX-512 license


class FrequencyModel(EpochSource):
    """Tracks per-core activity and answers frequency queries.

    Every frequency a probe can read is a pure function of this model's
    state, so each mutator advances the :class:`EpochSource` generation
    (notifying batch-mode samplers *before* the state moves) — the
    epoch contract behind the cheap dense traces of Figures 2/3.

    Parameters
    ----------
    spec:
        The machine specification (turbo tables, ranges).
    socket_of_core:
        Mapping from global core id to socket id.
    """

    def __init__(self, spec: MachineSpec, socket_of_core: Dict[int, int]):
        self.spec = spec
        self._socket_of_core = dict(socket_of_core)
        self._activity: Dict[int, CoreActivity] = {
            c: CoreActivity.IDLE for c in socket_of_core}
        # Memory-active flags drive the dynamic uncore.
        self._uncore_active: Dict[int, bool] = {
            c: False for c in socket_of_core}
        self._userspace_hz: Optional[float] = None
        self._uncore_fixed_hz: Optional[float] = None
        # Fault injection: per-core hard frequency caps (fail-slow cores).
        self._core_caps: Dict[int, float] = {}
        self._active_count: Dict[int, int] = {}
        self._uncore_count: Dict[int, int] = {}
        for socket in set(socket_of_core.values()):
            self._active_count[socket] = 0
            self._uncore_count[socket] = 0
        # The dynamic uncore frequency and its capacity factor depend
        # only on the per-socket streaming-core count, clamped at
        # ``ramp_cores`` — a handful of distinct values per spec.
        # Precompute both as count-indexed tables with the exact
        # expressions of the formula path below, so lookups return
        # bit-identical floats; the ``_uncore_fixed_hz`` pin bypasses
        # the tables entirely.
        uspec = spec.uncore
        ramp = max(1, uspec.ramp_cores)
        self._uncore_hz_table = tuple(
            uspec.min_hz + (uspec.max_hz - uspec.min_hz)
            * min(1.0, count / ramp)
            for count in range(ramp + 1))
        if uspec.max_hz == uspec.min_hz:
            self._uncore_factor_table = tuple(
                1.0 for _ in range(ramp + 1))
        else:
            floor = spec.memory.uncore_floor
            self._uncore_factor_table = tuple(
                floor + (1.0 - floor)
                * ((hz - uspec.min_hz) / (uspec.max_hz - uspec.min_hz))
                for hz in self._uncore_hz_table)
        self._uncore_ramp = ramp
        # core_hz per core.  Cleared by each mutator *after* its state
        # change, not keyed on ``epoch_generation``: the generation
        # advances before the state moves, and a batch-mode sampler
        # reading core_hz from its epoch listener would otherwise cache
        # the closing epoch's frequency under the new generation.
        self._core_hz_memo: Dict[int, float] = {}

    # -- governor controls --------------------------------------------------
    def set_userspace(self, hz: Optional[float]) -> None:
        """Pin every core to *hz* (None restores the dynamic governor)."""
        if hz is not None:
            lo, hi = self.spec.freq.allowed_range
            if not (lo <= hz <= hi):
                raise ValueError(
                    f"{hz/1e9:.2f} GHz outside the userspace range "
                    f"[{lo/1e9:.2f}, {hi/1e9:.2f}] GHz")
        self._bump_epoch()
        self._userspace_hz = hz
        self._core_hz_memo.clear()

    def set_uncore(self, hz: Optional[float]) -> None:
        """Pin the uncore frequency (None restores dynamic behaviour)."""
        if hz is not None:
            if not (self.spec.uncore.min_hz <= hz <= self.spec.uncore.max_hz):
                raise ValueError("uncore frequency outside permitted range")
        self._bump_epoch()
        self._uncore_fixed_hz = hz

    def set_core_cap(self, core_id: int, hz: Optional[float]) -> None:
        """Cap *core_id*'s frequency at *hz* (fail-slow fault injection).

        The cap dominates every governor, including ``userspace`` pins —
        a thermally throttled or firmware-degraded core cannot honour the
        requested frequency.  ``None`` lifts the cap.
        """
        if core_id not in self._socket_of_core:
            raise ValueError(f"unknown core id {core_id}")
        if hz is None:
            self._bump_epoch()
            self._core_caps.pop(core_id, None)
        else:
            if hz <= 0:
                raise ValueError("frequency cap must be > 0")
            self._bump_epoch()
            self._core_caps[core_id] = float(hz)
        self._core_hz_memo.clear()

    # -- activity tracking ----------------------------------------------------
    def set_activity(self, core_id: int, activity: CoreActivity,
                     uncore_active: Optional[bool] = None) -> None:
        """Update what *core_id* is doing.

        ``uncore_active`` marks the core as generating sustained memory
        traffic (drives the uncore ramp); it defaults to True for any
        non-idle activity except when explicitly overridden (the
        communication thread passes ``False``).
        """
        socket = self._socket_of_core[core_id]
        self._bump_epoch()
        old = self._activity[core_id]
        if (old is CoreActivity.IDLE) != (activity is CoreActivity.IDLE):
            self._active_count[socket] += 1 if old is CoreActivity.IDLE else -1
        self._activity[core_id] = activity

        if uncore_active is None:
            uncore_active = activity is not CoreActivity.IDLE
        old_mem = self._uncore_active[core_id]
        if old_mem != uncore_active:
            self._uncore_count[socket] += 1 if uncore_active else -1
        self._uncore_active[core_id] = uncore_active
        self._core_hz_memo.clear()

    def activity(self, core_id: int) -> CoreActivity:
        return self._activity[core_id]

    def active_cores_on_socket(self, socket: int) -> int:
        return self._active_count[socket]

    def streaming_cores_on_socket(self, socket: int) -> int:
        """Number of cores on *socket* marked as sustained memory
        streamers (``uncore_active``)."""
        return self._uncore_count[socket]

    # -- frequency queries --------------------------------------------------
    def core_hz(self, core_id: int) -> float:
        """Instantaneous frequency of *core_id* in Hz (memoized until
        the next mutator call)."""
        hz = self._core_hz_memo.get(core_id)
        if hz is None:
            hz = self._core_hz_memo[core_id] = self._compute_core_hz(core_id)
        return hz

    def _compute_core_hz(self, core_id: int) -> float:
        """:meth:`core_hz` computed afresh."""
        if self._userspace_hz is not None:
            hz = self._userspace_hz
        else:
            activity = self._activity[core_id]
            if activity is CoreActivity.IDLE:
                hz = self.spec.freq.min_hz
            else:
                socket = self._socket_of_core[core_id]
                n_active = self._active_count[socket]
                table = (self.spec.freq.avx512
                         if activity is CoreActivity.AVX512
                         else self.spec.freq.turbo)
                hz = table.frequency(max(1, n_active))
        if self._core_caps:
            cap = self._core_caps.get(core_id)
            if cap is not None:
                hz = min(hz, cap)
        return hz

    def uncore_hz(self, socket: int) -> float:
        """Instantaneous uncore frequency of *socket* in Hz."""
        if self._uncore_fixed_hz is not None:
            return self._uncore_fixed_hz
        count = self._uncore_count[socket]
        ramp = self._uncore_ramp
        return self._uncore_hz_table[count if count < ramp else ramp]

    def uncore_capacity_factor(self, socket: int) -> float:
        """Memory-controller capacity scale for the socket's uncore freq.

        At maximum uncore frequency the factor is 1; at minimum it is the
        spec's ``uncore_floor``.
        """
        if self._uncore_fixed_hz is None:
            count = self._uncore_count[socket]
            ramp = self._uncore_ramp
            return self._uncore_factor_table[count if count < ramp else ramp]
        spec = self.spec.uncore
        if spec.max_hz == spec.min_hz:
            return 1.0
        frac = (self._uncore_fixed_hz - spec.min_hz) / (spec.max_hz - spec.min_hz)
        floor = self.spec.memory.uncore_floor
        return floor + (1.0 - floor) * frac
