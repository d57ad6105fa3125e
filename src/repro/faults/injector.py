"""Arms a :class:`FaultPlan` against a live cluster.

The injector translates each fault spec into simulation events
(start/end callbacks) and keeps the *live* fault state that the
reliable transport queries on every message: which nodes are dead,
the latency multiplier of each link, and the loss/corruption rate of
the active windows.  All probabilistic decisions draw from one
dedicated RNG stream seeded by the plan — independent from the
measurement-noise streams, so a plan with zero loss perturbs nothing.
"""

from __future__ import annotations

import logging
import math
from typing import Dict, List, Optional, Set, Tuple

from repro.faults.plan import (
    CrashWorker, DegradedLink, FailSlowCore, FailStop, FaultPlan,
    MessageLoss, RegCacheFlush,
)
from repro.faults.reliability import ReliabilityConfig
from repro.sim.randomness import RandomStreams

__all__ = ["FaultInjector"]

logger = logging.getLogger(__name__)


class FaultInjector:
    """Live fault state of one cluster under an armed plan."""

    def __init__(self, cluster, plan: FaultPlan,
                 reliability: Optional[ReliabilityConfig] = None):
        self.cluster = cluster
        self.plan = plan
        self.reliability = reliability if reliability is not None \
            else ReliabilityConfig()
        # Inside a sweep point the RNG seed is a pure function of
        # (campaign seed, experiment, point key) — see
        # repro.faults.context.derive_point_seed — so seeded campaigns
        # inject identical faults at any --jobs level.  Outside a point
        # scope (bare clusters, unit tests) the plan seed is used as is.
        from repro.faults.context import active_point_scope, \
            derive_point_seed
        scope = active_point_scope()
        seed = plan.seed if scope is None \
            else derive_point_seed(plan.seed, *scope)
        self._rng = RandomStreams(seed).stream("loss")
        self._dead: Set[int] = set()
        self._lat_factor: Dict[Tuple[int, int], float] = {}
        # Latency factors for edge-addressed link faults, keyed by the
        # fabric Resource (identity); applied to every route crossing
        # the edge.  Empty unless a plan uses link=<label> targeting, so
        # the pair-addressed fast path is untouched.
        self._res_lat_factor: Dict[object, float] = {}
        self._loss_windows: List[MessageLoss] = []
        self._engines: List[object] = []      # ProtocolEngines to flush
        self._runtimes: List[object] = []     # RuntimeSystems to crash
        self.log: List[dict] = []             # applied-fault timeline
        self._armed = False

    # -- registration (engines/runtimes announce themselves) --------------
    def register_engine(self, engine) -> None:
        self._engines.append(engine)

    def register_runtime(self, runtime) -> None:
        self._runtimes.append(runtime)

    # -- arming ------------------------------------------------------------
    def arm(self) -> "FaultInjector":
        """Schedule every fault of the plan as simulation events."""
        if self._armed:
            raise RuntimeError("fault plan already armed")
        self._armed = True
        sim = self.cluster.sim
        now = sim.now
        for fault in self.plan.faults:
            if isinstance(fault, FailSlowCore):
                sim.schedule_at(max(now, fault.start),
                                self._start_fail_slow, fault)
                if math.isfinite(fault.duration):
                    sim.schedule_at(max(now, fault.start + fault.duration),
                                    self._end_fail_slow, fault)
            elif isinstance(fault, DegradedLink):
                sim.schedule_at(max(now, fault.start),
                                self._start_link, fault)
                if math.isfinite(fault.duration):
                    sim.schedule_at(max(now, fault.start + fault.duration),
                                    self._end_link, fault)
            elif isinstance(fault, MessageLoss):
                sim.schedule_at(max(now, fault.start),
                                self._start_loss, fault)
                if math.isfinite(fault.duration):
                    sim.schedule_at(max(now, fault.start + fault.duration),
                                    self._end_loss, fault)
            elif isinstance(fault, RegCacheFlush):
                repeats = fault.count if fault.period is not None else 1
                for k in range(max(1, repeats)):
                    at = fault.at + k * (fault.period or 0.0)
                    sim.schedule_at(max(now, at), self._flush, fault)
            elif isinstance(fault, FailStop):
                sim.schedule_at(max(now, fault.at), self._fail_stop, fault)
            elif isinstance(fault, CrashWorker):
                sim.schedule_at(max(now, fault.at), self._crash_worker,
                                fault)
            else:  # pragma: no cover - new fault kinds must be wired here
                raise TypeError(f"unhandled fault spec {fault!r}")
        return self

    def _note(self, action: str, fault) -> None:
        logger.info("t=%.6f %s %s %s", self.cluster.sim.now, action,
                    type(fault).__name__, fault)
        self.log.append({"t": self.cluster.sim.now, "action": action,
                         "fault": type(fault).__name__})
        from repro.obs.context import active_telemetry
        tele = active_telemetry()
        if tele is not None:
            tele.on_fault(self.cluster, action, fault)

    # -- fail-slow cores ---------------------------------------------------
    def _cores_of(self, fault: FailSlowCore) -> List[int]:
        machine = self.cluster.machine(fault.node)
        if fault.core is not None:
            return [fault.core]
        return [c.id for c in machine.cores]

    def _start_fail_slow(self, fault: FailSlowCore) -> None:
        machine = self.cluster.machine(fault.node)
        for core in self._cores_of(fault):
            machine.freq.set_core_cap(core, fault.freq_cap_hz)
        self._note("start", fault)

    def _end_fail_slow(self, fault: FailSlowCore) -> None:
        machine = self.cluster.machine(fault.node)
        for core in self._cores_of(fault):
            machine.freq.set_core_cap(core, None)
        self._note("end", fault)

    # -- degraded links ----------------------------------------------------
    def _link_res(self, fault: DegradedLink):
        """The fabric resource a link fault targets: an edge by label,
        or the injection wire of the (src, dst) route."""
        if fault.link is not None:
            return self.cluster.find_link(fault.link)
        return self.cluster.wire(fault.src, fault.dst)

    def _start_link(self, fault: DegradedLink) -> None:
        wire = self._link_res(fault)
        if fault.bw_factor != 1.0:
            wire.set_capacity(wire.capacity * fault.bw_factor)
        if fault.latency_factor != 1.0:
            if fault.link is not None:
                self._res_lat_factor[wire] = (
                    self._res_lat_factor.get(wire, 1.0)
                    * fault.latency_factor)
            else:
                key = (fault.src, fault.dst)
                self._lat_factor[key] = (self._lat_factor.get(key, 1.0)
                                         * fault.latency_factor)
        self._note("start", fault)

    def _end_link(self, fault: DegradedLink) -> None:
        wire = self._link_res(fault)
        if fault.bw_factor != 1.0:
            wire.set_capacity(wire.capacity / fault.bw_factor)
        if fault.latency_factor != 1.0:
            if fault.link is not None:
                factor = (self._res_lat_factor.get(wire, 1.0)
                          / fault.latency_factor)
                if abs(factor - 1.0) < 1e-12:
                    self._res_lat_factor.pop(wire, None)
                else:
                    self._res_lat_factor[wire] = factor
            else:
                key = (fault.src, fault.dst)
                factor = (self._lat_factor.get(key, 1.0)
                          / fault.latency_factor)
                if abs(factor - 1.0) < 1e-12:
                    self._lat_factor.pop(key, None)
                else:
                    self._lat_factor[key] = factor
        self._note("end", fault)

    # -- loss windows -------------------------------------------------------
    def _start_loss(self, fault: MessageLoss) -> None:
        self._loss_windows.append(fault)
        self._note("start", fault)

    def _end_loss(self, fault: MessageLoss) -> None:
        if fault in self._loss_windows:
            self._loss_windows.remove(fault)
        self._note("end", fault)

    # -- registration-cache flushes -----------------------------------------
    def _flush(self, fault: RegCacheFlush) -> None:
        for engine in self._engines:
            cache = engine.reg_caches.get(fault.node)
            if cache is not None:
                cache.flush()
        self._note("flush", fault)

    # -- crashes -------------------------------------------------------------
    def _fail_stop(self, fault: FailStop) -> None:
        if fault.node in self._dead:
            return
        self._dead.add(fault.node)
        for runtime in self._runtimes:
            if runtime.rank_id == fault.node:
                runtime.crash()
        self._note("fail_stop", fault)

    def _crash_worker(self, fault: CrashWorker) -> None:
        for runtime in self._runtimes:
            if runtime.rank_id != fault.node:
                continue
            if 0 <= fault.worker_index < len(runtime.workers):
                runtime.workers[fault.worker_index].crash()
        self._note("crash_worker", fault)

    # -- live queries (the reliable transport's view) ----------------------
    def node_alive(self, node: int) -> bool:
        return node not in self._dead

    def link_latency_factor(self, src: int, dst: int) -> float:
        factor = self._lat_factor.get((src, dst), 1.0)
        if self._res_lat_factor:
            res_factors = self._res_lat_factor
            for res in self.cluster.route(src, dst):
                f = res_factors.get(res)
                if f is not None:
                    factor *= f
        return factor

    def _window_rate(self, src: int, dst: int, attr: str) -> float:
        """Combined rate of the active windows matching the link."""
        keep = 1.0
        for window in self._loss_windows:
            if window.src is not None and window.src != src:
                continue
            if window.dst is not None and window.dst != dst:
                continue
            keep *= 1.0 - getattr(window, attr)
        return 1.0 - keep

    def loss_rate(self, src: int, dst: int) -> float:
        return self._window_rate(src, dst, "loss_rate")

    def corrupt_rate(self, src: int, dst: int) -> float:
        return self._window_rate(src, dst, "corrupt_rate")

    def draw_loss(self, src: int, dst: int) -> bool:
        """Bernoulli loss draw; consumes RNG only under an active window."""
        rate = self.loss_rate(src, dst)
        return rate > 0.0 and float(self._rng.random()) < rate

    def draw_corrupt(self, src: int, dst: int) -> bool:
        rate = self.corrupt_rate(src, dst)
        return rate > 0.0 and float(self._rng.random()) < rate
