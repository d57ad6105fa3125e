"""Fluid-flow bandwidth sharing with weighted max-min fairness.

This module implements the SimGrid-style fluid model used throughout the
reproduction: every shared hardware channel (memory controller, inter-NUMA
link, PCIe lanes, network wire) is a :class:`Resource` with a capacity in
bytes/s, and every ongoing transfer is a :class:`Flow` crossing an ordered
set of resources.

Rates are assigned by *progressive filling*: the water level ``u`` rises
and each flow receives ``min(demand, weight * u)`` until some resource
saturates; saturated flows are frozen and filling continues on the rest.
This yields the weighted max-min fair allocation with demand caps.

Two refinements matter for reproducing the paper:

* **Usage multipliers** — a flow may consume more resource capacity than
  its payload rate.  NIC DMA engines issue reads, descriptor fetches and
  write-allocations, so a DMA flow at rate ``x`` can occupy ``β·x`` of a
  memory controller (β ≈ 1.5–2).  This is what makes a single ping-pong
  noticeably hurt STREAM (§4.3 of the paper: −25 % with 5 cores).
* **Weights** — the NIC's DMA engines arbitrate for the memory bus on
  different terms than a core's load/store unit; a weight ≠ 1 captures
  that the NIC does not degrade like "just one more core".

The model is event-driven, and rate recomputation is *incremental*:
flows and resources form a bipartite graph, and a start / stop / demand
/ capacity event only re-solves the connected component of flows that
(transitively) share a resource with the changed flow.  Flows in other
components keep their rates untouched.  A component solve gives the
allocation a full recompute gives: weighted max-min fairness factorises
over components.  The floating-point roundings can differ, because a
global pass interleaves the freezes of unrelated components; the two
agree to ~1e-15 relative.  See "Fluid solver internals" in DESIGN.md
for the invariants this relies on.

There is one rate solver, :meth:`FluidNetwork._assign_rates`, plus its
executable reference :meth:`FluidNetwork._assign_rates_scalar`.  The
two are arithmetic twins — same operand order, same tie-breaking — and
the sampled invariant check (:mod:`repro.sim.invariants`) holds the
fast path to the reference bit for bit.
"""

from __future__ import annotations

import math
from operator import attrgetter
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.obs import context as _obs_context
from repro.sim import invariants as _inv
from repro.sim.engine import ScheduledHandle, SimulationError, Simulator
from repro.sim.events import Event

__all__ = ["Resource", "Flow", "FluidNetwork"]

_EPS = 1e-12
_REL_TOL = 1e-9

# Activation-order sort key (used on every restricted-scan path; an
# attrgetter beats a lambda at these call counts).
_SEQ_KEY = attrgetter("_seq")


class Resource:
    """A capacity-limited channel (bytes/s)."""

    __slots__ = ("name", "_capacity", "network")

    def __init__(self, name: str, capacity: float):
        if capacity <= 0:
            raise ValueError(f"resource {name!r} capacity must be > 0")
        self.name = name
        self._capacity = float(capacity)
        self.network: Optional["FluidNetwork"] = None

    @property
    def capacity(self) -> float:
        return self._capacity

    def set_capacity(self, capacity: float) -> None:
        """Change the capacity (e.g. uncore frequency change); triggers a
        rate recomputation of this resource's connected component."""
        if capacity <= 0:
            raise ValueError("capacity must be > 0")
        self._capacity = float(capacity)
        if self.network is not None:
            self.network.update(self)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Resource({self.name!r}, {self._capacity:.3g} B/s)"


class Flow:
    """A transfer crossing one or more resources.

    Parameters
    ----------
    resources:
        Ordered resources the flow crosses (path).  A resource appearing
        several times is counted **once**: duplicates are removed here,
        preserving first-occurrence order, so the water-level
        denominator, the capacity subtraction and ``utilization()`` all
        agree on one occupancy per resource.  May be empty only if
        *demand* is finite (the flow then simply runs at its demand).
    size:
        Total payload bytes, or ``None`` for a continuous background flow
        that never completes on its own.
    demand:
        Maximum payload rate in bytes/s (``inf`` = only limited by the
        path).
    weight:
        Max-min fairness weight (default 1.0).
    usage:
        Usage multiplier: the flow occupies ``usage × rate`` on each
        resource of its path.  Either a scalar applied to all resources or
        a mapping ``{resource: multiplier}`` (missing entries default to
        1.0).
    label:
        Debugging/tracing label.
    """

    __slots__ = (
        "resources", "size", "demand", "weight", "_usage_scalar",
        "_usage_map", "label", "rate", "transferred", "done",
        "_completion_handle", "_active", "start_time", "_usages",
        "_finish_eps", "_seq",
    )

    def __init__(
        self,
        resources: Sequence[Resource],
        size: Optional[float] = None,
        demand: float = math.inf,
        weight: float = 1.0,
        usage: float | Dict[Resource, float] = 1.0,
        label: str = "",
    ):
        # Dedupe the path while preserving first-occurrence order
        # (resources hash by identity, so dict.fromkeys is an id-dedup).
        self.resources: Tuple[Resource, ...] = tuple(dict.fromkeys(resources))
        if size is not None and size < 0:
            raise ValueError("flow size must be >= 0")
        if not self.resources and not math.isfinite(demand):
            raise ValueError("a flow with an empty path needs a finite demand")
        if weight <= 0:
            raise ValueError("flow weight must be > 0")
        if demand <= 0:
            raise ValueError("flow demand must be > 0")
        self.size = size
        self.demand = float(demand)
        self.weight = float(weight)
        if isinstance(usage, dict):
            self._usage_scalar = 1.0
            self._usage_map = dict(usage)
        else:
            self._usage_scalar = float(usage)
            self._usage_map = None
        self.label = label
        self.rate = 0.0
        self.transferred = 0.0
        self.done: Optional[Event] = None
        self._completion_handle: Optional[ScheduledHandle] = None
        self._active = False
        self.start_time = 0.0
        # Per-path-resource usage multipliers, cached once (the solver's
        # hot loops would otherwise re-resolve the usage map per round).
        self._usages: Tuple[float, ...] = tuple(
            self.usage_on(res) for res in self.resources)
        # Completion threshold, cached for the finished-scan hot loop.
        self._finish_eps = _EPS * max(1.0, size if size else 1.0)
        self._seq = 0  # activation order within the owning network

    def usage_on(self, resource: Resource) -> float:
        """Multiplier applied to this flow's rate on *resource*."""
        if self._usage_map is not None:
            return self._usage_map.get(resource, 1.0)
        return self._usage_scalar

    @property
    def remaining(self) -> Optional[float]:
        """Bytes left to transfer, or ``None`` for continuous flows."""
        if self.size is None:
            return None
        return max(0.0, self.size - self.transferred)

    @property
    def active(self) -> bool:
        return self._active

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"Flow({self.label or 'anon'}, rate={self.rate:.3g}, "
                f"remaining={self.remaining})")


class FluidNetwork:
    """Set of active flows over shared resources; owns rate assignment.

    Internals (see DESIGN.md "Fluid solver internals"): the network
    maintains a flow↔resource adjacency (:attr:`_res_flows`) updated on
    start/stop, gathers the *dirty connected component* of an event by a
    traversal over that adjacency, and re-runs progressive filling only
    on the dirty flows.  Completion events are rescheduled lazily: a
    heap entry is cancelled/re-pushed only when the flow's completion
    *time* actually changed.
    """

    def __init__(self, sim: Simulator):
        self.sim = sim
        # Insertion-ordered (dict-as-set): Flow hashes by identity, so a
        # plain set iterates in memory-address order, which varies from
        # run to run and would make same-instant completions fire in a
        # nondeterministic order.
        self._flows: Dict[Flow, None] = {}
        self._last_update = 0.0
        # Persistent adjacency: resource -> insertion-ordered active
        # flows crossing it.  Maintained incrementally on start/stop so
        # recomputes don't rebuild it from scratch.
        self._res_flows: Dict[Resource, Dict[Flow, None]] = {}
        self._next_seq = 0
        self._n_solves = 0  # rate solves, for invariant-check sampling
        # Single-seed dirty-component memo, cleared on any adjacency
        # change (start/stop).  Demand and capacity updates re-solve
        # the same membership over and over; the graph traversal (and
        # its activation-order sort) is pure overhead for those.
        self._dirty_cache: Dict[object, List[Flow]] = {}
        # Same-instant scan memos.  ``None`` means the next finished
        # scan / completion-reschedule pass must cover every flow;
        # a dict restricts it to the flows whose rate (or existence)
        # changed since the last full pass *at the current instant*.
        # Any time advance invalidates both (see _advance): with dt > 0
        # every armed completion time and the finished predicate shift
        # in floating point, so only a full pass is bit-faithful.
        self._scan_candidates: Optional[Dict[Flow, None]] = None
        self._resched_candidates: Optional[Dict[Flow, None]] = None

    # -- public API -------------------------------------------------------
    @property
    def flows(self) -> Set[Flow]:
        return set(self._flows)

    def start_flow(self, flow: Flow) -> Flow:
        """Activate *flow*; its :attr:`Flow.done` event fires on completion
        (finite flows only) with the completion time as value."""
        if flow._active:
            raise SimulationError("flow already active")
        for res in flow.resources:
            if res.network is not None and res.network is not self:
                raise SimulationError(
                    f"resource {res.name!r} belongs to another network")
        self._advance()
        flow._active = True
        flow.start_time = self.sim.now
        flow.done = self.sim.event()
        self._next_seq += 1
        flow._seq = self._next_seq
        res_flows = self._res_flows
        for res in flow.resources:
            if res.network is None:
                res.network = self
            fset = res_flows.get(res)
            if fset is None:
                fset = res_flows[res] = {}
            fset[flow] = None
        self._flows[flow] = None
        if self._dirty_cache:
            self._dirty_cache.clear()
        if _obs_context._ACTIVE is not None:
            _obs_context._ACTIVE.on_flow_start(self, flow)
        self._recompute(seed_flows=(flow,))
        return flow

    def transfer(self, resources: Sequence[Resource], size: float,
                 demand: float = math.inf, weight: float = 1.0,
                 usage: float | Dict[Resource, float] = 1.0,
                 label: str = "") -> Flow:
        """Convenience: create and start a finite flow."""
        flow = Flow(resources, size=size, demand=demand, weight=weight,
                    usage=usage, label=label)
        return self.start_flow(flow)

    def stop_flow(self, flow: Flow) -> float:
        """Deactivate *flow* (e.g. a continuous background flow); returns
        bytes transferred so far.

        Fires the ``on_flow_end`` telemetry hook with ``aborted=True``
        so stopped flows close their wire spans and keep the
        started/completed counters in step.

        Stopping a flow that is not active — never started, already
        stopped, or already *completed* — is an explicit no-op: the
        ``on_flow_end`` hook must not fire a second time (it would
        double-close the wire span and skew the started/completed
        counters), so only the ``fluid.stop_noops`` telemetry counter
        ticks and the transferred byte count is returned as-is."""
        if not flow._active:
            if _obs_context._ACTIVE is not None:
                _obs_context._ACTIVE.on_flow_stop_noop(self, flow)
            return flow.transferred
        self._advance()
        self._deactivate(flow)
        if _obs_context._ACTIVE is not None:
            _obs_context._ACTIVE.on_flow_end(self, flow, aborted=True)
        self._recompute(seed_resources=flow.resources)
        return flow.transferred

    def set_demand(self, flow: Flow, demand: float) -> None:
        """Change an *active* flow's demand cap and recompute the rates
        of its connected component."""
        if demand <= 0:
            raise ValueError("demand must be > 0")
        if not flow._active:
            raise SimulationError(
                f"set_demand on inactive flow {flow.label!r}")
        self._advance()
        flow.demand = float(demand)
        self._recompute(seed_flows=(flow,))

    def update(self, resource: Optional[Resource] = None) -> None:
        """Recompute rates after an external change.

        With *resource* given (a capacity update), only that resource's
        connected component is re-solved; without, every flow is."""
        self._advance()
        if resource is not None:
            self._recompute(seed_resources=(resource,))
        else:
            self._recompute(seed_flows=tuple(self._flows))

    def utilization(self, resource: Resource) -> float:
        """Fraction of *resource* capacity currently consumed (0..1+)."""
        fset = self._res_flows.get(resource)
        if not fset:
            return 0.0
        used = sum(f.rate * f.usage_on(resource) for f in fset)
        return used / resource.capacity

    def flows_through(self, resource: Resource) -> List[Flow]:
        return list(self._res_flows.get(resource, ()))

    # -- internals ----------------------------------------------------------
    def _advance(self) -> None:
        """Account transferred bytes since the last rate change."""
        now = self.sim.now
        dt = now - self._last_update
        if dt > 0:
            for flow in self._flows:
                # Skipping starved flows is bit-safe: x + 0.0 == x for
                # the non-negative byte counts accumulated here.
                if flow.rate:
                    flow.transferred += flow.rate * dt
            self._scan_candidates = None
            self._resched_candidates = None
        self._last_update = now

    def _deactivate(self, flow: Flow) -> None:
        flow._active = False
        flow.rate = 0.0
        if self._dirty_cache:
            self._dirty_cache.clear()
        if self._scan_candidates:
            self._scan_candidates.pop(flow, None)
        if self._resched_candidates:
            self._resched_candidates.pop(flow, None)
        if flow._completion_handle is not None:
            flow._completion_handle.cancel()
            flow._completion_handle = None
        self._flows.pop(flow, None)
        res_flows = self._res_flows
        for res in flow.resources:
            fset = res_flows.get(res)
            if fset is not None:
                fset.pop(flow, None)
                if not fset:
                    del res_flows[res]

    def _dirty_component(self, seed_flows: Sequence[Flow],
                         seed_resources: Sequence[Resource]) -> List[Flow]:
        """Flows (transitively) sharing a resource with the seeds.

        Traverses the flow↔resource adjacency and returns the union of
        the seeds' connected components in *activation order* — the
        order the global solver would visit them in.

        Single-seed queries (a capacity or demand update) are memoized
        until the next adjacency change: the component of a given seed
        cannot change while no flow starts or stops, so repeated
        updates of the same knob skip both the traversal and the
        activation-order sort.  Callers treat the returned list as
        read-only.
        """
        # Callers pass lists/tuples (sized), so the single-seed probe
        # is two len() calls on the miss path.
        key: Optional[object] = None
        if not seed_flows:
            if len(seed_resources) == 1:
                key = seed_resources[0]
        elif len(seed_flows) == 1 and not seed_resources:
            key = seed_flows[0]
        if key is not None:
            cached = self._dirty_cache.get(key)
            if cached is not None:
                return cached
        res_flows = self._res_flows
        dirty: Dict[Flow, None] = {}
        res_stack: List[Resource] = []
        seen_res: Set[Resource] = set()
        for flow in seed_flows:
            if flow._active and flow not in dirty:
                dirty[flow] = None
                res_stack.extend(flow.resources)
        res_stack.extend(seed_resources)
        while res_stack:
            res = res_stack.pop()
            if res in seen_res:
                continue
            seen_res.add(res)
            for flow in res_flows.get(res, ()):
                if flow not in dirty:
                    dirty[flow] = None
                    for r in flow.resources:
                        if r not in seen_res:
                            res_stack.append(r)
        if len(dirty) <= 1:
            component = list(dirty)
        else:
            component = sorted(dirty, key=_SEQ_KEY)
        if key is not None:
            self._dirty_cache[key] = component
        return component

    def _recompute(self, seed_flows: Sequence[Flow] = (),
                   seed_resources: Sequence[Resource] = ()) -> None:
        """Re-solve the dirty component(s) and fire completions.

        Completing a flow frees capacity, which can push other flows to
        completion at the same instant; loop until a fixed point.  The
        finished scan covers *all* active flows (not just the dirty
        component) in insertion order so that same-instant completions
        fire in exactly the deterministic order the global solver used.
        """
        pending_flows: List[Flow] = list(seed_flows)
        pending_res: List[Resource] = list(seed_resources)
        touched: Dict[Resource, None] = {}
        # Seed flows (new or demand-changed) are finish candidates even
        # before their first solve: a zero-size flow is done at start.
        scan_cands = self._scan_candidates
        if scan_cands is not None:
            for flow in pending_flows:
                scan_cands[flow] = None
        while True:
            # Complete every flow that is already done at this instant,
            # in insertion order, before re-solving: freed capacity
            # seeds further dirty components.
            finished = self._finished_flows()
            for flow in finished:
                pending_res.extend(flow.resources)
                self._complete(flow)
            if not (pending_flows or pending_res):
                break
            # Seed resources count as touched even when no remaining
            # flow crosses them (a stopped/completed flow's wire drops
            # to zero and must still be re-sampled by telemetry).
            for res in pending_res:
                touched[res] = None
            dirty = self._dirty_component(pending_flows, pending_res)
            pending_flows = []
            pending_res = []
            self._assign_rates(dirty, touched)
            # Freshly solved flows are the only ones whose finish
            # predicate or completion time can move at this instant.
            scan_cands = self._scan_candidates
            if scan_cands is not None:
                for flow in dirty:
                    scan_cands[flow] = None
            resched_cands = self._resched_candidates
            if resched_cands is not None:
                for flow in dirty:
                    resched_cands[flow] = None
            if _inv.ENABLED:
                self._check_invariants(dirty)
        self._reschedule_completions()
        if _obs_context._ACTIVE is not None:
            _obs_context._ACTIVE.on_rates_changed(self, touched)

    def _finished_flows(self) -> List[Flow]:
        """Active flows whose remainder is numerically done, in
        insertion order (the inlined hot-loop form of
        :meth:`_is_finished`)."""
        # At an unchanged instant only candidate flows (rate changed or
        # newly seeded since the last scan) can newly satisfy the
        # predicate; everything else was scanned-and-rejected with
        # bitwise-identical operands.  Insertion order == activation
        # order, so a seq sort restores the full scan's visit order.
        cands = self._scan_candidates
        if cands is None:
            flows: Sequence[Flow] = self._flows
            self._scan_candidates = {}
        elif not cands:
            # Nothing became a candidate since the last scan (the
            # common second pass of a _recompute round-trip).
            return []
        elif len(cands) > 1:
            flows = sorted(cands, key=_SEQ_KEY)
            cands.clear()
        else:
            flows = list(cands)
            cands.clear()
        # Representable-time floor at the current instant, hoisted out
        # of the per-flow check (see _is_finished).
        time_floor = max(1e-12, 8.0 * abs(self.sim.now) * 2.3e-16)
        finished = []
        for flow in flows:
            size = flow.size
            if size is None:
                continue
            remaining = size - flow.transferred
            if remaining <= flow._finish_eps or (
                    flow.rate > 0
                    and remaining <= flow.rate * time_floor):
                finished.append(flow)
        return finished

    def _is_finished(self, flow: Flow) -> bool:
        """True when the flow's remainder is numerically done.

        Two criteria: the byte remainder is within relative epsilon of
        the size, or the time needed to drain it at the current rate is
        below the representable time increment at the current simulated
        time (otherwise completion events would stop advancing time and
        livelock the event loop).
        """
        remaining = flow.remaining
        if remaining is None:
            return False
        if remaining <= flow._finish_eps:
            return True
        if flow.rate > 0:
            time_floor = max(1e-12, 8.0 * abs(self.sim.now) * 2.3e-16)
            return remaining <= flow.rate * time_floor
        return False

    def _assign_rates(self, dirty: List[Flow],
                      touched: Dict[Resource, None]) -> None:
        """Weighted max-min fair allocation via progressive filling,
        restricted to the *dirty* component(s).

        The one rate solver, for every component size.  It is the
        arithmetic twin of :meth:`_assign_rates_scalar` on parallel
        lists indexed by flow slot and resource index instead of
        dicts-of-dicts: flow slots follow *dirty* order (activation
        order), resources first-touch order and each resource's members
        slot order — the reference's dict iteration orders — so every
        denominator sum, freeze, residual debit and ``(1 + _REL_TOL)``
        guard rounds identically and the rates are bit-equal.
        """
        flows: List[Flow] = []
        for flow in dirty:
            if flow.resources:
                flows.append(flow)
            else:
                # An empty path is only demand-limited.
                flow.rate = flow.demand
        n = len(flows)
        if not n:
            return

        index: Dict[Resource, int] = {}
        avail: List[float] = []
        # Per resource: (flow slot, weight·usage) in slot order.  Per
        # flow: (resource index, usage) for the residual debit.
        members: List[List[Tuple[int, float]]] = []
        paths: List[List[Tuple[int, float]]] = []
        for k, flow in enumerate(flows):
            weight = flow.weight
            path: List[Tuple[int, float]] = []
            paths.append(path)
            for res, wu in zip(flow.resources, flow._usages):
                i = index.get(res)
                if i is None:
                    i = index[res] = len(avail)
                    avail.append(res._capacity)
                    members.append([])
                    touched[res] = None
                members[i].append((k, weight * wu))
                path.append((i, wu))

        fixed = [False] * n
        tol = 1 + _REL_TOL

        def fix(k: int, rate: float) -> None:
            # Same clamp and debit order as the reference's _fix.
            flows[k].rate = rate = rate if rate > 0.0 else 0.0
            for i, usage in paths[k]:
                left = avail[i] - rate * usage
                avail[i] = left if left > 0.0 else 0.0
            fixed[k] = True

        unfixed = n
        while unfixed:
            level = math.inf
            for i, mem in enumerate(members):
                denom = 0.0
                for k, prod in mem:
                    if not fixed[k]:
                        denom += prod
                if denom <= 0:
                    continue
                lvl = avail[i] / denom
                if lvl < level:
                    level = lvl
            if not math.isfinite(level):
                # No binding resource: the rest must be demand-limited.
                for k in range(n):
                    if not fixed[k]:
                        demand = flows[k].demand
                        if not math.isfinite(demand):
                            raise SimulationError(
                                f"flow {flows[k].label!r} has unbounded rate")
                        fix(k, demand)
                return

            # Demand-limited flows below the water level freeze first.
            limited = [k for k in range(n) if not fixed[k]
                       and flows[k].demand <= flows[k].weight * level * tol]
            if limited:
                for k in limited:
                    fix(k, flows[k].demand)
                unfixed -= len(limited)
                continue

            # Otherwise freeze every flow crossing a bottleneck resource,
            # re-summing each denominator after this pass's earlier
            # freezes (exactly like the reference).
            guard = level * tol
            froze = 0
            for i, mem in enumerate(members):
                denom = 0.0
                for k, prod in mem:
                    if not fixed[k]:
                        denom += prod
                if denom <= 0:
                    continue
                if avail[i] / denom <= guard:
                    for k, _prod in mem:
                        if not fixed[k]:
                            fix(k, flows[k].weight * level)
                            froze += 1
            if not froze:  # pragma: no cover - numerical safety net
                for k in range(n):
                    if not fixed[k]:
                        fix(k, flows[k].weight * level)
                return
            unfixed -= froze

    def _assign_rates_scalar(self, dirty: List[Flow],
                             touched: Dict[Resource, None]) -> None:
        """The dict-based reference solver.

        All working collections are insertion-ordered dicts-as-sets so
        the freezing order — and with it the floating-point rounding of
        the residual-capacity subtractions — is identical on every run.

        Never on the simulation path: it is the executable reference the
        sampled invariant check re-solves with, both on the dirty list
        (bitwise against :meth:`_assign_rates`) and globally over every
        active flow (see :meth:`_check_invariants`).
        """
        unfixed: Dict[Flow, None] = dict.fromkeys(dirty)
        # Flows with an empty path are only demand-limited.
        for flow in list(unfixed):
            if not flow.resources:
                flow.rate = flow.demand
                unfixed.pop(flow, None)

        avail: Dict[Resource, float] = {}
        res_flows: Dict[Resource, Dict[Flow, float]] = {}
        for flow in unfixed:
            for res, wu in zip(flow.resources, flow._usages):
                fset = res_flows.get(res)
                if fset is None:
                    avail[res] = res.capacity
                    fset = res_flows[res] = {}
                    touched[res] = None
                fset[flow] = flow.weight * wu

        while unfixed:
            # Water level at which each resource would saturate.  The
            # per-resource Σ weight·usage denominators are sums over the
            # cached per-flow products stored in res_flows, so no usage
            # lookups happen in this hot loop.
            # Left-to-right sums, spelled out: sum() of floats is
            # compensated from Python 3.12 on and would round unlike
            # the fast path's running total.
            level = math.inf
            for res, fset in res_flows.items():
                if not fset:
                    continue
                denom = 0.0
                for prod in fset.values():
                    denom += prod
                if denom <= 0:
                    continue
                lvl = avail[res] / denom
                if lvl < level:
                    level = lvl
            if not math.isfinite(level):
                # No binding resource: every remaining flow must be
                # demand-limited (paths through inf-capacity resources
                # cannot occur because capacities are finite; this happens
                # only when all remaining resources have no flows).
                for flow in unfixed:
                    if not math.isfinite(flow.demand):
                        raise SimulationError(
                            f"flow {flow.label!r} has unbounded rate")
                    self._fix(flow, flow.demand, avail, res_flows)
                unfixed.clear()
                break

            # Demand-limited flows below the water level are frozen first.
            demand_limited = [f for f in unfixed
                              if f.demand <= f.weight * level * (1 + _REL_TOL)]
            if demand_limited:
                for flow in demand_limited:
                    self._fix(flow, flow.demand, avail, res_flows)
                    unfixed.pop(flow, None)
                continue

            # Otherwise freeze every flow crossing a bottleneck resource.
            # Denominators are recomputed per resource: an earlier freeze
            # in this same pass pops flows, which must be reflected (and
            # keeps the rounding identical to the original solver).
            froze = False
            for res, fset in list(res_flows.items()):
                if not fset:
                    continue
                denom = 0.0
                for prod in fset.values():
                    denom += prod
                if denom <= 0:
                    continue
                if avail[res] / denom <= level * (1 + _REL_TOL):
                    for flow in list(fset):
                        if flow in unfixed:
                            self._fix(flow, flow.weight * level,
                                      avail, res_flows)
                            unfixed.pop(flow, None)
                            froze = True
            if not froze:  # pragma: no cover - numerical safety net
                for flow in list(unfixed):
                    self._fix(flow, flow.weight * level, avail, res_flows)
                unfixed.clear()

    @staticmethod
    def _fix(flow: Flow, rate: float,
             avail: Dict[Resource, float],
             res_flows: Dict[Resource, Dict[Flow, float]]) -> None:
        flow.rate = rate if rate > 0.0 else 0.0
        for res, usage in zip(flow.resources, flow._usages):
            left = avail[res] - flow.rate * usage
            avail[res] = left if left > 0.0 else 0.0
            res_flows[res].pop(flow, None)

    # -- runtime self-checks (--check-invariants) --------------------------
    def _component_of(self, flow: Optional[Flow] = None,
                      resource: Optional[Resource] = None) -> str:
        """Human-readable name of the connected component a culprit
        flow/resource belongs to, for :class:`InvariantViolation`
        diagnostics."""
        comp = self._dirty_component(
            (flow,) if flow is not None else (),
            (resource,) if resource is not None else ())
        labels = [f.label or "anon" for f in comp]
        shown = ", ".join(labels[:6])
        if len(labels) > 6:
            shown += f", … +{len(labels) - 6} more"
        return f"component[{len(labels)} flows: {shown}]"

    def _check_invariants(self, dirty: List[Flow]) -> None:
        """Verify the solver's bookkeeping after a rate solve.

        Cheap checks run on every solve: per-flow usage caches agree
        with the authoritative usage maps, rates are finite,
        non-negative and demand-capped, and no resource's capacity is
        exceeded (computed from :meth:`Flow.usage_on`, *not* the cache,
        so a corrupted cache is caught by the first check rather than
        masked).  Every ``SAMPLE_EVERY``-th solve additionally runs
        :meth:`_cross_check` against the reference solver.
        """
        self._n_solves += 1
        if _obs_context._ACTIVE is not None:
            _obs_context._ACTIVE.on_invariant_check()
        for flow in dirty:
            self._check_usage_cache(flow)
            rate = flow.rate
            if not math.isfinite(rate) or rate < 0.0:
                self._violation(
                    f"flow {flow.label or 'anon'!r} has invalid rate "
                    f"{rate!r} in {self._component_of(flow=flow)}")
            if rate > flow.demand * (1.0 + _REL_TOL):
                self._violation(
                    f"flow {flow.label or 'anon'!r} rate {rate!r} "
                    f"exceeds its demand cap {flow.demand!r} in "
                    f"{self._component_of(flow=flow)}")
        seen_res: Set[Resource] = set()
        for flow in dirty:
            for res in flow.resources:
                if res in seen_res:
                    continue
                seen_res.add(res)
                used = sum(f.rate * f.usage_on(res)
                           for f in self._res_flows.get(res, ()))
                if used > res.capacity * (1.0 + _REL_TOL):
                    self._violation(
                        f"resource {res.name!r} over capacity: "
                        f"{used!r} > {res.capacity!r} in "
                        f"{self._component_of(resource=res)}")
        if self._n_solves % _inv.SAMPLE_EVERY == 0 and self._flows:
            self._cross_check(dirty)

    def _cross_check(self, dirty: List[Flow]) -> None:
        """Re-solve with :meth:`_assign_rates_scalar` and compare.

        * The *dirty* list re-solved by the reference must reproduce
          the fast path's rates **bitwise** — the fast-path contract.
        * A from-scratch global solve over every active flow must agree
          with the incremental rates within relative ``_REL_TOL`` — the
          dirty-component invariant of DESIGN.md §4.1.  Only a tolerance
          holds here: the global pass interleaves the freezes of
          unrelated components, so its residual debits round differently
          (~1e-15 relative).  A stale rate is off by far more.

        Every snapshotted rate is restored before a violation is raised,
        so the network is left exactly as the fast path set it.
        """
        before = {flow: flow.rate for flow in self._flows}
        culprit: Optional[Flow] = None
        self._assign_rates_scalar(dirty, {})
        for flow in dirty:
            if flow.rate != before[flow]:
                culprit = flow
                message = (
                    f"fast path diverged from the reference solver for "
                    f"flow {flow.label or 'anon'!r}: fast path gave "
                    f"{before[flow]!r}, reference gave {flow.rate!r}")
                break
        if culprit is None:
            self._assign_rates_scalar(sorted(self._flows, key=_SEQ_KEY), {})
            for flow, incremental in before.items():
                globally = flow.rate
                if not abs(globally - incremental) <= _REL_TOL * max(
                        abs(globally), abs(incremental)):
                    culprit = flow
                    message = (
                        f"incremental solve diverged from global solve for "
                        f"flow {flow.label or 'anon'!r}: component gave "
                        f"{incremental!r}, from-scratch gave {globally!r}")
                    break
        for flow, rate in before.items():
            flow.rate = rate
        if culprit is not None:
            self._violation(
                f"{message} in {self._component_of(flow=culprit)}")

    def _check_usage_cache(self, flow: Flow) -> None:
        """Verify one flow's cached per-resource usage multipliers
        against the authoritative usage map/scalar."""
        if flow._usage_map is None:
            # Scalar usage (the overwhelmingly common case): the cache
            # must be the scalar repeated per path resource — checked
            # without re-resolving usage_on per resource.
            scalar = flow._usage_scalar
            ok = all(u == scalar for u in flow._usages)
        else:
            ok = flow._usages == tuple(
                flow.usage_on(res) for res in flow.resources)
        if not ok:
            expected = tuple(flow.usage_on(res) for res in flow.resources)
            self._violation(
                f"usage cache of flow {flow.label or 'anon'!r} is "
                f"corrupted: cached {flow._usages!r} != authoritative "
                f"{expected!r} in {self._component_of(flow=flow)}")

    def _violation(self, message: str) -> None:
        if _obs_context._ACTIVE is not None:
            _obs_context._ACTIVE.on_invariant_violation()
        raise _inv.InvariantViolation(message)

    def _reschedule_completions(self) -> None:
        """(Re)arm completion events, reusing heap entries lazily.

        A flow's completion entry is cancelled/re-pushed only when its
        freshly computed completion *time* differs from the armed one —
        same-instant recompute bursts and unrelated components cost no
        heap churn at all.
        """
        sim = self.sim
        now = sim.now
        # Restricted pass: at an unchanged instant a flow with an
        # unchanged rate recomputes a bitwise-identical ``when`` and
        # would hit the handle.time == when no-op below, consuming no
        # sequence number — so skipping it outright cannot perturb the
        # heap.  Any time advance forces the full pass (see _advance).
        cands = self._resched_candidates
        if cands is None:
            flows: Sequence[Flow] = self._flows
            self._resched_candidates = {}
        elif not cands:
            return
        elif len(cands) > 1:
            flows = sorted(cands, key=_SEQ_KEY)
            cands.clear()
        else:
            flows = list(cands)
            cands.clear()
        for flow in flows:
            if flow.size is None:
                continue
            handle = flow._completion_handle
            if flow.rate <= 0:
                # Starved: rescheduled on the next update.
                if handle is not None:
                    handle.cancel()
                    flow._completion_handle = None
                continue
            remaining = flow.size - flow.transferred
            if remaining < 0.0:
                remaining = 0.0
            eta = remaining / flow.rate
            when = now + eta
            if handle is not None:
                if handle.time == when:
                    continue  # unchanged: reuse the armed entry
                flow._completion_handle = sim.reschedule(
                    handle, when, self._on_completion, flow)
            else:
                flow._completion_handle = sim.schedule_at(
                    when, self._on_completion, flow)

    def _on_completion(self, flow: Flow) -> None:
        flow._completion_handle = None
        self._advance()
        # Whatever happens next, this flow is the one whose completion
        # state just moved: make sure the restricted same-instant scans
        # consider it (its handle is gone, so the handle.time == when
        # skip can no longer protect it).
        if self._scan_candidates is not None:
            self._scan_candidates[flow] = None
        if self._resched_candidates is not None:
            self._resched_candidates[flow] = None
        if not self._is_finished(flow):
            # Rates changed under us; reschedule this flow's completion.
            self._reschedule_completions()
            return
        # The finished scan inside _recompute completes *flow* (and any
        # other flow due at this instant) in insertion order.
        self._recompute()

    def _complete(self, flow: Flow) -> None:
        flow.transferred = flow.size if flow.size is not None else flow.transferred
        done = flow.done
        self._deactivate(flow)
        if _obs_context._ACTIVE is not None:
            _obs_context._ACTIVE.on_flow_end(self, flow)
        if done is not None and not done.triggered:
            done.succeed(self.sim.now)
