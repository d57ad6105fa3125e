"""The telemetry facade: one object every instrumented layer reports to.

A :class:`Telemetry` bundles a :class:`~repro.obs.metrics.MetricsRegistry`
and a :class:`~repro.obs.tracer.SpanTracer` and knows the lane layout:

* one trace *process* per simulated node (pid ``1000·cluster + node``),
  with a *thread* per core, a NIC lane for protocol-level transfers and
  a queue lane for the comm thread's serial queue;
* one synthetic *fabric* process per cluster (pid ``1000·cluster + 999``)
  with a lane per directed wire (flow spans + bandwidth counter tracks)
  and a lane for fault injections;
* counter tracks for per-core/uncore frequency and per-node memory-stall
  fraction, next to the spans that suffer them.

Experiments build a fresh cluster per sweep point, so clusters register
themselves (:meth:`Telemetry.bind_cluster`, called from
``Cluster.__init__`` exactly like the fault injector) and each gets its
own pid block — a fig-10 trace shows every worker-count point
side by side.

All hooks are pure observation: they never yield, schedule events, or
draw random numbers, so enabling telemetry cannot perturb a simulation.
Everything recorded derives from simulated time and state — identical
runs export byte-identical files.
"""

from __future__ import annotations

import logging
import os
from contextlib import contextmanager
from typing import Dict, List, Optional, Tuple

from repro.obs.attribution import (TransferLog, attribution_report,
                                   render_attribution)
from repro.obs.context import clear_telemetry, install_telemetry
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import SpanHandle, SpanTracer

__all__ = ["Telemetry", "telemetry_context",
           "NIC_TID", "QUEUE_TID", "FAULT_TID"]

logger = logging.getLogger(__name__)

# Lane (tid) conventions inside a node process.
NIC_TID = 1000      # protocol-level transfer spans
QUEUE_TID = 1001    # comm thread's serial queue (submit -> done)
# Lane conventions inside a cluster's fabric process.
FAULT_TID = 998     # fault-injection instants
_FABRIC_OFF = 999   # fabric pid = base + _FABRIC_OFF
_PID_BLOCK = 1000   # pid block per cluster


class _Binding:
    """Lane bookkeeping for one registered cluster (or bare network)."""

    __slots__ = ("index", "base", "fabric", "wires", "lane_by_res",
                 "primed")

    def __init__(self, index: int):
        self.index = index
        self.base = _PID_BLOCK * index
        self.fabric = self.base + _FABRIC_OFF
        # [(label, Resource)] — fabric link lanes, in the topology's
        # catalog order (full mesh: wire{a}->{b} sorted by (a, b)).
        self.wires: List[Tuple[str, object]] = []
        # Resource -> lane index, the inverse of `wires` (resources
        # hash by identity).  Lets the rate-change sampler visit only
        # the dirty wires instead of scanning every lane per solve.
        self.lane_by_res: Dict[object, int] = {}
        # Whether every wire counter track has its initial sample.
        self.primed = False


class Telemetry:
    """Ambient telemetry sink (install via :func:`telemetry_context`)."""

    def __init__(self, trace: bool = True, metrics: bool = True):
        self.registry: Optional[MetricsRegistry] = \
            MetricsRegistry() if metrics else None
        self.tracer: Optional[SpanTracer] = SpanTracer() if trace else None
        self.transfers = TransferLog()
        self.run_label = ""
        self._bindings: Dict[int, _Binding] = {}   # id(FluidNetwork) -> _Binding
        self._n_clusters = 0
        # Created eagerly, so it exports even before any run().
        self._sim_events = (self.registry.counter("sim.events")
                            if self.registry is not None else None)
        # (protocol, app) -> on_transfer's three instruments.
        self._transfer_instruments: Dict[tuple, tuple] = {}
        # Engine hot-loop counters are opt-in (REPRO_ENGINE_COUNTERS=1,
        # set by `repro profile`): materializing them by default would
        # add keys to every metrics export and break byte-identity
        # against pre-PR9 pinned artifacts.
        self._engine_counters = os.environ.get(
            "REPRO_ENGINE_COUNTERS", "") not in ("", "0")

    # -- run labelling -----------------------------------------------------
    def set_run(self, label: str) -> None:
        """Tag subsequently collected samples with *label* (experiment name)."""
        self.run_label = label

    # -- cluster / lane registration ---------------------------------------
    def bind_cluster(self, cluster) -> None:
        """Register *cluster*'s nodes and wires as trace lanes."""
        binding = self._binding_for_net(cluster.net)
        binding.wires = list(cluster.topology.links())
        binding.lane_by_res = {res: lane for lane, (_label, res)
                               in enumerate(binding.wires)}
        if self.registry is not None:
            self.registry.counter("clusters.built").inc()
        tracer = self.tracer
        if tracer is None:
            return
        prefix = f"c{binding.index}"
        for machine in cluster.machines:
            pid = binding.base + machine.node_id
            tracer.name_process(
                pid, f"{prefix}.n{machine.node_id} ({machine.spec.name})")
            tracer.name_thread(pid, NIC_TID, "nic")
            tracer.name_thread(pid, QUEUE_TID, "comm queue")
            for core in machine.cores:
                tracer.name_thread(pid, core.id, f"core{core.id}")
        tracer.name_process(binding.fabric, f"{prefix}.fabric")
        tracer.name_thread(binding.fabric, FAULT_TID, "faults")
        for lane, (label, _res) in enumerate(binding.wires):
            tracer.name_thread(binding.fabric, lane, label)

    def _binding_for_net(self, net) -> _Binding:
        binding = self._bindings.get(id(net))
        if binding is None:
            binding = _Binding(self._n_clusters)
            self._n_clusters += 1
            self._bindings[id(net)] = binding
        return binding

    def machine_pid(self, machine) -> int:
        """Trace pid of *machine* (auto-registers bare networks)."""
        return self._binding_for_net(machine.net).base + machine.node_id

    # -- sim engine ---------------------------------------------------------
    def on_engine_stats(self, dispatched: int, stale_skips: int,
                        heap_compactions: int,
                        direct_dispatches: int) -> None:
        """Engine deltas for one ``run()`` invocation.

        ``sim.events`` books the dispatched callbacks.  The hot-loop
        counters are gated on ``REPRO_ENGINE_COUNTERS=1`` and
        materialized only when nonzero (the ``executor.*`` discipline):
        default exports carry no new keys and stay byte-identical.
        ``direct_dispatches`` counts the dispatches that took the
        engine's parked-sleep fast path instead of the heap.
        """
        registry = self.registry
        if registry is None:
            return
        self._sim_events.value += dispatched
        if not self._engine_counters:
            return
        if dispatched:
            registry.counter("engine.events_dispatched").inc(dispatched)
        if stale_skips:
            registry.counter("engine.stale_skips").inc(stale_skips)
        if heap_compactions:
            registry.counter("engine.heap_compactions").inc(heap_compactions)
        if direct_dispatches:
            registry.counter("engine.direct_dispatches").inc(
                direct_dispatches)

    # -- fluid network -------------------------------------------------------
    def on_flow_start(self, net, flow) -> None:
        if self.registry is not None:
            self.registry.counter("fluid.flows_started").inc()

    def on_flow_end(self, net, flow, aborted: bool = False) -> None:
        """A finite flow completed — or was stopped (*aborted*).

        Stopped flows close their wire span like completed ones (with an
        ``aborted`` arg) so counters and spans stay balanced against
        ``on_flow_start``.
        """
        if self.registry is not None:
            self.registry.counter("fluid.flows_completed").inc()
            if aborted:
                self.registry.counter("fluid.flows_aborted").inc()
        tracer = self.tracer
        if tracer is None:
            return
        binding = self._bindings.get(id(net))
        if binding is None or not binding.wires:
            return
        for lane, (_label, res) in enumerate(binding.wires):
            if res in flow.resources:
                args = {"bytes": flow.transferred}
                if aborted:
                    args["aborted"] = True
                tracer.complete(
                    binding.fabric, lane, flow.label or "flow", "flow",
                    flow.start_time, net.sim.now, args)
                return

    def on_flow_stop_noop(self, net, flow) -> None:
        """``stop_flow`` on an already-inactive flow: counted, not
        double-ended (``on_flow_end`` must fire exactly once per flow)."""
        if self.registry is not None:
            self.registry.counter("fluid.stop_noops").inc()

    def on_invariant_check(self) -> None:
        """One fluid-solver self-check pass ran (``--check-invariants``)."""
        if self.registry is not None:
            self.registry.counter("fluid.invariant_checks").inc()

    def on_invariant_violation(self) -> None:
        """A self-check failed; an ``InvariantViolation`` is being raised."""
        if self.registry is not None:
            self.registry.counter("fluid.invariant_violations").inc()

    def on_rates_changed(self, net, dirty_resources=None) -> None:
        """Rates were reassigned; sample wire-bandwidth counter tracks.

        *dirty_resources* is the set of resources whose connected
        component was re-solved (``None`` = unknown, sample everything).
        Only dirty wires are sampled — untouched components keep their
        rates bitwise, so the tracer's value dedup would drop their
        samples anyway.  The first pass after a cluster binds primes
        every wire track with its initial value regardless.
        """
        if self.registry is not None:
            self.registry.counter("fluid.rate_updates").inc()
        tracer = self.tracer
        if tracer is None:
            return
        binding = self._bindings.get(id(net))
        if binding is None or not binding.wires:
            return
        now = net.sim.now
        prime = not binding.primed
        if prime:
            binding.primed = True
        if prime or dirty_resources is None:
            lanes = range(len(binding.wires))
        else:
            # Visit only the dirty links, in lane order — `wires` keeps
            # the topology's catalog order, so sorting the lane indices
            # restores exactly the emission order the full scan produced.
            lane_by_res = binding.lane_by_res
            hits = [lane for res in dirty_resources
                    if (lane := lane_by_res.get(res)) is not None]
            hits.sort()
            lanes = hits
        wires = binding.wires
        for lane in lanes:
            label, res = wires[lane]
            bw = net.utilization(res) * res.capacity
            tracer.counter(binding.fabric, f"{label} GB/s", now,
                           bw / 1e9)

    # -- protocol engine -----------------------------------------------------
    def on_transfer(self, cluster, src_node: int, dst_node: int,
                    record, app: Optional[str] = None) -> None:
        """A message was delivered (records carry overlap cycle deltas).

        *app* is the owning application's name when the engine belongs
        to a co-scheduled :class:`~repro.core.apps.Application`; metric
        label sets (and hence exports) only grow an ``app=`` label when
        one is set, so single-app runs stay byte-identical.
        """
        registry = self.registry
        if registry is not None:
            key = (record.protocol, app)
            instruments = self._transfer_instruments.get(key)
            if instruments is None:
                labels = {"protocol": record.protocol}
                if app is not None:
                    labels["app"] = app
                instruments = self._transfer_instruments[key] = (
                    registry.counter("net.transfers", **labels),
                    registry.counter("net.bytes", **labels),
                    registry.histogram("net.transfer_seconds", **labels))
            transfers, nbytes, seconds = instruments
            transfers.inc()
            nbytes.inc(record.size)
            seconds.observe(record.duration)
            if record.retries:
                registry.counter("net.retransmits").inc(record.retries)
        self.transfers.append(
            record.end, app if app is not None else self.run_label,
            src_node, dst_node, record.size, record.protocol,
            record.duration, record.bandwidth, record.mem_stall_overlap,
            record.busy_overlap, record.retries)
        tracer = self.tracer
        if tracer is not None:
            binding = self._binding_for_net(cluster.net)
            args = {"size": record.size, "dst": dst_node,
                    "retries": record.retries,
                    "stall_overlap": round(record.mem_stall_overlap, 9)}
            if app is not None:
                args["app"] = app
            tracer.complete(
                binding.base + src_node, NIC_TID,
                f"{record.protocol} {record.size}B", "transfer",
                record.start, record.end, args)

    def on_retransmit(self, cluster, src_node: int, dst_node: int,
                      size: int, reason: str, timeouts: int) -> None:
        """A retransmit timer fired (loss/corruption/ack loss)."""
        if self.registry is not None:
            self.registry.counter("net.timeouts", reason=reason).inc()
        tracer = self.tracer
        if tracer is not None:
            binding = self._binding_for_net(cluster.net)
            tracer.instant(
                binding.base + src_node, NIC_TID, f"timeout #{timeouts}",
                cluster.sim.now, cat="transfer",
                args={"dst": dst_node, "size": size, "reason": reason})

    def on_transport_error(self, cluster, src_node: int, dst_node: int,
                           reason: str) -> None:
        if self.registry is not None:
            self.registry.counter("net.transport_errors").inc()
        tracer = self.tracer
        if tracer is not None:
            binding = self._binding_for_net(cluster.net)
            tracer.instant(
                binding.base + src_node, NIC_TID, "transport error",
                cluster.sim.now, cat="transfer",
                args={"dst": dst_node, "reason": reason})

    # -- generic spans (workers, kernels, p2p) ------------------------------
    def begin_span(self, machine, tid: int, name: str, cat: str,
                   **args) -> Optional[SpanHandle]:
        tracer = self.tracer
        if tracer is None:
            return None
        return tracer.begin(self.machine_pid(machine), tid, name, cat,
                            machine.sim.now, **args)

    def finish_span(self, machine, handle: Optional[SpanHandle],
                    **extra) -> None:
        if handle is not None and self.tracer is not None:
            self.tracer.finish(handle, machine.sim.now, **extra)

    # -- runtime -------------------------------------------------------------
    def on_task_done(self, machine, core_id: int, task,
                     busy: float, stall: float) -> None:
        """A worker finished a task; sample the node's stall fraction."""
        if self.registry is not None:
            self.registry.counter("runtime.tasks").inc()
            self.registry.counter("runtime.busy_seconds").inc(busy)
            self.registry.counter("runtime.stall_seconds").inc(stall)
        tracer = self.tracer
        if tracer is not None and busy > 0:
            tracer.counter(self.machine_pid(machine), "mem_stall_frac",
                           machine.sim.now, stall / busy)

    def on_kernel_done(self, machine, core_id: int, kernel_name: str) -> None:
        if self.registry is not None:
            self.registry.counter("kernels.runs", kernel=kernel_name).inc()

    # -- frequency / DVFS ----------------------------------------------------
    def on_freq_change(self, machine, core_id: int) -> None:
        tracer = self.tracer
        if tracer is None:
            return
        pid = self.machine_pid(machine)
        now = machine.sim.now
        tracer.counter(pid, f"freq.c{core_id} GHz", now,
                       machine.freq.core_hz(core_id) / 1e9)
        socket = machine.cores[core_id].socket_id
        tracer.counter(pid, f"uncore.s{socket} GHz", now,
                       machine.freq.uncore_hz(socket) / 1e9)

    # -- faults --------------------------------------------------------------
    def on_fault(self, cluster, action: str, fault) -> None:
        kind = type(fault).__name__
        if self.registry is not None:
            self.registry.counter("faults.applied", kind=kind,
                                  action=action).inc()
        tracer = self.tracer
        if tracer is not None:
            binding = self._binding_for_net(cluster.net)
            tracer.instant(binding.fabric, FAULT_TID,
                           f"{action} {kind}", cluster.sim.now,
                           cat="fault")

    # -- parallel sweep support ----------------------------------------------
    def point_payload(self) -> dict:
        """Everything a per-point telemetry sink collected, as plain data.

        A sweep-executor worker runs each point against a *fresh*
        Telemetry (pid blocks start at 0) and ships this payload back;
        the parent folds it in with :meth:`absorb_point` in submission
        order, reconstructing exactly what a serial run against one
        shared sink would have recorded.  The transfer log travels as
        its columns (typed arrays pickle as raw bytes).
        """
        return {
            "n_clusters": self._n_clusters,
            "events": list(self.tracer._events)  # noqa: SLF001
            if self.tracer is not None else None,
            "transfers": self.transfers,
        }

    def absorb_point(self, payload: dict,
                     metrics: Optional[dict] = None) -> None:
        """Fold one point's :meth:`point_payload` (+ metrics delta) in.

        Trace-event pids are shifted by the clusters already registered
        here, so the point's pid blocks land exactly where a serial run
        would have allocated them, and its ``c<k>.`` lane names are
        renumbered the same way; the internal cluster counter advances
        by the point's cluster count to keep later allocations aligned.
        """
        offset = _PID_BLOCK * self._n_clusters
        events = payload.get("events")
        if self.tracer is not None and events:
            shifted = []
            for event in events:
                event = dict(event)
                event["pid"] = event["pid"] + offset
                if event["name"] == "process_name":
                    index, rest = event["args"]["name"][1:].split(".", 1)
                    event["args"] = {
                        "name": f"c{int(index) + self._n_clusters}.{rest}"}
                shifted.append(event)
            self.tracer._events.extend(shifted)  # noqa: SLF001
        transfers = payload.get("transfers")
        if transfers:
            if self.transfers:
                self.transfers.extend(transfers)
            else:   # adopt the first log: a copy doubles peak memory
                self.transfers = transfers
        if metrics and self.registry is not None:
            self.registry.merge_delta(metrics)
        self._n_clusters += payload.get("n_clusters", 0)

    # -- reports / export ----------------------------------------------------
    def attribution(self, run: Optional[str] = None,
                    n_bins: int = 5) -> dict:
        """Fig-10-style bandwidth-vs-stall attribution report."""
        log = self.transfers if run is None \
            else self.transfers.for_run(run)
        return attribution_report(log, n_bins=n_bins)

    def render_attribution(self, run: Optional[str] = None) -> str:
        return render_attribution(self.attribution(run=run))

    def export_trace(self, path) -> int:
        """Write the Chrome/Perfetto trace; returns the event count."""
        if self.tracer is None:
            raise RuntimeError("telemetry was created with trace=False")
        self.tracer.export(path)
        return len(self.tracer)

    def export_metrics(self, path) -> None:
        """Write the metrics JSON, embedding the attribution report."""
        if self.registry is None:
            raise RuntimeError("telemetry was created with metrics=False")
        self.registry.export(path, extra={
            "attribution": self.attribution(),
            "transfer_samples": self.transfers,
        })


@contextmanager
def telemetry_context(trace: bool = True, metrics: bool = True):
    """Install a fresh :class:`Telemetry` as the ambient sink."""
    tele = Telemetry(trace=trace, metrics=metrics)
    install_telemetry(tele)
    try:
        yield tele
    finally:
        clear_telemetry(tele)
