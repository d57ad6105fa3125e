"""The message engine: eager and rendezvous protocols on the machine model.

One :class:`ProtocolEngine` per cluster executes point-to-point transfers
as simulation processes.  A transfer decomposes exactly the way the
paper's analysis does:

* **software overheads** (``o_send``/``o_recv``) — cycle counts divided
  by the communication core's *current* frequency (§3.1: latency 1.8 µs
  at 2.3 GHz vs 3.1 µs at 1 GHz);
* **PIO doorbell** — paid at the comm socket's uncore frequency, plus the
  co-location congestion penalty (§4.3: far-from-NIC comm threads double
  their latency under memory contention);
* **eager path** (size ≤ threshold) — wire latency plus a CPU-driven copy
  flowing through the memory system (this is the traffic that starts
  hurting STREAM from 4 KB messages, §4.4);
* **rendezvous path** (size > threshold) — an RTS/CTS handshake, a
  registration-cache lookup, then a DMA fluid flow whose *demand* is
  de-rated by memory pressure (latency-sensitive DMA engines) and whose
  *share* is arbitrated max-min against the computing cores' streams
  (§4.2: bandwidth −2/3 with all cores computing).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Dict, Generator, Optional

from repro.faults.reliability import ReliabilityConfig, TransportError
from repro.obs.context import active_telemetry
from repro.hardware.memory import Buffer
from repro.hardware.nic import RegistrationCache, dma_demand
from repro.hardware.topology import Cluster, Machine
from repro.sim import noisy
from repro.sim.fluid import Flow

__all__ = ["TransferRecord", "ProtocolEngine", "TransportError"]

logger = logging.getLogger(__name__)

# Below this size the eager copy is modelled analytically instead of as a
# fluid flow (see half_transfer).
_EAGER_FLOW_MIN = 2048


@dataclass
class TransferRecord:
    """Timing breakdown of one one-way message.

    Under the reliable transport (fault injection active) ``start`` is
    the first attempt's start and ``end`` the successful delivery, so
    ``duration`` is the *end-to-end* latency including retransmissions;
    ``retries``/``timeouts`` count the recovery work and ``components``
    describe the final (successful) attempt plus the accumulated
    ``retransmit_wait``.
    """

    size: int
    protocol: str                 # "eager" | "rendezvous"
    start: float
    end: float
    components: Dict[str, float] = field(default_factory=dict)
    retries: int = 0              # retransmissions before success
    timeouts: int = 0             # timer expiries (lost messages and acks)
    # Cycle activity overlapping this transfer, summed over both end
    # machines (telemetry only; 0.0 when telemetry is off).  The ratio
    # mem_stall_overlap / busy_overlap is the paper's Fig-10 x-axis.
    mem_stall_overlap: float = 0.0
    busy_overlap: float = 0.0

    @property
    def duration(self) -> float:
        """One-way latency in seconds (the paper's 'latency' metric)."""
        return self.end - self.start

    @property
    def attempts(self) -> int:
        return self.retries + 1

    @property
    def bandwidth(self) -> float:
        """Payload bytes divided by the one-way duration."""
        if self.duration <= 0:
            return 0.0
        return self.size / self.duration


class ProtocolEngine:
    """Executes messages between the nodes of a :class:`Cluster`."""

    def __init__(self, cluster: Cluster):
        self.cluster = cluster
        self.sim = cluster.sim
        self.net = cluster.net
        self.reg_caches: Dict[int, RegistrationCache] = {
            m.node_id: RegistrationCache() for m in cluster.machines}
        # Fault injection: when the cluster was built under an installed
        # FaultPlan, route every message through the reliable transport
        # (ack + timeout + retransmit).  Without a plan the engine runs
        # the exact pre-fault code path — same events, same RNG draws.
        self.injector = getattr(cluster, "fault_injector", None)
        # Extra per-message overhead in cycles (used by the task-based
        # runtime layer, §5.2: StarPU's longer software stack).
        self.extra_cycles_send = 0.0
        self.extra_cycles_recv = 0.0
        # Extra per-message fixed delay in seconds (lock contention from
        # polling workers, §5.4).
        self.extra_delay_send = 0.0
        self.extra_delay_recv = 0.0
        # Owning application's name under multi-app co-scheduling (see
        # repro.core.apps); labels telemetry samples/metrics per app.
        self.app: Optional[str] = None

    # ------------------------------------------------------------------
    def half_transfer(
        self,
        src_node: int,
        src_core: int,
        src_buf: Buffer,
        dst_node: int,
        dst_core: int,
        dst_buf: Buffer,
        size: Optional[int] = None,
    ) -> Generator:
        """Process: move *size* bytes from ``src_buf`` to ``dst_buf``.

        Returns a :class:`TransferRecord`.  The caller is responsible for
        having bound/activated the comm cores (their frequency is read
        live).  With a fault plan armed, the message travels over the
        reliable transport and may raise :class:`TransportError`.
        """
        tele = active_telemetry()
        if tele is None:
            # Zero-telemetry path: the exact pre-observability code.
            if self.injector is None:
                record = yield from self._attempt(
                    src_node, src_core, src_buf, dst_node, dst_core,
                    dst_buf, size)
            else:
                record = yield from self._reliable_transfer(
                    src_node, src_core, src_buf, dst_node, dst_core,
                    dst_buf, size)
            return record

        # Telemetry: sample both machines' cycle counters around the
        # transfer so the record carries the overlapping stall/busy
        # deltas (pure reads — the simulation is not perturbed).
        src_ctr = self.cluster.machine(src_node).counters
        dst_ctr = self.cluster.machine(dst_node).counters
        pre_src = src_ctr.totals()
        pre_dst = dst_ctr.totals() if dst_ctr is not src_ctr else None
        try:
            if self.injector is None:
                record = yield from self._attempt(
                    src_node, src_core, src_buf, dst_node, dst_core,
                    dst_buf, size)
            else:
                record = yield from self._reliable_transfer(
                    src_node, src_core, src_buf, dst_node, dst_core,
                    dst_buf, size)
        except TransportError as err:
            logger.info("transport error %d->%d: %s", src_node, dst_node,
                        err)
            tele.on_transport_error(self.cluster, src_node, dst_node,
                                    str(err))
            raise
        post_src = src_ctr.totals()
        record.mem_stall_overlap = post_src.mem_stall - pre_src.mem_stall
        record.busy_overlap = post_src.busy - pre_src.busy
        if pre_dst is not None:
            post_dst = dst_ctr.totals()
            record.mem_stall_overlap += post_dst.mem_stall - pre_dst.mem_stall
            record.busy_overlap += post_dst.busy - pre_dst.busy
        tele.on_transfer(self.cluster, src_node, dst_node, record,
                         app=self.app)
        return record

    # ------------------------------------------------------------------
    def _wire_latency(self, src_node: int, dst_node: int,
                      base: float) -> float:
        """Wire latency with any degraded-link multiplier applied."""
        if self.injector is None:
            return base
        return base * self.injector.link_latency_factor(src_node, dst_node)

    def _attempt(
        self,
        src_node: int,
        src_core: int,
        src_buf: Buffer,
        dst_node: int,
        dst_core: int,
        dst_buf: Buffer,
        size: Optional[int] = None,
    ) -> Generator:
        """One unreliable delivery attempt (the pre-fault transfer path)."""
        src_m = self.cluster.machine(src_node)
        dst_m = self.cluster.machine(dst_node)
        if size is None:
            size = src_buf.size
        if size < 0:
            raise ValueError("negative message size")
        spec = src_m.spec.nic
        rng = src_m.rng.stream("net")
        noise = src_m.spec.noise
        comps: Dict[str, float] = {}
        start = self.sim.now

        # --- sender side ------------------------------------------------
        f_src = src_m.freq.core_hz(src_core)
        o_send = noisy(
            (spec.o_send_cycles + self.extra_cycles_send) / f_src,
            noise, rng) + self.extra_delay_send
        comps["o_send"] = o_send
        yield o_send

        g_src = self._doorbell(src_m, src_core)
        comps["doorbell_send"] = g_src
        yield g_src

        hop_lat = (src_m.pio_extra_hops(src_core)
                   * src_m.spec.interconnect.hop_latency
                   + dst_m.pio_extra_hops(dst_core)
                   * dst_m.spec.interconnect.hop_latency)

        wire_lat = self._wire_latency(src_node, dst_node, spec.wire_latency)
        # Multi-hop fabrics add a per-switch-traversal latency; exactly
        # 0.0 on the full mesh, keeping the seed arithmetic untouched.
        fabric_lat = self.cluster.topology.extra_latency(src_node, dst_node)
        if fabric_lat:
            wire_lat += fabric_lat

        # --- in flight ----------------------------------------------------
        if size <= spec.eager_threshold:
            comps["protocol"] = 0.0
            wire = wire_lat + hop_lat
            comps["wire"] = wire
            yield wire
            if 0 < size < _EAGER_FLOW_MIN:
                # Tiny messages: the copy rides in store buffers/PIO slots;
                # it neither suffers from nor contributes to memory-bus
                # contention measurably (§4.4: no mutual impact below
                # ~4 KB).  Modelled analytically to keep the event count
                # of 4-byte latency ping-pongs low.
                copy = size / spec.eager_copy_bw
                comps["copy"] = copy
                yield copy
            elif size > 0:
                flow = self._eager_flow(src_m, src_core, src_buf,
                                        dst_m, dst_buf, size)
                t0 = self.sim.now
                yield flow.done
                comps["copy"] = self.sim.now - t0
            protocol = "eager"
        else:
            # RTS/CTS handshake: a small control-message round trip.
            f_dst = dst_m.freq.core_hz(dst_core)
            rtt = spec.rndv_rtt_factor * (
                2 * (wire_lat + hop_lat)
                + (spec.o_send_cycles + spec.o_recv_cycles) / f_src
                + (spec.o_send_cycles + spec.o_recv_cycles) / f_dst
                + self._doorbell(src_m, src_core)
                + self._doorbell(dst_m, dst_core))
            comps["protocol"] = rtt
            yield rtt

            reg = 0.0
            if not self.reg_caches[src_node].lookup(src_buf):
                reg += spec.registration_cost
            if not self.reg_caches[dst_node].lookup(dst_buf):
                reg += dst_m.spec.nic.registration_cost
            comps["registration"] = reg
            if reg:
                yield reg

            comps["wire"] = wire_lat + hop_lat
            yield comps["wire"]

            flow = self._dma_flow(src_m, src_buf, dst_m, dst_buf, size)
            t0 = self.sim.now
            yield flow.done
            comps["dma"] = self.sim.now - t0
            protocol = "rendezvous"

        # --- receiver side -------------------------------------------------
        f_dst = dst_m.freq.core_hz(dst_core)
        o_recv = noisy(
            (dst_m.spec.nic.o_recv_cycles + self.extra_cycles_recv) / f_dst,
            noise, rng) + self.extra_delay_recv
        comps["o_recv"] = o_recv
        yield o_recv
        g_dst = self._doorbell(dst_m, dst_core)
        comps["doorbell_recv"] = g_dst
        yield g_dst

        return TransferRecord(size=size, protocol=protocol,
                              start=start, end=self.sim.now,
                              components=comps)

    # ------------------------------------------------------------------
    def _reliable_transfer(
        self,
        src_node: int,
        src_core: int,
        src_buf: Buffer,
        dst_node: int,
        dst_core: int,
        dst_buf: Buffer,
        size: Optional[int] = None,
    ) -> Generator:
        """Ack + timeout + exponential-backoff retransmit around
        :meth:`_attempt`.

        Loss is decided at sender handoff time from the injector's
        active windows; a lost message costs the sender its software
        overheads plus the armed retransmit timeout.  A lost ack costs
        a full attempt plus the *residual* timeout.  After
        ``max_retries`` retransmissions the transfer raises
        :class:`TransportError` — it never hangs.
        """
        inj = self.injector
        rel: ReliabilityConfig = inj.reliability
        src_m = self.cluster.machine(src_node)
        if size is None:
            size = src_buf.size
        start = self.sim.now
        retries = 0
        timeouts = 0
        waited = 0.0
        while True:
            if not inj.node_alive(src_node):
                raise TransportError("source node failed", src=src_node,
                                     dst=dst_node, size=size,
                                     retries=retries, timeouts=timeouts)
            if not inj.node_alive(dst_node):
                raise TransportError("destination node failed",
                                     src=src_node, dst=dst_node, size=size,
                                     retries=retries, timeouts=timeouts)
            t_attempt = self.sim.now
            if not inj.draw_loss(src_node, dst_node):
                record = yield from self._attempt(
                    src_node, src_core, src_buf, dst_node, dst_core,
                    dst_buf, size)
                delivered = inj.node_alive(dst_node)
                if delivered:
                    # The piggybacked ack crosses the reverse link; a
                    # lost ack forces a redundant retransmission (the
                    # receiver dedups by sequence number).
                    delivered = not inj.draw_loss(dst_node, src_node)
                if delivered:
                    record.start = start
                    record.retries = retries
                    record.timeouts = timeouts
                    if waited > 0.0:
                        record.components["retransmit_wait"] = waited
                    return record
            else:
                # Dropped in flight: the sender still pays its software
                # overheads and doorbell before the timer arms.
                yield from self._send_side_cost(src_m, src_core)
            timeouts += 1
            logger.debug("timeout #%d on %d->%d (%dB), retry %d",
                         timeouts, src_node, dst_node, size, retries + 1)
            tele = active_telemetry()
            if tele is not None:
                tele.on_retransmit(self.cluster, src_node, dst_node, size,
                                   "timeout", timeouts)
            if retries >= rel.max_retries:
                raise TransportError(
                    "retries exhausted", src=src_node, dst=dst_node,
                    size=size, retries=retries, timeouts=timeouts)
            retries += 1
            rto = rel.retransmit_timeout(timeouts)
            wait = max(0.0, rto - (self.sim.now - t_attempt))
            if wait > 0.0:
                yield wait
            waited += wait

    def _send_side_cost(self, src_m: Machine, src_core: int) -> Generator:
        """Sender-side overheads of an attempt that dies on the wire."""
        spec = src_m.spec.nic
        rng = src_m.rng.stream("net")
        f_src = src_m.freq.core_hz(src_core)
        o_send = noisy(
            (spec.o_send_cycles + self.extra_cycles_send) / f_src,
            src_m.spec.noise, rng) + self.extra_delay_send
        yield o_send
        yield self._doorbell(src_m, src_core)

    # ------------------------------------------------------------------
    @staticmethod
    def _doorbell(machine: Machine, core: int) -> float:
        spec = machine.spec.nic
        socket = machine.cores[core].socket_id
        uncore_hz = machine.freq.uncore_hz(socket)
        return spec.pio_uncore_cycles / uncore_hz + machine.pio_delay(core)

    def _eager_flow(self, src_m: Machine, src_core: int, src_buf: Buffer,
                    dst_m: Machine, dst_buf: Buffer, size: int) -> Flow:
        """CPU-copy pipeline through src memory, the wire, dst memory."""
        # The local load path may already contain the destination
        # controller on loopback-style setups; Flow.__init__ dedupes the
        # path order-preservingly.
        path = (src_m.load_path(src_core, src_buf.numa_id)
                + [src_m.pcie]
                + self.cluster.route(src_m.node_id, dst_m.node_id)
                + [dst_m.pcie,
                   dst_m.numa_nodes[dst_buf.numa_id].controller])
        return self.net.transfer(
            path, size=size, demand=src_m.spec.nic.eager_copy_bw,
            label=f"eager:{src_m.node_id}->{dst_m.node_id}")

    def _dma_flow(self, src_m: Machine, src_buf: Buffer,
                  dst_m: Machine, dst_buf: Buffer, size: int) -> Flow:
        """Zero-copy rendezvous DMA through both memory systems."""
        spec = src_m.spec.nic
        src_path = src_m.dma_path(src_buf.numa_id)
        dst_path = list(reversed(dst_m.dma_path(dst_buf.numa_id)))
        path = (src_path
                + self.cluster.route(src_m.node_id, dst_m.node_id)
                + dst_path)
        usage = {
            src_m.numa_nodes[src_buf.numa_id].controller: spec.dma_usage,
            dst_m.numa_nodes[dst_buf.numa_id].controller:
                dst_m.spec.nic.dma_usage,
        }
        demand = min(dma_demand(src_m, src_buf.numa_id),
                     dma_demand(dst_m, dst_buf.numa_id))
        if spec.onload_copy:
            # Omni-Path style onloaded transfer: the copy is CPU-driven
            # and cannot exceed a few GB/s per comm thread.
            demand = min(demand, 4.0 * spec.eager_copy_bw)
        return self.net.transfer(
            path, size=size, demand=demand, weight=spec.dma_weight,
            usage=usage,
            label=f"dma:{src_m.node_id}->{dst_m.node_id}")
