"""Machine and cluster topology built on the fluid model.

A :class:`Machine` instantiates, from a
:class:`~repro.hardware.presets.MachineSpec`:

* ``Core`` / ``NUMANode`` / ``Socket`` objects (hwloc-like numbering:
  cores are numbered NUMA node by NUMA node, matching the paper's
  "logical core order" thread binding);
* one fluid :class:`~repro.sim.fluid.Resource` per memory controller,
  one per intra-socket mesh, one per inter-socket link pair, and one for
  the NIC's PCIe attachment;
* a :class:`~repro.hardware.frequency.FrequencyModel` and a
  :class:`~repro.hardware.counters.CycleCounters` bank.

It also computes the resource paths crossed by the three traffic classes
of the paper:

* **core loads/stores** (:meth:`Machine.load_path`) — computation memory
  traffic from a core to a NUMA node's DRAM;
* **NIC DMA** (:meth:`Machine.dma_path`) — rendezvous transfers between
  DRAM and the NIC;
* **PIO** (:meth:`Machine.pio_route`) — small-message doorbell/copy
  operations from the communication core to the NIC, which do not carry
  bulk bandwidth but *suffer* congestion on the resources they cross.

A :class:`Cluster` wires several machines with full-duplex network links.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.hardware import fabric
from repro.hardware.counters import CycleCounters
from repro.hardware.frequency import CoreActivity, FrequencyModel
from repro.hardware.presets import MachineSpec, get_preset
from repro.obs import context as _obs_context
from repro.sim import FluidNetwork, RandomStreams, Resource, Simulator

__all__ = ["Core", "NUMANode", "Socket", "Machine", "Cluster"]


@dataclass
class Core:
    """One CPU core."""

    id: int                 # global id on the machine (hwloc logical order)
    numa_id: int
    socket_id: int
    machine: "Machine" = field(repr=False)

    @property
    def hz(self) -> float:
        return self.machine.freq.core_hz(self.id)


@dataclass
class NUMANode:
    """One NUMA node: a set of cores plus a memory controller."""

    id: int
    socket_id: int
    cores: List[Core] = field(default_factory=list, repr=False)
    controller: Resource = field(default=None, repr=False)
    capacity_bytes: float = 0.0


@dataclass
class Socket:
    """One CPU package (its NUMA nodes share the on-die mesh)."""

    id: int
    numa_nodes: List[NUMANode] = field(default_factory=list, repr=False)
    mesh: Resource = field(default=None, repr=False)

    @property
    def cores(self) -> List[Core]:
        return [c for n in self.numa_nodes for c in n.cores]


class Machine:
    """A simulated compute node."""

    def __init__(self, sim: Simulator, net: FluidNetwork, spec: MachineSpec,
                 node_id: int = 0, rng: Optional[RandomStreams] = None):
        self.sim = sim
        self.net = net
        self.spec = spec
        self.node_id = node_id
        self.rng = rng if rng is not None else RandomStreams(node_id)

        self.sockets: List[Socket] = []
        self.numa_nodes: List[NUMANode] = []
        self.cores: List[Core] = []
        self._build_topology()

        self.freq = FrequencyModel(
            spec, {c.id: c.socket_id for c in self.cores})
        self.counters = CycleCounters([c.id for c in self.cores])

        # PCIe attachment of the NIC.
        self.pcie = Resource(f"n{node_id}.pcie", spec.nic.pcie_bw)
        self.nic_numa = self.numa_nodes[spec.nic_numa]
        # Base (max-uncore) controller capacities, for uncore rescaling.
        self._mc_base_cap = {n.id: n.controller.capacity
                             for n in self.numa_nodes}
        # Last-applied per-socket capacity factors: factors are pure
        # functions of the frequency model, so when none moved the
        # rescale loop below is a guaranteed no-op and is skipped
        # (nothing else ever writes a controller's capacity).
        self._uncore_sockets = tuple(sorted(
            {n.socket_id for n in self.numa_nodes}))
        self._uncore_factors_seen: tuple = ()
        # Per-core streaming weight in [0, 1] (maintained by running
        # kernels); drives the PIO co-location penalty.  The weight is
        # the core's memory demand relative to its fair share of the
        # controller, so CPU-bound kernels contribute ~0 and saturating
        # streams contribute 1.
        self._streaming: Dict[int, float] = {}
        # pio_delay per core: a pure function of ``_streaming`` and the
        # spec, so set_streaming (its only mutator) clears it.
        self._pio_delay_memo: Dict[int, float] = {}

    # -- construction ---------------------------------------------------------
    def _build_topology(self) -> None:
        spec = self.spec
        core_id = 0
        numa_id = 0
        self._links: Dict[Tuple[int, int], Resource] = {}
        for s in range(spec.sockets):
            socket = Socket(id=s)
            socket.mesh = Resource(
                f"n{self.node_id}.s{s}.mesh", spec.interconnect.intra_socket_bw)
            for _ in range(spec.numa_per_socket):
                node = NUMANode(id=numa_id, socket_id=s)
                node.controller = Resource(
                    f"n{self.node_id}.numa{numa_id}.mc",
                    spec.memory.controller_bw)
                node.capacity_bytes = spec.memory.numa_capacity
                for _ in range(spec.cores_per_numa):
                    core = Core(id=core_id, numa_id=numa_id, socket_id=s,
                                machine=self)
                    node.cores.append(core)
                    self.cores.append(core)
                    core_id += 1
                socket.numa_nodes.append(node)
                self.numa_nodes.append(node)
                numa_id += 1
            self.sockets.append(socket)
        # Inter-socket links are full duplex: one resource per direction
        # (UPI/xGMI have independent lanes each way).
        for a in range(spec.sockets):
            for b in range(spec.sockets):
                if a != b:
                    self._links[(a, b)] = Resource(
                        f"n{self.node_id}.link{a}->{b}",
                        spec.interconnect.socket_link_bw)

    # -- lookups ---------------------------------------------------------
    def core(self, core_id: int) -> Core:
        return self.cores[core_id]

    def numa_of_core(self, core_id: int) -> NUMANode:
        return self.numa_nodes[self.cores[core_id].numa_id]

    def socket_link(self, src: int, dst: int) -> Resource:
        """Directed inter-socket link carrying traffic src -> dst."""
        if src == dst:
            raise ValueError("no link within a socket")
        return self._links[(src, dst)]

    def last_core_of_numa(self, numa_id: int) -> Core:
        return self.numa_nodes[numa_id].cores[-1]

    def far_numa_from_nic(self) -> NUMANode:
        """A NUMA node on the socket opposite to the NIC (the paper's
        'far from the NIC' placement)."""
        nic_socket = self.nic_numa.socket_id
        for node in reversed(self.numa_nodes):
            if node.socket_id != nic_socket:
                return node
        return self.numa_nodes[-1]  # single-socket fallback

    # -- paths ----------------------------------------------------------
    def load_path(self, core_id: int, data_numa: int) -> List[Resource]:
        """Resources crossed by core loads/stores to *data_numa* DRAM."""
        core = self.cores[core_id]
        data = self.numa_nodes[data_numa]
        path: List[Resource] = []
        if core.socket_id != data.socket_id:
            # Streaming is read-dominated: the payload flows data -> core.
            path.append(self.socket_link(data.socket_id, core.socket_id))
        elif core.numa_id != data.id:
            path.append(self.sockets[core.socket_id].mesh)
        path.append(data.controller)
        return path

    def dma_path(self, data_numa: int) -> List[Resource]:
        """Resources crossed by NIC DMA between *data_numa* DRAM and the
        wire (excluding the wire itself, which belongs to the cluster)."""
        data = self.numa_nodes[data_numa]
        path: List[Resource] = [data.controller]
        nic_socket = self.nic_numa.socket_id
        if data.socket_id != nic_socket:
            path.append(self.socket_link(data.socket_id, nic_socket))
        elif data.id != self.nic_numa.id:
            path.append(self.sockets[nic_socket].mesh)
        path.append(self.pcie)
        return path

    def socket_of_numa(self, numa_id: int) -> int:
        return self.numa_nodes[numa_id].socket_id

    def pio_route(self, core_id: int) -> List[Tuple[Resource, str]]:
        """(resource, kind) pairs whose congestion delays PIO operations
        issued by *core_id* toward the NIC."""
        core = self.cores[core_id]
        route: List[Tuple[Resource, str]] = []
        nic_socket = self.nic_numa.socket_id
        if core.socket_id != nic_socket:
            route.append((self.socket_link(core.socket_id, nic_socket),
                          "link"))
        route.append((self.nic_numa.controller, "mc"))
        return route

    def pio_extra_hops(self, core_id: int) -> int:
        """Number of inter-socket hops a PIO from *core_id* crosses."""
        return int(self.cores[core_id].socket_id != self.nic_numa.socket_id)

    # -- congestion & frequency hooks --------------------------------------
    def streaming_weight(self, demand: float) -> float:
        """Streaming weight of a core demanding *demand* bytes/s: its
        demand relative to a fair share of the controller.  Saturating
        streams weigh 1; CPU-bound kernels weigh ~0 — which is why prime
        counting and in-register AVX loops do not penalise communication
        latency (§3.2/§3.3) while STREAM does (§4)."""
        per_socket = self.spec.numa_per_socket * self.spec.cores_per_numa
        fair = self.spec.memory.controller_bw / per_socket
        if fair <= 0:
            return 0.0
        return min(1.0, max(0.0, demand / fair))

    def set_streaming(self, core_id: int, weight: float | bool) -> None:
        """Set *core_id*'s streaming weight (True == 1.0, False == 0)."""
        weight = float(weight)
        if weight <= 0:
            self._streaming.pop(core_id, None)
        else:
            self._streaming[core_id] = min(1.0, weight)
        self._pio_delay_memo.clear()

    def streaming_cores_on_socket(self, socket_id: int) -> float:
        """Sum of streaming weights of the socket's cores."""
        return sum(w for c, w in self._streaming.items()
                   if self.cores[c].socket_id == socket_id)

    def pio_delay(self, core_id: int) -> float:
        """Instantaneous congestion penalty (s) for one PIO crossing.

        Driven by memory-streaming cores co-located on *core_id*'s socket
        (ring/uncore contention), amplified by inter-socket hops; see
        :class:`~repro.hardware.presets.ContentionSpec`.  Memoized per
        core until the next :meth:`set_streaming`.
        """
        delay = self._pio_delay_memo.get(core_id)
        if delay is None:
            delay = self._pio_delay_memo[core_id] = \
                self._compute_pio_delay(core_id)
        return delay

    def _compute_pio_delay(self, core_id: int) -> float:
        """:meth:`pio_delay` computed afresh."""
        socket = self.cores[core_id].socket_id
        streaming = self.streaming_cores_on_socket(socket)
        per_socket = self.spec.numa_per_socket * self.spec.cores_per_numa
        frac = streaming / max(1, per_socket - 1)
        return self.spec.contention.pio_penalty(frac, self.pio_extra_hops(core_id))

    def set_core_activity(self, core_id: int, activity: CoreActivity,
                          uncore_active: Optional[bool] = None) -> None:
        """Update activity and propagate uncore-driven capacity changes."""
        self.freq.set_activity(core_id, activity, uncore_active)
        self._apply_uncore_capacity()
        if _obs_context._ACTIVE is not None:
            _obs_context._ACTIVE.on_freq_change(self, core_id)

    def _apply_uncore_capacity(self) -> None:
        freq = self.freq
        factors = tuple(freq.uncore_capacity_factor(s)
                        for s in self._uncore_sockets)
        if factors == self._uncore_factors_seen:
            return
        self._uncore_factors_seen = factors
        for node in self.numa_nodes:
            factor = freq.uncore_capacity_factor(node.socket_id)
            new_cap = self._mc_base_cap[node.id] * factor
            if abs(new_cap - node.controller.capacity) > 1e-6 * new_cap:
                node.controller.set_capacity(new_cap)

    def set_uncore(self, hz: Optional[float]) -> None:
        """Pin the uncore frequency and rescale controller capacities."""
        self.freq.set_uncore(hz)
        self._apply_uncore_capacity()
        if _obs_context._ACTIVE is not None:
            _obs_context._ACTIVE.on_freq_change(self, 0)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"Machine({self.spec.name!r}, node={self.node_id}, "
                f"{len(self.cores)} cores, {len(self.numa_nodes)} NUMA)")


class Cluster:
    """Several machines joined by a fabric topology.

    By default the fabric is a :class:`~repro.hardware.fabric.FullMesh`
    — independent full-duplex links per node pair (the 2-node case of
    the paper).  Passing ``topology`` (the kind name ``"dragonfly"`` or
    a built-to-order :class:`~repro.hardware.fabric.Topology` instance)
    swaps in a dragonfly, with per-link contention solved by the same
    fluid network (see docs/CLUSTER.md).
    """

    def __init__(self, spec: MachineSpec | str, n_nodes: int = 2,
                 seed: int = 0, topology=None):
        if isinstance(spec, str):
            spec = get_preset(spec)
        if n_nodes < 1:
            raise ValueError("cluster needs at least one node")
        if topology is None:
            topology = fabric.FullMesh()
        elif isinstance(topology, str):
            topology = fabric.make_topology(topology)
        elif not isinstance(topology, fabric.Topology):
            raise ValueError(
                f"topology must be a kind name or a Topology "
                f"instance, got {topology!r}")
        self.spec = spec
        self.sim = Simulator()
        self.net = FluidNetwork(self.sim)
        # Multi-seed trials: a cluster built with the *default* seed
        # inside a trial scope takes the derived trial seed instead, so
        # measurement noise varies across trials without threading a
        # seed through every experiment signature.  An explicit seed
        # always wins; outside a trial scope nothing changes.
        if seed == 0:
            from repro.faults.context import active_trial_seed
            trial_seed = active_trial_seed()
            if trial_seed is not None:
                seed = trial_seed
        self.rng = RandomStreams(seed)
        self.machines: List[Machine] = [
            Machine(self.sim, self.net, spec, node_id=i,
                    rng=self.rng.spawn(f"node{i}"))
            for i in range(n_nodes)
        ]
        # The topology owns every fabric resource and the routing
        # function; the full mesh reproduces the seed's per-pair wires
        # byte-for-byte.
        self.topology = topology.build(n_nodes, spec.nic.wire_bw)
        # Fault injection: arm the ambient fault plan, if one is
        # installed (see repro.faults.context).  Imported lazily so the
        # hardware layer has no hard dependency on the faults package.
        self.fault_injector = None
        from repro.faults.context import active_faults
        installed = active_faults()
        if installed is not None:
            from repro.faults.injector import FaultInjector
            self.fault_injector = FaultInjector(
                self, installed.plan, installed.reliability).arm()
        # Telemetry: register this cluster's nodes/wires as trace lanes
        # with the ambient Telemetry, if one is installed (same lazy
        # pattern as the fault binding above).
        tele = _obs_context.active_telemetry()
        if tele is not None:
            tele.bind_cluster(self)

    def wire(self, src: int, dst: int) -> Resource:
        """First fabric hop of the src->dst route (the injection link)."""
        return self.topology.wire(src, dst)

    def route(self, src: int, dst: int) -> List[Resource]:
        """All fabric resources a src->dst transfer crosses, hop order."""
        return self.topology.route(src, dst)

    def find_link(self, label: str) -> Resource:
        """Look up a fabric link by label (fault targeting)."""
        return self.topology.find_link(label)

    def machine(self, node_id: int) -> Machine:
        return self.machines[node_id]

    def __len__(self) -> int:
        return len(self.machines)
