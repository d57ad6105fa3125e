"""Composable cluster fabrics: topology-owned links and routing.

The seed model wired every node pair directly (one full-duplex
:class:`~repro.sim.fluid.Resource` per directed pair).  That is the
2-node case of the paper; at rack scale the *fabric* itself becomes the
contended resource — "Modeling and Analysis of Application Interference
on Dragonfly+" shows cross-application slowdown is dominated by shared
global links, not NICs.

A :class:`Topology` owns the fabric's resources and the routing function
``route(src, dst) -> [Resource, ...]``.  Transfers simply join the flow
network on every resource of their route, so link contention falls
out of the same fluid max-min solver (and its dirty-component
incrementality) that already models memory controllers and wires.

Concrete topologies:

``fullmesh``
    The seed behavior, bit-identical: one directed wire per pair.
``dragonfly``
    One-level dragonfly: all-to-all router groups joined by all-to-all
    global links, minimal routing (local hop → global hop → local hop).

The dragonfly is O(n·k) in resources, not O(n²) — the full mesh keeps
its eager pair construction purely for byte-compatibility with the seed.
"""

from __future__ import annotations

import inspect
from typing import Dict, List, Optional, Tuple

from repro.sim.fluid import Resource

__all__ = [
    "Topology", "FullMesh", "Dragonfly", "TOPOLOGIES", "make_topology",
]


def _is_a(value: object, kinds) -> bool:
    """``isinstance`` that refuses bools, which subclass ``int``."""
    return isinstance(value, kinds) and not isinstance(value, bool)


class Topology:
    """Owns a fabric's resources and its routing function.

    Lifecycle: construct with shape parameters, then :meth:`build` once
    with the node count and default wire bandwidth (done by
    ``Cluster.__init__``).  After that :meth:`route`, :meth:`wire`,
    :meth:`links` and :meth:`find_link` are live.
    """

    kind = "topology"

    def __init__(self) -> None:
        self.n_nodes = 0
        self.wire_bw = 0.0
        self._built = False
        # label -> Resource, insertion order == lane order.
        self._links: Dict[str, Resource] = {}

    # -- construction ---------------------------------------------------
    def build(self, n_nodes: int, wire_bw: float) -> "Topology":
        if self._built:
            raise RuntimeError(
                f"{self.kind} topology is already built for "
                f"{self.n_nodes} nodes; topologies are single-use")
        if n_nodes < 1:
            raise ValueError("cluster needs at least one node")
        if wire_bw <= 0:
            raise ValueError("wire_bw must be > 0")
        self.n_nodes = n_nodes
        self.wire_bw = float(wire_bw)
        self._build()
        self._built = True
        return self

    def _build(self) -> None:
        raise NotImplementedError

    def _link(self, label: str, capacity: float) -> Resource:
        res = Resource(label, capacity)
        self._links[label] = res
        return res

    # -- routing --------------------------------------------------------
    def check_pair(self, src: int, dst: int) -> None:
        """Validate a (src, dst) node pair with a descriptive error."""
        last = self.n_nodes - 1
        for name, node in (("src", src), ("dst", dst)):
            if not _is_a(node, int):
                raise ValueError(
                    f"{name} node id must be an int, got {node!r}")
            if not 0 <= node <= last:
                raise ValueError(
                    f"{name} node id {node} is outside this "
                    f"{self.n_nodes}-node cluster (valid ids: 0..{last})")
        if src == dst:
            raise ValueError(
                f"no fabric route from node {src} to itself: src and dst "
                f"must differ (valid ids: 0..{last})")

    def route(self, src: int, dst: int) -> List[Resource]:
        """Fabric resources a src->dst transfer crosses, in hop order."""
        self.check_pair(src, dst)
        return self._route(src, dst)

    def _route(self, src: int, dst: int) -> List[Resource]:
        raise NotImplementedError

    def wire(self, src: int, dst: int) -> Resource:
        """The injection link of the src->dst route (first fabric hop)."""
        self.check_pair(src, dst)
        return self._route(src, dst)[0]

    def switch_hops(self, src: int, dst: int) -> int:
        """Number of switching elements a src->dst route crosses (the
        full-mesh wire latency already accounts for one)."""
        return 1

    def extra_latency(self, src: int, dst: int) -> float:
        """Additional one-way latency beyond the base wire latency.

        Each switch crossing past the first costs :attr:`hop_latency`
        seconds.  Exactly ``0.0`` on the full mesh so the seed's event
        arithmetic is untouched.
        """
        hops = self.switch_hops(src, dst) - 1
        if hops <= 0:
            return 0.0
        return hops * self.hop_latency

    #: Per-extra-switch-hop latency (seconds); ~a switch ASIC traversal.
    hop_latency = 150e-9

    # -- link addressing ------------------------------------------------
    def links(self) -> List[Tuple[str, Resource]]:
        """All fabric links as ``(label, resource)``, stable order.

        This is the telemetry lane catalog and the namespace for
        link-targeted fault injection (``link=<label>``).
        """
        return list(self._links.items())

    def find_link(self, label: str) -> Resource:
        res = self._links.get(label)
        if res is None:
            sample = ", ".join(list(self._links)[:6])
            raise ValueError(
                f"unknown fabric link {label!r} on this {self.kind} "
                f"topology ({len(self._links)} links, e.g. {sample})")
        return res

    def n_links(self) -> int:
        return len(self._links)

    def describe(self) -> str:
        return f"{self.kind}({self.n_nodes} nodes, {self.n_links()} links)"


class FullMesh(Topology):
    """The seed fabric: one directed wire per node pair."""

    kind = "fullmesh"

    def __init__(self) -> None:
        super().__init__()
        self._wires: Dict[Tuple[int, int], Resource] = {}

    def _build(self) -> None:
        # Same construction order and names as the seed: a-major, then b.
        for a in range(self.n_nodes):
            for b in range(self.n_nodes):
                if a != b:
                    self._wires[(a, b)] = self._link(
                        f"wire{a}->{b}", self.wire_bw)

    def _route(self, src: int, dst: int) -> List[Resource]:
        return [self._wires[(src, dst)]]

    def extra_latency(self, src: int, dst: int) -> float:
        return 0.0


class Dragonfly(Topology):
    """One-level dragonfly: all-to-all groups of all-to-all routers.

    One host per router (``group_size`` routers per group); every group
    pair is joined by one full-duplex global link per direction.  Minimal
    routing: up into the source router, a local hop to the router that
    owns the global link, the global hop, a local hop to the destination
    router, down.  The gateway router for group ``gd`` inside group
    ``gs`` is router ``gd % group_size`` — deterministic, so aggressor
    placements can provably share a victim's global link.

    Labels: ``df.h{h}.up/.down`` (host injection), ``df.g{g}.r{a}->r{b}``
    (local), ``df.g{ga}->g{gb}`` (global).
    """

    kind = "dragonfly"

    def __init__(self, group_size: int = 8,
                 local_bw: Optional[float] = None,
                 global_bw: Optional[float] = None):
        super().__init__()
        if not _is_a(group_size, int) or group_size < 1:
            raise ValueError(
                f"group_size must be an int >= 1, got {group_size!r}")
        for name, bw in (("local_bw", local_bw), ("global_bw", global_bw)):
            if bw is not None and not (_is_a(bw, (int, float)) and bw > 0):
                raise ValueError(
                    f"{name} must be a number > 0, got {bw!r}")
        self.group_size = group_size
        self.local_bw = local_bw
        self.global_bw = global_bw
        self.n_groups = 0
        self._up: List[Resource] = []
        self._down: List[Resource] = []
        self._local: Dict[Tuple[int, int, int], Resource] = {}
        self._global: Dict[Tuple[int, int], Resource] = {}

    def _build(self) -> None:
        if self.n_nodes % self.group_size:
            raise ValueError(
                f"dragonfly needs n_nodes divisible by group_size "
                f"({self.group_size}); got {self.n_nodes} nodes")
        self.n_groups = self.n_nodes // self.group_size
        for h in range(self.n_nodes):
            self._up.append(self._link(f"df.h{h}.up", self.wire_bw))
            self._down.append(self._link(f"df.h{h}.down", self.wire_bw))
        lbw = self.local_bw if self.local_bw is not None else self.wire_bw
        for g in range(self.n_groups):
            for a in range(self.group_size):
                for b in range(self.group_size):
                    if a != b:
                        self._local[(g, a, b)] = self._link(
                            f"df.g{g}.r{a}->r{b}", lbw)
        gbw = self.global_bw if self.global_bw is not None else self.wire_bw
        for ga in range(self.n_groups):
            for gb in range(self.n_groups):
                if ga != gb:
                    self._global[(ga, gb)] = self._link(
                        f"df.g{ga}->g{gb}", gbw)

    def router_of(self, host: int) -> Tuple[int, int]:
        return host // self.group_size, host % self.group_size

    def gateway(self, group: int, remote_group: int) -> int:
        """Router inside *group* that owns the global link to
        *remote_group*."""
        return remote_group % self.group_size

    def _route(self, src: int, dst: int) -> List[Resource]:
        gs, rs = self.router_of(src)
        gd, rd = self.router_of(dst)
        path = [self._up[src]]
        if gs == gd:
            if rs != rd:
                path.append(self._local[(gs, rs, rd)])
        else:
            gw_out = self.gateway(gs, gd)
            gw_in = self.gateway(gd, gs)
            if rs != gw_out:
                path.append(self._local[(gs, rs, gw_out)])
            path.append(self._global[(gs, gd)])
            if gw_in != rd:
                path.append(self._local[(gd, gw_in, rd)])
        path.append(self._down[dst])
        return path

    def switch_hops(self, src: int, dst: int) -> int:
        gs, rs = self.router_of(src)
        gd, rd = self.router_of(dst)
        if gs == gd:
            return 1 if rs == rd else 2
        hops = 2  # src router + dst router
        if rs != self.gateway(gs, gd):
            hops += 1
        if rd != self.gateway(gd, gs):
            hops += 1
        return hops

    def describe(self) -> str:
        return (f"dragonfly({self.n_nodes} hosts, {self.n_groups} groups "
                f"x {self.group_size})")


TOPOLOGIES: Dict[str, type] = {
    "fullmesh": FullMesh,
    "dragonfly": Dragonfly,
}


def make_topology(kind: str, **params) -> Topology:
    """Instantiate (unbuilt) a topology by name with shape parameters.

    Raises a descriptive :class:`ValueError` for an unknown kind, an
    unknown parameter name, or a shape value the constructor rejects
    (the scenario layer surfaces these verbatim).
    """
    cls = TOPOLOGIES.get(kind)
    if cls is None:
        raise ValueError(
            f"unknown topology {kind!r}; valid kinds: "
            f"{', '.join(sorted(TOPOLOGIES))}")
    valid = [p for p in inspect.signature(cls.__init__).parameters
             if p != "self"]
    bad = sorted(set(params) - set(valid))
    if bad:
        raise ValueError(
            f"invalid parameter(s) {bad} for topology {kind!r}; "
            f"accepted: {', '.join(valid) or 'none'}")
    return cls(**params)

