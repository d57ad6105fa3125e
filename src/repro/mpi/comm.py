"""Communicator world: ranks bound to machines with a dedicated comm core.

The paper's methodology (§2.1) dedicates one thread — bound to its own
core — to communications on each node.  :class:`CommWorld` captures that
setup: one :class:`Rank` per machine, each with a *communication core*
whose placement (near or far from the NIC) is a first-class experimental
parameter (§4.3).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.hardware.frequency import CoreActivity
from repro.hardware.memory import Buffer, allocate
from repro.hardware.topology import Cluster, Machine
from repro.netmodel.protocols import ProtocolEngine

__all__ = ["Rank", "CommWorld"]


@dataclass
class Rank:
    """One MPI process: a machine plus its communication core."""

    node_id: int
    machine: Machine = field(repr=False)
    comm_core: int = 0

    def buffer(self, size: int, numa_id: Optional[int] = None,
               label: str = "") -> Buffer:
        """Allocate a message buffer (defaults to the NIC's NUMA node)."""
        if numa_id is None:
            numa_id = self.machine.nic_numa.id
        return allocate(self.machine, numa_id, size, label=label)


class CommWorld:
    """All ranks of a simulated MPI job (one rank per cluster node)."""

    def __init__(self, cluster: Cluster,
                 comm_cores: Optional[Dict[int, int]] = None,
                 comm_placement: str = "far",
                 nodes: Optional[Sequence[int]] = None):
        """
        Parameters
        ----------
        cluster:
            The machines to span.
        comm_cores:
            Explicit mapping node->core id for the communication thread.
        comm_placement:
            Used when *comm_cores* is None: ``"far"`` binds the comm
            thread to the last core of a NUMA node on the non-NIC socket
            (the paper's default in §4.2), ``"near"`` to the last core of
            the NIC's NUMA node.
        nodes:
            Rank->node placement: rank *i* lives on ``nodes[i]``.  Omit
            for the seed behavior (one rank per cluster node, in node
            order).  A subset lets several worlds — several
            *applications* — share one cluster (see repro.core.apps).
        """
        if comm_placement not in ("near", "far"):
            raise ValueError("comm_placement must be 'near' or 'far'")
        self.cluster = cluster
        self.engine = ProtocolEngine(cluster)
        if nodes is None:
            machines = list(cluster.machines)
        else:
            nodes = list(nodes)
            if len(set(nodes)) != len(nodes):
                raise ValueError(f"duplicate node ids in placement {nodes}")
            if any(not 0 <= n < len(cluster) for n in nodes):
                raise ValueError(
                    f"placement {nodes} names nodes outside this "
                    f"{len(cluster)}-node cluster "
                    f"(valid ids: 0..{len(cluster) - 1})")
            machines = [cluster.machine(n) for n in nodes]
        self.ranks: List[Rank] = []
        for machine in machines:
            if comm_cores is not None:
                core = comm_cores[machine.node_id]
            elif comm_placement == "near":
                core = machine.last_core_of_numa(machine.nic_numa.id).id
            else:
                core = machine.far_numa_from_nic().cores[-1].id
            rank = Rank(node_id=machine.node_id, machine=machine,
                        comm_core=core)
            self.ranks.append(rank)
            # The comm thread busy-polls: active for turbo purposes but
            # does not ramp the uncore (§3.2).
            machine.set_core_activity(core, CoreActivity.SCALAR,
                                      uncore_active=False)

    @property
    def sim(self):
        return self.cluster.sim

    def rank(self, index: int) -> Rank:
        """Rank by *world index* (== node id for the default placement)."""
        return self.ranks[index]

    @property
    def comm_cores(self) -> Dict[int, int]:
        """Each rank's node id -> its comm-thread core."""
        return {r.node_id: r.comm_core for r in self.ranks}

    @property
    def nodes(self) -> List[int]:
        """The rank->node placement, world order."""
        return [r.node_id for r in self.ranks]

    def __len__(self) -> int:
        return len(self.ranks)
