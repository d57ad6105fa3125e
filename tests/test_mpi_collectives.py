"""Tests for the collective operations (extension beyond the paper)."""

import math

import pytest

from repro.core.record import PAPER_VALUES
from repro.hardware import Cluster, HENRI
from repro.mpi import CommWorld
from repro.mpi.collectives import (
    RING_ALLREDUCE_THRESHOLD, CollectiveContext,
)


def make_ctx(n_nodes=4):
    world = CommWorld(Cluster(HENRI, n_nodes), comm_placement="near")
    return CollectiveContext(world)


def test_requires_two_ranks():
    world = CommWorld(Cluster(HENRI, 1))
    with pytest.raises(ValueError):
        CollectiveContext(world)


@pytest.mark.parametrize("n_nodes", [2, 3, 4, 8])
def test_bcast_completes_and_scales_logarithmically(n_nodes):
    ctx = make_ctx(n_nodes)
    rec = ctx.run("bcast", root=0, size=4)
    assert rec.op == "bcast"
    assert rec.n_ranks == n_nodes
    assert rec.messages == n_nodes - 1
    # Binomial tree: duration ~ ceil(log2 p) x per-message latency.
    rounds = math.ceil(math.log2(n_nodes))
    per_msg = PAPER_VALUES["fig1a-high-core-latency"]
    assert rec.duration < rounds * per_msg * 2.0
    assert rec.duration > rounds * per_msg * 0.5


def test_bcast_nonzero_root():
    ctx = make_ctx(4)
    rec = ctx.run("bcast", root=2, size=64)
    assert rec.messages == 3


def test_reduce_completes():
    ctx = make_ctx(4)
    rec = ctx.run("reduce", root=0, size=1024)
    assert rec.op == "reduce"
    assert rec.messages == 3
    assert rec.duration > 0


def test_allreduce_small_uses_tree():
    ctx = make_ctx(4)
    rec = ctx.run("allreduce", size=1024)
    assert rec.algorithm == "tree"
    assert rec.messages == 2 * 3


def test_allreduce_large_uses_ring():
    ctx = make_ctx(4)
    rec = ctx.run("allreduce", size=RING_ALLREDUCE_THRESHOLD * 16)
    assert rec.algorithm == "ring"
    assert rec.messages == 2 * (4 - 1) * 4


def test_ring_beats_tree_for_large_payloads():
    size = 16 << 20
    ctx_ring = make_ctx(4)
    ring = ctx_ring.run("allreduce", size=size)

    # Force the tree path by using reduce+bcast explicitly.
    ctx_tree = make_ctx(4)

    def tree():
        red = yield from ctx_tree.reduce(root=0, size=size)
        bc = yield from ctx_tree.bcast(root=0, size=size)
        return red.duration + bc.duration

    proc = ctx_tree.world.sim.process(tree())
    ctx_tree.world.sim.run()
    assert ring.duration < proc.value


def test_barrier():
    ctx = make_ctx(4)
    rec = ctx.run("barrier")
    assert rec.op == "barrier"
    assert rec.size == 0
    assert rec.duration < 50e-6


def test_bcast_two_ranks_single_message():
    ctx = make_ctx(2)
    rec = ctx.run("bcast", root=0, size=4)
    assert rec.messages == 1


def test_collectives_slow_under_memory_contention():
    """Extension result: collectives inherit §4's interference."""
    size = 4 << 20
    quiet = make_ctx(2).run("allreduce", size=size)

    world = CommWorld(Cluster(HENRI, 2), comm_placement="near")
    ctx = CollectiveContext(world)
    from repro.kernels import run_kernel, triad_kernel
    runs = []
    for machine in world.cluster.machines:
        for core in range(8):
            runs.append(run_kernel(machine, core, triad_kernel(),
                                   data_numa=0, sweeps=None))
    noisy_rec = ctx.run("allreduce", size=size)
    for r in runs:
        r.request_stop()
    world.sim.run()
    assert noisy_rec.duration > 1.3 * quiet.duration
