"""Pluggable fabric topologies: construction, routing, addressing.

Covers the topology layer itself (fullmesh equivalence with the seed,
dragonfly routing, resource scaling, shape-value checks) plus the
Cluster integration points (descriptive pair validation, link lookup).
"""

import pytest

from repro.hardware.fabric import (TOPOLOGIES, Dragonfly, FullMesh,
                                   make_topology)
from repro.hardware.topology import Cluster

BW = 12.5e9


# -- pair validation (descriptive errors, not bare KeyError) --------------

def test_wire_self_route_raises_descriptive_error():
    cluster = Cluster("henri", n_nodes=4)
    with pytest.raises(ValueError, match="to itself"):
        cluster.wire(2, 2)
    with pytest.raises(ValueError, match="to itself"):
        cluster.route(0, 0)


def test_wire_out_of_range_names_valid_ids():
    cluster = Cluster("henri", n_nodes=4)
    with pytest.raises(ValueError, match=r"valid ids: 0\.\.3"):
        cluster.wire(0, 4)
    with pytest.raises(ValueError, match="src node id -1"):
        cluster.route(-1, 2)
    with pytest.raises(ValueError, match="must be an int"):
        cluster.wire(0, "1")


def test_every_topology_validates_pairs():
    assert sorted(TOPOLOGIES) == ["dragonfly", "fullmesh"]
    for topo in (FullMesh(), Dragonfly(group_size=4)):
        topo.build(8, BW)
        with pytest.raises(ValueError, match="to itself"):
            topo.route(3, 3)
        with pytest.raises(ValueError, match="outside this 8-node"):
            topo.wire(0, 8)


# -- full mesh: the seed fabric, byte-compatible --------------------------

def test_fullmesh_matches_seed_wiring():
    cluster = Cluster("henri", n_nodes=3)
    assert isinstance(cluster.topology, FullMesh)
    wire = cluster.wire(0, 1)
    assert wire.name == "wire0->1"
    assert cluster.route(0, 1) == [wire]
    assert cluster.wire(1, 0) is not wire          # full duplex
    # No extra latency: the seed's event arithmetic is untouched.
    assert cluster.topology.extra_latency(0, 2) == 0.0
    # n*(n-1) directed wires, lane order a-major.
    labels = [label for label, _ in cluster.topology.links()]
    assert labels[:3] == ["wire0->1", "wire0->2", "wire1->0"]
    assert len(labels) == 6


# -- dragonfly ------------------------------------------------------------

def test_dragonfly_minimal_routing():
    topo = Dragonfly(group_size=4).build(8, BW)
    # Same router: injection + ejection only (no local hop).
    intra = [r.name for r in topo.route(0, 1)]
    assert intra == ["df.h0.up", "df.g0.r0->r1", "df.h1.down"]
    # Cross-group: the gateway for group 1 inside group 0 is router
    # 1 % 4 = 1, so node 0 takes a local hop first.
    cross = [r.name for r in topo.route(0, 6)]
    assert cross == ["df.h0.up", "df.g0.r0->r1", "df.g0->g1",
                     "df.g1.r0->r2", "df.h6.down"]
    assert topo.switch_hops(0, 6) == 4


def test_dragonfly_cross_group_pairs_share_global_link():
    """The deterministic gateway makes collisions provable — the
    property fig_xapp's aggressor placement depends on."""
    topo = Dragonfly(group_size=4).build(8, BW)
    glob = topo.find_link("df.g0->g1")
    for src, dst in ((0, 4), (1, 5), (2, 6), (3, 7)):
        assert glob in topo.route(src, dst)
        assert glob not in topo.route(dst, src)   # reverse uses g1->g0


def test_dragonfly_rejects_ragged_group():
    with pytest.raises(ValueError, match="divisible by group_size"):
        Dragonfly(group_size=8).build(12, BW)


def test_dragonfly_64_nodes_subquadratic_resources():
    """Real fabrics must not build O(n^2) wires eagerly."""
    topo = Dragonfly(group_size=8).build(64, BW)
    # 2 host links per node + all-to-all routers inside each of the 8
    # groups + all-to-all global links between the groups.
    assert topo.n_links() == 2 * 64 + 8 * 8 * 7 + 8 * 7 == 632
    mesh = FullMesh().build(64, BW)
    assert mesh.n_links() == 64 * 63 == 4032


@pytest.mark.parametrize("params,bad", [
    (dict(group_size="4"), "group_size"),
    (dict(group_size=0), "group_size"),
    (dict(group_size=True), "group_size"),
    (dict(local_bw="fast"), "local_bw"),
    (dict(global_bw=-1.0), "global_bw")])
def test_dragonfly_rejects_bad_shape_values(params, bad):
    with pytest.raises(ValueError, match=f"{bad} must be .*got"):
        Dragonfly(**params)


# -- factory, addressing, lifecycle ---------------------------------------

def test_make_topology_rejects_unknown_kind_and_params():
    with pytest.raises(ValueError, match="unknown topology"):
        make_topology("hypercube")
    with pytest.raises(ValueError, match="accepted:"):
        make_topology("dragonfly", group_sz=4)
    with pytest.raises(ValueError, match="accepted: none"):
        make_topology("fullmesh", switch_bw=5e9)
    for kind in ("fattree", "torus"):
        with pytest.raises(ValueError,
                           match="valid kinds: dragonfly, fullmesh"):
            make_topology(kind)
    # A wrong value is the constructor's error, not an unknown name.
    with pytest.raises(ValueError, match=r"group_size must be .*'4'"):
        make_topology("dragonfly", group_size="4")
    assert isinstance(make_topology("dragonfly", group_size=2), Dragonfly)


def test_find_link_unknown_label_names_samples():
    cluster = Cluster("henri", n_nodes=8, topology="dragonfly")
    with pytest.raises(ValueError, match="df.h0.up"):
        cluster.find_link("df.g9->g9")


def test_topology_is_single_use():
    topo = Dragonfly(group_size=4)
    Cluster("henri", n_nodes=8, topology=topo)
    with pytest.raises(RuntimeError, match="single-use"):
        Cluster("henri", n_nodes=8, topology=topo)
    with pytest.raises(ValueError, match="topology"):
        Cluster("henri", n_nodes=2, topology=object())


def test_cluster_topology_by_name_with_params():
    cluster = Cluster("henri", n_nodes=8,
                      topology=make_topology("dragonfly", group_size=4))
    assert cluster.topology.describe().startswith("dragonfly(8 hosts")
    by_name = Cluster("henri", n_nodes=16, topology="dragonfly")
    assert by_name.topology.group_size == 8
    assert by_name.topology.describe() == "dragonfly(16 hosts, 2 groups x 8)"
