"""Tests for tasks, data handles and access modes."""

from repro.hardware import Cluster, HENRI, allocate
from repro.kernels.blas import TileCost
from repro.runtime import AccessMode, DataHandle, Task


def make_task(name, accesses, rank=0):
    return Task(name=name, cost=TileCost("noop", 1.0, 0.0),
                accesses=accesses, rank=rank)


def test_access_mode_semantics():
    assert AccessMode.R.reads and not AccessMode.R.writes
    assert AccessMode.W.writes and not AccessMode.W.reads
    assert AccessMode.RW.reads and AccessMode.RW.writes


def test_data_numa_picks_dominant_handle():
    machine = Cluster(HENRI, 1).machine(0)
    small = DataHandle(buffer=allocate(machine, 1, 10))
    big = DataHandle(buffer=allocate(machine, 3, 1000))
    t = make_task("t", [(small, AccessMode.R), (big, AccessMode.R)])
    assert t.data_numa() == 3
    empty = make_task("e", [])
    assert empty.data_numa() is None
