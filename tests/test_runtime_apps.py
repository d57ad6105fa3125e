"""Tests for the distributed CG and GEMM applications (§6)."""

import pytest

from repro.runtime.apps import run_cg, run_gemm
from repro.runtime.apps.harness import run_two_ranks

# Small problem sizes keep these tests quick; shape assertions only.
CG_KW = dict(n=40_000, iterations=2)
GEMM_KW = dict(n=2048, tile=128)


def test_cg_runs_and_reports():
    res = run_cg(n_workers=4, **CG_KW)
    assert res.n_workers == 4
    assert res.duration > 0
    assert res.sending_bandwidth > 0
    assert 0 <= res.stall_fraction <= 1
    assert res.messages >= 2 * CG_KW["iterations"]
    assert res.bytes_sent > 0


def test_cg_validation():
    with pytest.raises(ValueError):
        run_cg(n=40_001)


def test_gemm_runs_and_reports():
    res = run_gemm(n_workers=4, **GEMM_KW)
    assert res.duration > 0
    assert res.sending_bandwidth > 0
    assert res.messages == 2 * (GEMM_KW["n"] // 2 // GEMM_KW["tile"])


def test_gemm_validation():
    with pytest.raises(ValueError):
        run_gemm(n=1000, tile=128)   # not a multiple
    with pytest.raises(ValueError):
        run_gemm(n=2049, tile=128)   # odd


def test_cg_more_memory_bound_than_gemm():
    """§6's headline: CG stalls and degrades far more than GEMM."""
    cg = run_cg(n_workers=20, **CG_KW)
    gemm = run_gemm(n_workers=20, **GEMM_KW)
    assert cg.stall_fraction > gemm.stall_fraction


def test_cg_stalls_grow_with_workers():
    few = run_cg(n_workers=2, **CG_KW)
    many = run_cg(n_workers=30, **CG_KW)
    assert many.stall_fraction > 2 * few.stall_fraction


def test_cg_sending_bandwidth_degrades_with_workers():
    few = run_cg(n_workers=1, **CG_KW)
    many = run_cg(n_workers=30, **CG_KW)
    assert many.sending_bandwidth < 0.6 * few.sending_bandwidth


def test_gemm_speeds_up_with_workers():
    serial = run_gemm(n_workers=1, **GEMM_KW)
    parallel = run_gemm(n_workers=16, **GEMM_KW)
    assert parallel.duration < serial.duration / 4


def test_apps_deterministic():
    a = run_cg(n_workers=4, **CG_KW)
    b = run_cg(n_workers=4, **CG_KW)
    assert a.duration == b.duration
    assert a.sending_bandwidth == b.sending_bandwidth


def test_failed_driver_is_raised_before_a_waiting_one():
    """Rank 1 fails while rank 0 still waits on it: the harness raises
    rank 1's own error, not the unfinished rank 0's."""
    from repro.faults import TransportError

    def driver(rt, comm, _data):
        if rt.rank_id == 0:
            yield rt.sim.event()           # waits on its dead peer
        yield 1e-6
        raise TransportError("destination node failed", src=0, dst=1)

    with pytest.raises(TransportError, match="destination node failed"):
        run_two_ranks("henri", driver, n_workers=0)


def test_unfinished_driver_is_named():
    def driver(rt, comm, _data):
        if rt.rank_id == 1:
            yield rt.sim.event()           # never triggered
        yield 1e-6

    with pytest.raises(RuntimeError, match="rank 1's driver never finished"):
        run_two_ranks("henri", driver, n_workers=0)
