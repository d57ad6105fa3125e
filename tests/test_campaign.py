"""Campaign journal + sweep guard: graceful degradation and resume.

Covers the acceptance scenario of the fault-injection redesign: a
fail-stop mid-campaign leaves only the affected sweep points failed
(with structured annotations), and resuming from the journal replays
the completed points bit-identically while re-running exactly the
failed ones.
"""

import json

import pytest

from repro.core.campaign import CampaignJournal, SweepGuard
from repro.core.executor import PointSpec
from repro.core.experiments import fig1
from repro.core.results import ExperimentResult
from repro.faults import FaultPlan, TransportError, fault_context

SIZES = [4, 65536]
FAST = dict(sizes=SIZES, reps=4)


def _series_state(result):
    return {k: (s.x, s.median, s.p10, s.p90)
            for k, s in result.series.items()}


# -- SweepGuard unit behaviour --------------------------------------------

def _value_runner(params):
    """Test point: one row ``[x, v, v, v]``, or a TransportError."""
    if params.get("fail"):
        raise TransportError("node failed", src=1)
    v = float(params["v"])
    return {"a": [[float(params["x"]), v, v, v]]}


def _spec(x, v=0.0, fail=False):
    params = {"x": x, "v": v}
    if fail:
        params["fail"] = True
    return PointSpec(experiment="exp", key=f"x={x}",
                     runner="tests.test_campaign:_value_runner",
                     params=params)


def test_guard_failed_point_merges_no_rows():
    result = ExperimentResult(name="exp", title="t")
    guard = SweepGuard(result)
    statuses = guard.run_specs([_spec(1, fail=True), _spec(2, v=3.0)])
    assert statuses == {"x=1": "failed", "x=2": "ok"}
    assert result.series["a"].x == [2.0]     # no row from the failure
    assert result.failures["x=1"]["error"] == "TransportError"
    assert result.failures["x=1"]["reason"] == "node failed"
    assert not result.ok


def test_journal_records_and_resumes(tmp_path):
    path = tmp_path / "campaign.jsonl"
    result = ExperimentResult(name="exp", title="t")
    with CampaignJournal(path) as journal:
        SweepGuard(result, journal).run_specs(
            [_spec(1, v=10.0), _spec(2, fail=True)])
    lines = [json.loads(l) for l in path.read_text().splitlines()]
    assert [l["status"] for l in lines] == ["ok", "failed"]

    # Resume: the ok point replays, the failed one re-runs.
    result2 = ExperimentResult(name="exp", title="t")
    with CampaignJournal(path, resume=True) as journal:
        guard = SweepGuard(result2, journal)
        statuses = guard.run_specs([_spec(1, v=10.0), _spec(2, v=20.0)])
    # Only the failed point re-ran.
    assert statuses == {"x=1": "replayed", "x=2": "ok"}
    assert guard.replayed == ["x=1"]
    assert result2.series["a"].x == [1.0, 2.0]
    assert result2.series["a"].median == [10.0, 20.0]
    assert result2.ok


def test_journal_without_resume_starts_fresh(tmp_path):
    path = tmp_path / "campaign.jsonl"
    with CampaignJournal(path) as journal:
        journal.record("exp", "x=1", "ok", series={"a": [[1.0, 1, 1, 1]]})
    with CampaignJournal(path) as journal:     # resume=False truncates
        assert journal.lookup("exp", "x=1") is None
    assert path.read_text() == ""


# -- end-to-end: fig1 under fail-stop, then resume ------------------------

def test_fig1_fail_stop_degrades_then_resumes(tmp_path):
    path = tmp_path / "fig1.jsonl"
    # 4 B ping-pongs finish in ~100 us; a fail-stop at 60 us kills the
    # larger points of every corner but leaves the 4 B ones intact.
    plan = FaultPlan(seed=0).fail_stop(node=1, at=6e-5)
    with fault_context(plan):
        with CampaignJournal(path) as journal:
            faulted = fig1(journal=journal, **FAST)

    assert faulted.failures
    failed_keys = [k for k in faulted.failures if k != "__observations__"]
    assert failed_keys                        # some points died...
    for key in failed_keys:
        assert key.endswith("size=65536")     # ...only the long ones
        assert faulted.failures[key]["error"] == "TransportError"
    # Surviving points are present for every corner.
    for k, s in faulted.series.items():
        if k.startswith("latency_"):
            assert 4.0 in s.x
            assert 65536.0 not in s.x

    # Resume without the fault: completed points replay bit-identically,
    # failed points re-run and fill the figure.
    with CampaignJournal(path, resume=True) as journal:
        resumed = fig1(journal=journal, **FAST)
    assert resumed.ok
    healthy = fig1(**FAST)
    for key, s in healthy.series.items():
        assert resumed.series[key].x == s.x
    # Replayed values match the faulted run's surviving points exactly.
    for k, s in faulted.series.items():
        res = resumed.series[k]
        for x, med in zip(s.x, s.median):
            assert res.median[res.x.index(x)] == med


def test_fig1_zero_fault_unchanged_by_guard(tmp_path):
    """The guard/journal wrapping must not perturb healthy timings."""
    base = fig1(**FAST)
    with CampaignJournal(tmp_path / "j.jsonl") as journal:
        journaled = fig1(journal=journal, **FAST)
    assert _series_state(base) == _series_state(journaled)
    assert base.observations == journaled.observations


def test_same_fault_seed_bit_identical():
    plan = FaultPlan(seed=5).message_loss(loss_rate=0.25, start=0.0,
                                          duration=100.0)
    with fault_context(plan):
        a = fig1(**FAST)
    with fault_context(plan):
        b = fig1(**FAST)
    assert _series_state(a) == _series_state(b)
    assert a.failures == b.failures
