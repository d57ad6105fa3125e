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
from repro.core.experiments import fig1, fig2
from repro.core.report import render_experiment
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
    failed_keys = list(faulted.failures)
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


def test_underivable_observations_are_not_a_failed_point():
    """fig2's only point dies under fail-stop, so its latency
    observations cannot be derived: the report says so, but the one
    failed point is the only entry in ``failures``."""
    plan = FaultPlan(seed=7).fail_stop(node=1, at=1e-4)
    with fault_context(plan):
        res = fig2(phase_seconds=0.04)
    assert list(res.failures) == ["n=20"]
    assert "series 'latency' is empty" in res.meta["observations_error"]
    report = render_experiment(res)
    assert "Observations not derived (points failed): ValueError: " \
        "series 'latency' is empty" in report
    failed = report.split("Failed points (fault injection):\n")[1]
    assert failed.splitlines() == [
        "  n=20: destination node failed (src=0, dst=1, size=4, "
        "retries=0, timeouts=0)"]


def test_resume_past_a_torn_tail(tmp_path):
    """A crash mid-record leaves a partial last line; resume drops it,
    replays the journaled points and keeps every line parseable."""
    path = tmp_path / "fig1.jsonl"
    with CampaignJournal(path) as journal:
        fresh = fig1(journal=journal, **FAST)
    with open(path, "a", encoding="utf-8") as fh:
        fh.write('{"experiment": "fig1", "key": "tor')
    with CampaignJournal(path, resume=True) as journal:
        resumed = fig1(journal=journal, **FAST)
    lines = path.read_text().splitlines()
    assert [json.loads(line) for line in lines]
    assert _series_state(resumed) == _series_state(fresh)


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


def test_fresh_journal_runs_a_shared_sweep_once(tmp_path):
    """fig1a and fig1b share the fig1 sweep: on one fresh journal fig1b
    replays fig1a's points, so each point is journaled (and read back
    by the report) once."""
    from repro.analysis.stats import CampaignResults
    from repro.core import registry
    path = tmp_path / "j.jsonl"
    with CampaignJournal(path) as journal:
        registry.run_experiment("fig1a", fast=True, journal=journal)
        fig1b = registry.run_experiment("fig1b", fast=True,
                                        journal=journal)
    records = [json.loads(line) for line in path.read_text().splitlines()]
    assert len(records) == 12
    assert len({(r["experiment"], r["key"]) for r in records}) == 12
    assert fig1b.meta["sweep"]["replayed"] == 12
    sets = CampaignResults.from_journal(path).trial_sets()
    assert sets and all(len(ts.values) == 1 for ts in sets)


def test_shared_sweep_replays_its_failed_points(tmp_path):
    """Under a fail-stop, fig1b replays the points fig1a saw fail in
    this run instead of running and journaling them again; a resume of
    the journal still re-runs every failed point."""
    from repro.analysis.stats import CampaignResults
    from repro.core import registry
    from repro.core.measurer import CampaignMeasurer, read_status
    path = tmp_path / "j.jsonl"
    plan = FaultPlan(seed=0).fail_stop(node=1, at=6e-5)
    with fault_context(plan), CampaignJournal(path) as journal:
        CampaignMeasurer.attach(journal)
        fig1a = registry.run_experiment("fig1a", fast=True,
                                        journal=journal)
        fig1b = registry.run_experiment("fig1b", fast=True,
                                        journal=journal)
    assert len(path.read_text().splitlines()) == 12
    assert len(fig1a.failures) == 8
    assert fig1b.failures == fig1a.failures
    assert fig1b.meta["sweep"]["failed"] == 8
    assert len(CampaignResults.from_journal(path).failures()) == 8
    exp = read_status(path)["experiments"]["fig1"]
    assert (exp["points"], exp["ok"], exp["failed"]) == (12, 4, 8)

    with CampaignJournal(path, resume=True) as journal:
        resumed = registry.run_experiment("fig1a", fast=True,
                                          journal=journal)
    assert resumed.ok
    assert resumed.meta["sweep"]["replayed"] == 4
    assert len(path.read_text().splitlines()) == 20
