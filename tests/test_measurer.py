"""Incremental measurer + `repro status`: live progress over journals.

Covers the dispatcher/measurer split: progress counts fold in as
records land, the sidecar is atomically replaced, and ``repro status``
stays read-only — it must work on a journal another process holds an
exclusive ``flock`` on, including one with a half-written line.
"""

import fcntl
import json

from repro.core.measurer import (CampaignMeasurer, read_status,
                                 render_status, sidecar_path)


def _measurer(tmp_path):
    return CampaignMeasurer(tmp_path / "c.jsonl")


def test_measurer_counts_and_eta(tmp_path):
    m = _measurer(tmp_path)
    m.begin_sweep("fig1", total=4, trials=2, cached=1, jobs=2)
    m.on_point("fig1", "k1", 0, "replayed", None)
    m.on_point("fig1", "k1", 1, "ok", 2.0)
    m.on_point("fig1", "k2", 0, "failed", 4.0)
    assert m.pending("fig1") == 1
    # 1 pending x mean(2, 4) / 2 jobs
    assert m.eta_seconds("fig1") == 1.5
    doc = m.progress()
    assert doc["state"] == "running"
    exp = doc["experiments"]["fig1"]
    assert (exp["done"], exp["replayed"], exp["failed"]) == (1, 1, 1)
    m.on_point("fig1", "k2", 1, "ok", 2.0)
    assert m.progress()["state"] == "complete"


def test_sidecar_written_atomically(tmp_path):
    m = _measurer(tmp_path)
    m.begin_sweep("fig1", total=1, trials=1, cached=0, jobs=1)
    side = sidecar_path(tmp_path / "c.jsonl")
    assert side.exists()
    assert not side.with_name(side.name + ".tmp").exists()
    doc = json.loads(side.read_text())
    assert doc["experiments"]["fig1"]["pending"] == 1
    m.on_point("fig1", "k", 0, "ok", 1.0)
    assert json.loads(side.read_text())["state"] == "complete"


def test_sidecar_rewrites_are_throttled_mid_sweep(tmp_path, monkeypatch):
    """Mid-sweep the sidecar is rewritten at most once per
    SIDECAR_INTERVAL_S; the sweep's last point always lands in it."""
    from repro.core import measurer as measurer_mod
    side = sidecar_path(tmp_path / "c.jsonl")

    def pending():
        return json.loads(side.read_text())["experiments"]["fig1"]["pending"]

    monkeypatch.setattr(measurer_mod, "SIDECAR_INTERVAL_S", 3600.0)
    m = _measurer(tmp_path)
    m.begin_sweep("fig1", total=3, trials=1, cached=0, jobs=1)
    m.on_point("fig1", "k1", 0, "ok", 1.0)
    m.on_point("fig1", "k2", 0, "ok", 1.0)
    assert pending() == 3                  # throttled: still the start
    m.on_point("fig1", "k3", 0, "ok", 1.0)
    assert pending() == 0
    assert json.loads(side.read_text())["state"] == "complete"

    monkeypatch.setattr(measurer_mod, "SIDECAR_INTERVAL_S", 0.0)
    m.begin_sweep("fig1", total=2, trials=1, cached=0, jobs=1)
    m.on_point("fig1", "k1", 0, "ok", 1.0)
    assert pending() == 1                  # interval elapsed: rewritten


def test_measurer_without_sidecar_writes_nothing(tmp_path, monkeypatch):
    import repro.core.measurer as measurer_mod
    monkeypatch.setattr(measurer_mod, "WRITE_SIDECAR", False)
    m = _measurer(tmp_path)
    m.begin_sweep("fig1", total=1, trials=1, cached=0, jobs=1)
    m.on_point("fig1", "k", 0, "ok", 1.0)
    assert list(tmp_path.iterdir()) == []


def test_read_status_on_live_flocked_journal(tmp_path):
    """Status is lock-free: an exclusively flocked journal mid-write
    (torn trailing line) must still be readable."""
    path = tmp_path / "c.jsonl"
    rows = [{"experiment": "fig1", "key": f"size={s}", "status": "ok",
             "series": {}} for s in (4, 64)]
    rows.append({"experiment": "fig1", "key": "size=4", "trial": 1,
                 "status": "failed", "failure": {"error": "E"}})
    with open(path, "w", encoding="utf-8") as fh:
        fcntl.flock(fh, fcntl.LOCK_EX)       # the campaign's lock
        for r in rows:
            fh.write(json.dumps(r) + "\n")
        fh.write('{"experiment": "fig1", "key": "size=64", "tr')
        fh.flush()
        status = read_status(path)           # while still locked
        assert status["records"] == 3
        exp = status["experiments"]["fig1"]
        assert (exp["ok"], exp["failed"]) == (2, 1)
        assert exp["trials"] == 2
        assert exp["points"] == 2


def test_read_status_merges_sidecar(tmp_path):
    path = tmp_path / "c.jsonl"
    path.write_text(json.dumps(
        {"experiment": "fig1", "key": "k", "status": "ok",
         "series": {}}) + "\n", encoding="utf-8")
    sidecar_path(path).write_text(json.dumps({
        "journal": str(path), "state": "running",
        "experiments": {"fig1": {
            "total": 4, "trials": 2, "jobs": 2, "done": 1,
            "replayed": 1, "failed": 0, "pending": 2,
            "mean_point_s": 0.5, "eta_s": 0.5}}}), encoding="utf-8")
    status = read_status(path)
    assert status["state"] == "running"
    exp = status["experiments"]["fig1"]
    assert exp["cached"] == 1
    assert exp["pending"] == 2
    assert exp["eta_s"] == 0.5


def test_render_status_shape(tmp_path):
    path = tmp_path / "c.jsonl"
    path.write_text(json.dumps(
        {"experiment": "fig1", "key": "k", "status": "ok",
         "series": {}}) + "\n", encoding="utf-8")
    text = render_status(read_status(path))
    lines = text.splitlines()
    assert lines[0].startswith(f"campaign {path}: 1 record(s), "
                               f"1 experiment(s)")
    header = lines[1].split()
    assert header == ["experiment", "trials", "points", "done",
                      "cached", "failed", "pending", "eta"]
    assert lines[3].split()[0] == "fig1"


def test_campaign_run_attaches_measurer_end_to_end(tmp_path):
    from repro.cli import main
    j = tmp_path / "c.jsonl"
    assert main(["run", "fig1a", "--fast", "--trials", "2",
                 "--journal", str(j)]) == 0
    status = read_status(j)
    assert status["state"] == "complete"
    exp = status["experiments"]["fig1"]
    assert exp["trials"] == 2
    assert exp["failed"] == 0
    assert exp["pending"] == 0


def test_status_counts_a_shared_sweep_once(tmp_path):
    """fig1a and fig1b share the fig1 sweep: status shows what the
    first sighting ran, fresh or on resume, not fig1b's replays."""
    from repro.core import registry
    from repro.core.campaign import CampaignJournal
    path = tmp_path / "c.jsonl"
    for resume, cached in ((False, 0), (True, 12)):
        with CampaignJournal(path, resume=resume) as journal:
            CampaignMeasurer.attach(journal)
            for name in ("fig1a", "fig1b"):
                registry.run_experiment(name, fast=True, journal=journal)
        exp = read_status(path)["experiments"]["fig1"]
        assert (exp["points"], exp["ok"], exp["cached"],
                exp["pending"]) == (12, 12, cached, 0)


def test_repeat_sweep_adds_only_its_fresh_points(tmp_path):
    """A repeat sighting re-runs what it cannot replay (a point whose
    fingerprint differs): that work counts, its replays not."""
    m = _measurer(tmp_path)
    m.begin_sweep("fig1", total=2, trials=1, cached=0, jobs=1)
    m.on_point("fig1", "k1", 0, "ok", 1.0)
    m.on_point("fig1", "k2", 0, "ok", 1.0)
    m.begin_sweep("fig1", total=2, trials=1, cached=1, jobs=1)
    m.on_point("fig1", "k1", 0, "replayed", None)
    assert m.pending("fig1") == 1
    m.on_point("fig1", "k3", 0, "ok", 1.0)
    exp = m.progress()["experiments"]["fig1"]
    assert (exp["total"], exp["done"], exp["replayed"]) == (3, 3, 0)


def test_eta_excludes_cache_replays(tmp_path):
    """Warm resume: ~0s cache replays must not drag the mean point
    duration (and hence the ETA) toward zero."""
    m = _measurer(tmp_path)
    m.begin_sweep("fig1", total=4, trials=1, cached=2, jobs=1)
    m.on_point("fig1", "k1", 0, "replayed", 0.001)
    m.on_point("fig1", "k2", 0, "replayed", 0.002)
    # Only cache hits so far: no duration estimate, no ETA.
    assert m.eta_seconds("fig1") is None
    assert m.progress()["experiments"]["fig1"]["mean_point_s"] is None
    m.on_point("fig1", "k3", 0, "ok", 3.0)
    # 1 pending x mean(3.0) / 1 job — the replays' walls are excluded.
    assert m.eta_seconds("fig1") == 3.0
