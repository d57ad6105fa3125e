"""Incremental campaign measurer: live progress of a campaign.

fuzzbench splits experiment execution into a dispatcher (runs trials)
and a measurer (folds results in *as they land*, not post-hoc).  This module is the measurer half for campaign
journals: the CLI attaches a :class:`CampaignMeasurer` to the journal,
``SweepGuard.run_specs`` calls :meth:`begin_sweep` / :meth:`on_point`
as records land, and the measurer

* tracks per-experiment progress (done / replayed / failed counts and
  mean observed point duration → a pending-work ETA);
* mirrors that state into an atomically-replaced JSON *sidecar* next to
  the journal (``<journal>.progress.json``), which ``repro status``
  reads without touching the journal's ``flock``.  The sidecar is
  rewritten when a sweep begins, when its last point lands, and in
  between at most once per :data:`SIDECAR_INTERVAL_S` of wall time.

``repro status`` itself (:func:`read_status` / :func:`render_status`)
works on the journal alone too — the sidecar only adds pending/ETA
information a finished journal cannot carry.  Journal reads go through
the tolerant :func:`~repro.analysis.stats.read_journal_entries`, so a
*live* journal (exclusively flocked by the campaign process, possibly
mid-write under ``--jobs N``) is safe to inspect: the advisory lock is
never requested and a half-written trailing line is skipped.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from typing import Dict, List, Optional

from repro.analysis.stats import read_journal_entries

__all__ = ["CampaignMeasurer", "sidecar_path", "read_status",
           "render_status", "SIDECAR_INTERVAL_S"]

#: Least wall time between two mid-sweep sidecar rewrites.  Replacing
#: an existing file can block for tens of milliseconds on some file
#: systems, far longer than a fast point takes to run.
SIDECAR_INTERVAL_S = 1.0


def sidecar_path(journal_path) -> Path:
    """The progress sidecar path for a journal."""
    return Path(f"{journal_path}.progress.json")


class CampaignMeasurer:
    """Tracks per-sweep progress as records land."""

    def __init__(self, journal_path, sidecar: bool = True):
        self.path = Path(journal_path)
        self.sidecar = sidecar_path(journal_path) if sidecar else None
        # experiment -> running tallies (insertion order = sweep order)
        self._sweeps: Dict[str, dict] = {}
        # time.monotonic() of the last sidecar write
        self._sidecar_written = 0.0
        # name of the sweep in progress when it is a repeat sighting
        self._repeat: Optional[str] = None

    @classmethod
    def attach(cls, journal, sidecar: bool = True) -> "CampaignMeasurer":
        """Attach a measurer to a :class:`CampaignJournal`."""
        measurer = cls(journal.path, sidecar=sidecar)
        journal.measurer = measurer
        return measurer

    # -- hooks called by SweepGuard.run_specs ------------------------------
    def begin_sweep(self, experiment: str, total: int, trials: int,
                    cached: int, jobs: int) -> None:
        sweep = self._sweeps.get(experiment)
        if sweep is None:
            self._sweeps[experiment] = {
                "total": total, "trials": trials, "cached": cached,
                "jobs": max(1, jobs), "done": 0, "replayed": 0,
                "failed": 0, "wall_sum": 0.0, "wall_n": 0,
            }
            self._repeat = None
        else:
            # The same sweep again in this campaign (fig1b after fig1a,
            # table1 after fig5): the first sighting's tallies say what
            # ran, so only the points this one runs afresh add to them.
            sweep["total"] += total - cached
            self._repeat = experiment
        self._write_sidecar()

    def on_point(self, experiment: str, key: str, trial: int,
                 status: str, wall_s: Optional[float]) -> None:
        if status == "replayed" and experiment == self._repeat:
            return
        sweep = self._sweeps[experiment]
        if status == "failed":
            sweep["failed"] += 1
        elif status == "replayed":
            sweep["replayed"] += 1
        else:
            sweep["done"] += 1
        if wall_s is not None and status != "replayed":
            # Cache replays land in ~0s; folding them into the mean
            # would make the ETA claim the remaining *fresh* points are
            # nearly free.  Only fresh executions inform the estimate
            # (a warm resume with only replays so far reports no ETA).
            sweep["wall_sum"] += wall_s
            sweep["wall_n"] += 1
        if self.sidecar is not None and (
                self.pending(experiment) == 0
                or time.monotonic() - self._sidecar_written
                >= SIDECAR_INTERVAL_S):
            self._write_sidecar()

    # -- derived views ------------------------------------------------------
    def pending(self, experiment: str) -> Optional[int]:
        sweep = self._sweeps.get(experiment)
        if sweep is None:
            return None
        processed = sweep["done"] + sweep["replayed"] + sweep["failed"]
        return max(0, sweep["total"] - processed)

    def eta_seconds(self, experiment: str) -> Optional[float]:
        """Pending work x mean *fresh* point duration / pool width.

        Cache replays are excluded from the mean (see ``on_point``);
        ``None`` until at least one fresh point has landed.
        """
        sweep = self._sweeps.get(experiment)
        if sweep is None or not sweep["wall_n"]:
            return None
        mean = sweep["wall_sum"] / sweep["wall_n"]
        return self.pending(experiment) * mean / sweep["jobs"]

    def progress(self) -> dict:
        """JSON-able snapshot, the sidecar document."""
        experiments = {}
        all_done = True
        for name, sweep in self._sweeps.items():
            pending = self.pending(name)
            eta = self.eta_seconds(name)
            mean = (sweep["wall_sum"] / sweep["wall_n"]
                    if sweep["wall_n"] else None)
            if pending > 0:
                all_done = False
            experiments[name] = {
                "total": sweep["total"], "trials": sweep["trials"],
                "jobs": sweep["jobs"], "done": sweep["done"],
                "replayed": sweep["replayed"], "failed": sweep["failed"],
                "pending": pending,
                "mean_point_s": round(mean, 6) if mean is not None
                else None,
                "eta_s": round(eta, 3) if eta is not None else None,
            }
        return {"journal": str(self.path),
                "state": "complete" if experiments and all_done
                else "running",
                "experiments": experiments}

    def _write_sidecar(self) -> None:
        """Atomic replace; no fsync — the sidecar is advisory state and
        must never slow the per-record journal path down."""
        if self.sidecar is None:
            return
        tmp = self.sidecar.with_name(self.sidecar.name + ".tmp")
        try:
            with open(tmp, "w", encoding="utf-8") as fh:
                json.dump(self.progress(), fh, indent=1, sort_keys=True)
                fh.write("\n")
            os.replace(tmp, self.sidecar)
        except OSError:  # pragma: no cover - read-only dir etc.
            pass
        self._sidecar_written = time.monotonic()


# ---------------------------------------------------------------------------
# repro status: read-only view over journal + sidecar
# ---------------------------------------------------------------------------

def read_status(journal_path) -> dict:
    """Campaign status from the journal (+ sidecar when present).

    Read-only and lock-free: safe against a campaign currently holding
    the journal's exclusive flock, at any ``--jobs`` level.
    """
    entries = read_journal_entries(journal_path)
    per: Dict[str, dict] = {}
    for e in entries:
        exp = per.setdefault(e["experiment"], {
            "records": 0, "ok": 0, "failed": 0, "trials": 1,
            "points": set()})
        exp["records"] += 1
        trial = int(e.get("trial", 0))
        exp["trials"] = max(exp["trials"], trial + 1)
        exp["points"].add(e["key"])
        if e.get("status") == "ok":
            exp["ok"] += 1
        else:
            exp["failed"] += 1
    progress = None
    sidecar = sidecar_path(journal_path)
    if sidecar.exists():
        try:
            with open(sidecar, "r", encoding="utf-8") as fh:
                progress = json.load(fh)
        except (OSError, json.JSONDecodeError):
            progress = None
    experiments: Dict[str, dict] = {}
    for name, exp in per.items():
        experiments[name] = {
            "records": exp["records"], "ok": exp["ok"],
            "failed": exp["failed"], "trials": exp["trials"],
            "points": len(exp["points"]),
            "cached": None, "pending": None, "eta_s": None,
        }
    if progress:
        for name, info in progress.get("experiments", {}).items():
            row = experiments.setdefault(name, {
                "records": 0, "ok": 0, "failed": 0, "trials": 1,
                "points": 0, "cached": None, "pending": None,
                "eta_s": None})
            row["trials"] = max(row["trials"], info.get("trials") or 1)
            row["cached"] = info.get("replayed")
            row["pending"] = info.get("pending")
            row["eta_s"] = info.get("eta_s")
    return {"journal": str(journal_path),
            "records": len(entries),
            "state": (progress or {}).get("state",
                                          "complete" if entries else "?"),
            "experiments": experiments}


def render_status(status: dict) -> str:
    """Stable, grep-friendly status view (asserted by CI)."""
    from repro.core.report import render_table
    lines = [f"campaign {status['journal']}: {status['records']} "
             f"record(s), {len(status['experiments'])} experiment(s) "
             f"[{status['state']}]"]
    rows: List[list] = []
    for name, row in status["experiments"].items():

        def _fmt(v, suffix=""):
            return "-" if v is None else f"{v}{suffix}"

        eta = row["eta_s"]
        rows.append([name, row["trials"], row["points"], row["ok"],
                     _fmt(row["cached"]), row["failed"],
                     _fmt(row["pending"]),
                     "-" if eta is None else f"~{eta:.1f}s"])
    lines.append(render_table(
        ["experiment", "trials", "points", "done", "cached", "failed",
         "pending", "eta"], rows))
    return "\n".join(lines)
