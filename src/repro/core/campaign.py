"""Resumable experiment campaigns: per-point error boundaries + journal.

A figure is a sweep of independent points (one simulated cluster per
point).  Under fault injection a point may die mid-run — e.g. a
fail-stop node raises :class:`~repro.faults.reliability.TransportError`
through the ping-pong — and without a boundary that would lose the whole
campaign.  :class:`SweepGuard` wraps each point:

* on success, the point's appended series rows are written to a
  :class:`CampaignJournal` (JSON lines, one entry per point);
* on failure, a structured failure annotation is recorded in
  ``ExperimentResult.failures`` (and journaled); a failed point merges
  no rows, so the series stay rectangular;
* a point the journal already holds replays from it bit-identically
  (Python's ``json`` round-trips floats exactly): an ``ok`` entry
  always, a ``failed`` one only when this run recorded it.  A resumed
  campaign re-runs its failed and missing points, and a sweep two
  experiments share (fig1) runs once, failed points included.

:meth:`SweepGuard.run_specs` takes the sweep as
:class:`~repro.core.executor.PointSpec` data: points execute through
the ambient :class:`~repro.core.executor.SweepExecutor` (possibly a
process pool) and merge back in submission order, so seeded runs are
byte-identical at any ``--jobs`` level.  Journal entries carry a
content fingerprint (``"fp"``) and double as a point-level result
cache: a point replays only while its parameters and the simulation
code are unchanged.

Every registered experiment runs its points this way.  A point may
ship scalars that are not curves (fig2's per-phase frequency means,
say) as one-row ``obs:<name>`` series, which the experiment turns back
into observations.

The journal is optional: with ``journal=None`` the guard still provides
the error boundary, it just cannot replay.  Journal writes are
crash-safe: each record is flushed and fsynced, so a crash loses at
most the in-flight point, and the torn line it may leave is cut on
resume.  The file is exclusively locked before anything is truncated
or loaded, so a second concurrent writer is refused and the journal
it found stays as it was.  Under a process pool only the parent ever
writes.
"""

from __future__ import annotations

import json
import logging
import os
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.core.results import ExperimentResult

try:                             # POSIX; journal locking degrades
    import fcntl                 # gracefully where flock is missing.
except ImportError:              # pragma: no cover - non-POSIX
    fcntl = None

__all__ = ["CampaignJournal", "SweepGuard"]

logger = logging.getLogger(__name__)


class CampaignJournal:
    """JSON-lines checkpoint file for a campaign.

    Each line is one completed (or failed) sweep point::

        {"experiment": "fig1", "key": "core2.3_uncore2.4/size=4",
         "status": "ok", "series": {"latency_...": [[x, med, p10, p90]]},
         "fp": "91be3a60c1f2d9e4"}

    With ``resume=False`` (the default) an existing file is truncated
    and the campaign starts fresh; with ``resume=True`` prior entries
    are loaded, ``failed`` ones excepted: those re-run.
    :class:`SweepGuard` replays any fingerprint-matching entry the
    journal holds, so a sweep two experiments share runs once.

    Every record is flushed and fsynced before :meth:`record` returns:
    a crash loses at most the in-flight point, never a journaled one.
    A crash mid-record leaves a torn last line; resume cuts it before
    appending.  The file is held under an exclusive ``flock`` for the
    journal's lifetime, taken before it is truncated or loaded: a
    second writer gets a :class:`RuntimeError` and the file is left
    untouched.  With ``--jobs`` parallelism all writes funnel through
    the parent.  ``begin=False`` defers the truncate or load to
    :meth:`begin`: the caller holds the lock, the file stays as found.
    """

    def __init__(self, path, resume: bool = False, *, begin: bool = True):
        self.path = Path(path)
        self.resume = resume
        # Keyed (experiment, key, trial); pre-trial entries load as
        # trial 0, so old journals resume into multi-trial campaigns.
        self._entries: Dict[Tuple[str, str, int], dict] = {}
        # Optional live-progress observer (see repro.core.measurer);
        # attached by the CLI, consulted by SweepGuard.
        self.measurer = None
        if self.path.parent != Path(""):
            self.path.parent.mkdir(parents=True, exist_ok=True)
        # Append mode until the lock is held: a refused second writer
        # must leave the journal it found untouched.
        self._fh = open(self.path, "a", encoding="utf-8")
        self._lock()
        if begin:
            self.begin()

    def begin(self) -> None:
        """Load the locked file (resume) or truncate it (fresh run)."""
        if self.resume:
            self._load()
        else:
            self._fh.truncate(0)

    def _lock(self) -> None:
        if fcntl is None:  # pragma: no cover - non-POSIX
            return
        try:
            fcntl.flock(self._fh.fileno(),
                        fcntl.LOCK_EX | fcntl.LOCK_NB)
        except OSError:
            self._fh.close()
            self._fh = None
            raise RuntimeError(
                f"campaign journal {self.path} is locked by another "
                f"process; refusing a second concurrent writer") from None

    def _load(self) -> None:
        from repro.analysis.stats import read_journal_entries
        # A crash mid-record leaves a torn last line; cut it first, so
        # the next record starts on a line of its own and the loaded
        # entries are exactly the ones on disk.
        data = self.path.read_bytes()
        end = data.rfind(b"\n") + 1
        if end < len(data):
            self._fh.truncate(end)
        for entry in read_journal_entries(self.path):
            key = (entry["experiment"], entry["key"],
                   int(entry.get("trial", 0)))
            # The last line for a point wins; a failure re-runs.
            if entry["status"] == "ok":
                self._entries[key] = entry
            else:
                self._entries.pop(key, None)

    # -- queries -----------------------------------------------------------
    def lookup(self, experiment: str, key: str,
               trial: int = 0) -> Optional[dict]:
        return self._entries.get((experiment, key, trial))

    def completed(self, experiment: str) -> List[str]:
        return [k if not t else f"{k}#t{t}"
                for (exp, k, t), e in self._entries.items()
                if exp == experiment and e["status"] == "ok"]

    # -- recording ---------------------------------------------------------
    def record(self, experiment: str, key: str, status: str,
               series: Optional[dict] = None,
               failure: Optional[dict] = None,
               metrics: Optional[dict] = None,
               fp: Optional[str] = None,
               trial: int = 0) -> None:
        entry: dict = {"experiment": experiment, "key": key,
                       "status": status}
        if trial:
            # Trial-0 lines deliberately omit the key: they must stay
            # byte-identical to journals written before trials existed.
            entry["trial"] = int(trial)
        if series:
            entry["series"] = series
        if failure:
            entry["failure"] = failure
        if metrics:
            entry["metrics"] = metrics
        if fp:
            entry["fp"] = fp
        self._entries[(experiment, key, int(trial))] = entry
        self._fh.write(json.dumps(entry) + "\n")
        self._fh.flush()
        os.fsync(self._fh.fileno())

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()          # closing releases the flock
            self._fh = None

    def __enter__(self) -> "CampaignJournal":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class SweepGuard:
    """Per-point error boundary (and journal hook) for one experiment."""

    def __init__(self, result: ExperimentResult,
                 journal: Optional[CampaignJournal] = None):
        self.result = result
        self.journal = journal
        self.replayed: List[str] = []

    def run_specs(self, specs) -> Dict[str, str]:
        """Run a whole sweep of :class:`~repro.core.executor.PointSpec`.

        Points execute through the ambient executor (``--jobs`` process
        pool, or in-process when none is installed) and merge back in
        **submission order**: journal-cached points replay and fresh
        results append exactly where a serial run would have put them,
        so the resulting series, journal lines and telemetry are
        byte-identical at any parallelism level.

        With ``trials > 1`` on the executor's policy every point fans
        out into N seeded trials, expanded *trial-major* (all trial-0
        points first, then trial 1, ...) so a multi-trial journal's
        prefix is exactly the single-trial journal.  Each trial is a
        first-class journal record; the in-memory series get one
        aggregated row per base point (median of the trial medians,
        band = the envelope of the trial bands).

        Returns ``{scope_key: "replayed" | "ok" | "failed"}`` (the
        scope key is the point key, ``#tN``-tagged past trial 0; a
        replayed failure is ``"failed"``) and stores tallies in
        ``result.meta["sweep"]``.
        """
        from dataclasses import replace

        from repro.core.executor import (SweepExecutor, active_executor,
                                         build_env, point_fingerprint)
        result = self.result
        statuses: Dict[str, str] = {}
        specs = list(specs)
        executor = active_executor()
        if executor is None:
            executor = SweepExecutor(jobs=1)
        trials = getattr(executor.policy, "trials", 1)
        expanded = [spec if t == 0 else replace(spec, trial=t)
                    for t in range(trials) for spec in specs]
        # Decide replay-vs-run for every point up front, so the pending
        # subset can be submitted to the pool in one batch while cached
        # points still merge at their original sweep position.
        plan: List[Tuple[object, str, Optional[dict]]] = []
        n_pending = 0
        for spec in expanded:
            fp = point_fingerprint(spec)
            cached = None
            if self.journal is not None:
                entry = self.journal.lookup(result.name, spec.key,
                                            spec.trial)
                # Replay only a fingerprint match: an entry without
                # one cannot prove it came from these parameters and
                # this code, so it re-runs.
                if entry is not None and entry.get("fp") == fp:
                    cached = entry
            plan.append((spec, fp, cached))
            n_pending += cached is None
        env = build_env() if n_pending else {}
        entries = executor.map_points(
            [(spec, env) for spec, _fp, cached in plan
             if cached is None]) if n_pending else iter(())
        from repro.obs.context import active_telemetry
        tele = active_telemetry()
        measurer = self.journal.measurer \
            if self.journal is not None else None
        if measurer is not None:
            measurer.begin_sweep(result.name, total=len(plan),
                                 trials=trials,
                                 cached=len(plan) - n_pending,
                                 jobs=executor.jobs)
        # (key, trial) -> completed ok entry; series merge is deferred
        # until every trial of a point is in, then folded per base spec
        # in sweep order — for trials == 1 that replays the exact same
        # rows in the exact same order as the pre-trial code path.
        collected: Dict[Tuple[str, int], dict] = {}
        for spec, fp, cached in plan:
            label = spec.scope_key
            if cached is not None:
                self.replayed.append(label)
                if cached["status"] == "ok":
                    collected[(spec.key, spec.trial)] = cached
                    statuses[label] = "replayed"
                else:
                    result.failures[label] = dict(cached["failure"])
                    statuses[label] = "failed"
                if measurer is not None:
                    measurer.on_point(result.name, spec.key, spec.trial,
                                      "replayed", None)
                continue
            entry = next(entries)
            wall = entry.pop("wall", None)
            # Fold the point's telemetry in before touching the journal
            # so trace/metrics state is consistent at every record.
            if tele is not None:
                tele.absorb_point(entry.get("obs") or {},
                                  entry.get("metrics"))
            if entry["status"] == "ok":
                collected[(spec.key, spec.trial)] = entry
                statuses[label] = "ok"
                if self.journal is not None:
                    self.journal.record(result.name, spec.key, "ok",
                                        series=entry.get("series"),
                                        metrics=entry.get("metrics"),
                                        fp=fp, trial=spec.trial)
            else:
                failure = entry["failure"]
                logger.warning("sweep point %s/%s failed: %s",
                               result.name, label,
                               failure.get("message", failure.get("error")))
                result.failures[label] = failure
                statuses[label] = "failed"
                if self.journal is not None:
                    self.journal.record(result.name, spec.key, "failed",
                                        failure=failure, fp=fp,
                                        trial=spec.trial)
            if measurer is not None:
                measurer.on_point(result.name, spec.key, spec.trial,
                                  statuses[label], wall)
        for spec in specs:
            done = [collected[(spec.key, t)] for t in range(trials)
                    if (spec.key, t) in collected]
            if not done:
                continue
            if trials == 1:
                self._replay(done[0])
            else:
                from repro.analysis.stats import aggregate_trial_series
                self._replay({"series": aggregate_trial_series(
                    [e.get("series", {}) for e in done])})
        sweep: dict = {
            "points": len(specs),
            "replayed": len(plan) - n_pending,
            "failed": len([s for s in statuses.values() if s == "failed"]),
            # Harness-level failures (worker crash / timeout, retries
            # exhausted) — as opposed to simulated faults a point
            # reports.  Non-zero means the campaign is *degraded*:
            # ``repro run`` exits non-zero and prints a failure table.
            "degraded": len([key for key, s in statuses.items()
                             if s == "failed"
                             and result.failures.get(key, {}).get("harness")]),
        }
        if trials > 1:
            sweep["trials"] = trials
            sweep["executed"] = len(plan)
        result.meta["sweep"] = sweep
        return statuses

    # -- internals ---------------------------------------------------------
    def _replay(self, entry: dict) -> None:
        for k, rows in entry.get("series", {}).items():
            s = self.result.series.get(k)
            if s is None:
                s = self.result.new_series(k)
            for x, med, lo, hi in rows:
                s.x.append(x)
                s.median.append(med)
                s.p10.append(lo)
                s.p90.append(hi)
