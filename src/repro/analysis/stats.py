"""Summary statistics and campaign-level trial analysis.

The paper plots the *median* of several runs with a band delimited by the
first and last decile (§2.1); :func:`summarize` produces exactly those
three numbers.

On top of the per-sample summaries this module analyses whole
multi-seed campaigns: :class:`TrialSet` holds the per-trial medians of
one sweep point, :class:`CampaignResults` loads every trial set out of
a campaign journal (mirroring fuzzbench's ``ExperimentResults`` as a
lazily-derived view over raw trial records), and
:func:`mann_whitney_u` / :func:`a12_effect_size` compare two campaigns
point by point without assuming normality.  Everything here is pure
``numpy`` + stdlib — no scipy.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

__all__ = ["SummaryStats", "summarize", "median", "decile_band",
           "bootstrap_ci", "aggregate_trial_series",
           "mann_whitney_u", "a12_effect_size", "MannWhitneyResult",
           "NonFiniteSampleWarning",
           "TrialSet", "CampaignResults", "Comparison",
           "read_journal_entries"]


class NonFiniteSampleWarning(UserWarning):
    """Non-finite samples were dropped before summarizing.

    A journal record can carry a NaN/inf metric delta (e.g. a rate
    sampled across a division-by-zero window); ``np.median`` would
    silently propagate it into every derived number and ultimately the
    HTML report.  Mirroring ``attribution_report``'s
    ``insufficient_data`` treatment, the offending samples are dropped
    up front and the drop is reported — structurally via
    ``SummaryStats.dropped`` and loudly via this warning category —
    while an *all*-non-finite sample raises instead of emitting NaN.
    """


@dataclass(frozen=True)
class SummaryStats:
    """Median and decile band of a sample, as plotted in the paper."""

    median: float
    p10: float
    p90: float
    n: int
    #: Non-finite samples dropped before summarizing (0 for healthy
    #: input, so existing call sites and serialized forms are
    #: unchanged).
    dropped: int = 0

    @property
    def band_width(self) -> float:
        return self.p90 - self.p10


def summarize(samples: Sequence[float]) -> SummaryStats:
    """Median + first/last decile of *samples*.

    Non-finite samples (NaN/inf) are dropped with a
    :class:`NonFiniteSampleWarning` and counted in ``dropped``; an
    all-non-finite sample raises ``ValueError`` rather than summarize
    nothing.
    """
    arr = np.asarray(samples, dtype=float)
    if arr.size == 0:
        raise ValueError("cannot summarize an empty sample")
    finite = np.isfinite(arr)
    dropped = int(arr.size - int(finite.sum()))
    if dropped:
        if dropped == arr.size:
            raise ValueError(
                f"cannot summarize: all {arr.size} samples are non-finite")
        warnings.warn(
            f"dropped {dropped} non-finite of {arr.size} samples",
            NonFiniteSampleWarning, stacklevel=2)
        arr = arr[finite]
    return SummaryStats(
        median=float(np.median(arr)),
        p10=float(np.quantile(arr, 0.1)),
        p90=float(np.quantile(arr, 0.9)),
        n=int(arr.size),
        dropped=dropped,
    )


def median(samples: Sequence[float]) -> float:
    return summarize(samples).median


def decile_band(samples: Sequence[float]) -> Tuple[float, float]:
    s = summarize(samples)
    return (s.p10, s.p90)


def bootstrap_ci(samples: Sequence[float], confidence: float = 0.95,
                 n_boot: int = 2000, seed: int = 0) -> Tuple[float, float]:
    """Bootstrap confidence interval on the median."""
    arr = np.asarray(samples, dtype=float)
    if arr.size == 0:
        raise ValueError("cannot bootstrap an empty sample")
    if not (0 < confidence < 1):
        raise ValueError("confidence must be in (0, 1)")
    rng = np.random.default_rng(seed)
    idx = rng.integers(0, arr.size, size=(n_boot, arr.size))
    medians = np.median(arr[idx], axis=1)
    lo = (1 - confidence) / 2
    return (float(np.quantile(medians, lo)),
            float(np.quantile(medians, 1 - lo)))


# ---------------------------------------------------------------------------
# Trial aggregation (consumed by SweepGuard.run_specs)
# ---------------------------------------------------------------------------

def aggregate_trial_series(series_by_trial: Sequence[Mapping[str, list]]
                           ) -> Dict[str, list]:
    """Fold per-trial journal series into one aggregated series dict.

    Each input is one trial's ``{series_key: [[x, med, p10, p90], ...]}``
    as journaled.  The aggregate keeps one row per x: the median of the
    trial medians, with a conservative envelope band (min of the trial
    p10s, max of the trial p90s).  Series/row order follows first
    appearance across trials (trial 0 first), so single-surviving-trial
    aggregation degenerates to that trial's own rows.

    Trial rows carrying a non-finite median or band edge are dropped
    (with one :class:`NonFiniteSampleWarning` per series) before
    folding — ``np.median``/``min``/``max`` would otherwise propagate
    the NaN into the aggregate.  A point whose rows are *all*
    non-finite raises ``ValueError``.
    """
    keys: List[str] = []
    for sd in series_by_trial:
        for k in sd:
            if k not in keys:
                keys.append(k)
    out: Dict[str, list] = {}
    for k in keys:
        order: List[float] = []
        rows_by_x: Dict[float, List[list]] = {}
        for sd in series_by_trial:
            for row in sd.get(k, ()):
                x = row[0]
                if x not in rows_by_x:
                    rows_by_x[x] = []
                    order.append(x)
                rows_by_x[x].append(row)
        dropped = 0
        rows = []
        for x in order:
            finite = [r for r in rows_by_x[x]
                      if math.isfinite(r[1]) and math.isfinite(r[2])
                      and math.isfinite(r[3])]
            bad = len(rows_by_x[x]) - len(finite)
            if bad:
                if not finite:
                    raise ValueError(
                        f"series {k!r} x={x}: all {bad} trial rows "
                        f"are non-finite")
                dropped += bad
            rows.append([x,
                         float(np.median([r[1] for r in finite])),
                         min(r[2] for r in finite),
                         max(r[3] for r in finite)])
        if dropped:
            warnings.warn(
                f"series {k!r}: dropped {dropped} non-finite trial "
                f"row(s) before aggregating",
                NonFiniteSampleWarning, stacklevel=2)
        if rows:
            out[k] = rows
    return out


# ---------------------------------------------------------------------------
# Rank statistics: Mann-Whitney U + Vargha-Delaney A12
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MannWhitneyResult:
    """Two-sided Mann-Whitney U comparison of two samples.

    ``u`` is the U statistic of the first sample; ``p_value`` uses the
    normal approximation with tie correction and continuity correction
    (exact tables are pointless here — trial counts are small but the
    comparison is advisory, and the approximation is what fuzzbench's
    analysis layer effectively reports too).  ``effect_size`` is the
    Vargha-Delaney A12: P(a > b) + 0.5 P(a == b).
    """

    u: float
    p_value: float
    n_a: int
    n_b: int
    effect_size: float

    def significant(self, alpha: float = 0.05) -> bool:
        return self.p_value < alpha


def a12_effect_size(a: Sequence[float], b: Sequence[float]) -> float:
    """Vargha-Delaney A12: probability a random draw from *a* beats one
    from *b* (0.5 = no effect)."""
    a = list(map(float, a))
    b = list(map(float, b))
    if not a or not b:
        return 0.5
    gt = sum(1 for x in a for y in b if x > y)
    eq = sum(1 for x in a for y in b if x == y)
    return (gt + 0.5 * eq) / (len(a) * len(b))


def _rank_with_ties(values: Sequence[float]) -> Tuple[List[float], float]:
    """Average ranks (1-based) and the tie-correction term Σ(t³ - t)."""
    order = sorted(range(len(values)), key=lambda i: values[i])
    ranks = [0.0] * len(values)
    tie_term = 0.0
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) \
                and values[order[j + 1]] == values[order[i]]:
            j += 1
        avg = (i + j + 2) / 2.0  # ranks are 1-based
        for k in range(i, j + 1):
            ranks[order[k]] = avg
        t = j - i + 1
        if t > 1:
            tie_term += t ** 3 - t
        i = j + 1
    return ranks, tie_term


def mann_whitney_u(a: Sequence[float],
                   b: Sequence[float]) -> MannWhitneyResult:
    """Two-sided Mann-Whitney U test (normal approximation, tie and
    continuity corrected).

    Degenerate inputs (an empty side, or all values identical so the
    rank variance is zero) return ``p_value = 1.0`` rather than NaN —
    "no evidence of a difference" is the honest report there.
    """
    a = [float(x) for x in a]
    b = [float(x) for x in b]
    n_a, n_b = len(a), len(b)
    effect = a12_effect_size(a, b)
    if n_a == 0 or n_b == 0:
        return MannWhitneyResult(u=0.0, p_value=1.0, n_a=n_a, n_b=n_b,
                                 effect_size=effect)
    ranks, tie_term = _rank_with_ties(a + b)
    r_a = sum(ranks[:n_a])
    # U of the first sample: pairs where a beats b (+ half the ties),
    # the same direction as A12.  The two-sided p is symmetric in it.
    u_a = r_a - n_a * (n_a + 1) / 2.0
    n = n_a + n_b
    mu = n_a * n_b / 2.0
    var = n_a * n_b / 12.0 * ((n + 1) - tie_term / (n * (n - 1)))
    if var <= 0:  # every value tied: no rank information at all
        return MannWhitneyResult(u=u_a, p_value=1.0, n_a=n_a, n_b=n_b,
                                 effect_size=effect)
    z = (abs(u_a - mu) - 0.5) / math.sqrt(var)
    z = max(z, 0.0)  # continuity correction cannot flip the sign
    p = 2.0 * (1.0 - 0.5 * (1.0 + math.erf(z / math.sqrt(2.0))))
    return MannWhitneyResult(u=u_a, p_value=min(1.0, p), n_a=n_a,
                             n_b=n_b, effect_size=effect)


# ---------------------------------------------------------------------------
# Campaign-level views over journals
# ---------------------------------------------------------------------------

def read_journal_entries(path) -> List[dict]:
    """Tolerantly parse a JSON-lines campaign journal.

    The one journal parser: ``status``, ``report`` and
    ``CampaignJournal`` on resume all read through it.  A line being
    written by a live campaign, or torn by a crash, may be incomplete,
    so malformed lines, and records without ``experiment``, ``key``
    and ``status``, are skipped instead of raising.
    """
    entries: List[dict] = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                entry = json.loads(line)
            except json.JSONDecodeError:
                continue  # in-flight partial line
            if isinstance(entry, dict) and \
                    {"experiment", "key", "status"} <= entry.keys():
                entries.append(entry)
    return entries


@dataclass(frozen=True)
class TrialSet:
    """The per-trial medians of one (experiment, series, x) point."""

    experiment: str
    series: str
    x: float
    values: Tuple[float, ...]
    # Per-trial decile bands, for a band fallback when n == 1.
    bands: Tuple[Tuple[float, float], ...] = ()

    @property
    def n(self) -> int:
        return len(self.values)

    @property
    def mean(self) -> float:
        return float(np.mean(self.values))

    @property
    def median(self) -> float:
        return float(np.median(self.values))

    def ci(self, confidence: float = 0.95,
           n_boot: int = 2000) -> Tuple[float, float]:
        """Bootstrap CI on the median of the trial medians.

        With a single trial there is nothing to resample: fall back to
        that trial's own decile band (or a degenerate interval).
        """
        if self.n == 1:
            if self.bands:
                return self.bands[0]
            return (self.values[0], self.values[0])
        return bootstrap_ci(self.values, confidence=confidence,
                            n_boot=n_boot)


@dataclass(frozen=True)
class Comparison:
    """One A/B point comparison between two campaigns."""

    experiment: str
    series: str
    x: float
    median_a: float
    median_b: float
    test: MannWhitneyResult

    @property
    def delta_pct(self) -> Optional[float]:
        if self.median_a == 0:
            return None
        return (self.median_b - self.median_a) / abs(self.median_a) * 100.0


@dataclass
class CampaignResults:
    """Everything the analysis layer needs out of one campaign journal.

    Mirrors fuzzbench's ``ExperimentResults``: raw trial records go in,
    derived views (trial sets, failures, folded metrics) come out as
    properties computed on demand.
    """

    name: str
    entries: List[dict] = field(default_factory=list)

    @classmethod
    def from_journal(cls, path, name: Optional[str] = None
                     ) -> "CampaignResults":
        path = Path(path)
        return cls(name=name or path.name,
                   entries=read_journal_entries(path))

    # -- derived views ------------------------------------------------------
    def experiments(self) -> List[str]:
        seen: List[str] = []
        for e in self.entries:
            if e["experiment"] not in seen:
                seen.append(e["experiment"])
        return seen

    def trials(self, experiment: str) -> int:
        """Number of distinct trial indices journaled (>= 1)."""
        return 1 + max((int(e.get("trial", 0)) for e in self.entries
                        if e["experiment"] == experiment), default=0)

    def trial_sets(self, experiment: Optional[str] = None
                   ) -> List[TrialSet]:
        """One :class:`TrialSet` per (experiment, series, x), in first-
        appearance order, folding every ``ok`` trial record in."""
        order: List[Tuple[str, str, float]] = []
        values: Dict[Tuple[str, str, float], List[float]] = {}
        bands: Dict[Tuple[str, str, float], List[Tuple[float, float]]] = {}
        for e in self.entries:
            if e.get("status") != "ok":
                continue
            if experiment is not None and e["experiment"] != experiment:
                continue
            for series, rows in (e.get("series") or {}).items():
                for row in rows:
                    k = (e["experiment"], series, float(row[0]))
                    if k not in values:
                        order.append(k)
                        values[k] = []
                        bands[k] = []
                    values[k].append(float(row[1]))
                    bands[k].append((float(row[2]), float(row[3])))
        return [TrialSet(experiment=exp, series=series, x=x,
                         values=tuple(values[(exp, series, x)]),
                         bands=tuple(bands[(exp, series, x)]))
                for exp, series, x in order]

    def series_points(self, experiment: str
                      ) -> Dict[str, List[TrialSet]]:
        """Trial sets grouped by series key, rows in journal order."""
        out: Dict[str, List[TrialSet]] = {}
        for ts in self.trial_sets(experiment):
            out.setdefault(ts.series, []).append(ts)
        return out

    def failures(self) -> List[dict]:
        """Failed trial records, flattened and trial-labelled."""
        out = []
        for e in self.entries:
            if e.get("status") == "ok":
                continue
            trial = int(e.get("trial", 0))
            key = e["key"] if not trial else f"{e['key']}#t{trial}"
            info = e.get("failure") or {}
            out.append({"experiment": e["experiment"], "key": key,
                        "trial": trial,
                        "error": info.get("error", "?"),
                        "message": info.get("message", ""),
                        "harness": bool(info.get("harness"))})
        return out

    def status_counts(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for e in self.entries:
            s = e.get("status", "?")
            counts[s] = counts.get(s, 0) + 1
        return counts

    def point_metrics(self) -> List[Tuple[dict, dict]]:
        """``(entry, metrics_delta)`` for entries that journaled one."""
        return [(e, e["metrics"]) for e in self.entries
                if e.get("metrics")]

    # -- A/B comparison -----------------------------------------------------
    def compare(self, other: "CampaignResults") -> List[Comparison]:
        """Mann-Whitney U per common (experiment, series, x) point."""
        theirs = {(ts.experiment, ts.series, ts.x): ts
                  for ts in other.trial_sets()}
        out: List[Comparison] = []
        for ts in self.trial_sets():
            peer = theirs.get((ts.experiment, ts.series, ts.x))
            if peer is None:
                continue
            out.append(Comparison(
                experiment=ts.experiment, series=ts.series, x=ts.x,
                median_a=ts.median, median_b=peer.median,
                test=mann_whitney_u(ts.values, peer.values)))
        return out
