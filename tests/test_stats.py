"""Statistics engine: trial aggregation, Mann-Whitney U, campaign API.

The multi-seed tentpole's analysis layer: per-point trial sets with
bootstrap CIs, journal-backed :class:`CampaignResults`, and the
scipy-free Mann-Whitney U implementation the A/B comparison report
uses (hand-checked against published worked examples).
"""

import json
import math

import pytest

from repro.analysis.stats import (CampaignResults, TrialSet,
                                  a12_effect_size, aggregate_trial_series,
                                  mann_whitney_u, read_journal_entries)
from repro.core.htmlreport import trial_ci


# -- aggregate_trial_series -------------------------------------------------

def _series(med):
    # Journaled shape: {series_key: [[x, median, p10, p90], ...]}.
    return {"lat": [[x, m, m * 0.9, m * 1.1]
                    for x, m in zip([1.0, 2.0], med)]}


def test_aggregate_is_median_of_medians_with_envelope_band():
    agg = aggregate_trial_series(
        [_series([10.0, 1.0]), _series([30.0, 3.0]), _series([20.0, 2.0])])
    lat = agg["lat"]
    assert [r[0] for r in lat] == [1.0, 2.0]
    assert [r[1] for r in lat] == [20.0, 2.0]    # median of 10/30/20
    assert [r[2] for r in lat] == [9.0, 0.9]     # min of the p10s
    assert [r[3] for r in lat] == pytest.approx([33.0, 3.3])


def test_aggregate_single_trial_is_identity():
    one = _series([5.0, 6.0])
    agg = aggregate_trial_series([one])
    assert agg["lat"] == one["lat"]


# -- Mann-Whitney U ---------------------------------------------------------

def test_mann_whitney_separated_groups():
    # Complete separation: U for the smaller-ranked group is 0.
    res = mann_whitney_u([1, 2, 3, 4, 5], [10, 11, 12, 13, 14])
    assert res.u == 0.0
    assert res.p_value < 0.02
    assert res.significant()
    assert res.effect_size == 0.0        # A12: a never beats b


def test_mann_whitney_identical_groups_not_significant():
    res = mann_whitney_u([1, 2, 3], [1, 2, 3])
    assert res.p_value > 0.9
    assert not res.significant()
    assert res.effect_size == pytest.approx(0.5)


def test_mann_whitney_handles_ties():
    res = mann_whitney_u([1, 1, 2, 2], [2, 2, 3, 3])
    # 4 of the 16 pairs tie, 12 favour b: U_a = 0*12 + 0.5*4 = 2.
    assert res.u == pytest.approx(2.0)
    assert 0.0 < res.p_value <= 1.0


def test_mann_whitney_degenerate_inputs():
    assert mann_whitney_u([], [1.0]).p_value == 1.0
    assert mann_whitney_u([1.0], []).p_value == 1.0
    # All values equal: zero variance, no evidence either way.
    res = mann_whitney_u([2.0, 2.0], [2.0, 2.0])
    assert res.p_value == 1.0
    assert not res.significant()
    assert math.isfinite(res.u)


def test_a12_effect_size_direction():
    assert a12_effect_size([1, 2], [3, 4]) == 0.0
    assert a12_effect_size([3, 4], [1, 2]) == 1.0
    assert a12_effect_size([1, 2], [1, 2]) == pytest.approx(0.5)
    assert a12_effect_size([], [1]) == pytest.approx(0.5)


# -- TrialSet ---------------------------------------------------------------

def test_trialset_ci_brackets_median():
    ts = TrialSet(experiment="e", series="s", x=1.0,
                  values=(10.0, 12.0, 11.0, 13.0, 9.0),
                  bands=((9.0, 14.0),))
    lo, hi = trial_ci(ts)
    assert lo <= ts.median <= hi
    assert ts.n == 5
    assert ts.mean == pytest.approx(11.0)


def test_trialset_single_trial_ci_falls_back_to_band():
    ts = TrialSet(experiment="e", series="s", x=1.0,
                  values=(10.0,), bands=((8.0, 12.0),))
    assert trial_ci(ts) == (8.0, 12.0)


# -- CampaignResults --------------------------------------------------------

def _write_journal(path, medians_by_trial, experiment="fig1"):
    with open(path, "w", encoding="utf-8") as fh:
        for trial, med in enumerate(medians_by_trial):
            for i, m in enumerate(med):
                entry = {"experiment": experiment, "key": f"size={4 << i}",
                         "status": "ok",
                         "series": {"lat": [[float(4 << i), m,
                                             m * 0.9, m * 1.1]]}}
                if trial:
                    entry["trial"] = trial
                fh.write(json.dumps(entry) + "\n")


def test_campaign_results_from_journal(tmp_path):
    p = tmp_path / "c.jsonl"
    _write_journal(p, [[1.0, 2.0], [1.2, 2.2], [0.8, 1.8]])
    res = CampaignResults.from_journal(p)
    assert res.experiments() == ["fig1"]
    assert res.trials("fig1") == 3
    sets = res.trial_sets("fig1")
    assert len(sets) == 2
    assert sets[0].values == (1.0, 1.2, 0.8)
    assert sets[0].median == pytest.approx(1.0)


def test_campaign_compare_detects_shift(tmp_path):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    _write_journal(a, [[1.0, 2.0], [1.1, 2.1], [0.9, 1.9], [1.05, 2.05]])
    _write_journal(b, [[5.0, 6.0], [5.1, 6.1], [4.9, 5.9], [5.05, 6.05]])
    comps = CampaignResults.from_journal(a).compare(
        CampaignResults.from_journal(b))
    assert len(comps) == 2
    for c in comps:
        assert c.median_b > c.median_a
        assert c.delta_pct > 0
        assert c.test.effect_size == 0.0


def test_read_journal_entries_skips_malformed_lines(tmp_path):
    p = tmp_path / "c.jsonl"
    good = json.dumps({"experiment": "e", "key": "k", "status": "ok"})
    p.write_text(good + "\n{not json\n" + good + "\n"
                 + '{"experiment": "e3"}\n'
                 + '{"experiment": "e2"', encoding="utf-8")
    entries = read_journal_entries(p)
    # malformed line, keyless record and truncated tail skipped
    assert len(entries) == 2
    assert all(e["experiment"] == "e" for e in entries)


def test_failures_are_trial_labelled(tmp_path):
    p = tmp_path / "c.jsonl"
    rows = [
        {"experiment": "e", "key": "k", "status": "ok", "series": {}},
        {"experiment": "e", "key": "k", "trial": 1, "status": "failed",
         "failure": {"error": "TransportError", "message": "boom",
                     "harness": False}},
    ]
    p.write_text("".join(json.dumps(r) + "\n" for r in rows),
                 encoding="utf-8")
    res = CampaignResults.from_journal(p)
    fails = res.failures()
    assert len(fails) == 1
    assert fails[0]["trial"] == 1
    assert res.status_counts() == {"ok": 1, "failed": 1}


# -- non-finite sample handling ---------------------------------------------

def test_summarize_drops_nan_with_warning():
    from repro.analysis.stats import NonFiniteSampleWarning, summarize
    with pytest.warns(NonFiniteSampleWarning):
        s = summarize([1.0, float("nan"), 3.0, float("inf")])
    assert s.median == 2.0
    assert (s.n, s.dropped) == (2, 2)


def test_summarize_all_nonfinite_raises():
    from repro.analysis.stats import summarize
    with pytest.raises(ValueError, match="non-finite"):
        summarize([float("nan"), float("inf")])


def test_summarize_healthy_sample_has_no_dropped_and_no_warning():
    import warnings

    from repro.analysis.stats import summarize
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        s = summarize([1.0, 2.0, 3.0])
    assert (s.n, s.dropped) == (3, 0)


def test_aggregate_drops_nonfinite_trial_rows_with_warning():
    from repro.analysis.stats import NonFiniteSampleWarning
    nan = float("nan")
    with pytest.warns(NonFiniteSampleWarning):
        agg = aggregate_trial_series([
            {"lat": [[1.0, 10.0, 9.0, 11.0]]},
            {"lat": [[1.0, nan, 9.0, 11.0]]},   # poisoned median
            {"lat": [[1.0, 30.0, 27.0, 33.0]]},
        ])
    x, med, p10, p90 = agg["lat"][0]
    assert med == 20.0                           # median of the finite pair
    assert (p10, p90) == (9.0, 33.0)
    assert math.isfinite(med)


def test_aggregate_all_nonfinite_point_raises():
    nan = float("nan")
    with pytest.raises(ValueError, match="non-finite"):
        aggregate_trial_series([
            {"lat": [[1.0, nan, 9.0, 11.0]]},
            {"lat": [[1.0, 10.0, nan, 11.0]]},
        ])
