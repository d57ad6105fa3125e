"""Tests for the claims table (``repro.core.record``) and the
EXPERIMENTS.md it renders."""

import hashlib
import pathlib

import pytest

from repro.core import registry
from repro.core.record import CLAIMS
from repro.hardware.presets import available_presets

ALL_CHECKS = [c for claim in CLAIMS for c in claim.checks]


def test_every_claim_targets_a_runnable_experiment():
    """Every run id is ``<experiment>[@<preset>][/<variant>]`` over a
    registered experiment and preset; fast run ids have no variant."""
    for check in ALL_CHECKS:
        for run_id in check.runs:
            base, _, variant = run_id.partition("/")
            experiment, _, preset = base.partition("@")
            assert experiment in registry.names(), run_id
            assert preset in ("",) + available_presets(), run_id
            assert not (variant and "fast" in check.at), run_id


def test_all_paper_artefacts_covered():
    """The 15 paper artefacts, in the paper's order, with their texts
    unchanged (the HTML report renders them)."""
    assert [c.figure for c in CLAIMS] == [
        "fig1a", "fig1b", "fig2", "fig3a", "fig4a", "fig4b", "table1",
        "fig6a", "fig6b", "fig7a", "fig7b", "runtime_overhead", "fig8",
        "fig9", "fig10"]
    texts = "\n".join(f"{c.figure}\t{c.text}" for c in CLAIMS)
    assert hashlib.sha256(texts.encode()).hexdigest() == \
        "35e7c45bea747d6d175585ab84f73c72db94d6752fcf7ac499e593bbf4beb218"


def test_claims_have_text_and_extractors():
    names = [c.name for c in ALL_CHECKS]
    assert len(names) == len(set(names)), "check names must be unique"
    for claim in CLAIMS:
        assert len(claim.text) > 10 and claim.checks, claim.figure
    for check in ALL_CHECKS:
        assert callable(check.measure) and check.runs, check.name
        assert check.lo <= check.hi, check.name
        assert check.at and check.at <= {"fast", "bench"}, check.name


def test_known_deviations_mention_each_case():
    """A check whose paper value lies outside its interval belongs to a
    claim that says why, and every stated deviation has such a check."""
    for claim in CLAIMS:
        deviating = [c.name for c in claim.checks if c.deviates]
        assert bool(deviating) == bool(claim.deviation), \
            (claim.figure, deviating)


def test_experiments_md_exists_and_has_all_rows():
    path = pathlib.Path(__file__).resolve().parents[1] / "EXPERIMENTS.md"
    if not path.exists():
        pytest.skip("EXPERIMENTS.md not generated in this checkout")
    text = path.read_text()
    for claim in CLAIMS:
        assert f"| {claim.figure} |" in text
    for check in ALL_CHECKS:
        assert f"| {check.name} |" in text
    assert "Known deviations" in text
