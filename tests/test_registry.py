"""Registry-consistency tests: the drift the old five-structure CLI
setup invited (name table / fast table / capability sets / bench subset
/ fig5 special cases) is now caught here against the single registry."""

import pathlib

import pytest

from repro.core import registry
from repro.core.registry import ExperimentDef, UnknownExperimentError

ROOT = pathlib.Path(__file__).resolve().parents[1]

ALL_DEFS = registry.all_defs()
ALL_IDS = [d.name for d in ALL_DEFS]

# Cheap cross-section for the default lane: one frequency figure, one
# trace figure, one runtime sweep, the runtime overhead micro and the
# fig10 application sweep.  The full set runs in the slow lane below.
SMOKE = ["fig1a", "fig2", "fig9", "runtime_overhead", "fig10"]


def test_registry_is_populated_and_ordered():
    names = registry.names()
    assert names[0] == "fig1a"
    assert "fig5" in names and "fig_xapp" in names
    assert len(names) == len(set(names))


def test_every_experiment_has_a_fast_profile():
    for defn in ALL_DEFS:
        assert defn.fast_kwargs, f"{defn.name} lacks a --fast profile"


def test_fast_profiles_match_signatures():
    """Every fast kwarg must be a parameter the entry point accepts."""
    for defn in ALL_DEFS:
        named, var_kw = defn.signature_params()
        for key in defn.fast_kwargs:
            assert var_kw or key in named, \
                f"{defn.name}: fast kwarg {key!r} not in signature"


def test_every_experiment_has_title_and_doc():
    for defn in ALL_DEFS:
        assert defn.title
        assert defn.doc, f"{defn.name}'s entry point lacks a docstring"


def test_every_entry_point_accepts_journal():
    """Every experiment runs as a sweep: its entry point takes the
    journal the registry always passes."""
    import inspect
    for defn in ALL_DEFS:
        params = inspect.signature(defn.runner).parameters
        assert "journal" in params or any(
            p.kind is inspect.Parameter.VAR_KEYWORD
            for p in params.values()), f"{defn.name} takes no journal"


def test_ablations_are_registered_but_not_in_all():
    ablations = registry.names(tag="ablation")
    assert len(ablations) == 5
    assert not set(ablations) & set(registry.names(in_all=True))


def test_unknown_experiment_error_is_actionable():
    with pytest.raises(UnknownExperimentError) as err:
        registry.get("fig99")
    msg = str(err.value)
    assert "fig99" in msg and "valid experiments" in msg
    assert "fig4a" in msg
    # Backwards compatible with the historical dict lookup.
    assert isinstance(err.value, KeyError)
    with pytest.raises(KeyError):
        registry.run_experiment("fig99")


def test_duplicate_registration_rejected():
    defn = registry.get("fig1a")
    with pytest.raises(ValueError, match="registered twice"):
        registry.register(defn)


def test_listing_snapshot_matches():
    """`repro list --long` is snapshotted; a diff means an experiment
    was added/renamed/re-capabilitied — regenerate the snapshot
    deliberately (see .github/workflows/ci.yml scenario-smoke)."""
    snapshot = (ROOT / "tests" / "data" / "registry_listing.txt")
    assert registry.render_listing(long=True) + "\n" == \
        snapshot.read_text()


def test_index_keys_appear_in_design_index():
    design = (ROOT / "DESIGN.md").read_text()
    for defn in ALL_DEFS:
        assert f"| {defn.index_key} " in design, \
            f"{defn.name} (index_key={defn.index_key!r}) missing from " \
            f"the DESIGN.md §5 experiment index"


def test_names_appear_in_experiments_md_index():
    path = ROOT / "EXPERIMENTS.md"
    if not path.exists():
        pytest.skip("EXPERIMENTS.md not generated in this checkout")
    text = path.read_text()
    for defn in ALL_DEFS:
        assert f"| {defn.name} |" in text, \
            f"{defn.name} missing from the EXPERIMENTS.md index"


def _smoke(defn: ExperimentDef):
    result = defn.run(fast=True)
    if defn.multi_result:
        assert isinstance(result, dict) and result
    text = defn.render(result)
    assert isinstance(text, str) and text.strip()
    return result


@pytest.mark.parametrize("name", SMOKE)
def test_fast_smoke_subset(name):
    _smoke(registry.get(name))


@pytest.mark.slow
@pytest.mark.parametrize("name", [n for n in ALL_IDS if n not in SMOKE])
def test_fast_smoke_all(name):
    """Every registered experiment runs in --fast and renders."""
    _smoke(registry.get(name))
