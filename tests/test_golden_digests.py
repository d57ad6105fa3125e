"""The identity manifest ``tests/data/golden_digests.json``.

``tools/golden_digests.py`` regenerates the manifest from every
``--fast`` artifact, and CI fails when the regenerated file differs from
the committed one.  Tier-1 checks the cheap half of that contract: the
manifest covers exactly what the registry runs, fig1a still regenerates
to its committed digests, and the diff names what changed.
"""

import importlib.util
import json
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]

_spec = importlib.util.spec_from_file_location(
    "golden_digests", ROOT / "tools" / "golden_digests.py")
golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden)

MANIFEST = json.loads(golden.MANIFEST.read_text())


def test_manifest_covers_the_registry():
    """An experiment added or renamed without regenerating the manifest
    fails here."""
    expected = {f"{run}/{kind}" for run, _, _, kinds in golden.runs()
                for kind in kinds}
    assert sorted(MANIFEST) == sorted(expected)
    assert {"fig1a+fault/out", "fig1a+fault/journal", "fig5/metrics",
            "fig2/trace"} <= expected
    assert "fig2/journal" in expected


def test_fig1a_regenerates_to_the_committed_digests():
    run = next(r for r in golden.runs() if r[0] == "fig1a")
    committed = {key: digest for key, digest in MANIFEST.items()
                 if key.startswith("fig1a/")}
    assert len(committed) == 4
    assert golden.digest_run(run) == committed


def test_diff_names_each_differing_entry():
    new = dict(MANIFEST)
    new["fig10/metrics"] = "0" * 64
    del new["fig2/trace"]
    new["figX/out"] = "1" * 64
    assert golden.diff_manifests(MANIFEST, new) == [
        "changed  fig10/metrics", "removed  fig2/trace", "added    figX/out"]
    assert golden.diff_manifests(MANIFEST, dict(MANIFEST)) == []
