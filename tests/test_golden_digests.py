"""The identity manifest ``tests/data/golden_digests.json``.

``tools/golden_digests.py`` regenerates the manifest from every
``--fast`` artifact, and CI fails when the regenerated file differs from
the committed one.  Tier-1 checks the cheap half of that contract: the
manifest covers exactly what the registry runs, three cheap runs still
regenerate to their committed digests, and the diff names what changed.
"""

import importlib.util
import json
import pathlib

import pytest

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


@pytest.mark.parametrize("name", ["fig1a", "fig9", "no_scheduler_locality"])
def test_run_regenerates_to_the_committed_digests(name):
    """fig1a pins the MPI layer; fig9 and no_scheduler_locality pin the
    task runtime (its comm layer and its two-rank CG/GEMM harness)."""
    run = next(r for r in golden.runs() if r[0] == name)
    committed = {key: digest for key, digest in MANIFEST.items()
                 if key.startswith(f"{name}/")}
    assert len(committed) == 4
    assert golden.digest_run(run) == committed


def test_table1_journal_is_fig5s():
    """table1 is a view of fig5: it journals fig5's sweeps, under
    fig5's names, and nothing else."""
    assert MANIFEST["table1/journal"] == MANIFEST["fig5/journal"]


def test_diff_names_each_differing_entry():
    new = dict(MANIFEST)
    new["fig10/metrics"] = "0" * 64
    del new["fig2/trace"]
    new["figX/out"] = "1" * 64
    assert golden.diff_manifests(MANIFEST, new) == [
        "changed  fig10/metrics", "removed  fig2/trace", "added    figX/out"]
    assert golden.diff_manifests(MANIFEST, dict(MANIFEST)) == []
