"""The paper's headline findings, asserted on the ``--fast`` runs.

One test per ``"fast"`` check of the claims table
(:data:`repro.core.record.CLAIMS`): the *shape* of each result —
orderings, thresholds and rough factors.  Each run executes once per
module.  The same runs render EXPERIMENTS.md, so a stale committed copy
fails here too; regenerate it with ``python tools/experiments_md.py``.
"""

import importlib.util
import pathlib

import pytest

from repro.core.record import checks, run_fast

pytestmark = pytest.mark.slow

ROOT = pathlib.Path(__file__).resolve().parents[1]

_spec = importlib.util.spec_from_file_location(
    "experiments_md", ROOT / "tools" / "experiments_md.py")
experiments_md = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(experiments_md)


class _Runs(dict):
    """Run id -> result, running each ``--fast`` run on first access."""

    def __missing__(self, run_id):
        self[run_id] = result = run_fast(run_id)
        return result


@pytest.fixture(scope="module")
def runs():
    return _Runs()


@pytest.mark.parametrize("check", checks("fast"), ids=lambda c: c.name)
def test_claim(check, runs):
    value = check.evaluate(runs)
    assert check.holds(value), \
        f"{check.name}: {value!r} outside [{check.lo!r}, {check.hi!r}]"


def test_experiments_md_is_fresh(runs):
    committed = experiments_md.OUT.read_text()
    assert committed == experiments_md.render(runs), \
        "EXPERIMENTS.md is stale: run python tools/experiments_md.py"
