"""The import surface: lazy packages, and read-only commands that never
load the simulator (DESIGN.md, "Import surface").

Each check runs in a fresh interpreter, because this test process has
long since imported everything.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.core.registry import PROVIDER_MODULES

SRC = str(Path(repro.__file__).resolve().parent.parent)

PACKAGES = ("repro", "repro.core", "repro.sim", "repro.hardware",
            "repro.obs", "repro.analysis", "repro.mpi", "repro.netmodel",
            "repro.kernels", "repro.runtime", "repro.runtime.apps",
            "repro.faults")

#: Packages a read-only command (report, status, trace-summary) must
#: never load.
SIMULATOR = ("repro.sim", "repro.hardware", "repro.netmodel", "repro.mpi",
             "repro.runtime")

_REPORT_MODULES = """
import json, sys
print(json.dumps(sorted(m for m in sys.modules if m.startswith("repro"))))
"""


def _fresh(code: str, *argv: str, cwd=None) -> list:
    """Run *code* in a fresh interpreter; returns the ``repro`` modules
    it had loaded at the end."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (SRC, env.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-c", code + _REPORT_MODULES, *argv],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def _simulator_modules(loaded: list) -> list:
    return [m for m in loaded
            if any(m == p or m.startswith(p + ".") for p in SIMULATOR)]


def test_packages_import_nothing_else():
    assert _fresh("import repro") == ["repro", "repro._lazy"]
    every_package = "\n".join(f"import {name}" for name in PACKAGES)
    assert _fresh(every_package) == sorted(("repro._lazy",) + PACKAGES)


def test_every_exported_name_resolves_and_is_listed():
    code = f"""
import importlib
for name in {PACKAGES!r}:
    pkg = importlib.import_module(name)
    listed = dir(pkg)
    for attr in pkg.__all__:
        assert getattr(pkg, attr) is not None, (name, attr)
        assert attr in listed, (name, attr)
"""
    _fresh(code)


def test_star_import_and_submodule_attributes():
    code = """
import repro.sim
assert repro.sim.fluid.FluidNetwork is repro.sim.FluidNetwork
from repro import *
assert Cluster is repro.hardware.topology.Cluster
assert experiments is repro.core.experiments
from repro.obs import context
assert context is repro.obs.context
"""
    _fresh(code)


@pytest.mark.parametrize("package", ["repro", "repro.sim", "repro.core"])
def test_unknown_attribute_names_the_module(package):
    code = f"""
import importlib
pkg = importlib.import_module({package!r})
try:
    pkg.no_such_name
except AttributeError as err:
    want = "module {package!r} has no attribute 'no_such_name'"
    assert str(err) == want, err
else:
    raise SystemExit("no AttributeError")
"""
    _fresh(code)


@pytest.fixture(scope="module")
def campaign(tmp_path_factory):
    """A one-experiment journal and a Chrome trace to read back."""
    d = tmp_path_factory.mktemp("campaign")
    from repro.cli import main
    assert main(["run", "fig1a", "--fast", "--journal", str(d / "J.jsonl"),
                 "--trace", str(d / "T.json")]) == 0
    return d


@pytest.mark.parametrize("argv", [
    ("report", "J.jsonl", "-o", "R.html"),
    ("report", "J.jsonl", "--compare", "J.jsonl", "-o", "R2.html"),
    ("status", "J.jsonl"),
    ("trace-summary", "T.json"),
])
def test_read_only_commands_load_no_simulator(campaign, argv):
    code = """
import sys
from repro.cli import main
assert main(sys.argv[1:]) == 0
"""
    loaded = _fresh(code, *argv, cwd=campaign)
    assert "repro.cli" in loaded
    assert _simulator_modules(loaded) == []
    assert not set(loaded) & {"repro.core.registry", *PROVIDER_MODULES}
