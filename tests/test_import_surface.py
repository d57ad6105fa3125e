"""The import surface: lazy packages, and read-only commands that never
load the simulator (DESIGN.md, "Import surface").

Each check runs in a fresh interpreter, because this test process has
long since imported everything.
"""

import ast
import json
import os
import re
import subprocess
import sys
from importlib.util import resolve_name
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


# -- reachability -----------------------------------------------------------

#: A string constant naming a module, optionally with ``:func``: the
#: registry's provider modules and the runner and renderer strings.
_MODULE_STRING = re.compile(r"repro(\.\w+)+(:\w+)?")


def _modules(root: Path) -> dict:
    """``{module name: source path}`` for every module under *root*."""
    found = {}
    for path in sorted((root / "repro").rglob("*.py")):
        parts = path.relative_to(root).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        found[".".join(parts)] = path
    return found


def _lazy_calls(tree: ast.Module) -> list:
    return [node for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and getattr(node.func, "id", None) == "lazy_exports"]


def _lazy_table(name: str, tree: ast.Module) -> dict:
    """``{exported name: module}`` from *name*'s ``lazy_exports`` call."""
    table = {}
    for call in _lazy_calls(tree):
        for module, names in ast.literal_eval(call.args[1]).items():
            target = resolve_name(module, name) \
                if module.startswith(".") else module
            table.update(dict.fromkeys(names, target))
    return table


def _reachable(modules: dict, roots) -> set:
    """The *modules* a static walk reaches from *roots*; no code is
    run."""
    trees = {name: ast.parse(path.read_text(encoding="utf-8"))
             for name, path in modules.items()}
    lazy = {name: _lazy_table(name, tree) for name, tree in trees.items()}

    def targets(package: str, attr: str) -> list:
        """Modules that ``from package import attr`` loads."""
        if f"{package}.{attr}" in modules:
            return [f"{package}.{attr}"]
        module = lazy.get(package, {}).get(attr)
        if module is None:
            return []
        return [module, *targets(module, attr)]

    def edges(name: str):
        package = name if modules[name].name == "__init__.py" \
            else name.rpartition(".")[0]
        # A lazy table's module strings are not edges: only an import
        # of one of its names is.
        table_strings = {id(node) for call in _lazy_calls(trees[name])
                         for node in ast.walk(call)}
        for node in ast.walk(trees[name]):
            if isinstance(node, ast.Import):
                yield from (alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom):
                base = resolve_name("." * node.level + (node.module or ""),
                                    package) if node.level else node.module
                yield base
                for alias in node.names:
                    attrs = lazy.get(base, {}) if alias.name == "*" \
                        else [alias.name]
                    for attr in attrs:
                        yield from targets(base, attr)
            elif isinstance(node, ast.Constant) \
                    and isinstance(node.value, str) \
                    and _MODULE_STRING.fullmatch(node.value) \
                    and id(node) not in table_strings:
                yield node.value.partition(":")[0]

    seen, todo = set(), list(roots)
    while todo:
        name = todo.pop()
        # Importing a.b.c runs a and a.b first.
        parts = name.split(".")
        for i in range(1, len(parts) + 1):
            prefix = ".".join(parts[:i])
            if prefix in modules and prefix not in seen:
                seen.add(prefix)
                todo.extend(edges(prefix))
    return seen


def test_every_module_is_reachable_from_the_cli():
    """Every module under ``src/repro`` is one the CLI can load: a
    static walk from ``repro.cli`` and ``repro.__main__`` over import
    statements, the names they pull through lazy-export tables, and
    ``"repro.x.y[:func]"`` strings reaches them all.  A lazy-table
    entry alone is not an edge, so a module only tests import fails."""
    modules = _modules(Path(SRC))
    unreached = sorted(set(modules) - _reachable(
        modules, ("repro.cli", "repro.__main__")))
    assert unreached == [], f"modules the CLI cannot reach: {unreached}"
