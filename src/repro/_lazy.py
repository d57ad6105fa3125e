"""Lazy package surfaces (PEP 562 module ``__getattr__``).

A package ``__init__`` declares what it re-exports and from which
submodule, and imports none of it::

    __getattr__, __dir__ = lazy_exports(__name__, {
        ".engine": ("Simulator", "Process"),
        ".events": ("Event",),
    })

The first access to an exported name imports its submodule and caches
the value in the package namespace, so ``from repro.sim import Event``
and ``repro.sim.Event`` keep their meaning while ``import repro`` loads
nothing else.  Any other name is tried as a submodule, so
``repro.sim.fluid`` still resolves after a bare ``import repro.sim``.
"""

from __future__ import annotations

import sys
from importlib.util import resolve_name
from typing import Callable, Iterable, List, Mapping, Tuple

__all__ = ["lazy_exports"]


def lazy_exports(package: str, exports: Mapping[str, Iterable[str]]
                 ) -> Tuple[Callable[[str], object], Callable[[], List[str]]]:
    """``(__getattr__, __dir__)`` for the module named *package*.

    *exports* maps a module (relative to *package* when it starts with a
    dot) to the names *package* re-exports from it.  Plain modules may
    use it too: ``repro.cli`` re-exports ``run_experiment`` this way.
    """
    origin = {name: module
              for module, names in exports.items() for name in names}
    namespace = sys.modules[package].__dict__

    def __getattr__(name: str):
        module = origin.get(name)
        if module is not None:
            value = getattr(_import(resolve_name(module, package)), name)
        elif name.startswith("__"):
            # Dunder probes never name submodules; the import system's
            # ``__path__`` probe on a plain module would recurse here.
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        else:
            qualified = f"{package}.{name}"
            try:
                value = _import(qualified)
            except ModuleNotFoundError as err:
                if err.name != qualified:
                    raise
                raise AttributeError(
                    f"module {package!r} has no attribute {name!r}"
                ) from None
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(origin))

    return __getattr__, __dir__


def _import(name: str):
    """Import module *name* through the ``import`` statement's machinery
    (not :func:`importlib.import_module`), so ``python -X importtime``
    lists the modules a lazy attribute pulls in."""
    __import__(name)
    return sys.modules[name]
