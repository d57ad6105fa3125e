"""Declarative experiment registry: one source of truth for figures.

Each experiment module decorates its entry points with
:func:`experiment` and self-registers an :class:`ExperimentDef` at
import; every consumer — CLI dispatch, ``--fast`` profiles, rendering,
the EXPERIMENTS.md record and the scenario layer
(:mod:`repro.core.scenario`) — reads the registry instead of
maintaining its own table.

Every entry point takes a ``journal`` keyword and runs its points as
:class:`~repro.core.executor.PointSpec` sweeps, so ``--journal``,
``--resume``, ``--jobs`` and ``--trials`` apply to every experiment.

This module itself imports only the standard library.  The first
registry access calls :func:`load`, which imports every module in
``PROVIDER_MODULES`` and with them the simulator stack they run on
(``repro.sim``, ``hardware``, ``kernels``, ``netmodel``, ``mpi``);
read-only commands that never touch the registry stay off it.  Listing
order is canonical — ``PROVIDER_MODULES`` order, then definition order
within a module — regardless of which provider happened to be imported
first, so ``repro list`` and ``repro run all`` are stable even when a
library user imports one experiment module directly.
"""

from __future__ import annotations

import importlib
import inspect
from dataclasses import dataclass, field
from typing import (Callable, Dict, List, Mapping, Optional, Sequence,
                    Tuple)

__all__ = [
    "ExperimentDef", "UnknownExperimentError", "experiment", "register",
    "load", "get", "names", "all_defs", "run_experiment",
    "render_listing",
]

# Modules whose import populates the registry.  A new experiment module
# only has to be added here (and decorate its entry points); every
# consumer picks it up through the registry.
PROVIDER_MODULES: Tuple[str, ...] = (
    "repro.core.experiments",
    "repro.core.ablations",
    "repro.core.xapp",
)

_REGISTRY: Dict[str, "ExperimentDef"] = {}
# name -> (provider-module rank, registration sequence): the canonical
# listing order, independent of module import order.
_ORDER: Dict[str, Tuple[int, int]] = {}
_SEQ = 0
_LOADED = False


class UnknownExperimentError(KeyError):
    """Raised for an experiment name the registry does not know.

    Subclasses :class:`KeyError` so callers of the historical
    ``EXPERIMENTS[name]`` dict lookup keep working, but carries an
    actionable message naming the valid experiments.
    """

    def __init__(self, name: str, valid: Sequence[str]):
        self.name = name
        self.valid = list(valid)
        super().__init__(name)

    def __str__(self) -> str:
        return (f"unknown experiment {self.name!r}; "
                f"valid experiments: {', '.join(sorted(self.valid))}")


@dataclass(frozen=True)
class ExperimentDef:
    """One registered experiment: entry point + metadata + capabilities.

    ``fast_kwargs`` is the reduced parameter profile substituted by
    ``--fast``; every experiment must have one (enforced by
    ``tests/test_registry.py``) so the whole suite stays smoke-testable.
    ``renderer`` (optional, ``"module:func"`` or callable) overrides the
    default :func:`~repro.core.report.render_experiment`;
    ``multi_result`` marks entry points returning a dict of results
    (fig5's placement panels) rather than a single
    :class:`~repro.core.results.ExperimentResult`.
    """

    name: str
    runner: Callable
    title: str
    doc: str = ""
    tags: Tuple[str, ...] = ()
    fast_kwargs: Mapping[str, object] = field(default_factory=dict)
    multi_result: bool = False        # returns {key: ExperimentResult}
    plot_capable: bool = True         # --plot can chart the result
    index_key: str = ""               # row id in the DESIGN.md §5 index
    renderer: Optional[object] = None  # callable or "module:func"
    # Scenario-overridable parameter names for ``**kwargs`` entry points
    # (whose own signature says nothing about what the inner driver
    # accepts); empty means "trust the signature".
    scenario_params: Tuple[str, ...] = ()

    # -- execution --------------------------------------------------------
    def run(self, spec: str = "henri", fast: bool = False,
            journal=None, overrides: Optional[Mapping] = None):
        """Run the experiment; the one dispatch path for every consumer.

        ``overrides`` (scenario-layer parameter overrides) are applied
        on top of the ``--fast`` profile, so a scenario can start from
        the fast profile and change only what it needs.
        """
        kwargs = dict(self.fast_kwargs) if fast else {}
        if overrides:
            kwargs.update(overrides)
        return self.runner(spec=spec, journal=journal, **kwargs)

    # -- rendering --------------------------------------------------------
    def render(self, result) -> str:
        """Text report for this experiment's result object."""
        from repro.core.report import render_experiment
        if self.multi_result:
            return "\n".join(render_experiment(r)
                             for r in result.values())
        renderer = self.renderer
        if renderer is not None:
            if isinstance(renderer, str):
                from repro.core.executor import resolve_runner
                renderer = resolve_runner(renderer)
            return renderer(result)
        return render_experiment(result)

    # -- capabilities -----------------------------------------------------
    def capabilities(self) -> Tuple[str, ...]:
        """Flag names for listings/snapshots (drift-diffable)."""
        caps: List[str] = ["fast"] if self.fast_kwargs else []
        if self.multi_result:
            caps.append("multi")
        if self.plot_capable:
            caps.append("plot")
        return tuple(caps)

    @property
    def kind(self) -> str:
        return self.tags[0] if self.tags else "experiment"

    def signature_params(self) -> Tuple[Dict[str, object], bool]:
        """(named keyword parameters, accepts-arbitrary-kwargs) of the
        entry point — what the scenario layer validates against.

        When ``scenario_params`` is declared, those names extend the
        signature's own and arbitrary kwargs are *not* allowed: the
        declaration replaces the unknowable ``**kwargs``.
        """
        sig = inspect.signature(self.runner)
        named: Dict[str, object] = {}
        var_kw = False
        for pname, p in sig.parameters.items():
            if p.kind is inspect.Parameter.VAR_KEYWORD:
                var_kw = True
            elif p.kind in (inspect.Parameter.POSITIONAL_OR_KEYWORD,
                            inspect.Parameter.KEYWORD_ONLY):
                named[pname] = p.default
        if self.scenario_params:
            for pname in self.scenario_params:
                named.setdefault(pname, None)
            var_kw = False
        return named, var_kw


# ---------------------------------------------------------------------------
# Registration
# ---------------------------------------------------------------------------

def register(defn: ExperimentDef) -> ExperimentDef:
    """Add one definition; duplicate names are a programming error."""
    global _SEQ
    if defn.name in _REGISTRY:
        raise ValueError(f"experiment {defn.name!r} registered twice "
                         f"(existing: {_REGISTRY[defn.name].runner}, "
                         f"new: {defn.runner})")
    module = getattr(defn.runner, "__module__", "")
    rank = PROVIDER_MODULES.index(module) \
        if module in PROVIDER_MODULES else len(PROVIDER_MODULES)
    _REGISTRY[defn.name] = defn
    _ORDER[defn.name] = (rank, _SEQ)
    _SEQ += 1
    return defn


def experiment(name: Optional[str] = None, *, title: str,
               tags: Sequence[str] = (),
               fast: Optional[Mapping[str, object]] = None,
               multi_result: bool = False,
               plot: bool = True,
               index_key: Optional[str] = None,
               renderer: Optional[object] = None,
               params: Sequence[str] = ()) -> Callable:
    """Decorator: register the function as a named experiment.

    The entry point takes a ``journal`` keyword (directly or through
    ``**kwargs``) and runs its points as a sweep.
    """
    def wrap(func: Callable) -> Callable:
        exp_name = name or func.__name__
        register(ExperimentDef(
            name=exp_name, runner=func, title=title,
            doc=inspect.getdoc(func) or "", tags=tuple(tags),
            fast_kwargs=dict(fast or {}),
            multi_result=multi_result, plot_capable=plot,
            index_key=index_key or exp_name, renderer=renderer,
            scenario_params=tuple(params)))
        return func
    return wrap


# ---------------------------------------------------------------------------
# Queries (all trigger the lazy load)
# ---------------------------------------------------------------------------

def load() -> None:
    """Import every provider module once, populating the registry."""
    global _LOADED
    if _LOADED:
        return
    _LOADED = True
    for module in PROVIDER_MODULES:
        importlib.import_module(module)


def get(name: str) -> ExperimentDef:
    load()
    try:
        return _REGISTRY[name]
    except KeyError:
        raise UnknownExperimentError(name, list(_REGISTRY)) from None


def all_defs() -> List[ExperimentDef]:
    """Every definition, in canonical order (``PROVIDER_MODULES``
    order, then definition order within a module)."""
    load()
    return sorted(_REGISTRY.values(), key=lambda d: _ORDER[d.name])


def names(tag: Optional[str] = None) -> List[str]:
    """Registered names, optionally filtered by tag."""
    return [defn.name for defn in all_defs()
            if tag is None or tag in defn.tags]


def run_all_names() -> List[str]:
    """What ``repro run all`` runs: every experiment but the ablations."""
    return [defn.name for defn in all_defs() if "ablation" not in defn.tags]


def run_experiment(name: str, spec: str = "henri", fast: bool = False,
                   journal=None, overrides: Optional[Mapping] = None):
    """Run one named experiment; returns its result object.

    This is the library API behind ``repro run``.  Unknown names raise
    :class:`UnknownExperimentError` (a ``KeyError``) naming the valid
    experiments.
    """
    return get(name).run(spec=spec, fast=fast, journal=journal,
                         overrides=overrides)


def render_listing(long: bool = False) -> str:
    """The `repro list` text; the long form doubles as the CI drift
    snapshot (``tests/data/registry_listing.txt``)."""
    defs = all_defs()
    if not long:
        return "\n".join(d.name for d in defs)
    rows = [(d.name, d.kind, ",".join(d.capabilities()), d.title)
            for d in defs]
    widths = [max(len(r[i]) for r in rows) for i in range(3)]
    return "\n".join(
        f"{n.ljust(widths[0])}  {k.ljust(widths[1])}  "
        f"{c.ljust(widths[2])}  {t}" for n, k, c, t in rows)
