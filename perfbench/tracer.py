"""Per-layer split of the benchmark's traced lap, from cProfile.

The traced lap runs under ``cProfile``.  Each profiled function's self
time (its ``tottime``) is charged to the layer of the ``repro`` module
that defines it.  A function outside the simulator (the standard
library, numpy, builtins) is charged to its callers' layers, in
proportion to the time it spent under each caller.  So a callback the
engine dispatches, or a generator it resumes, counts for the layer that
defines it, and engine self time is the event loop itself.  Time that
reaches no ``repro`` function (the harness, the profiler) stays
unattributed: ``traced.coverage`` is the attributed share of the lap.

Call counts and inclusive times of named functions come from the same
profile.  The only wrappers collect the ``Simulator`` and ``Trace``
objects built during the lap, for the engine's lifetime counters and
the number of samples recorded.
"""

from __future__ import annotations

import cProfile
import functools
import importlib
import os
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional, Tuple

# Module prefix -> layer; the first match wins, any other repro module
# is core.
_LAYERS: Tuple[Tuple[str, str], ...] = (
    ("repro.sim.fluid", "fluid"),
    ("repro.sim.trace", "trace"),
    ("repro.sim", "engine"),
    ("repro.hardware", "hardware"),
    ("repro.netmodel", "netmodel"),
    ("repro.mpi", "mpi"),
    ("repro.runtime", "runtime"),
    ("repro.kernels", "kernels"),
    ("repro.obs", "obs"),
    ("repro.analysis", "analysis"),
    ("repro.core.htmlreport", "analysis"),
)

#: Layers whose self time is reported.
LAYERS = ("engine", "fluid", "trace", "hardware", "netmodel", "mpi",
          "runtime", "kernels", "obs", "core", "analysis")

#: Count metric -> (module, qualified name) of the function whose calls
#: it counts.
CALLS: Dict[str, Tuple[str, str]] = {
    "fluid.flows_started": ("repro.sim.fluid", "FluidNetwork.start_flow"),
    "fluid.flows_stopped": ("repro.sim.fluid", "FluidNetwork.stop_flow"),
    "fluid.completions": ("repro.sim.fluid", "FluidNetwork._on_completion"),
    "fluid.demand_changes": ("repro.sim.fluid", "FluidNetwork.set_demand"),
    "fluid.capacity_changes": ("repro.sim.fluid", "Resource.set_capacity"),
    "hardware.clusters_built": ("repro.hardware.topology",
                                "Cluster.__init__"),
    "hardware.counter_records": ("repro.hardware.counters",
                                 "CycleCounters.record"),
    "hardware.counter_snapshots": ("repro.hardware.counters",
                                   "CycleCounters.snapshot"),
    "netmodel.half_transfers": ("repro.netmodel.protocols",
                                "ProtocolEngine.half_transfer"),
    "mpi.isends": ("repro.mpi.p2p", "P2PContext.isend"),
    "mpi.irecvs": ("repro.mpi.p2p", "P2PContext.irecv"),
    "runtime.tasks_submitted": ("repro.runtime.runtime",
                                "RuntimeSystem.submit"),
    "runtime.tasks_done": ("repro.runtime.runtime",
                           "RuntimeSystem.on_task_done"),
    "runtime.sched_pops": ("repro.runtime.scheduler", "EagerScheduler.pop"),
    "obs.transfer_samples": ("repro.obs.telemetry", "Telemetry.on_transfer"),
    "obs.rate_updates": ("repro.obs.telemetry", "Telemetry.on_rates_changed"),
    "core.points_run": ("repro.core.executor", "_execute_point"),
    "core.journal_records": ("repro.core.campaign", "CampaignJournal.record"),
}

#: Time metric -> the function whose inclusive time it reports.
INCLUSIVE: Dict[str, Tuple[str, str]] = {
    "hardware.cluster_build_s": ("repro.hardware.topology",
                                 "Cluster.__init__"),
    "obs.export_s": ("repro.obs.telemetry", "Telemetry.export_metrics"),
    "core.journal_s": ("repro.core.campaign", "CampaignJournal.record"),
    "core.code_version_s": ("repro.core.executor", "code_version"),
    "report.render_s": ("repro.core.htmlreport", "render_html_report"),
}

# A profiled function: (file name, first line, name), as cProfile labels it.
Func = Tuple[str, int, str]


def layer_of(module: str) -> str:
    for prefix, layer in _LAYERS:
        if module == prefix or module.startswith(prefix + "."):
            return layer
    return "core"


def _where(module: str, qualname: str) -> Tuple[str, int]:
    """(file name, first line) of a function, as cProfile labels it."""
    target = importlib.import_module(module)
    for part in qualname.split("."):
        target = getattr(target, part)
    code = target.__code__
    return code.co_filename, code.co_firstlineno


class Tracer:
    """cProfile of the traced lap plus the engines and traces it built."""

    def __init__(self) -> None:
        self.profile = cProfile.Profile()
        self.simulators: List[object] = []
        self.traces: List[object] = []
        #: (owner, attribute, original) of every wrapper now installed
        self.patched: List[Tuple[object, str, object]] = []

    def run(self, fn: Callable, *args):
        """Call *fn* under the profiler."""
        self.profile.enable()
        try:
            return fn(*args)
        finally:
            self.profile.disable()

    # -- installation --------------------------------------------------------
    def _collect(self, cls, into: List[object]) -> None:
        original = vars(cls)["__init__"]

        def __init__(obj, *args, **kwargs):
            original(obj, *args, **kwargs)
            into.append(obj)
        setattr(cls, "__init__", functools.wraps(original)(__init__))
        self.patched.append((cls, "__init__", original))

    def install(self) -> None:
        from repro.sim.engine import Simulator
        from repro.sim.trace import Trace
        self._collect(Simulator, self.simulators)
        self._collect(Trace, self.traces)

    def uninstall(self) -> None:
        while self.patched:
            owner, attr, original = self.patched.pop()
            setattr(owner, attr, original)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- results ---------------------------------------------------------------
    def metrics(self, lap_s: float, host_s: float) -> Dict[str, float]:
        """Every per-layer metric of the traced lap, by name."""
        self.profile.create_stats()
        stats = self.profile.stats
        self_s, entries = _split(stats)
        by_place = {func[:2]: row for func, row in stats.items()}

        def row(target: Tuple[str, str]):
            return by_place.get(_where(*target), (0, 0, 0.0, 0.0, {}))

        def per(num: float, den: float, scale: float = 1e6) -> float:
            return num / den * scale if den else 0.0

        out: Dict[str, float] = {name: row(target)[1]
                                 for name, target in CALLS.items()}
        out.update((name, row(target)[3])
                   for name, target in INCLUSIVE.items())
        for sim in self.simulators:
            for key, value in sim.engine_stats().items():
                out[key] = out.get(key, 0) + value
        for key in ("engine.events_dispatched", "engine.stale_skips",
                    "engine.heap_compactions"):
            out.setdefault(key, 0)
        out["trace.samples"] = sum(len(trace.times(name))
                                   for trace in self.traces
                                   for name in trace.names())
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self_s[layer]
        out["engine.self_us_per_event"] = per(
            self_s["engine"], out["engine.events_dispatched"])
        out["fluid.self_us_per_call"] = per(self_s["fluid"],
                                            entries["fluid"])
        out["netmodel.self_us_per_transfer"] = per(
            self_s["netmodel"], out["netmodel.half_transfers"])
        out["traced.lap_s"] = lap_s
        out["traced.coverage"] = per(sum(self_s.values()), lap_s, 1.0)
        out["traced.overhead"] = per(lap_s, host_s, 1.0)
        return out


def _split(stats) -> Tuple[Dict[str, float], Dict[str, int]]:
    """Self time per layer, and calls into each layer from outside it."""
    import repro
    package = os.path.dirname(repro.__file__) + os.sep

    def own_layer(func: Func) -> Optional[str]:
        filename = func[0]
        if not filename.startswith(package):
            return None
        module = filename[len(package):-len(".py")].replace(os.sep, ".")
        return layer_of("repro." + module.removesuffix(".__init__"))

    own = {func: own_layer(func) for func in stats}
    # Layer -> share of a function's self time.  A foreign function's
    # shares are its callers', weighted by its self time under each.
    # Foreign code recurses (json's encoder, say), so iterate to a fixed
    # point instead of walking the call graph once.
    shares: Dict[Func, Dict[str, float]] = {
        func: {layer: 1.0} if layer else {} for func, layer in own.items()}
    foreign = []
    for func, layer in own.items():
        callers = stats[func][4]
        total = sum(edge[2] for edge in callers.values())
        if layer is None and callers:
            weights = [(caller, edge[2] / total if total
                        else edge[0] / sum(e[0] for e in callers.values()))
                       for caller, edge in callers.items()]
            foreign.append((func, weights))
    for _ in range(100):
        moved = 0.0
        for func, weights in foreign:
            new: Dict[str, float] = defaultdict(float)
            for caller, weight in weights:
                for layer, share in shares.get(caller, {}).items():
                    new[layer] += weight * share
            old = shares[func]
            moved = max([moved] + [abs(new[k] - old.get(k, 0.0))
                                   for k in new])
            shares[func] = new
        if moved < 1e-9:
            break

    self_s: Dict[str, float] = defaultdict(float)
    entries: Dict[str, int] = defaultdict(int)
    for func, (_, _, tt, _, callers) in stats.items():
        for layer, share in shares[func].items():
            self_s[layer] += tt * share
        layer = own[func]
        if layer is not None:
            entries[layer] += sum(edge[0] for caller, edge in callers.items()
                                  if own.get(caller) != layer)
    return self_s, entries
