"""Config-driven custom scenarios: a TOML file instead of a flag soup.

A scenario names a base experiment from the registry and layers custom
sweep parameters, a fault plan, execution settings and output artifacts
on top — the combinations the paper's methodology invites ("Figure 4a
under link degradation", "fig10 with a fail-slow node at 2 jobs")
without writing Python or a one-off shell pipeline.  ``repro run
--scenario my.toml`` feeds the same PointSpec machinery as the built-in
figures, so journaling, ``--resume`` and ``--jobs`` all work unchanged.

Format (all tables optional except ``[scenario]``)::

    [scenario]
    experiment = "fig4a"        # registry name (see `repro list`)
    spec = "henri"              # cluster preset
    fast = true                 # start from the --fast profile

    [params]                    # keyword overrides for the experiment
    core_counts = [0, 12, 35]   # validated against its signature
    reps = 4

    [topology]                  # cluster fabric (experiments accepting
    kind = "dragonfly"          # a `topology` parameter, e.g. fig_xapp)
    group_size = 8              # remaining keys: shape parameters

    [[apps]]                    # co-scheduled applications (experiments
    name = "victim"             # accepting an `apps` parameter); first
    pattern = "pingpong"        # app is the victim/probe
    nodes = [0, 8]

    [[apps]]
    name = "aggressor"
    pattern = "ring"
    nodes = [1, 2, 9, 10]
    size = 4194304

    [faults]
    specs = ["link:src=0,dst=1,bw_factor=0.5,start=0,duration=1"]
    seed = 0                    # fault randomness seed
    timeout = 0.0002            # transport retransmit timeout (s)
    max_retries = 8

    [execution]
    jobs = 2                    # worker processes (0 = cpu count)
    trials = 3                  # seeded trials per sweep point
    journal = "campaign.jsonl"  # checkpoint journal path
    resume = false
    point_timeout = 120.0       # wall-clock deadline per point (s)
    point_retries = 2           # retries after a crash/timeout
    keep_going = true           # degrade (vs abort) on exhaustion

    [output]
    report = "report.md"        # markdown record (like --out)
    trace = "trace.json"        # Chrome-tracing export
    metrics = "metrics.json"    # metrics registry export
    plot = false                # append ASCII charts

CLI flags override scenario values (``--jobs 4`` beats
``[execution] jobs``), so a scenario is a reproducible default, not a
cage.  Validation is strict: unknown tables, unknown keys, wrong types,
unknown experiments and parameters the experiment does not accept all
fail with a :class:`ScenarioError` naming the offending field.
"""

from __future__ import annotations

import tomllib
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple

__all__ = ["Scenario", "ScenarioError", "load_scenario", "parse_scenario"]


class ScenarioError(ValueError):
    """A scenario file failed validation; the message names the field."""


# ---------------------------------------------------------------------------
# TOML loading
# ---------------------------------------------------------------------------

def _parse_toml(text: str, source: str) -> Dict[str, object]:
    try:
        return tomllib.loads(text)
    except tomllib.TOMLDecodeError as err:
        raise ScenarioError(f"{source}: invalid TOML: {err}") from None


# ---------------------------------------------------------------------------
# Schema
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Scenario:
    """A validated scenario: base experiment + layered configuration."""

    name: str
    experiment: str
    spec: str = "henri"
    fast: bool = False
    params: Mapping[str, object] = field(default_factory=dict)
    fault_specs: Tuple[str, ...] = ()
    fault_seed: Optional[int] = None
    timeout: Optional[float] = None
    max_retries: Optional[int] = None
    jobs: Optional[int] = None
    trials: Optional[int] = None
    journal: Optional[str] = None
    resume: bool = False
    point_timeout: Optional[float] = None
    point_retries: Optional[int] = None
    keep_going: Optional[bool] = None
    report: Optional[str] = None
    trace: Optional[str] = None
    metrics: Optional[str] = None
    plot: bool = False

    def describe(self) -> str:
        bits = [f"experiment={self.experiment}", f"spec={self.spec}"]
        if self.fast:
            bits.append("fast")
        if self.params:
            bits.append(f"params={{{', '.join(sorted(self.params))}}}")
        if self.fault_specs:
            bits.append(f"faults={len(self.fault_specs)}")
        if self.jobs is not None:
            bits.append(f"jobs={self.jobs}")
        return f"scenario {self.name}: " + ", ".join(bits)


_SCHEMA: Dict[str, Dict[str, type | Tuple[type, ...]]] = {
    "scenario": {"name": str, "experiment": str, "spec": str,
                 "fast": bool, "title": str},
    "faults": {"specs": list, "seed": int, "timeout": (int, float),
               "max_retries": int},
    "execution": {"jobs": int, "trials": int, "journal": str,
                  "resume": bool, "point_timeout": (int, float),
                  "point_retries": int, "keep_going": bool},
    "output": {"report": str, "trace": str, "metrics": str, "plot": bool},
}


def _check_table(doc: Mapping[str, object], table: str,
                 source: str) -> Dict[str, object]:
    raw = doc.get(table, {})
    if not isinstance(raw, dict):
        raise ScenarioError(f"{source}: [{table}] must be a table, got "
                            f"{type(raw).__name__}")
    schema = _SCHEMA[table]
    for key, value in raw.items():
        if key not in schema:
            raise ScenarioError(
                f"{source}: unknown key {key!r} in [{table}]; valid keys: "
                f"{', '.join(sorted(schema))}")
        expected = schema[key]
        # bool is an int subclass; reject bools where ints are expected.
        if isinstance(value, bool) and expected is not bool:
            raise ScenarioError(
                f"{source}: [{table}] {key} must be "
                f"{getattr(expected, '__name__', 'number')}, got a boolean")
        if not isinstance(value, expected):
            name = expected.__name__ if isinstance(expected, type) \
                else "number"
            raise ScenarioError(
                f"{source}: [{table}] {key} must be {name}, got "
                f"{type(value).__name__} ({value!r})")
    return dict(raw)


def _validate_params(experiment: str, params: Mapping[str, object],
                     source: str) -> None:
    from repro.core import registry
    defn = registry.get(experiment)
    named, var_kw = defn.signature_params()
    # spec and journal are configured via [scenario]/[execution], not
    # [params]; passing them here would collide with the run() kwargs.
    reserved = ("spec", "journal")
    valid = [p for p in named if p not in reserved]
    for key in params:
        if key in reserved or (not var_kw and key not in named):
            raise ScenarioError(
                f"{source}: [params] {key!r} is not a parameter of "
                f"experiment {experiment!r}; valid parameters: "
                f"{', '.join(valid)}")


def _fold_topology(raw: object, source: str) -> Dict[str, object]:
    """``[topology]`` table -> ``topology``/``topology_params`` params.

    ::

        [topology]
        kind = "dragonfly"     # fullmesh | fattree | dragonfly | torus
        group_size = 8         # remaining keys are shape parameters

    Kind and parameter names are validated against the fabric catalog
    here, at parse time, so a typo fails before any point runs.
    """
    if raw is None:
        return {}
    if not isinstance(raw, dict):
        raise ScenarioError(
            f"{source}: [topology] must be a table, got "
            f"{type(raw).__name__}")
    table = dict(raw)
    kind = table.pop("kind", None)
    if not isinstance(kind, str):
        raise ScenarioError(
            f"{source}: [topology] needs kind = \"<name>\" "
            f"(fullmesh, fattree, dragonfly or torus)")
    from repro.hardware.fabric import validate_topology_params
    try:
        validate_topology_params(kind, table)
    except ValueError as err:
        raise ScenarioError(f"{source}: [topology]: {err}") from None
    out: Dict[str, object] = {"topology": kind}
    if table:
        out["topology_params"] = table
    return out


def _validate_apps(raw: object,
                   source: str) -> Optional[List[Dict[str, object]]]:
    """``[[apps]]`` tables -> the ``apps`` experiment parameter.

    Each table is validated by building an
    :class:`~repro.core.apps.AppSpec` (field names, pattern, placement
    arity), so malformed app declarations fail at parse time.
    """
    if raw is None:
        return None
    if not isinstance(raw, list) or not all(
            isinstance(entry, dict) for entry in raw):
        raise ScenarioError(
            f"{source}: apps must be declared as [[apps]] tables")
    from repro.core.apps import AppSpec
    out = []
    for i, entry in enumerate(raw):
        entry = dict(entry)
        if "nodes" in entry and isinstance(entry["nodes"], list):
            entry["nodes"] = tuple(entry["nodes"])
        try:
            AppSpec.from_dict(entry)
        except (TypeError, ValueError) as err:
            raise ScenarioError(
                f"{source}: [[apps]] entry {i}: {err}") from None
        entry["nodes"] = list(entry.get("nodes", ()))
        out.append(entry)
    return out


def _validate_faults(specs: List[object], source: str) -> Tuple[str, ...]:
    from repro.faults import parse_fault
    out = []
    for i, spec in enumerate(specs):
        if not isinstance(spec, str):
            raise ScenarioError(
                f"{source}: [faults] specs[{i}] must be a string fault "
                f"spec, got {type(spec).__name__}")
        try:
            parse_fault(spec)
        except ValueError as err:
            raise ScenarioError(
                f"{source}: [faults] specs[{i}] ({spec!r}): {err}"
                ) from None
        out.append(spec)
    return tuple(out)


def parse_scenario(text: str, source: str = "<scenario>") -> Scenario:
    """Parse + validate scenario TOML text into a :class:`Scenario`."""
    from repro.core import registry

    doc = _parse_toml(text, source)
    if not isinstance(doc, dict):
        raise ScenarioError(f"{source}: scenario must be a TOML document")
    unknown = [k for k in doc
               if k not in _SCHEMA and k not in ("params", "topology",
                                                 "apps")]
    if unknown:
        raise ScenarioError(
            f"{source}: unknown table(s) {', '.join(sorted(unknown))}; "
            f"valid tables: [scenario], [params], [topology], [[apps]], "
            f"[faults], [execution], [output]")

    scen = _check_table(doc, "scenario", source)
    if "experiment" not in scen:
        raise ScenarioError(
            f"{source}: [scenario] is missing the required key "
            f"'experiment' (see `repro list` for valid names)")
    experiment = scen["experiment"]
    try:
        registry.get(experiment)
    except registry.UnknownExperimentError as err:
        raise ScenarioError(f"{source}: [scenario] experiment: {err}"
                            ) from None

    params = doc.get("params", {})
    if not isinstance(params, dict):
        raise ScenarioError(f"{source}: [params] must be a table")
    params = dict(params)
    params.update(_fold_topology(doc.get("topology"), source))
    apps = _validate_apps(doc.get("apps"), source)
    if apps is not None:
        params["apps"] = apps
    _validate_params(experiment, params, source)

    faults = _check_table(doc, "faults", source)
    # Reliability knobs without fault specs are fine: like the CLI
    # flags, they imply the reliable transport with an empty plan.
    fault_specs = _validate_faults(faults.get("specs", []), source)

    execution = _check_table(doc, "execution", source)
    output = _check_table(doc, "output", source)
    if execution.get("resume") and not execution.get("journal"):
        raise ScenarioError(
            f"{source}: [execution] resume = true requires journal")

    point_timeout = execution.get("point_timeout")
    if point_timeout is not None and point_timeout <= 0:
        raise ScenarioError(
            f"{source}: [execution] point_timeout must be > 0, got "
            f"{point_timeout!r}")
    point_retries = execution.get("point_retries")
    if point_retries is not None and point_retries < 0:
        raise ScenarioError(
            f"{source}: [execution] point_retries must be >= 0, got "
            f"{point_retries!r}")
    trials = execution.get("trials")
    if trials is not None and trials < 1:
        raise ScenarioError(
            f"{source}: [execution] trials must be >= 1, got {trials!r}")

    name = scen.get("name") or experiment
    timeout = faults.get("timeout")
    return Scenario(
        name=name,
        experiment=experiment,
        spec=scen.get("spec", "henri"),
        fast=bool(scen.get("fast", False)),
        params=dict(params),
        fault_specs=fault_specs,
        fault_seed=faults.get("seed"),
        timeout=float(timeout) if timeout is not None else None,
        max_retries=faults.get("max_retries"),
        jobs=execution.get("jobs"),
        trials=trials,
        journal=execution.get("journal"),
        resume=bool(execution.get("resume", False)),
        point_timeout=float(point_timeout)
        if point_timeout is not None else None,
        point_retries=point_retries,
        keep_going=execution.get("keep_going"),
        report=output.get("report"),
        trace=output.get("trace"),
        metrics=output.get("metrics"),
        plot=bool(output.get("plot", False)),
    )


def load_scenario(path: str) -> Scenario:
    """Load and validate a scenario TOML file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as err:
        raise ScenarioError(f"cannot read scenario {path}: {err}") from None
    return parse_scenario(text, source=path)
