"""Config-driven custom scenarios: a TOML file instead of a flag soup.

A scenario names a base experiment from the registry and layers custom
sweep parameters, a fault plan, execution settings and output artifacts
on top — the combinations the paper's methodology invites ("Figure 4a
under link degradation", "fig10 with a fail-stop node at 2 jobs")
without writing Python or a one-off shell pipeline.  ``repro run
--scenario my.toml`` feeds the same PointSpec machinery as the built-in
figures, so journaling, ``--resume`` and ``--jobs`` all work unchanged.

Format (all tables optional except ``[scenario]``)::

    [scenario]
    name = "fig4a-linkfault"    # label; not read by the run
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

Each key of ``[scenario]``, ``[faults]``, ``[execution]`` and
``[output]`` fills one ``repro run`` flag (``_SCHEMA`` maps it to the
flag's argparse dest), and only where the command line leaves that flag
unset: ``--jobs 4`` beats ``[execution] jobs``, so a scenario is a
reproducible default, not a cage.  The CLI then checks every option once,
whichever source set it (preset names, ranges, fault specs, ``resume``
without ``journal``, ``seed`` without ``specs``).  Parsing checks what
argparse cannot: tables, keys and TOML types, the experiment name,
``[params]``, ``[topology]`` and ``[[apps]]``; each failure is a
:class:`ScenarioError` naming the offending field.
"""

from __future__ import annotations

import tomllib
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple

__all__ = ["Scenario", "ScenarioError", "load_scenario", "parse_scenario"]


class ScenarioError(ValueError):
    """A scenario file failed validation; the message names the field."""


@dataclass(frozen=True)
class Scenario:
    """A parsed scenario: the base experiment, its parameter overrides,
    and the ``repro run`` options the file sets, keyed by argparse dest
    (``{"out": "report.md", "fault": [...], "jobs": 2}``)."""

    experiment: str
    params: Mapping[str, object] = field(default_factory=dict)
    options: Mapping[str, object] = field(default_factory=dict)


#: ``(table, key) -> (argparse dest, accepted TOML type)``: the one map
#: from scenario keys to the ``repro run`` flags they fill.  A ``None``
#: dest is read by the parser itself (``experiment``) or is a label the
#: run does not use (``name``, ``title``).
_SCHEMA: Dict[Tuple[str, str],
              Tuple[Optional[str], type | Tuple[type, ...]]] = {
    ("scenario", "name"): (None, str),
    ("scenario", "title"): (None, str),
    ("scenario", "experiment"): (None, str),
    ("scenario", "spec"): ("spec", str),
    ("scenario", "fast"): ("fast", bool),
    ("faults", "specs"): ("fault", list),
    ("faults", "seed"): ("fault_seed", int),
    ("faults", "timeout"): ("timeout", (int, float)),
    ("faults", "max_retries"): ("max_retries", int),
    ("execution", "jobs"): ("jobs", int),
    ("execution", "trials"): ("trials", int),
    ("execution", "journal"): ("journal", str),
    ("execution", "resume"): ("resume", bool),
    ("execution", "point_timeout"): ("point_timeout", (int, float)),
    ("execution", "point_retries"): ("point_retries", int),
    ("execution", "keep_going"): ("keep_going", bool),
    ("output", "report"): ("out", str),
    ("output", "trace"): ("trace", str),
    ("output", "metrics"): ("metrics", str),
    ("output", "plot"): ("plot", bool),
}
_TABLES = tuple(dict.fromkeys(table for table, _key in _SCHEMA))


def _read_tables(doc: Mapping[str, object],
                 source: str) -> Dict[Tuple[str, str], object]:
    """Every ``(table, key)`` the file sets, its TOML type checked
    (numbers that may be fractional come back as floats)."""
    values: Dict[Tuple[str, str], object] = {}
    for table in _TABLES:
        raw = doc.get(table, {})
        if not isinstance(raw, dict):
            raise ScenarioError(f"{source}: [{table}] must be a table, got "
                                f"{type(raw).__name__}")
        for key, value in raw.items():
            if (table, key) not in _SCHEMA:
                valid = sorted(k for t, k in _SCHEMA if t == table)
                raise ScenarioError(
                    f"{source}: unknown key {key!r} in [{table}]; valid "
                    f"keys: {', '.join(valid)}")
            expected = _SCHEMA[(table, key)][1]
            # bool is an int subclass; reject bools where ints are expected.
            if not isinstance(value, expected) or (
                    isinstance(value, bool) and expected is not bool):
                got = "a boolean" if isinstance(value, bool) \
                    else f"{type(value).__name__} ({value!r})"
                raise ScenarioError(
                    f"{source}: [{table}] {key} must be "
                    f"{getattr(expected, '__name__', 'number')}, got {got}")
            if expected is list:
                for i, item in enumerate(value):
                    if not isinstance(item, str):
                        raise ScenarioError(
                            f"{source}: [{table}] {key}[{i}] must be a "
                            f"string, got {type(item).__name__}")
            values[(table, key)] = float(value) \
                if expected == (int, float) else value
    return values


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
        kind = "dragonfly"     # fullmesh | dragonfly
        group_size = 8         # remaining keys are shape parameters

    The topology is constructed (not built) here, at parse time, so its
    own checks of the kind, the parameter names and their values fail
    before any point runs.  The table gives the whole shape: its
    ``topology_params`` (``{}`` when it names no shape key) replace any
    the ``--fast`` profile sets, so a key one topology accepts never
    reaches another.
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
            f"(dragonfly or fullmesh)")
    from repro.hardware.fabric import make_topology
    try:
        make_topology(kind, **table)
    except ValueError as err:
        raise ScenarioError(f"{source}: [topology]: {err}") from None
    return {"topology": kind, "topology_params": table}


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


def parse_scenario(text: str, source: str = "<scenario>") -> Scenario:
    """Parse + validate scenario TOML text into a :class:`Scenario`."""
    from repro.core import registry

    try:
        doc = tomllib.loads(text)
    except tomllib.TOMLDecodeError as err:
        raise ScenarioError(f"{source}: invalid TOML: {err}") from None
    unknown = [k for k in doc
               if k not in _TABLES + ("params", "topology", "apps")]
    if unknown:
        raise ScenarioError(
            f"{source}: unknown table(s) {', '.join(sorted(unknown))}; "
            f"valid tables: [scenario], [params], [topology], [[apps]], "
            f"[faults], [execution], [output]")
    values = _read_tables(doc, source)
    experiment = values.get(("scenario", "experiment"))
    if experiment is None:
        raise ScenarioError(
            f"{source}: [scenario] is missing the required key "
            f"'experiment' (see `repro list` for valid names)")
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

    options = {_SCHEMA[tk][0]: value for tk, value in values.items()
               if _SCHEMA[tk][0] is not None}
    return Scenario(experiment=experiment, params=params, options=options)


def load_scenario(path: str) -> Scenario:
    """Load and validate a scenario TOML file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as err:
        raise ScenarioError(f"cannot read scenario {path}: {err}") from None
    return parse_scenario(text, source=path)
