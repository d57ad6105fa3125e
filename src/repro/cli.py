"""Command-line interface: run paper experiments and print/record results.

Usage::

    python -m repro list [--long]
    python -m repro run fig4a [--spec henri] [--fast]
    python -m repro run all --fast --out RUN.md
    python -m repro run --scenario examples/scenario_fig1a_loss.toml
    python -m repro run fig1a --fast --trials 5 --journal c.jsonl
    python -m repro status c.jsonl
    python -m repro report c.jsonl --compare other.jsonl -o report.html

``--fast`` substitutes reduced sweep parameters (fewer repetitions and
points) so every figure finishes in seconds; omit it to regenerate the
full figures.

Every experiment — name, ``--fast`` profile, capabilities, rendering —
comes from :mod:`repro.core.registry`; this module only parses flags
and wires execution contexts (faults, telemetry, journaling, process
pools) around registry dispatch.  Custom parameter/fault/output
combinations live in scenario TOML files (docs/SCENARIOS.md).

Module scope imports only the standard library and the lazy-export
helper: each command imports its own stack, so ``report``, ``status``
and ``trace-summary`` never load the simulator (DESIGN.md, "Import
surface").
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
import time
from typing import Dict, Optional

from repro._lazy import lazy_exports

__all__ = ["main", "run_experiment"]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.core.registry": ("run_experiment",),
})


def _build_fault_plan(args):
    """Fault plan + reliability config from CLI flags (None, None when
    fault injection is not requested — the zero-cost default path)."""
    from repro.faults import FaultPlan, ReliabilityConfig, parse_fault

    plan = None
    seed = args.fault_seed if args.fault_seed is not None else 0
    if args.fault:
        plan = FaultPlan(seed=seed,
                         faults=tuple(parse_fault(s) for s in args.fault))
    elif args.fault_seed is not None:
        plan = FaultPlan.random(args.fault_seed)

    reliability = None
    overrides = {}
    if args.timeout is not None:
        overrides["timeout_s"] = args.timeout
    if args.max_retries is not None:
        overrides["max_retries"] = args.max_retries
    if overrides:
        reliability = ReliabilityConfig(**overrides)
        if plan is None:
            # Reliability knobs imply the reliable transport even with
            # an empty fault plan (e.g. to measure its pure overhead).
            plan = FaultPlan(seed=seed, faults=())
    return plan, reliability


def _setup_logging(level: str) -> None:
    """Structured logging to stderr (module loggers across the stack)."""
    logging.basicConfig(
        level=getattr(logging, level.upper()),
        format="%(levelname)s %(name)s: %(message)s",
        stream=sys.stderr)


def _profile(args) -> int:
    """cProfile one --fast experiment and write the profile artifact.

    Runs under a metrics-only telemetry sink with the opt-in engine
    counters enabled, so the artifact records where the time went *and*
    what the event engine did (dispatches, stale skips, compactions).
    """
    import cProfile
    import io
    import platform
    import pstats

    from repro.core import registry

    name = args.experiment
    os.environ["REPRO_ENGINE_COUNTERS"] = "1"
    from repro.obs.telemetry import telemetry_context
    out = args.out if args.out else f"PROFILE_{name}.txt"
    top = args.top
    profiler = cProfile.Profile()
    wall0 = time.perf_counter()
    cpu0 = time.process_time()
    with telemetry_context(trace=False, metrics=True) as tele:
        profiler.enable()
        registry.run_experiment(name, spec=args.spec, fast=True)
        profiler.disable()
        run_wall = time.perf_counter() - wall0
        run_cpu = time.process_time() - cpu0
        engine_stats = {
            metric_name: int(inst.value)
            for (metric_name, _labels), inst in tele.registry
            if metric_name.startswith("engine.")}
    render0 = time.perf_counter()
    buf = io.StringIO()
    stats = pstats.Stats(profiler, stream=buf).strip_dirs()
    buf.write(f"# repro profile {name} (fast, spec={args.spec}, "
              f"python {platform.python_version()})\n")
    buf.write(f"# wall {run_wall:.3f}s, cpu {run_cpu:.3f}s\n")
    for key, value in engine_stats.items():
        buf.write(f"# {key} = {value}\n")
    buf.write(f"\n== top {top} by cumulative time ==\n")
    stats.sort_stats("cumulative").print_stats(top)
    buf.write(f"\n== top {top} by internal time ==\n")
    stats.sort_stats("tottime").print_stats(top)
    text = buf.getvalue()
    render_wall = time.perf_counter() - render0
    with open(out, "w", encoding="utf-8") as fh:
        fh.write(text)
    if args.metrics:
        # Per-phase wall-clock counters ride in the same registry the
        # run populated (engine.* included when nonzero).
        reg = tele.registry
        reg.gauge("profile.run_wall_seconds").set(round(run_wall, 3))
        reg.gauge("profile.run_cpu_seconds").set(round(run_cpu, 3))
        reg.gauge("profile.render_wall_seconds").set(round(render_wall, 3))
        with open(args.metrics, "w", encoding="utf-8") as fh:
            fh.write(reg.to_json(extra={"experiment": name,
                                        "spec": args.spec}))
    try:
        print(text)
        print(f"wrote {out}")
    except BrokenPipeError:
        # stdout went to a pager/head that quit; the report file is
        # already written, so a quiet exit is the right behaviour.
        os.dup2(os.open(os.devnull, os.O_WRONLY), 1)
    return 0


def _status(args) -> int:
    """Read-only campaign progress view over a journal (+ sidecar)."""
    from repro.core.measurer import read_status, render_status
    print(render_status(read_status(args.journal)))
    return 0


def _report(args) -> int:
    """Render a campaign journal into a self-contained HTML report."""
    from repro.analysis.stats import CampaignResults
    from repro.core.htmlreport import (render_html_report,
                                       validate_html_report)
    results = CampaignResults.from_journal(args.journal)
    if not results.entries:
        print(f"{args.journal}: no readable journal records",
              file=sys.stderr)
        return 2
    compare = CampaignResults.from_journal(args.compare) \
        if args.compare else None
    text = render_html_report(results, compare=compare, title=args.title)
    problems = validate_html_report(text)
    if problems:
        print(f"refusing to write {args.out}: rendered report is "
              f"invalid ({len(problems)} problem(s)):", file=sys.stderr)
        for p in problems[:10]:
            print(f"  {p}", file=sys.stderr)
        return 1
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(text)
    print(f"wrote {args.out} ({len(text)} bytes, "
          f"{len(results.experiments())} experiment(s)"
          f"{', compared against ' + args.compare if args.compare else ''})",
          file=sys.stderr)
    return 0


def _trace_summary(args) -> int:
    """Validate + summarise a Chrome-tracing JSON file."""
    from repro.obs.export import (render_trace_summary,
                                  summarize_chrome_trace,
                                  validate_chrome_trace)
    try:
        with open(args.path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as err:
        print(f"cannot read {args.path}: {err}", file=sys.stderr)
        return 2
    problems = validate_chrome_trace(text)
    if problems:
        print(f"{args.path}: INVALID trace "
              f"({len(problems)} problem(s)):", file=sys.stderr)
        for p in problems[:20]:
            print(f"  {p}", file=sys.stderr)
        return 1
    print(render_trace_summary(summarize_chrome_trace(text)))
    return 0


#: Output-path flags of each subcommand, as (flag, ``args`` attribute).
_OUTPUT_FLAGS = {
    "run": (("--out", "out"), ("--trace", "trace"),
            ("--metrics", "metrics"), ("--journal", "journal")),
    "report": (("--out", "out"),),
    "profile": (("--out", "out"), ("--metrics", "metrics")),
}


def _prepare_outputs(args, parser, flags=None) -> None:
    """Apply the one output-path rule before any work starts.

    Missing parent directories are created, as the campaign journal
    always did; a path that still cannot be written (an existing
    directory, say) is a usage error naming the flag and the path.
    """
    for flag, dest in flags or _OUTPUT_FLAGS[args.command]:
        path = getattr(args, dest)
        if not path:
            continue
        parent = os.path.dirname(path)
        try:
            if parent:
                os.makedirs(parent, exist_ok=True)
        except OSError as err:
            parser.error(f"{flag} {path}: cannot create directory "
                         f"{parent} ({err.strerror})")
        if os.path.isdir(path):
            parser.error(f"{flag} {path}: is a directory")
        target = path if os.path.exists(path) else parent or os.curdir
        if not os.access(target, os.W_OK):
            parser.error(f"{flag} {path}: not writable")


#: Input-path arguments of each subcommand, as (name, ``args`` attribute).
_INPUT_ARGS = {
    "report": (("journal", "journal"), ("--compare", "compare")),
    "status": (("journal", "journal"),),
}


def _check_inputs(args, parser) -> bool:
    """Apply the one input-path rule before any work starts.

    A missing journal is reported as such and the caller exits 2; a path
    that exists but cannot be read as a file (a directory, say) is a
    usage error naming the argument and the path.
    """
    for name, dest in _INPUT_ARGS[args.command]:
        path = getattr(args, dest)
        if not path:
            continue
        if not os.path.exists(path):
            print(f"no journal at {path}", file=sys.stderr)
            return False
        if os.path.isdir(path):
            parser.error(f"{name} {path}: is a directory")
        if not os.access(path, os.R_OK):
            parser.error(f"{name} {path}: not readable")
    return True


def _apply_scenario(args, parser):
    """Load --scenario and fold it into *args* (CLI flags win).

    Returns the :class:`~repro.core.scenario.Scenario` (or None), with
    ``args`` fully resolved either way.
    """
    if not args.scenario:
        if not args.experiment:
            parser.error("an experiment name (or 'all') or --scenario "
                         "is required")
        args.spec = args.spec or "henri"
        args.jobs = 1 if args.jobs is None else args.jobs
        return None

    from repro.core.scenario import ScenarioError, load_scenario
    if args.experiment:
        parser.error("give either an experiment name or --scenario, "
                     "not both")
    try:
        scenario = load_scenario(args.scenario)
    except ScenarioError as err:
        parser.error(str(err))

    args.experiment = scenario.experiment
    args.spec = args.spec or scenario.spec
    args.fast = args.fast or scenario.fast
    if args.jobs is None:
        args.jobs = scenario.jobs if scenario.jobs is not None else 1
    if args.trials is None:
        args.trials = scenario.trials
    args.out = args.out or scenario.report
    args.plot = args.plot or scenario.plot
    args.trace = args.trace or scenario.trace
    args.metrics = args.metrics or scenario.metrics
    args.fault = args.fault or list(scenario.fault_specs)
    if args.fault_seed is None:
        args.fault_seed = scenario.fault_seed
    if args.timeout is None:
        args.timeout = scenario.timeout
    if args.max_retries is None:
        args.max_retries = scenario.max_retries
    args.journal = args.journal or scenario.journal
    args.resume = args.resume or scenario.resume
    if args.point_timeout is None:
        args.point_timeout = scenario.point_timeout
    if args.point_retries is None:
        args.point_retries = scenario.point_retries
    if args.keep_going is None:
        args.keep_going = scenario.keep_going
    return scenario


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-bench",
        description="Reproduce the figures of 'Interferences between "
        "Communications and Computations in Distributed HPC Systems' "
        "(ICPP 2021) on the simulator.")
    parser.add_argument("--log-level", default="WARNING",
                        choices=["DEBUG", "INFO", "WARNING", "ERROR"],
                        help="stderr logging level (module loggers: "
                        "faults, transport, campaigns)")
    sub = parser.add_subparsers(dest="command", required=True)
    lst = sub.add_parser("list", help="list available experiments")
    lst.add_argument("--long", action="store_true",
                     help="one line per experiment with kind, "
                     "capabilities and title")
    topo = sub.add_parser("topology",
                          help="print a cluster preset's topology")
    topo.add_argument("--spec", default="henri")
    profile = sub.add_parser(
        "profile", help="cProfile one --fast experiment and write a "
        "PROFILE_<experiment>.txt artifact (top-N cumulative/internal "
        "functions + engine hot-loop counters)")
    profile.add_argument("experiment", help="experiment name "
                         "(see `repro list`)")
    profile.add_argument("--spec", default="henri")
    profile.add_argument("--top", type=int, default=10,
                         help="functions per ranking (default 10)")
    profile.add_argument("--out", default=None,
                         help="artifact path "
                         "(default PROFILE_<experiment>.txt)")
    profile.add_argument("--metrics", default=None, metavar="PATH",
                         help="also export the run's metrics registry "
                         "with per-phase wall-clock gauges as JSON")
    summary = sub.add_parser(
        "trace-summary",
        help="validate + summarise a Chrome-tracing JSON (from --trace)")
    summary.add_argument("path", help="trace JSON file")
    status = sub.add_parser(
        "status", help="campaign progress from a journal: done/cached/"
        "failed/pending counts and an ETA (read-only and lock-free — "
        "safe against a live campaign at any --jobs level)")
    status.add_argument("journal", help="campaign journal (JSON lines)")
    report = sub.add_parser(
        "report", help="render a campaign journal into a self-contained "
        "HTML report: CI error bars per point, paper-vs-measured table, "
        "attribution trend, failures")
    report.add_argument("journal", help="campaign journal (JSON lines)")
    report.add_argument("--compare", default=None, metavar="JOURNAL",
                        help="second journal for an A/B section: "
                        "two-sided Mann-Whitney U + Vargha-Delaney A12 "
                        "per common sweep point")
    report.add_argument("-o", "--out", default="report.html",
                        help="output HTML path (default report.html)")
    report.add_argument("--title", default=None,
                        help="report title (default: derived from the "
                        "journal name)")
    run = sub.add_parser("run", help="run one experiment (or 'all')")
    run.add_argument("experiment", nargs="?", default=None,
                     help="experiment name (see `repro list`) or 'all'; "
                     "omit when using --scenario")
    run.add_argument("--scenario", default=None, metavar="TOML",
                     help="run a scenario file: base experiment + "
                     "parameter overrides + fault plan + outputs "
                     "(docs/SCENARIOS.md); other flags override the "
                     "file's values")
    run.add_argument("--spec", default=None,
                     help="cluster preset (henri/bora/billy/pyxis)")
    run.add_argument("--fast", action="store_true",
                     help="reduced sweeps, seconds per figure")
    run.add_argument("--jobs", type=int, default=None,
                     help="fan sweep points out over N worker processes "
                     "(0 = cpu count, default 1 = serial); seeded runs "
                     "are byte-identical at any level — see "
                     "docs/PARALLEL.md")
    run.add_argument("--trials", type=int, default=None,
                     help="seeded trials per sweep point (default 1); "
                     "trial 0 is byte-identical to a plain run, later "
                     "trials re-seed the simulation noise so reports "
                     "carry bootstrap CIs (docs/OBSERVABILITY.md)")
    robust = run.add_argument_group(
        "execution robustness", "self-healing sweep execution: per-point "
        "deadlines, retry with backoff, crash requeue and degraded "
        "completion (docs/PARALLEL.md 'Failure semantics'); timeouts "
        "need --jobs >= 2")
    robust.add_argument("--point-timeout", type=float, default=None,
                        metavar="SECONDS",
                        help="wall-clock deadline per sweep point; a "
                        "point past it has its worker killed and is "
                        "retried (default: no deadline)")
    robust.add_argument("--point-retries", type=int, default=None,
                        metavar="N",
                        help="retries per point after a worker crash or "
                        "timeout, with jittered exponential backoff "
                        "(default 2); retries reuse the point's derived "
                        "seed, so a retried success is byte-identical")
    robust.add_argument("--keep-going", default=None,
                        action=argparse.BooleanOptionalAction,
                        help="complete the sweep when a point exhausts "
                        "its retries, journaling a structured failure "
                        "and exiting non-zero (default); --no-keep-going "
                        "aborts instead")
    robust.add_argument("--check-invariants", action="store_true",
                        help="runtime self-checks after every rate "
                        "solve: capacity/rate/usage-cache invariants "
                        "plus sampled cross-checks of the incremental "
                        "fluid solver against its reference solver "
                        "(env: REPRO_CHECK_INVARIANTS=1)")
    run.add_argument("--out", default=None,
                     help="write a markdown record to this path")
    run.add_argument("--plot", action="store_true",
                     help="render the series as an ASCII chart")
    obs = run.add_argument_group(
        "observability", "cross-layer telemetry (see "
        "docs/OBSERVABILITY.md); off by default — the zero-telemetry "
        "path is bit-identical")
    obs.add_argument("--trace", default=None, metavar="PATH",
                     help="export a Chrome-tracing/Perfetto JSON of the "
                     "whole run (per-node/core/NIC/wire lanes + counter "
                     "tracks)")
    obs.add_argument("--metrics", default=None, metavar="PATH",
                     help="export the metrics registry + interference-"
                     "attribution report as JSON")
    faults = run.add_argument_group(
        "fault injection", "deterministic fault injection + reliable "
        "transport (see docs/FAULTS.md)")
    faults.add_argument("--fault", action="append", metavar="SPEC",
                        help="inject one fault, repeatable; e.g. "
                        "'fail_stop:node=1,at=0.01', "
                        "'loss:loss_rate=0.05,start=0,duration=1', "
                        "'link:src=0,dst=1,bw_factor=0.5,start=0,"
                        "duration=1'")
    faults.add_argument("--fault-seed", type=int, default=None,
                        help="seed for fault randomness; without --fault "
                        "this draws a random fault plan from the seed")
    faults.add_argument("--timeout", type=float, default=None,
                        help="transport retransmit timeout in seconds")
    faults.add_argument("--max-retries", type=int, default=None,
                        help="retransmissions before TransportError")
    faults.add_argument("--journal", default=None, metavar="PATH",
                        help="checkpoint sweep points to a JSON-lines "
                        "campaign journal")
    faults.add_argument("--resume", action="store_true",
                        help="replay completed points from --journal and "
                        "re-run only failed/missing ones")
    args = parser.parse_args(argv)
    _setup_logging(args.log_level)
    if getattr(args, "spec", None):
        # An unknown preset is a usage error naming the valid ones.
        from repro.hardware.presets import get_preset
        try:
            get_preset(args.spec)
        except KeyError as err:
            parser.error(f"--spec: {err.args[0]}")

    if args.command == "profile":
        from repro.core import registry
        try:
            registry.get(args.experiment)
        except registry.UnknownExperimentError as err:
            parser.error(str(err))
        _prepare_outputs(args, parser)
        return _profile(args)

    if args.command == "trace-summary":
        return _trace_summary(args)

    if args.command == "status":
        return _status(args) if _check_inputs(args, parser) else 2

    if args.command == "report":
        if not _check_inputs(args, parser):
            return 2
        _prepare_outputs(args, parser)
        return _report(args)

    from repro.core import registry
    if args.command == "list":
        print(registry.render_listing(long=args.long))
        return 0

    if args.command == "topology":
        from repro.hardware import Cluster
        from repro.hardware.hwloc import render_topology
        cluster = Cluster(args.spec, n_nodes=1)
        print(render_topology(cluster.machine(0)))
        return 0

    scenario = _apply_scenario(args, parser)
    if args.jobs < 0:
        parser.error(f"--jobs must be >= 0 (0 = one per CPU), "
                     f"got {args.jobs}")
    names = registry.names(in_all=True) if args.experiment == "all" \
        else [args.experiment]
    if args.experiment != "all":
        try:
            registry.get(args.experiment)
        except registry.UnknownExperimentError as err:
            parser.error(str(err))

    if args.resume and not args.journal:
        parser.error("--resume requires --journal")
    try:
        plan, reliability = _build_fault_plan(args)
    except ValueError as err:
        parser.error(str(err))

    from repro.core.executor import ExecutionPolicy
    policy_kwargs = {}
    if args.point_timeout is not None:
        policy_kwargs["point_timeout"] = args.point_timeout
    if args.point_retries is not None:
        policy_kwargs["point_retries"] = args.point_retries
    if args.keep_going is not None:
        policy_kwargs["keep_going"] = args.keep_going
    if args.trials is not None:
        policy_kwargs["trials"] = args.trials
    try:
        policy = ExecutionPolicy(**policy_kwargs)
    except ValueError as err:
        parser.error(str(err))

    from contextlib import ExitStack

    from repro.sim.invariants import InvariantViolation
    sections: Dict[str, str] = {}
    results: Dict[str, object] = {}
    with ExitStack() as stack:
        journal = None
        if args.journal:
            # Claim the journal before any other output path is made,
            # and truncate or load it only once every flag is valid.
            _prepare_outputs(args, parser, (("--journal", "journal"),))
            from repro.core.campaign import CampaignJournal
            from repro.core.measurer import CampaignMeasurer
            try:
                journal = stack.enter_context(CampaignJournal(
                    args.journal, resume=args.resume, begin=False))
            except RuntimeError as err:   # another writer holds it
                parser.error(str(err))
        _prepare_outputs(args, parser)
        if journal is not None:
            journal.begin()
            CampaignMeasurer.attach(journal)
        if args.check_invariants:
            from repro.sim.invariants import invariant_checks
            stack.enter_context(invariant_checks())
        if plan is not None:
            from repro.faults import fault_context
            stack.enter_context(fault_context(plan, reliability))
        tele = None
        if args.trace or args.metrics:
            from repro.obs import telemetry_context
            tele = stack.enter_context(
                telemetry_context(trace=bool(args.trace)))
        if args.jobs != 1 or policy.trials > 1:
            # trials ride on the executor policy, so a multi-trial run
            # needs an installed executor even when it stays serial.
            from repro.core.executor import executor_context
            stack.enter_context(executor_context(args.jobs, policy))
        for name in names:
            defn = registry.get(name)
            t0 = time.time()
            if tele is not None:
                tele.set_run(name)
            overrides = scenario.params if scenario is not None else None
            try:
                result = defn.run(spec=args.spec, fast=args.fast,
                                  journal=journal, overrides=overrides)
            except InvariantViolation as err:
                # Outside a sweep there is no point boundary to
                # journal it at; the run stops here.
                print(f"InvariantViolation in {name}: {err}",
                      file=sys.stderr)
                return 1
            results[name] = result
            text = defn.render(result)
            if getattr(args, "plot", False) and defn.plot_capable:
                from repro.core.plotting import plot_experiment
                text += "\n" + plot_experiment(result)
            sections[name] = text
            print(text)
            print(f"[{name} done in {time.time() - t0:.1f}s]",
                  file=sys.stderr)
        if tele is not None:
            report = tele.render_attribution()
            print(report)
            sections["attribution"] = report
            if args.trace:
                n = tele.export_trace(args.trace)
                print(f"wrote {args.trace} ({n} trace events)",
                      file=sys.stderr)
            if args.metrics:
                tele.export_metrics(args.metrics)
                print(f"wrote {args.metrics}", file=sys.stderr)

    if args.out:
        from repro.core.report import write_experiments_md
        write_experiments_md(sections, path=args.out,
                             title=f"Experiment run ({args.spec}"
                             f"{', fast' if args.fast else ''})")
        print(f"wrote {args.out}", file=sys.stderr)

    # An invariant violation means the model broke: the run fails.
    # Harness-level point losses (worker crash / timeout with retries
    # exhausted) mean the campaign is degraded: reports render with the
    # holes marked, the journal has structured failure entries, and the
    # exit code says so.  Simulated-fault failures are expected output
    # and do not affect the exit code.
    from repro.core.report import collect_failures, render_failure_table
    violations = collect_failures(results, "invariant")
    for v in violations:
        print(f"InvariantViolation in {v['experiment']} at point "
              f"{v['key']}: {v['message']}", file=sys.stderr)
    if violations:
        return 1
    harness = collect_failures(results, "harness")
    if harness:
        print(f"\ncampaign DEGRADED: {len(harness)} point(s) lost to "
              f"harness failures (retries exhausted)", file=sys.stderr)
        print(render_failure_table(harness), file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
