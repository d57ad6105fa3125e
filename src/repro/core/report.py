"""ASCII rendering of experiment results and EXPERIMENTS.md generation.

The paper reports figures; without a plotting dependency we render each
figure's series as aligned text tables, and assemble the
paper-vs-measured record into ``EXPERIMENTS.md``.
"""

from __future__ import annotations

import io
from typing import Dict, Iterable, List, Optional, Sequence

from repro.core.results import ExperimentResult, Series

__all__ = ["render_table", "render_series", "render_experiment",
           "render_table1", "write_experiments_md", "format_si",
           "failure_kind", "collect_failures", "render_failure_table"]


def format_si(value: float, unit: str = "") -> str:
    """Human-readable engineering formatting (µ, m, k, M, G)."""
    if value == 0:
        return f"0{unit}"
    abs_v = abs(value)
    for factor, prefix in ((1e9, "G"), (1e6, "M"), (1e3, "k")):
        if abs_v >= factor:
            return f"{value/factor:.3g}{prefix}{unit}"
    if abs_v >= 1:
        return f"{value:.3g}{unit}"
    for factor, prefix in ((1e-3, "m"), (1e-6, "u"), (1e-9, "n")):
        if abs_v >= factor:
            return f"{value/factor:.3g}{prefix}{unit}"
    return f"{value:.3g}{unit}"


def render_table(headers: Sequence[str], rows: Iterable[Sequence[object]],
                 ) -> str:
    """Monospace table with aligned columns."""
    str_rows = [[str(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    line = "  ".join(h.ljust(w) for h, w in zip(headers, widths))
    sep = "  ".join("-" * w for w in widths)
    body = "\n".join("  ".join(c.ljust(w) for c, w in zip(row, widths))
                     for row in str_rows)
    return f"{line}\n{sep}\n{body}" if str_rows else f"{line}\n{sep}"


def render_series(series: Series, unit: str = "") -> str:
    """One series as an x / p10 / median / p90 table."""
    rows = [(format_si(x), format_si(p10, unit), format_si(med, unit),
             format_si(p90, unit))
            for x, p10, med, p90 in zip(series.x, series.p10,
                                        series.median, series.p90)]
    header = [series.xlabel or "x", "p10", "median", "p90"]
    return f"# {series.label}\n" + render_table(header, rows)


def render_experiment(result: ExperimentResult) -> str:
    """Full text report of one experiment."""
    out = io.StringIO()
    out.write(f"== {result.name}: {result.title} ==\n")
    # Multi-seed campaigns annotate the header; single-trial output is
    # byte-identical to the pre-trial renderer.
    trials = (result.meta.get("sweep") or {}).get("trials", 1) \
        if getattr(result, "meta", None) else 1
    if trials > 1:
        out.write(f"({trials} seeded trials per point; medians are "
                  f"taken over the per-trial medians, bands are the "
                  f"trial envelope)\n")
    for key in sorted(result.series):
        out.write("\n")
        out.write(render_series(result.series[key]))
        out.write("\n")
    if result.observations:
        out.write("\nObservations:\n")
        for key in sorted(result.observations):
            value = result.observations[key]
            if isinstance(value, float):
                value = format_si(value)
            out.write(f"  {key}: {value}\n")
    not_derived = result.meta.get("observations_error")
    if not_derived:
        out.write(f"\nObservations not derived (points failed): "
                  f"{not_derived}\n")
    if result.failures:
        by_kind: Dict[str, Dict[str, dict]] = {
            "simulated": {}, "invariant": {}, "harness": {}}
        for key, info in result.failures.items():
            by_kind[failure_kind(info)][key] = info
        simulated, harness = by_kind["simulated"], by_kind["harness"]
        if by_kind["invariant"]:
            # A solver self-check fired: the model broke, so these are
            # neither fault-injection outcomes nor harness losses.
            out.write("\nInvariant violations (run failed):\n")
            for key, info in sorted(by_kind["invariant"].items()):
                out.write(f"  {key}: {info.get('message', '')}\n")
        if simulated:
            out.write("\nFailed points (fault injection):\n")
            for key in sorted(simulated):
                info = simulated[key]
                detail = info.get("message") or info.get("error") or "failed"
                out.write(f"  {key}: {detail}\n")
        if harness:
            # Harness-level losses (worker crash / point timeout with
            # retries exhausted): the sweep is degraded and these points
            # are holes in the series above, not simulation outcomes.
            out.write("\nMissing points (harness failures, "
                      "sweep degraded):\n")
            for key in sorted(harness):
                info = harness[key]
                detail = info.get("message") or info.get("error") or "lost"
                attempts = info.get("attempts")
                suffix = f" [after {attempts} attempt(s)]" \
                    if attempts is not None else ""
                out.write(f"  {key}: [hole] {detail}{suffix}\n")
    return out.getvalue()


def failure_kind(info: dict) -> str:
    """Classify a point failure: ``"harness"`` (worker crash / timeout,
    retries exhausted), ``"invariant"`` (a solver self-check raised
    ``InvariantViolation``) or ``"simulated"`` (fault injection)."""
    if info.get("harness"):
        return "harness"
    if info.get("error") == "InvariantViolation":
        return "invariant"
    return "simulated"


def collect_failures(results: Dict[str, object], kind: str) -> List[dict]:
    """Flatten point failures of one :func:`failure_kind` out of
    ``{name: result}``.

    Accepts plain :class:`ExperimentResult` values and the
    ``multi_result`` dict-of-results shape alike.  Harness failures
    degrade a campaign and invariant violations fail it;
    simulated-fault failures are expected experiment output.
    """
    out: List[dict] = []
    for result in results.values():
        parts = result.values() if isinstance(result, dict) else [result]
        for res in parts:
            failures = getattr(res, "failures", None) or {}
            for key in sorted(failures):
                info = failures[key]
                if failure_kind(info) != kind:
                    continue
                out.append({
                    "experiment": getattr(res, "name", "?"),
                    "key": key,
                    "error": info.get("error", "?"),
                    "attempts": info.get("attempts", "?"),
                    "message": info.get("message", ""),
                })
    return out


def render_failure_table(failures: List[dict]) -> str:
    """Per-point failure table printed when a campaign degrades."""
    rows = [[f["experiment"], f["key"], f["error"], f["attempts"],
             f["message"]] for f in failures]
    return render_table(
        ["experiment", "point", "error", "attempts", "message"], rows)


def render_table1(result: ExperimentResult) -> str:
    """Paper Table 1: placement-impact summary (registered as the
    ``table1`` experiment's renderer)."""
    rows = [[r["data"], r["comm_thread"],
             f'{r["latency_impact_from_cores"]}',
             f'{r["latency_max_ratio"]:.2f}x',
             f'{r["bandwidth_min_ratio"]:.2f}']
            for r in result.meta["rows"]]
    return render_table(
        ["data", "comm thread", "lat. impact from cores",
         "lat. max ratio", "bw min ratio"], rows)


def write_experiments_md(sections: Dict[str, str],
                         path: str = "EXPERIMENTS.md",
                         title: str = "Experiment record") -> str:
    """Assemble named sections into a markdown file; returns the text."""
    out = io.StringIO()
    out.write(f"# {title}\n\n")
    for name in sections:
        out.write(f"## {name}\n\n```\n{sections[name].rstrip()}\n```\n\n")
    text = out.getvalue()
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    return text
