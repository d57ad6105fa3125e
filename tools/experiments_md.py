#!/usr/bin/env python3
"""Regenerate ``EXPERIMENTS.md`` from the claims table.

Runs, in this process, every ``--fast`` run that a ``fast`` check of
:data:`repro.core.record.CLAIMS` reads, and rewrites ``EXPERIMENTS.md``
at the repository root: the paper's claims, every check with its paper
value, accepted interval and measured value, the deviation reasons and
the experiment index.  The text depends only on the code, so
``tests/test_paper_shapes.py`` (``pytest -m slow``) fails when the
committed file is stale.

Run from anywhere, with no arguments (a few minutes on two CPUs)::

    python tools/experiments_md.py
"""

from __future__ import annotations

import io
import math
import sys
from pathlib import Path
from typing import Mapping, Optional

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from repro.core.record import (CLAIMS, Check, checks,  # noqa: E402
                               fast_run_ids, run_fast)
from repro.core.report import format_si  # noqa: E402

OUT = ROOT / "EXPERIMENTS.md"


def _fmt(value: Optional[float], unit: str) -> str:
    if value is None:
        return "—"
    if unit in ("s", "B/s"):
        return format_si(value, unit)
    if unit == "B" and value >= 1024:
        return f"{value / 1024:g} KiB"
    return f"{value:.3g} {unit}".rstrip()


def _interval(check: Check) -> str:
    """The accepted interval.  A bound one float inside a shorter number
    is that number, excluded: exactly the set of accepted values."""
    def bound(x, outward):
        near = math.nextafter(x, outward)
        strict = len(repr(near)) < len(repr(x))
        return strict, _fmt(near if strict else x, check.unit)

    (lo_open, lo), (hi_open, hi) = (bound(check.lo, -math.inf),
                                    bound(check.hi, math.inf))
    if check.lo == check.hi:
        return f"= {lo}"
    if check.lo == -math.inf:
        return f"{'<' if hi_open else '≤'} {hi}"
    if check.hi == math.inf:
        return f"{'>' if lo_open else '≥'} {lo}"
    return f"{'(' if lo_open else '['}{lo}, {hi}{')' if hi_open else ']'}"


def render(results: Mapping[str, object]) -> str:
    """EXPERIMENTS.md from *results* (run id -> ``--fast`` result)."""
    from repro.core import registry

    measured = {c.name: c.evaluate(results) for c in checks("fast")}
    out = io.StringIO()
    out.write(
        "# EXPERIMENTS — paper vs. measured\n\nReproduction record for "
        "*Interferences between Communications and Computations in "
        "Distributed HPC Systems* (ICPP 2021) on the simulated clusters at "
        "the `--fast` profile.  The substrate is a calibrated simulator "
        "(see DESIGN.md), so the *shapes* — orderings, thresholds and "
        "rough factors — are the reproduction target, not exact absolute "
        "values.  Every number below comes from the claims table in "
        "`repro.core.record`.\n\n## Paper claims\n\n"
        "| Figure | Paper claim |\n|---|---|\n")
    for claim in CLAIMS:
        out.write(f"| {claim.figure} | {claim.text} |\n")
    out.write(
        "\n## Checks\n\nA check holds when its measured value lies in the "
        "accepted interval; it *deviates* when the paper's own value lies "
        "outside it.  *bench* checks are asserted only by `pytest "
        "benchmarks/test_claims.py --benchmark-only`.\n\n"
        "| Check | Paper | Accepted | Measured | Status |\n"
        "|---|---|---|---|---|\n")
    for check in (c for claim in CLAIMS for c in claim.checks):
        value = measured.get(check.name)
        shown = "*bench*" if value is None else _fmt(value, check.unit)
        if value is not None and not check.holds(value):
            status = "FAILS"
        else:
            status = "deviates" if check.deviates else "holds"
        out.write(f"| {check.name} | {_fmt(check.paper, check.unit)} | "
                  f"{_interval(check)} | {shown} | {status} |\n")
    out.write("\n## Known deviations\n\n")
    for claim in (c for c in CLAIMS if c.deviation):
        pairs = "; ".join(
            f"{c.name}: paper {_fmt(c.paper, c.unit)}, measured "
            f"{_fmt(measured.get(c.name), c.unit)}"
            for c in claim.checks if c.deviates)
        out.write(f"* **{claim.figure}** — {claim.deviation} ({pairs})\n")
    out.write("\n## Experiment index\n\nGenerated from the experiment "
              "registry (`repro list --long`); extensions and ablations "
              "run via the same CLI but are not part of the paper-claims "
              "table above.\n\n| Experiment | Kind | Capabilities | Title |"
              "\n|---|---|---|---|\n")
    for defn in registry.all_defs():
        out.write(f"| {defn.name} | {defn.kind} | "
                  f"{', '.join(defn.capabilities())} | {defn.title} |\n")
    out.write("\nRegenerate with `python tools/experiments_md.py`.\n")
    return out.getvalue()


def main() -> None:
    OUT.write_text(render({r: run_fast(r) for r in fast_run_ids()}))
    print(f"wrote {OUT}")


if __name__ == "__main__":
    main()
