"""The benchmark's workloads, split into timed units, and their digests.

A *unit* is one sweep point (run in-process through the registered
point runner) or one ``python -m repro`` invocation.  Every unit returns
a *payload* whose canonical digest must repeat bitwise across rounds;
at the default seed it must also equal the stored golden
(``goldens.json``).  See README.md for why each workload was chosen.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
GOLDENS = Path(__file__).resolve().parent / "goldens.json"

#: Seed whose digests are pinned in goldens.json.  ``trial_scope(0)``
#: is the simulator's own default seed, so it reproduces a plain run.
DEFAULT_SEED = 0


@dataclass(frozen=True)
class Unit:
    """One timed piece of a workload.

    In-process units set ``call`` (no arguments, returns the payload).
    CLI units set ``argv`` (``repro`` arguments, run inside a fresh
    per-round directory) and ``payload`` (reads that directory after
    the command exits).
    """

    name: str
    call: Optional[Callable[[], object]] = None
    argv: Tuple[str, ...] = ()
    payload: Optional[Callable[[Path], object]] = None


@dataclass(frozen=True)
class Workload:
    name: str
    #: Modules imported on the way to "ready", beyond ``registry.load()``:
    #: what the workload's runners import lazily.
    setup_modules: Tuple[str, ...]
    units: Tuple[Unit, ...]
    #: False when the workload has no seed input (the CLI campaign):
    #: its outputs are then checked against the goldens at every seed.
    seeded: bool = True

    @property
    def cli(self) -> bool:
        return self.units[0].call is None


def digest(payload) -> str:
    """sha256 of raw bytes, or of the canonical JSON of anything else."""
    if not isinstance(payload, bytes):
        payload = json.dumps(payload, sort_keys=True, separators=(",", ":"),
                             default=_jsonable).encode()
    return hashlib.sha256(payload).hexdigest()[:32]


def _jsonable(value):
    if hasattr(value, "tolist"):          # numpy scalars and arrays
        return value.tolist()
    raise TypeError(f"cannot digest {type(value).__name__}")


def result_payload(result) -> dict:
    """Series and observations of an ``ExperimentResult``."""
    return {
        "series": {key: [s.x, s.median, s.p10, s.p90]
                   for key, s in result.series.items()},
        "observations": result.observations,
        "failures": result.failures,
    }


def _point(runner: str, params: dict) -> Callable[[], object]:
    def call():
        from repro.core.executor import resolve_runner
        return resolve_runner(runner)(dict(params))
    return call


# -- fig10_runtime -----------------------------------------------------------
# The five `repro run fig10 --fast` points, with the parameters fig10()
# itself hands its point runner.
FIG10_WORKERS = (1, 8, 16, 24, 34)


def _fig10_units() -> Tuple[Unit, ...]:
    return tuple(
        Unit(f"workers={nw}", call=_point(
            "repro.core.experiments:_fig10_point",
            dict(spec="henri", nw=nw, cg_kwargs={}, gemm_kwargs={})))
        for nw in FIG10_WORKERS)


# -- fig2_freq ---------------------------------------------------------------
def _fig2() -> dict:
    from repro.core.registry import run_experiment
    return result_payload(run_experiment("fig2", fast=True))


# -- campaign_cli ------------------------------------------------------------
# fig2 at half its --fast phase length: the full --fast run under
# telemetry costs ~5 s, which left room for only two rounds a run.
FIG2_SCENARIO = Path(__file__).resolve().parent / "fig2_telemetry.toml"


def _journal_payload(path: Path) -> list:
    """Journal records without ``fp``: the fingerprint hashes the source
    tree, so it changes with any code edit while the results do not."""
    records = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            entry = json.loads(line)
            entry.pop("fp", None)
            records.append(entry)
    return records


def _fig1a_payload(d: Path) -> dict:
    return {"journal": _journal_payload(d / "J.jsonl"),
            "metrics": digest((d / "M.json").read_bytes())}


def _report_payload(d: Path) -> bytes:
    from repro.core.htmlreport import validate_html_report
    text = (d / "R.html").read_text(encoding="utf-8")
    problems = validate_html_report(text)
    if problems:
        raise ValueError(f"invalid HTML report: {problems[:3]}")
    return text.encode()


CAMPAIGN_UNITS = (
    Unit("run_fig1a_trials3",
         argv=("run", "fig1a", "--trials", "3", "--journal", "J.jsonl",
               "--metrics", "M.json"),
         payload=_fig1a_payload),
    Unit("run_fig2_metrics",
         argv=("run", "--scenario", str(FIG2_SCENARIO), "--metrics",
               "M2.json"),
         payload=lambda d: (d / "M2.json").read_bytes()),
    Unit("report",
         argv=("report", "J.jsonl", "-o", "R.html"),
         payload=_report_payload),
)

WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload("fig10_runtime",
             ("repro.runtime.apps",), _fig10_units()),
    Workload("fig2_freq",
             ("repro.hardware.frequency",),
             (Unit("fig2_fast", call=_fig2),)),
    Workload("campaign_cli",
             ("repro.cli", "repro.core.campaign", "repro.core.measurer",
              "repro.obs.telemetry", "repro.analysis.stats",
              "repro.core.htmlreport"),
             CAMPAIGN_UNITS, seeded=False),
)}


def load_goldens() -> Dict[str, Dict[str, str]]:
    with open(GOLDENS, encoding="utf-8") as fh:
        return json.load(fh)


def golden_for(workload: Workload, seed: int,
               goldens: Dict[str, Dict[str, str]]) -> Dict[str, str]:
    """The pinned digests that apply to this run (empty when none do)."""
    if workload.seeded and seed != DEFAULT_SEED:
        return {}
    return goldens.get(workload.name, {})
