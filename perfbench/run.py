"""Noise-robust benchmark of the simulator: end to end and per layer.

    python3 perfbench/run.py --workload fig10_runtime --seed 0 \
        --seconds 30 --trace 0

Run from the repository root.  A run splits its workload into units
(sweep points or CLI invocations) and runs them in interleaved rounds,
round-robin, for ``--seconds``.  Each unit keeps its fastest round:
every round must produce bitwise-identical output, so the fastest one
is the same work done while the host was not stalled.

``--trace 0`` reports the end-to-end metrics (``host_s``, ``setup_s``,
``peak_rss_mb``).  ``--trace 1`` times a few untraced rounds, then one
traced lap under the profiler of ``tracer.py``, and reports the
per-layer metrics.  The last stdout line is the result JSON; the line
before it holds diagnostics (per-round unit times, a host-noise probe,
setup samples and digests).  See README.md.
"""

from __future__ import annotations

import argparse
import functools
import gc
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from contextlib import ExitStack, redirect_stderr, redirect_stdout
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from workloads import (ROOT, SRC, WORKLOADS, Unit, Workload, digest,
                       golden_for, load_goldens)

#: Fresh interpreters timed per run for ``setup_s`` (the median counts).
SETUP_SAMPLES = 7
#: Rounds every run makes, however short ``--seconds`` is; two are the
#: least that can show a round-to-round output difference.
MIN_ROUNDS = 2
#: Kill a child that runs longer than this (a run must end in 180 s).
CHILD_TIMEOUT_S = 120.0

SETUP_CODE = """\
import importlib, sys
from repro.core import registry
registry.load()
for name in sys.argv[1:]:
    importlib.import_module(name)
"""

END_TO_END_UNITS = {"host_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}


def per_layer_unit(name: str) -> str:
    """Unit of a per-layer metric, from its naming convention."""
    if "_us_per_" in name:
        return "us"
    if name.endswith("_s"):
        return "s"
    if name in ("traced.coverage", "traced.overhead"):
        return "ratio"
    return "count"


def probe_s() -> float:
    """CPU time of a fixed pure-Python loop: a host-noise diagnostic,
    never a metric or a divisor."""
    t0 = time.process_time()
    acc = 0
    for i in range(200_000):
        acc += i * i
    return time.process_time() - t0


def run_child(argv: List[str], cwd: Path) -> Tuple[float, int]:
    """Run *argv* to completion; returns (CPU seconds, peak RSS in KiB)
    of that child alone, from its own rusage."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    with open(cwd / "stderr.txt", "wb") as err:
        proc = subprocess.Popen(argv, cwd=cwd, env=env,
                                stdout=subprocess.DEVNULL, stderr=err)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        tail = (cwd / "stderr.txt").read_text(errors="replace")[-2000:]
        raise RuntimeError(f"{' '.join(argv[1:4])} exited "
                           f"{proc.returncode}: {tail}")
    return usage.ru_utime + usage.ru_stime, usage.ru_maxrss


class Bench:
    """One benchmark run of one workload at one seed."""

    def __init__(self, workload: Workload, seed: int, work: Path,
                 goldens: Optional[Dict[str, Dict[str, str]]] = None):
        self.workload = workload
        self.seed = seed
        self.work = work
        if goldens is None:
            goldens = load_goldens()
        self.golden = golden_for(workload, seed, goldens)
        self.digests: Dict[str, str] = {}
        self.unit_s: Dict[str, List[float]] = {
            u.name: [] for u in workload.units}
        self.probe_s: List[float] = []
        self.setup_s: List[float] = []
        self.errors: List[str] = []
        self.attempted = 0
        self.failed = 0
        self.peak_child_kib = 0

    # -- operations ------------------------------------------------------------
    def _trial(self):
        from repro.faults.context import trial_scope
        return trial_scope(self.seed)

    def _check(self, unit: Unit, payload) -> None:
        got = digest(payload)
        first = self.digests.setdefault(unit.name, got)
        if got != first:
            raise ValueError(f"digest {got} differs from round 0's {first}")
        want = self.golden.get(unit.name)
        if want is not None and got != want:
            raise ValueError(f"digest {got} != golden {want}")

    def _op(self, unit: Unit, run) -> Optional[float]:
        """One unit once: returns its time, or None when it failed."""
        self.attempted += 1
        try:
            seconds, payload = run()
            self._check(unit, payload)
        except Exception as err:   # a failed operation, not a crash
            self.failed += 1
            self.errors.append(f"{unit.name}: {type(err).__name__}: "
                               f"{str(err)[:500]}")
            return None
        return seconds

    def _timed(self, unit: Unit, round_dir: Path) -> Tuple[float, object]:
        if unit.call is None:
            seconds, rss = run_child(
                [sys.executable, "-m", "repro", *unit.argv], round_dir)
            self.peak_child_kib = max(self.peak_child_kib, rss)
            return seconds, unit.payload(round_dir)
        gc.collect()
        with ExitStack() as stack:
            if self.workload.seeded:
                stack.enter_context(self._trial())
            t0 = time.process_time()
            payload = unit.call()
            return time.process_time() - t0, payload

    def _round(self, index: int) -> None:
        round_dir = self.work / f"round{index}"
        round_dir.mkdir()
        for unit in self.workload.units:
            seconds = self._op(unit, lambda: self._timed(unit, round_dir))
            if seconds is not None:
                self.unit_s[unit.name].append(seconds)
        shutil.rmtree(round_dir)
        self.probe_s.append(probe_s())

    def _setup_sample(self) -> None:
        seconds, _ = run_child(
            [sys.executable, "-c", SETUP_CODE,
             *self.workload.setup_modules], self.work)
        self.setup_s.append(seconds)

    def _ready(self) -> None:
        """Warm the imports an in-process workload needs, untimed."""
        if not self.workload.cli:
            from repro.core import registry
            registry.load()
            for name in self.workload.setup_modules:
                importlib.import_module(name)

    def _rounds(self, seconds: float, setup: bool) -> None:
        """Interleaved rounds until *seconds* would be overrun; setup
        samples are spread evenly across them."""
        t0 = time.monotonic()
        rounds = 0
        while True:
            r0 = time.monotonic()
            self._round(rounds)
            rounds += 1
            elapsed = time.monotonic() - t0
            if setup and len(self.setup_s) < \
                    SETUP_SAMPLES * elapsed / seconds:
                self._setup_sample()
            now = time.monotonic()
            if rounds >= MIN_ROUNDS and \
                    (now - t0) + (now - r0) > seconds:
                break
        while setup and len(self.setup_s) < SETUP_SAMPLES:
            self._setup_sample()

    def host_s(self) -> float:
        """Sum over units of each unit's fastest round."""
        return sum(min(times) for times in self.unit_s.values() if times)

    # -- the two kinds of run --------------------------------------------------
    def end_to_end(self, seconds: float) -> Dict[str, float]:
        self._ready()
        self._rounds(seconds, setup=True)
        if self.workload.cli:
            peak_kib = self.peak_child_kib
        else:
            peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        return {"host_s": self.host_s(),
                "setup_s": statistics.median(self.setup_s),
                "peak_rss_mb": peak_kib / 1024.0}

    def traced(self, seconds: float) -> Dict[str, float]:
        """Untraced rounds for half the time, then one traced lap."""
        from tracer import Tracer
        self._ready()
        self._rounds(seconds / 2, setup=False)
        tracer = Tracer()
        lap = 0.0
        traced_dir = self.work / "traced"
        traced_dir.mkdir()
        with tracer.installed():
            for unit in self.workload.units:
                lap += self._op(unit, lambda: self._traced_unit(
                    unit, tracer, traced_dir)) or 0.0
        return tracer.metrics(lap, self.host_s())

    def _traced_unit(self, unit: Unit, tracer,
                     round_dir: Path) -> Tuple[float, object]:
        """One traced unit: (wall seconds, payload)."""
        gc.collect()
        with ExitStack() as stack:
            if unit.call is None:
                # In-process, so the profiler sees the work.  cwd and the
                # std streams are process-wide: restore them afterwards.
                from repro.cli import main
                stack.callback(os.chdir, os.getcwd())
                os.chdir(round_dir)
                stack.enter_context(redirect_stdout(io.StringIO()))
                stack.enter_context(redirect_stderr(io.StringIO()))
                call = functools.partial(main, list(unit.argv))
            else:
                if self.workload.seeded:
                    stack.enter_context(self._trial())
                call = unit.call
            t0 = time.perf_counter()
            out = tracer.run(call)
            elapsed = time.perf_counter() - t0
        if unit.call is None:
            if out != 0:
                raise RuntimeError(f"repro {unit.argv[0]} returned {out}")
            out = unit.payload(round_dir)
        return elapsed, out

    def diagnostics(self) -> dict:
        return {"workload": self.workload.name, "seed": self.seed,
                "unit_cpu_s": self.unit_s, "probe_cpu_s": self.probe_s,
                "setup_cpu_s": self.setup_s, "digests": self.digests,
                "errors": self.errors}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no simulator sources under {SRC}",
              file=sys.stderr)
        return 2
    # Ambient REPRO_* switches (invariant checks, sampler mode, engine
    # counters) would change what is measured.
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    sys.path.insert(0, str(SRC))

    workload = WORKLOADS[args.workload]
    work = ROOT / ".bench_build" / "perfbench" / \
        f"{workload.name}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        bench = Bench(workload, args.seed, work)
        if args.trace:
            values = bench.traced(args.seconds)
            metrics = {name: {"value": value, "unit": per_layer_unit(name)}
                       for name, value in values.items()}
        else:
            values = bench.end_to_end(args.seconds)
            metrics = {name: {"value": value, "unit": END_TO_END_UNITS[name]}
                       for name, value in values.items()}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"diagnostics": bench.diagnostics()}))
    print(json.dumps({"correct": bench.failed == 0,
                      "attempted": bench.attempted,
                      "failed": bench.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
