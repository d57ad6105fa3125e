"""Process-parallel sweep execution with deterministic delta-merge.

A figure is a sweep of independent points — each builds its own
cluster/simulator and shares no state — so the sweep is embarrassingly
parallel.  What is *not* trivially parallel is reproducibility: seeded
runs must produce byte-identical reports, journals and telemetry
exports at any ``--jobs`` level.  This module gets there by
construction rather than by accident:

* every point is described by a picklable :class:`PointSpec` (runner
  referenced by ``"module:function"`` name, plus plain parameters);
* a point executes in :func:`_execute_point` — the *same* function
  whether in-process (``jobs=1``) or in a pool worker — against a
  fresh ambient fault context and a fresh per-point telemetry sink,
  and returns a journal-shaped entry (series rows, metrics delta,
  or a structured failure) plus a telemetry payload;
* the parent merges entries in **submission order**, regardless of
  worker completion order, through the same replay path the campaign
  journal uses (:meth:`~repro.core.campaign.SweepGuard.run_specs`).

Because ``jobs=1`` and ``jobs=N`` share every byte of the per-point
code path — including the per-point-local metric accumulation, whose
float additions would otherwise associate differently — their outputs
are identical by construction, not merely close.

The module also provides the content-addressed point cache:
:func:`point_fingerprint` hashes the runner, the canonicalised
parameters and the :func:`code_version`, so a resumed journal replays
points only while both the parameters and the simulation code are
unchanged.  The ambient fault plan is deliberately *excluded* from the
fingerprint: resuming a faulted campaign without the fault must replay
the completed points and re-run only the failed ones (see
``tests/test_campaign.py``).

Failure semantics (docs/PARALLEL.md "Failure semantics"): the parallel
path is *self-healing*.  Each point gets an optional wall-clock
deadline; a timed-out or crashed point is retried with exponential
backoff (the transport's :func:`~repro.faults.reliability.backoff_delay`
policy) under the **same** derived point seed, so a successful retry is
byte-identical to a first-try success.  A ``BrokenProcessPool`` rebuilds
the pool and requeues only the in-flight points — completed entries are
never recomputed.  Exhausted retries produce a structured *harness*
failure entry (``failure.harness = True``) instead of aborting the
sweep, unless :attr:`ExecutionPolicy.keep_going` is off.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import logging
import os
import time
from bisect import insort
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor
from concurrent.futures import wait as _futures_wait
from concurrent.futures.process import BrokenProcessPool
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import (Callable, Dict, Iterable, Iterator, List, Optional,
                    Tuple)

from repro.analysis.stats import summarize
from repro.faults.reliability import backoff_delay as _backoff

__all__ = [
    "PointSpec", "ExecutionPolicy", "PointTimeout", "WorkerCrash",
    "SweepExecutor", "executor_context", "active_executor",
    "stat_row", "value_row", "build_env", "code_version",
    "point_fingerprint", "resolve_runner",
]

logger = logging.getLogger(__name__)


class WorkerCrash(RuntimeError):
    """A pool worker process died while the point was in flight."""


class PointTimeout(RuntimeError):
    """A point exceeded its wall-clock deadline and its worker was killed."""


@dataclass(frozen=True)
class ExecutionPolicy:
    """Timeout / retry / degradation policy for a parallel sweep.

    ``point_timeout`` is a wall-clock deadline in seconds per point
    (``None`` = no deadline; only enforceable with ``jobs >= 2``, the
    serial path cannot preempt itself).  A timed-out or crashed point is
    retried up to ``point_retries`` times with jittered exponential
    backoff.  With ``keep_going`` (the default) an exhausted point
    degrades to a structured journal failure entry; without it, the
    sweep raises instead, reproducing the pre-self-healing abort.
    """

    point_timeout: Optional[float] = None
    point_retries: int = 2
    keep_going: bool = True
    backoff_base_s: float = 0.5
    backoff_factor: float = 2.0
    backoff_cap_s: float = 30.0
    # Multi-seed trials: every sweep point fans out into ``trials``
    # seeded repetitions (consumed by ``SweepGuard.run_specs``).
    trials: int = 1

    def __post_init__(self) -> None:
        if self.point_timeout is not None and self.point_timeout <= 0:
            raise ValueError("point_timeout must be > 0")
        if self.point_retries < 0:
            raise ValueError("point_retries must be >= 0")
        if self.backoff_base_s < 0:
            raise ValueError("backoff_base_s must be >= 0")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")


@dataclass(frozen=True)
class PointSpec:
    """One sweep point, as pure picklable data.

    ``runner`` names a module-level function (``"pkg.module:func"``)
    taking the ``params`` dict and returning ``{series_key: [row, ...]}``
    where each row is ``[x, median, p10, p90]`` — exactly the shape the
    campaign journal stores and replays.

    ``trial`` is the multi-seed repetition index.  Trial 0 executes
    exactly as a pre-trial point did (same scope, same fingerprint, no
    extra ambient state), so ``--trials 1`` campaigns stay
    byte-identical; trial >= 1 runs under a derived trial seed and a
    per-trial point scope.
    """

    experiment: str
    key: str
    runner: str
    params: Dict[str, object] = field(default_factory=dict)
    trial: int = 0

    @property
    def scope_key(self) -> str:
        """The journal/scope label: the key, trial-tagged past trial 0."""
        return self.key if self.trial == 0 else f"{self.key}#t{self.trial}"


# -- row helpers (runners build journal-shaped rows) ----------------------

def stat_row(x: float, samples) -> List[float]:
    """Row from raw samples: their median and decile band."""
    stats = summarize(samples)
    return [float(x), stats.median, stats.p10, stats.p90]


def value_row(x: float, value: float) -> List[float]:
    """Row from one deterministic value (degenerate band)."""
    v = float(value)
    return [float(x), v, v, v]


# -- content-addressed point cache ----------------------------------------

# Presentation-only modules: they render results but cannot change what
# a sweep point computes, so editing them must not invalidate caches.
_NON_SEMANTIC = {
    "cli.py", "core/report.py", "core/plotting.py", "core/record.py",
    "core/registry.py", "core/scenario.py", "obs/export.py",
    "core/measurer.py", "core/htmlreport.py",
}

_CODE_VERSION: Optional[str] = None


def code_version() -> str:
    """Hash of the simulation sources (cache-busting token).

    Overridable through ``REPRO_CODE_VERSION`` so tests (and users who
    know a change is presentation-only) can pin it.
    """
    global _CODE_VERSION
    override = os.environ.get("REPRO_CODE_VERSION")
    if override:
        return override
    if _CODE_VERSION is None:
        root = Path(__file__).resolve().parent.parent
        digest = hashlib.sha256()
        for path in sorted(root.rglob("*.py")):
            rel = path.relative_to(root).as_posix()
            if rel in _NON_SEMANTIC:
                continue
            digest.update(rel.encode())
            digest.update(b"\0")
            digest.update(path.read_bytes())
            digest.update(b"\0")
        _CODE_VERSION = digest.hexdigest()[:16]
    return _CODE_VERSION


def _canon(value):
    """Canonicalise a parameter value for hashing.

    Callables hash by qualified name (their repr embeds a memory
    address); dataclass-like objects fall back to ``repr``, which is
    deterministic for frozen spec objects.
    """
    if callable(value):
        module = getattr(value, "__module__", "?")
        name = getattr(value, "__qualname__", None)
        return f"{module}:{name}" if name else repr(value)
    if isinstance(value, dict):
        return {str(k): _canon(v) for k, v in sorted(value.items())}
    if isinstance(value, (list, tuple)):
        return [_canon(v) for v in value]
    if value is None or isinstance(value, (str, int, float, bool)):
        return value
    return repr(value)


def point_fingerprint(spec: PointSpec) -> str:
    """Content hash of one point: runner + params + code version.

    The ambient fault plan and seeds derived from it are deliberately
    not part of the hash — resuming a campaign under a different (or
    no) fault plan replays completed points (see module docstring).

    The trial index enters the hash only past trial 0, so trial-0
    fingerprints are stable against pre-trial journals (cache fp
    stability) while each extra trial caches independently.
    """
    payload = {"runner": spec.runner, "key": spec.key,
               "params": _canon(spec.params), "code": code_version()}
    if spec.trial:
        payload["trial"] = spec.trial
    blob = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


# -- worker-side execution -------------------------------------------------

def resolve_runner(ref: str) -> Callable[[dict], dict]:
    """``"pkg.module:func"`` -> the function object."""
    module, sep, name = ref.partition(":")
    if not sep:
        raise ValueError(f"runner reference {ref!r} is not 'module:func'")
    return getattr(importlib.import_module(module), name)


def _failure_entry(err: BaseException) -> dict:
    """Structured failure matching ``ExperimentResult.record_failure``."""
    entry: dict = {"error": type(err).__name__, "message": str(err)}
    for attr in ("reason", "src", "dst", "retries", "timeouts"):
        value = getattr(err, attr, None)
        if value is not None:
            entry[attr] = value
    return entry


def build_env() -> dict:
    """Snapshot the ambient contexts a point must run under, as data.

    Captured in the parent and re-installed around every point —
    in-process and in pool workers alike — so both run against
    identical, *fresh* fault and telemetry state.
    """
    env: dict = {}
    from repro.faults.context import active_faults
    installed = active_faults()
    if installed is not None:
        from dataclasses import asdict
        env["fault_plan"] = installed.plan.to_dict()
        rel = installed.reliability
        env["reliability"] = asdict(rel) if rel is not None else None
    from repro.obs.context import active_telemetry
    tele = active_telemetry()
    if tele is not None:
        env["telemetry"] = {"trace": tele.tracer is not None,
                            "metrics": tele.registry is not None,
                            "run": tele.run_label}
    from repro.sim import invariants as _inv
    if _inv.ENABLED:
        env["check_invariants"] = {"sample": _inv.SAMPLE_EVERY}
    return env


def _execute_point(task: Tuple[PointSpec, dict]) -> dict:
    """Run one sweep point under its environment; never raises for a
    point-level failure (returns a ``"failed"`` entry instead).

    This is the single execution path for every ``--jobs`` level: a
    fresh per-point telemetry sink collects the point's events and
    metric deltas locally, so the parent-side merge is associativity-
    safe (identical floats whether or not a pool is involved).
    """
    spec, env = task
    from repro.faults.chaos import maybe_chaos
    from repro.faults.context import (derive_point_seed, point_scope,
                                      trial_scope)
    maybe_chaos(spec.experiment, spec.scope_key)
    entry: dict = {"key": spec.key}
    t0 = time.perf_counter()
    with ExitStack() as stack:
        fault_env = env.get("fault_plan")
        if fault_env is not None:
            from repro.faults import (FaultPlan, ReliabilityConfig,
                                      fault_context)
            rel_env = env.get("reliability")
            reliability = ReliabilityConfig(**rel_env) \
                if rel_env is not None else None
            stack.enter_context(
                fault_context(FaultPlan.from_dict(fault_env), reliability))
        tele = None
        tele_env = env.get("telemetry")
        if tele_env is not None:
            from repro.obs.telemetry import telemetry_context
            tele = stack.enter_context(telemetry_context(
                trace=tele_env["trace"], metrics=tele_env["metrics"]))
            tele.set_run(tele_env["run"])
        inv_env = env.get("check_invariants")
        if inv_env is not None:
            from repro.sim.invariants import invariant_checks
            stack.enter_context(invariant_checks(inv_env["sample"]))
        # The point scope keys fault-injector seed derivation; the
        # trial-tagged key gives every trial its own injection draw.
        # Trial >= 1 additionally installs a derived trial seed so the
        # cluster's measurement-noise RNG varies per trial; trial 0
        # installs nothing and stays byte-identical to a pre-trial run.
        stack.enter_context(point_scope(spec.experiment, spec.scope_key))
        if spec.trial:
            stack.enter_context(trial_scope(derive_point_seed(
                spec.trial, spec.experiment, spec.key)))
        try:
            rows = resolve_runner(spec.runner)(dict(spec.params))
        except Exception as err:
            entry["status"] = "failed"
            entry["failure"] = _failure_entry(err)
        else:
            entry["status"] = "ok"
            entry["series"] = rows
        if tele is not None:
            if tele.registry is not None:
                entry["metrics"] = tele.registry.delta({})
            entry["obs"] = tele.point_payload()
    # Wall-clock cost of the point, for the live measurer's ETA only.
    # The guard pops it before journaling — it must never reach an
    # artifact, or byte-identity across machines/runs would break.
    entry["wall"] = time.perf_counter() - t0
    return entry


def _worker_init() -> None:
    """Pool-worker initializer: forked children inherit the parent's
    ambient fault/telemetry stacks (with clusters bound to the parent's
    sink); clear them so points install only what their env says."""
    from repro.faults import context as fault_ctx
    fault_ctx._STACK.clear()          # noqa: SLF001
    fault_ctx._POINT_SCOPE.clear()    # noqa: SLF001
    fault_ctx._TRIAL_SEEDS.clear()    # noqa: SLF001
    from repro.obs import context as obs_ctx
    obs_ctx._STACK.clear()            # noqa: SLF001
    obs_ctx._ACTIVE = None            # noqa: SLF001


# -- the executor ----------------------------------------------------------

def _obs_inc(name: str, n: float = 1.0) -> None:
    """Parent-side executor counter (only materialised when hit, so
    crash-free runs export byte-identical metrics at any jobs level)."""
    from repro.obs.context import active_telemetry
    tele = active_telemetry()
    if tele is not None and tele.registry is not None:
        tele.registry.counter(name).inc(n)


def _retry_jitter(spec: PointSpec, attempt: int) -> float:
    """Deterministic backoff jitter in ``[0, 0.25)`` for a retry.

    Derived from the point identity and attempt number (not the wall
    clock), so a re-run of the same degraded sweep retries on the same
    schedule.  Jitter only spreads wall-clock submissions; it cannot
    affect results — those depend solely on the point seed.
    """
    from repro.faults.context import derive_point_seed
    seed = derive_point_seed(attempt, spec.experiment, spec.key)
    return (seed % 997) / 997.0 * 0.25


class SweepExecutor:
    """Maps points over a process pool, yielding in submission order.

    ``jobs <= 1`` stays in-process (no pool, no pickling) but still
    routes through :func:`_execute_point` — the serial path is the
    parallel path with a pool of zero.  ``jobs == 0`` at construction
    means "one per CPU"; a negative ``jobs`` is a ``ValueError``.

    The parallel path is a submission-order futures loop (window =
    ``jobs``, capped at the sweep's point count, and so is the pool)
    rather than ``pool.map``: each in-flight point carries a
    deadline, crashes and timeouts requeue the affected points with
    backoff, and results are buffered per index and yielded contiguously
    — the merge order is identical whatever the completion (or retry)
    order was.
    """

    def __init__(self, jobs: int = 1,
                 policy: Optional[ExecutionPolicy] = None):
        jobs = int(jobs)
        if jobs < 0:
            raise ValueError(f"jobs must be >= 0 (0 = one per CPU), "
                             f"got {jobs}")
        self.jobs = jobs or os.cpu_count() or 1
        self.policy = policy if policy is not None else ExecutionPolicy()
        self._pool: Optional[ProcessPoolExecutor] = None

    # -- pool lifecycle ----------------------------------------------------
    def _ensure_pool(self, width: int) -> ProcessPoolExecutor:
        """The pool, with at least *width* workers.

        A fork-context pool launches all ``max_workers`` processes up
        front, so it is sized to the sweep being mapped; a later, wider
        sweep replaces it with a wider one.
        """
        if self._pool is not None and self._pool._max_workers < width:
            self.close()
        if self._pool is None:
            import multiprocessing
            try:
                ctx = multiprocessing.get_context("fork")
            except ValueError:  # pragma: no cover - non-POSIX fallback
                ctx = multiprocessing.get_context()
            self._pool = ProcessPoolExecutor(
                max_workers=width, mp_context=ctx,
                initializer=_worker_init)
        return self._pool

    def close(self, graceful: bool = True) -> None:
        """Shut the pool down.

        On the clean path this *waits* for workers: tearing them down
        mid-write (``wait=False``) can orphan a worker inside a
        half-finished journal append or telemetry pickle.  Error paths
        pass ``graceful=False`` to stay non-blocking — the pool is
        already broken or about to be killed.
        """
        if self._pool is not None:
            self._pool.shutdown(wait=graceful, cancel_futures=True)
            self._pool = None

    def _kill_workers(self) -> None:
        """Terminate every pool worker and discard the pool.

        A running task cannot be cancelled through the executor API, so
        enforcing a deadline means killing the worker under it; the pool
        is rebuilt lazily on the next submission.
        """
        pool = self._pool
        if pool is None:
            return
        for proc in list(getattr(pool, "_processes", {}).values()):
            proc.terminate()
        pool.shutdown(wait=False, cancel_futures=True)
        self._pool = None

    def __enter__(self) -> "SweepExecutor":
        return self

    def __exit__(self, exc_type, *exc) -> None:
        self.close(graceful=exc_type is None)

    # -- mapping -----------------------------------------------------------
    def map_points(self, tasks: Iterable[Tuple[PointSpec, dict]]
                   ) -> Iterator[dict]:
        """Execute every ``(spec, env)`` task; yield entries in task
        order.  Worker crashes and point timeouts are retried per
        :attr:`policy`; a point that exhausts its retries yields a
        structured harness-failure entry (``keep_going``) or raises."""
        tasks = list(tasks)
        if self.jobs <= 1:
            return (_execute_point(task) for task in tasks)
        return self._map_parallel(tasks)

    def _map_parallel(self, tasks: List[Tuple[PointSpec, dict]]
                      ) -> Iterator[dict]:
        policy = self.policy
        n = len(tasks)
        width = min(self.jobs, n)
        # (ready_at, index) pairs awaiting (re)submission, kept sorted;
        # the initial load is all-ready in index order, so first
        # submissions happen in task order.
        waiting: List[Tuple[float, int]] = [(0.0, i) for i in range(n)]
        inflight: Dict[object, int] = {}     # future -> task index
        deadlines: Dict[object, float] = {}  # future -> monotonic deadline
        failures = [0] * n                   # failed attempts per point
        buffered: Dict[int, dict] = {}       # index -> finished entry
        next_emit = 0

        def submit_ready() -> None:
            now = time.monotonic()
            i = 0
            while i < len(waiting) and len(inflight) < width:
                ready_at, idx = waiting[i]
                if ready_at > now:
                    break  # sorted: nothing later is ready either
                waiting.pop(i)
                try:
                    future = self._ensure_pool(width).submit(
                        _execute_point, tasks[idx])
                except BrokenProcessPool:
                    # A previously-submitted point already killed the
                    # pool and its futures are not harvested yet:
                    # requeue this point untouched and let the wait
                    # loop surface the crash for the in-flight ones.
                    insort(waiting, (ready_at, idx))
                    self.close(graceful=False)
                    break
                inflight[future] = idx
                if policy.point_timeout is not None:
                    # Window == pool width, so a submitted task starts
                    # (approximately) immediately; deadline-from-submit
                    # is the per-point wall-clock deadline.
                    deadlines[future] = time.monotonic() \
                        + policy.point_timeout
            return

        def charge(idx: int, err: BaseException) -> None:
            """Count a failed attempt; requeue with backoff or exhaust."""
            failures[idx] += 1
            spec = tasks[idx][0]
            if failures[idx] > policy.point_retries:
                if not policy.keep_going:
                    self.close(graceful=False)
                    raise RuntimeError(
                        f"sweep point {spec.key!r} failed after "
                        f"{failures[idx]} attempt(s): {err} "
                        f"(keep_going is off; a campaign journal resumes "
                        f"the completed points)") from err
                _obs_inc("executor.points_failed")
                logger.warning("point %s/%s failed permanently after "
                               "%d attempt(s): %s", spec.experiment,
                               spec.key, failures[idx], err)
                buffered[idx] = {
                    "key": spec.key, "status": "failed",
                    "failure": {"error": type(err).__name__,
                                "message": str(err), "harness": True,
                                "attempts": failures[idx]}}
            else:
                _obs_inc("executor.point_retries")
                delay = _backoff(policy.backoff_base_s, failures[idx],
                                 policy.backoff_factor,
                                 policy.backoff_cap_s,
                                 _retry_jitter(spec, failures[idx]))
                logger.info("retrying point %s/%s in %.2fs (attempt %d "
                            "failed: %s)", spec.experiment, spec.key,
                            delay, failures[idx], err)
                insort(waiting, (time.monotonic() + delay, idx))

        def harvest(future) -> Optional[dict]:
            """Entry of a done future, or ``None`` if it died with it."""
            if future.done() and not future.cancelled():
                try:
                    return future.result()
                except BaseException:  # noqa: BLE001 - crash/teardown
                    return None
            return None

        while next_emit < n:
            submit_ready()
            if not inflight:
                if not waiting:  # pragma: no cover - defensive
                    raise RuntimeError("sweep stalled with points missing")
                time.sleep(max(0.0, waiting[0][0] - time.monotonic()))
                continue

            wait_s = None
            if deadlines:
                wait_s = max(0.0, min(deadlines.values()) - time.monotonic())
            if waiting and len(inflight) < width:
                wake = max(0.0, waiting[0][0] - time.monotonic())
                wait_s = wake if wait_s is None else min(wait_s, wake)
            done, _ = _futures_wait(list(inflight), timeout=wait_s,
                                    return_when=FIRST_COMPLETED)

            crashed = False
            for future in done:
                idx = inflight.pop(future)
                deadlines.pop(future, None)
                try:
                    entry = future.result()
                except BrokenProcessPool:
                    crashed = True
                    charge(idx, WorkerCrash(
                        f"worker process died while executing "
                        f"{tasks[idx][0].key!r}"))
                except Exception as err:  # unpicklable result, teardown
                    charge(idx, WorkerCrash(
                        f"point {tasks[idx][0].key!r} was lost to a "
                        f"harness error: {type(err).__name__}: {err}"))
                else:
                    # No per-entry attempt annotation: a retried success
                    # must stay byte-identical to a first-try success.
                    buffered[idx] = entry

            if crashed:
                # The pool is broken: every other in-flight future is
                # dead too.  Drain any that still carry a result, charge
                # the rest (the culprit cannot be attributed, and with
                # the window no wider than the pool they were all
                # running), rebuild the
                # pool lazily, and carry on — completed entries are
                # already buffered and are never recomputed.
                _obs_inc("executor.worker_crashes")
                doomed = list(inflight.items())
                inflight.clear()
                deadlines.clear()
                self.close(graceful=False)
                for future, idx in doomed:
                    entry = harvest(future)
                    if entry is not None:
                        buffered[idx] = entry
                    else:
                        charge(idx, WorkerCrash(
                            f"worker pool broke while "
                            f"{tasks[idx][0].key!r} was in flight"))
            elif deadlines:
                now = time.monotonic()
                expired = {f for f, dl in deadlines.items()
                           if dl <= now and not f.done()}
                if expired:
                    # Hung workers cannot be cancelled: kill the pool,
                    # charge the expired points a timeout, and requeue
                    # the innocent in-flight bystanders at no charge.
                    victims = []
                    bystanders = []
                    for future, idx in list(inflight.items()):
                        entry = harvest(future)
                        if entry is not None:
                            buffered[idx] = entry
                        elif future in expired:
                            victims.append(idx)
                        else:
                            bystanders.append(idx)
                    inflight.clear()
                    deadlines.clear()
                    self._kill_workers()
                    _obs_inc("executor.point_timeouts", float(len(victims)))
                    for idx in victims:
                        charge(idx, PointTimeout(
                            f"point {tasks[idx][0].key!r} exceeded its "
                            f"{policy.point_timeout:g}s deadline"))
                    now = time.monotonic()
                    for idx in bystanders:
                        insort(waiting, (now, idx))

            while next_emit in buffered:
                yield buffered.pop(next_emit)
                next_emit += 1


# -- ambient executor context (mirrors faults/telemetry) -------------------

_EXECUTORS: List[SweepExecutor] = []


def active_executor() -> Optional[SweepExecutor]:
    """The innermost installed executor, or ``None`` (= serial)."""
    return _EXECUTORS[-1] if _EXECUTORS else None


@contextmanager
def executor_context(jobs: int, policy: Optional[ExecutionPolicy] = None):
    """Install a :class:`SweepExecutor` for every sweep run inside the
    ``with`` block (consumed by ``SweepGuard.run_specs``)."""
    executor = SweepExecutor(jobs=jobs, policy=policy)
    _EXECUTORS.append(executor)
    try:
        yield executor
    finally:
        if _EXECUTORS and _EXECUTORS[-1] is executor:
            _EXECUTORS.pop()
        elif executor in _EXECUTORS:  # pragma: no cover - unbalanced
            _EXECUTORS.remove(executor)
        executor.close()
