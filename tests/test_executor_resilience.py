"""Self-healing sweep execution: chaos crashes, timeouts, degradation.

The contract under test (docs/PARALLEL.md "Failure semantics"): a
worker crash or hung point never aborts the sweep — the affected points
are retried under the *same* derived seed (so a recovered sweep is
byte-identical to an undisturbed one), and a point that exhausts its
retries degrades to a structured journal failure entry instead of an
exception.  Chaos is injected with the ``REPRO_CHAOS`` knob
(:mod:`repro.faults.chaos`), which crosses the fork into pool workers
via the environment.
"""

import json
import os

import pytest

from repro.cli import main
from repro.core.campaign import CampaignJournal, SweepGuard
from repro.core.executor import (ExecutionPolicy, PointSpec, SweepExecutor,
                                 _retry_jitter, executor_context)
from repro.core.results import ExperimentResult
from repro.faults.chaos import maybe_chaos, parse_chaos
from repro.faults.reliability import ReliabilityConfig, backoff_delay

# Fast-retry policy so chaos tests don't sit in real backoff sleeps.
FAST = dict(backoff_base_s=0.02, backoff_cap_s=0.1)


def _row_runner(params):
    return {"s": [[float(params["n"]), float(params["n"]) * 2.0, 1.0, 1.0]]}


def _crash_runner(params):
    os._exit(3)


def _specs(n=6):
    return [PointSpec(experiment="figX", key=f"n={i}",
                      runner="tests.test_executor_resilience:_row_runner",
                      params={"n": i}) for i in range(n)]


def _guard():
    return SweepGuard(ExperimentResult(name="figX", title="t"))


def _series_bytes(result):
    return json.dumps(
        {k: [s.x, s.median, s.p10, s.p90]
         for k, s in sorted(result.series.items())})


# -- crash requeue ----------------------------------------------------------

def test_crash_once_sweep_completes_byte_identical(tmp_path, monkeypatch):
    """A worker killed mid-sweep is requeued; results match a clean run."""
    clean = _guard()
    with executor_context(2, ExecutionPolicy(**FAST)):
        assert set(clean.run_specs(_specs()).values()) == {"ok"}

    monkeypatch.setenv("REPRO_CHAOS", f"crash:n=3:once={tmp_path}")
    chaotic = _guard()
    with executor_context(2, ExecutionPolicy(**FAST)):
        statuses = chaotic.run_specs(_specs())
    assert set(statuses.values()) == {"ok"}
    assert _series_bytes(chaotic.result) == _series_bytes(clean.result)
    # The chaos marker proves the crash actually happened.
    assert len(list(tmp_path.iterdir())) == 1


def test_crash_exhaustion_journals_structured_failure(tmp_path):
    # A single always-crashing point: with the window == jobs, any good
    # sibling in flight during a crash would be charged as collateral,
    # so the deterministic exhaustion mechanics are asserted in
    # isolation (the crash-once test above covers goods-around-a-crash).
    path = tmp_path / "j.jsonl"
    spec = PointSpec(
        experiment="figX", key="n=1",
        runner="tests.test_executor_resilience:_crash_runner",
        params={"n": 1})
    with CampaignJournal(path) as journal:
        guard = SweepGuard(ExperimentResult(name="figX", title="t"),
                           journal=journal)
        with executor_context(2, ExecutionPolicy(point_retries=1, **FAST)):
            statuses = guard.run_specs([spec])
    assert statuses == {"n=1": "failed"}
    failure = guard.result.failures["n=1"]
    assert failure["harness"] is True
    assert failure["error"] == "WorkerCrash"
    assert failure["attempts"] == 2  # 1 try + 1 retry
    assert guard.result.meta["sweep"]["degraded"] == 1
    entries = [json.loads(line) for line in path.read_text().splitlines()]
    assert len(entries) == 1
    assert entries[0]["status"] == "failed"
    assert entries[0]["failure"]["harness"] is True


def test_crash_once_journals_goods_around_recovered_point(tmp_path,
                                                          monkeypatch):
    """A requeued crash leaves a journal with every point ``ok`` — the
    recovered entry is indistinguishable from a first-try success."""
    once = tmp_path / "markers"
    once.mkdir()
    monkeypatch.setenv("REPRO_CHAOS", f"crash:n=2:once={once}")
    path = tmp_path / "j.jsonl"
    with CampaignJournal(path) as journal:
        guard = SweepGuard(ExperimentResult(name="figX", title="t"),
                           journal=journal)
        with executor_context(2, ExecutionPolicy(**FAST)):
            statuses = guard.run_specs(_specs(4))
    assert set(statuses.values()) == {"ok"}
    entries = [json.loads(line) for line in path.read_text().splitlines()]
    assert [e["key"] for e in entries] == [f"n={i}" for i in range(4)]
    assert all(e["status"] == "ok" for e in entries)
    assert len(list(once.iterdir())) == 1  # the crash really fired


# -- point timeouts ---------------------------------------------------------

def test_timeout_kills_hung_point_and_retries(tmp_path, monkeypatch):
    from repro.obs.telemetry import telemetry_context

    clean = _guard()
    with executor_context(2, ExecutionPolicy(**FAST)):
        clean.run_specs(_specs(4))

    monkeypatch.setenv("REPRO_CHAOS", f"hang:n=2:for=30,once={tmp_path}")
    chaotic = _guard()
    policy = ExecutionPolicy(point_timeout=1.5, **FAST)
    with telemetry_context(trace=False, metrics=True) as tele:
        with executor_context(2, policy):
            statuses = chaotic.run_specs(_specs(4))
    assert set(statuses.values()) == {"ok"}
    assert _series_bytes(chaotic.result) == _series_bytes(clean.result)
    assert tele.registry.counter("executor.point_timeouts").value >= 1.0


def test_timeout_exhaustion_degrades(monkeypatch):
    monkeypatch.setenv("REPRO_CHAOS", "hang:n=0:for=30")
    guard = _guard()
    policy = ExecutionPolicy(point_timeout=0.5, point_retries=0, **FAST)
    with executor_context(2, policy):
        statuses = guard.run_specs(_specs(2))
    assert statuses["n=0"] == "failed"
    assert statuses["n=1"] == "ok"
    failure = guard.result.failures["n=0"]
    assert failure["harness"] is True
    assert failure["error"] == "PointTimeout"
    assert "deadline" in failure["message"]


# -- pool lifecycle ---------------------------------------------------------

def test_close_waits_on_clean_exit_only(monkeypatch):
    """Satellite fix: graceful close waits; the error path stays
    non-blocking (a broken pool must not hang teardown)."""
    calls = []

    def instrument(executor):
        pool = executor._ensure_pool(2)  # noqa: SLF001
        orig = pool.shutdown

        def spy(wait=True, cancel_futures=False):
            calls.append(wait)
            return orig(wait=wait, cancel_futures=cancel_futures)

        monkeypatch.setattr(pool, "shutdown", spy)

    ex = SweepExecutor(jobs=2)
    instrument(ex)
    ex.__exit__(None, None, None)
    ex2 = SweepExecutor(jobs=2)
    instrument(ex2)
    ex2.__exit__(RuntimeError, RuntimeError("boom"), None)
    assert calls == [True, False]


# -- backoff / jitter -------------------------------------------------------

def test_backoff_matches_transport_policy():
    """Executor retries back off with the transport's exact arithmetic."""
    rc = ReliabilityConfig(timeout_s=1e-4, backoff_factor=2.0,
                           max_backoff_s=1e-3)
    for n in range(1, 9):
        assert rc.retransmit_timeout(n, rendezvous=False) == \
            backoff_delay(1e-4, n, 2.0, 1e-3)
    assert backoff_delay(1.0, 3) == 4.0
    assert backoff_delay(1.0, 3, cap=2.5) == 2.5
    assert backoff_delay(1.0, 1, jitter=0.25) == 1.25


def test_retry_jitter_is_deterministic_and_bounded():
    spec = PointSpec(experiment="figX", key="n=1", runner="m:f", params={})
    j1 = _retry_jitter(spec, 1)
    assert j1 == _retry_jitter(spec, 1)
    assert 0.0 <= j1 < 0.25
    assert j1 != _retry_jitter(spec, 2)


# -- chaos knob -------------------------------------------------------------

def test_parse_chaos_specs():
    parsed = parse_chaos("crash:a;hang:b:for=5,code=2")
    assert parsed == [("crash", "a", {}),
                      ("hang", "b", {"for": 5.0, "code": 2})]
    assert parse_chaos("crash:x:once=/tmp/d") == \
        [("crash", "x", {"once": "/tmp/d"})]
    with pytest.raises(ValueError, match="unknown chaos kind"):
        parse_chaos("explode:x")
    with pytest.raises(ValueError, match="kind:match"):
        parse_chaos("crash")
    with pytest.raises(ValueError, match="unknown chaos option"):
        parse_chaos("crash:x:color=red")


def test_maybe_chaos_is_noop_without_env(monkeypatch):
    monkeypatch.delenv("REPRO_CHAOS", raising=False)
    maybe_chaos("figX", "any/key")  # must not raise or exit
    monkeypatch.setenv("REPRO_CHAOS", "crash:no-such-point")
    maybe_chaos("figX", "any/key")  # no match: still a no-op


# -- CLI degradation --------------------------------------------------------

def test_cli_degraded_campaign_exits_nonzero(tmp_path, monkeypatch, capsys):
    """An exhausted point yields exit code 3, a journaled harness entry
    and a report with the hole marked — not an aborted sweep."""
    monkeypatch.setenv("REPRO_CHAOS", "crash:size=67108864")
    journal = tmp_path / "j.jsonl"
    out = tmp_path / "r.md"
    rc = main(["run", "fig1a", "--fast", "--jobs", "2",
               "--point-retries", "0",
               "--journal", str(journal), "--out", str(out)])
    assert rc == 3
    assert b'"harness": true' in journal.read_bytes()
    text = out.read_text()
    assert "Missing points (harness failures" in text
    assert "[hole]" in text
    err = capsys.readouterr().err
    assert "campaign DEGRADED" in err
    assert "attempts" in err  # the per-point failure table header
