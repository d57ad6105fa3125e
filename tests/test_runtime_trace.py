"""Tests for the Chrome-tracing export of runtime executions, taken from the
telemetry trace (``telemetry_context`` / ``export_trace``)."""

import json

import pytest

from repro.hardware import Cluster, HENRI
from repro.kernels.blas import TileCost
from repro.mpi import CommWorld
from repro.obs import telemetry_context, validate_chrome_trace
from repro.runtime import RuntimeComm, Task


def make_traced(n_workers=4):
    """Two-node task runtime; call under an active ``telemetry_context``."""
    cluster = Cluster(HENRI, 2)
    world = CommWorld(cluster, comm_placement="far")
    runtimes = RuntimeComm(world, n_workers=n_workers).runtimes
    for rt in runtimes.values():
        rt.start()
    return cluster, runtimes


def cpu_task(name="t"):
    return Task(name=name, cost=TileCost("cpu", 1e7, 0.0), rank=0)


def test_chrome_json_valid(tmp_path):
    path = tmp_path / "trace.json"
    with telemetry_context() as tele:
        cluster, runtimes = make_traced()
        runtimes[0].submit(cpu_task())
        runtimes[0].wait_all()
        cluster.sim.run()
        tele.export_trace(path)
    payload = json.loads(path.read_text())
    assert validate_chrome_trace(payload) == []
    tasks = [e for e in payload["traceEvents"] if e.get("cat") == "task"]
    assert len(tasks) == 1
    event = tasks[0]
    assert event["ph"] == "X"
    assert event["ts"] >= 0 and event["dur"] > 0
    assert {"name", "pid", "tid", "cat"} <= set(event)


def test_busy_time_accounting(tmp_path):
    path = tmp_path / "trace.json"
    with telemetry_context() as tele:
        cluster, runtimes = make_traced(n_workers=1)
        for i in range(3):
            runtimes[0].submit(cpu_task(f"t{i}"))
        runtimes[0].wait_all()
        cluster.sim.run()
        tele.export_trace(path)
    worker = runtimes[0].workers[0]
    payload = json.loads(path.read_text())
    traced_us = sum(e["dur"] for e in payload["traceEvents"]
                    if e.get("cat") == "task" and e["tid"] == worker.core_id)
    assert traced_us * 1e-6 == pytest.approx(worker.busy_time, rel=0.05)
