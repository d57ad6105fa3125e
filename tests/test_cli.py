"""Tests for the command-line interface."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.cli import main, run_experiment


def test_list_command(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for name in ("fig1a", "fig4b", "fig10", "table1", "fig5"):
        assert name in out


def test_unknown_experiment_rejected(capsys):
    with pytest.raises(SystemExit):
        main(["run", "fig99"])


def test_run_fast_experiment(capsys, tmp_path):
    out_path = tmp_path / "record.md"
    assert main(["run", "fig8", "--fast", "--out", str(out_path)]) == 0
    captured = capsys.readouterr().out
    assert "fig8" in captured
    assert out_path.exists()
    assert "## fig8" in out_path.read_text()


def test_run_experiment_api():
    res = run_experiment("runtime_overhead", fast=True)
    assert res.observations["overhead_s"] > 0


def test_run_fig9_renders(capsys):
    assert main(["run", "fig9", "--fast"]) == 0
    out = capsys.readouterr().out
    assert "backoff" in out


def test_list_long_shows_capabilities(capsys):
    assert main(["list", "--long"]) == 0
    out = capsys.readouterr().out
    assert "fast,plot" in out and "fast,multi" in out
    assert "Constant frequencies vs latency" in out


def test_run_with_trace_and_metrics(capsys, tmp_path):
    from repro.obs import validate_chrome_trace

    trace = tmp_path / "t.json"
    metrics = tmp_path / "m.json"
    assert main(["run", "fig9", "--fast", "--trace", str(trace),
                 "--metrics", str(metrics)]) == 0
    assert validate_chrome_trace(trace.read_text()) == []
    doc = json.loads(metrics.read_text())
    assert doc["metrics"]["sim.events"]["value"] > 0
    assert "attribution" in doc


def test_engine_counters_count_every_dispatch(capsys, tmp_path):
    """fig3bc runs until its kernels finish; every dispatch on the way
    is booked both as ``sim.events`` and as the engine count that
    ``repro profile`` asks for, and the sleeps dispatched past the heap
    are counted too."""
    metrics = tmp_path / "m.json"
    assert main(["profile", "fig3bc", "--top", "1",
                 "--out", str(tmp_path / "P.txt"),
                 "--metrics", str(metrics)]) == 0
    doc = json.loads(metrics.read_text())["metrics"]
    assert doc["sim.events"]["value"] > 0
    assert doc["engine.events_dispatched"]["value"] == \
        doc["sim.events"]["value"]
    assert 0 < doc["engine.direct_dispatches"]["value"] < \
        doc["engine.events_dispatched"]["value"]


def test_profile_leaves_later_runs_unchanged(capsys, tmp_path):
    """The engine counters belong to the profile's own telemetry: a run
    after ``repro profile`` in the same process exports the same keys
    as a run before it."""
    before, after = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["run", "fig9", "--fast", "--metrics", str(before)]) == 0
    assert main(["profile", "fig9", "--top", "1",
                 "--out", str(tmp_path / "P.txt")]) == 0
    assert main(["run", "fig9", "--fast", "--metrics", str(after)]) == 0
    keys = [set(json.loads(path.read_text())["metrics"])
            for path in (before, after)]
    assert keys[0] == keys[1]
    assert not any(key.startswith("engine.") for key in keys[1])


def test_trace_summary_command(capsys, tmp_path):
    trace = tmp_path / "t.json"
    assert main(["run", "fig9", "--fast", "--trace", str(trace)]) == 0
    capsys.readouterr()
    assert main(["trace-summary", str(trace)]) == 0
    out = capsys.readouterr().out
    assert "counter tracks" in out

    bad = tmp_path / "bad.json"
    bad.write_text('{"traceEvents": [{"ph": "X"}]}')
    assert main(["trace-summary", str(bad)]) == 1


def test_log_level_flag(capsys):
    assert main(["--log-level", "INFO", "list"]) == 0


def test_unknown_experiment_message_names_valid(capsys):
    with pytest.raises(SystemExit):
        main(["run", "fig99"])
    err = capsys.readouterr().err
    assert "unknown experiment 'fig99'" in err
    assert "valid experiments" in err and "fig4a" in err


def test_status_missing_journal_exits_2(capsys):
    assert main(["status", "/nonexistent/j.jsonl"]) == 2
    assert "no journal" in capsys.readouterr().err


def test_status_renders_counts(capsys, tmp_path):
    j = tmp_path / "c.jsonl"
    assert main(["run", "fig1a", "--fast", "--journal", str(j)]) == 0
    capsys.readouterr()
    assert main(["status", str(j)]) == 0
    out = capsys.readouterr().out
    assert out.startswith(f"campaign {j}:")
    assert "[complete]" in out
    assert "experiment" in out and "pending" in out


def test_report_missing_compare_exits_2(capsys, tmp_path):
    j = tmp_path / "c.jsonl"
    assert main(["run", "fig1a", "--fast", "--journal", str(j)]) == 0
    capsys.readouterr()
    assert main(["report", str(j), "--compare",
                 str(tmp_path / "nope.jsonl"),
                 "-o", str(tmp_path / "r.html")]) == 2
    assert "no journal" in capsys.readouterr().err


def test_trials_flag_validated(capsys):
    with pytest.raises(SystemExit):
        main(["run", "fig1a", "--fast", "--trials", "0"])
    assert "trials" in capsys.readouterr().err


def test_trials_reach_the_trace_experiments(capsys):
    """fig2 is a one-point sweep, so --trials fans it out like any
    other experiment."""
    assert main(["run", "fig2", "--fast", "--trials", "2"]) == 0
    assert "(2 seeded trials per point;" in capsys.readouterr().out


@pytest.mark.parametrize("name", ["fig2", "fig3bc"])
def test_ping_pong_failure_is_a_failed_point(capsys, name):
    """A fail-stop node ends the ping-pong with a transport error, which
    the report names instead of a traceback or a partial latency."""
    assert main(["run", name, "--fast", "--fault",
                 "fail_stop:node=1,at=0.0001", "--fault-seed", "7"]) == 0
    out = capsys.readouterr().out
    assert "Failed points (fault injection):" in out
    assert "destination node failed" in out
    assert "latency_together_s" not in out


def test_fig10_fail_stop_names_the_transport_error(capsys):
    """Under fail-stop one rank's driver fails while the other still
    waits on it; every fig10 point reports the failed rank's transport
    error, never the waiting rank's unfinished driver."""
    assert main(["run", "fig10", "--fast", "--fault",
                 "fail_stop:node=1,at=0.0001", "--fault-seed", "7"]) == 0
    out = capsys.readouterr().out
    section = out.split("Failed points (fault injection):\n")[1]
    failed = [line for line in section.splitlines()
              if line.startswith("  ")]
    assert len(failed) == 5
    assert all("destination node failed" in line for line in failed)
    assert "read before trigger" not in out
    # With every point failed, the observations name the empty series.
    assert "Observations not derived (points failed): ValueError: " \
        "series 'cg_sending_bw' is empty" in out
    assert "max() arg" not in out


def test_output_paths_in_missing_directories_are_created(capsys, tmp_path):
    """Every output flag creates its missing parent directories, the
    rule --journal always followed."""
    d = tmp_path / "new" / "dir"
    assert main(["run", "fig1a", "--fast",
                 "--out", str(d / "o" / "R.md"),
                 "--trace", str(d / "t" / "T.json"),
                 "--metrics", str(d / "m" / "M.json"),
                 "--journal", str(d / "j" / "J.jsonl")]) == 0
    for name in ("o/R.md", "t/T.json", "m/M.json", "j/J.jsonl"):
        assert (d / name).stat().st_size > 0
    assert main(["report", str(d / "j" / "J.jsonl"),
                 "-o", str(d / "r" / "R.html")]) == 0
    assert (d / "r" / "R.html").stat().st_size > 0
    assert main(["profile", "fig1a", "--top", "1",
                 "--out", str(d / "p" / "P.txt"),
                 "--metrics", str(d / "p" / "PM.json")]) == 0
    assert (d / "p" / "PM.json").stat().st_size > 0


@pytest.mark.parametrize("flag", ["--out", "--trace", "--metrics",
                                  "--journal"])
def test_unwritable_output_path_is_a_usage_error(capsys, tmp_path, flag):
    """A path that cannot be written fails before any simulation runs,
    as an argparse error naming the flag and the path."""
    with pytest.raises(SystemExit) as exc:
        main(["run", "fig1a", "--fast", flag, str(tmp_path)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"{flag} {tmp_path}: is a directory" in err
    assert "done in" not in err
    blocker = tmp_path / "file"
    blocker.write_text("")
    journal = tmp_path / "j.jsonl"
    journal.write_text("")
    with pytest.raises(SystemExit) as exc:
        main(["report", str(journal), "-o", str(blocker / "R.html")])
    assert exc.value.code == 2
    assert f"--out {blocker / 'R.html'}: cannot create directory" \
        in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["status", "{d}"],
    ["report", "{d}", "-o", "{d}/R.html"],
    ["report", "{j}", "--compare", "{d}", "-o", "{d}/R.html"],
])
def test_directory_input_path_is_a_usage_error(capsys, tmp_path, argv):
    """A journal argument that is a directory fails before any work, as
    an argparse error naming the argument and the path."""
    j = tmp_path / "j.jsonl"
    j.write_text("")
    argv = [a.format(d=tmp_path, j=j) for a in argv]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    name = "--compare" if "--compare" in argv else "journal"
    assert f"{name} {tmp_path}: is a directory" in err
    assert out == "" and "wrote" not in err
    assert not (tmp_path / "R.html").exists()


@pytest.mark.parametrize("argv,needle", [
    (["run", "fig1a", "--fast", "--spec", "bogus", "--out", "{d}/o/R.md"],
     "--spec: unknown preset 'bogus'; available: ['billy', 'bora', "
     "'henri', 'pyxis']"),
    (["topology", "--spec", "bogus"], "--spec: unknown preset 'bogus'"),
    (["profile", "fig1a", "--spec", "bogus", "--out", "{d}/o/P.txt"],
     "--spec: unknown preset 'bogus'"),
    (["run", "fig1a", "--fast", "--jobs", "-1", "--out", "{d}/o/R.md"],
     "--jobs must be >= 0 (0 = one per CPU), got -1"),
])
def test_bad_spec_or_jobs_is_a_usage_error(capsys, tmp_path, argv, needle):
    """An unknown preset or a negative --jobs fails before any output
    directory is created or any work starts."""
    with pytest.raises(SystemExit) as exc:
        main([a.format(d=tmp_path) for a in argv])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert needle in err
    assert out == "" and not (tmp_path / "o").exists()


@pytest.mark.parametrize("argv,needle", [
    (["profile", "bogusexp", "--out", "{d}/o/P.txt"],
     "unknown experiment 'bogusexp'; valid experiments: "),
    (["run", "fig1a", "--fast", "--resume", "--out", "{d}/o/x.md"],
     "--resume requires --journal"),
    (["run", "fig1a", "--fast", "--fault", "bogus", "--out", "{d}/o/x.md"],
     "unknown fault kind 'bogus'"),
    (["run", "fig1a", "--fast", "--point-timeout", "-1",
      "--out", "{d}/o/x.md"],
     "point_timeout must be > 0"),
    (["run", "fig1a", "--fast", "--fault-seed", "7", "--out", "{d}/o/x.md"],
     "--fault-seed requires --fault"),
    (["run", "fig1a", "--fast", "--fault", "fail_slow:node=0,freq_cap_hz=1e9",
      "--out", "{d}/o/x.md"],
     "unknown fault kind 'fail_slow'; pick one of "
     "['fail_stop', 'link', 'loss']"),
])
def test_bad_arguments_create_no_output_directory(capsys, tmp_path, argv,
                                                  needle):
    """Every argument check runs before an output directory is
    created."""
    with pytest.raises(SystemExit) as exc:
        main([a.format(d=tmp_path) for a in argv])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert needle in err
    assert out == "" and not (tmp_path / "o").exists()


def test_missing_journal_creates_no_output_directory(capsys, tmp_path):
    """report checks its journal before it creates the output's
    parent directory."""
    missing = tmp_path / "missing.jsonl"
    out_dir = tmp_path / "d"
    assert main(["report", str(missing), "-o", str(out_dir / "R.html")]) == 2
    assert f"no journal at {missing}" in capsys.readouterr().err
    assert not out_dir.exists()


def test_locked_journal_is_a_usage_error(capsys, tmp_path):
    """A journal another writer holds exits 2 naming it, before any
    other output directory is created, and its records stay on disk."""
    from repro.core.campaign import CampaignJournal
    path = tmp_path / "live.jsonl"
    with CampaignJournal(path) as holder:
        holder.record("fig1a", "size=4", "ok")
        before = path.read_bytes()
        with pytest.raises(SystemExit) as exc:
            main(["run", "fig1a", "--fast", "--journal", str(path),
                  "--out", str(tmp_path / "d" / "R.md")])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert f"campaign journal {path} is locked by another process" \
            in err
        assert out == "" and path.read_bytes() == before
        assert not (tmp_path / "d").exists()


def test_bad_output_flag_leaves_the_journal_as_found(capsys, tmp_path):
    """A usage error in another output flag exits 2 before the journal
    is truncated."""
    path = tmp_path / "j.jsonl"
    assert main(["run", "fig1a", "--fast", "--journal", str(path)]) == 0
    before = path.read_bytes()
    with pytest.raises(SystemExit) as exc:
        main(["run", "fig1a", "--fast", "--journal", str(path),
              "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert f"--out {tmp_path}: is a directory" in capsys.readouterr().err
    assert path.read_bytes() == before


def test_spec_lookup_is_case_insensitive(capsys):
    assert main(["topology", "--spec", "HENRI"]) == 0
    assert capsys.readouterr().out


@pytest.fixture(scope="module")
def journal_and_trace(tmp_path_factory):
    d = tmp_path_factory.mktemp("pipe")
    assert main(["run", "fig1a", "--fast", "--journal", str(d / "J.jsonl"),
                 "--trace", str(d / "T.json")]) == 0
    return d


def _closed_stdout_run(argv, cwd):
    """Run ``python -m repro *argv`` with stdout on a pipe whose read end
    is closed before the child starts.  PYTHONUNBUFFERED is dropped, so
    stdout is block-buffered as it is for most users and in CI, and the
    EPIPE may first come at the final flush."""
    env = dict(os.environ)
    env.pop("PYTHONUNBUFFERED", None)
    src = str(Path(repro.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (src, env.get("PYTHONPATH"))))
    read, write = os.pipe()
    os.close(read)
    try:
        return subprocess.run(
            [sys.executable, "-m", "repro", *argv], stdout=write,
            stderr=subprocess.PIPE, cwd=cwd, env=env, text=True,
            timeout=120)
    finally:
        os.close(write)


@pytest.mark.parametrize("argv", [
    ("list",), ("topology",), ("status", "J.jsonl"),
    ("trace-summary", "T.json"),
], ids=lambda argv: argv[0])
def test_closed_stdout_is_a_quiet_exit(journal_and_trace, argv):
    """``repro list | head``: a reader that is gone before the first
    write ends the command quietly, with no BrokenPipeError traceback."""
    proc = _closed_stdout_run(argv, journal_and_trace)
    assert (proc.returncode, proc.stderr) == (0, "")


def test_closed_stdout_fails_a_run_without_a_traceback(tmp_path):
    """A run whose stdout reader is gone lost its report text, so it
    exits 1 -- but with no BrokenPipeError traceback."""
    proc = _closed_stdout_run(("run", "fig1a", "--fast", "--out", "R.md"),
                              tmp_path)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert "BrokenPipeError" not in proc.stderr
