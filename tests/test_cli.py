"""Tests for the command-line interface."""

import json

import pytest

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
    assert "journal" in out
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


def test_trials_note_for_non_sweep_experiment(capsys):
    assert main(["run", "fig2", "--fast", "--trials", "2"]) == 0
    assert "--trials only affects sweep experiments" \
        in capsys.readouterr().err
