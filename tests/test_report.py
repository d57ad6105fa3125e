"""Tests for the text rendering / EXPERIMENTS.md generation."""

import pytest

from repro.core.report import (
    format_si, render_experiment, render_series, render_table,
    write_experiments_md,
)
from repro.core.results import ExperimentResult, Series


def test_format_si():
    assert format_si(0) == "0"
    assert format_si(1.5e9, "B/s") == "1.5GB/s"
    assert format_si(2.5e6) == "2.5M"
    assert format_si(3.2e3) == "3.2k"
    assert format_si(5.0) == "5"
    assert format_si(1.67e-6, "s") == "1.67us"
    assert format_si(2e-3, "s") == "2ms"
    assert format_si(3e-9, "s") == "3ns"


def test_render_table_alignment():
    text = render_table(["a", "long_header"], [["1", "2"], ["333", "4"]])
    lines = text.splitlines()
    assert len(lines) == 4
    assert lines[0].startswith("a")
    assert "long_header" in lines[0]
    # All rows equal width alignment.
    assert lines[1].count("-") >= len("long_header")


def test_render_table_empty():
    text = render_table(["x"], [])
    assert "x" in text


def test_render_series():
    s = Series(label="latency", xlabel="cores", ylabel="s")
    s.add_value(1, 1.5e-6)
    text = render_series(s, unit="s")
    assert "latency" in text
    assert "cores" in text
    assert "us" in text


def test_render_experiment_and_observations():
    res = ExperimentResult(name="figX", title="Test figure")
    res.new_series("a").add_value(0, 1.0)
    res.observe("metric", 2.5e-6)
    text = render_experiment(res)
    assert "figX" in text and "Test figure" in text
    assert "metric" in text
    assert "2.5u" in text


def test_write_experiments_md(tmp_path):
    path = tmp_path / "EXP.md"
    text = write_experiments_md({"fig1": "content1", "fig2": "content2"},
                                path=str(path), title="Record")
    assert path.exists()
    on_disk = path.read_text()
    assert on_disk == text
    assert "# Record" in text
    assert "## fig1" in text and "content2" in text


def test_write_experiments_md_no_file():
    text = write_experiments_md({"s": "x"}, path="")
    assert "## s" in text
