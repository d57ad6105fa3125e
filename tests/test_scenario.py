"""Tests for the scenario layer (TOML -> validated Scenario -> run)."""

import json
import pathlib

import pytest

from repro.cli import main
from repro.core.scenario import (Scenario, ScenarioError, load_scenario,
                                 parse_scenario)

ROOT = pathlib.Path(__file__).resolve().parents[1]
EXAMPLES = sorted((ROOT / "examples").glob("scenario_*.toml"))

VALID = """
[scenario]
name = "fig4a-under-faults"
experiment = "fig4a"
spec = "henri"
fast = true

[params]
core_counts = [0, 12, 35]
reps = 4

[faults]
specs = ["link:src=0,dst=1,bw_factor=0.5,start=0,duration=1"]
timeout = 0.0002
max_retries = 8

[execution]
jobs = 2
journal = "campaign.jsonl"

[output]
report = "report.md"
"""


def test_parse_valid_scenario():
    scen = parse_scenario(VALID)
    assert scen.name == "fig4a-under-faults"
    assert scen.experiment == "fig4a"
    assert scen.fast is True
    assert scen.params == {"core_counts": [0, 12, 35], "reps": 4}
    assert scen.fault_specs == (
        "link:src=0,dst=1,bw_factor=0.5,start=0,duration=1",)
    assert scen.timeout == pytest.approx(0.0002)
    assert scen.max_retries == 8
    assert scen.jobs == 2
    assert scen.journal == "campaign.jsonl"
    assert scen.report == "report.md"
    assert "fig4a" in scen.describe()


def test_minimal_scenario_defaults():
    scen = parse_scenario('[scenario]\nexperiment = "fig9"\n')
    assert scen == Scenario(name="fig9", experiment="fig9")


@pytest.mark.parametrize("text,needle", [
    ("[scenario]\nspec = 'henri'\n", "experiment"),
    ("[scenario]\nexperiment = 'fig99'\n", "fig99"),
    ("[scenario]\nexperiment = 'fig9'\n[exec]\njobs = 2\n", "exec"),
    ("[scenario]\nexperiment = 'fig9'\nbogus = 1\n", "bogus"),
    ("[scenario]\nexperiment = 'fig9'\nfast = 3\n", "fast"),
    ("[scenario]\nexperiment = 'fig9'\n[execution]\njobs = 'two'\n",
     "jobs"),
    ("[scenario]\nexperiment = 'fig9'\n[execution]\njobs = true\n",
     "jobs"),
    ("[scenario]\nexperiment = 'fig9'\n[execution]\njobs = -1\n",
     "jobs must be >= 0"),
    ("[scenario]\nexperiment = 'fig9'\nspec = 'bogus'\n",
     "spec: unknown preset 'bogus'; available: ['billy', 'bora', 'henri'"),
    ("[scenario]\nexperiment = 'fig9'\n[execution]\nresume = true\n",
     "resume"),
    ("[scenario]\nexperiment = 'fig4a'\n[params]\nbogus_knob = 3\n",
     "bogus_knob"),
    ("[scenario]\nexperiment = 'fig4a'\n[params]\nspec = 'bora'\n",
     "spec"),
    ("[scenario]\nexperiment = 'fig4a'\n[params]\njournal = 'x'\n",
     "journal"),
    ("[scenario]\nexperiment = 'fig9'\n[faults]\nspecs = ['zap:x=1']\n",
     "zap"),
    ("[scenario]\nexperiment = 'fig9'\n[faults]\nspecs = [3]\n",
     "specs[0]"),
    ("[scenario]\nexperiment = 'fig9'\n[execution]\npoint_timeout = 0\n",
     "point_timeout"),
    ("[scenario]\nexperiment = 'fig9'\n[execution]\npoint_timeout = -2.5\n",
     "point_timeout"),
    ("[scenario]\nexperiment = 'fig9'\n[execution]\n"
     "point_timeout = '2m'\n", "point_timeout"),
    ("[scenario]\nexperiment = 'fig9'\n[execution]\npoint_retries = -1\n",
     "point_retries"),
    ("[scenario]\nexperiment = 'fig9'\n[execution]\npoint_retries = true\n",
     "point_retries"),
    ("[scenario]\nexperiment = 'fig9'\n[execution]\nkeep_going = 1\n",
     "keep_going"),
])
def test_malformed_scenarios_name_the_field(text, needle):
    with pytest.raises(ScenarioError) as err:
        parse_scenario(text)
    assert needle in str(err.value)


def test_execution_robustness_keys_parse():
    scen = parse_scenario(
        '[scenario]\nexperiment = "fig9"\n'
        '[execution]\npoint_timeout = 120\npoint_retries = 3\n'
        'keep_going = false\n')
    assert scen.point_timeout == pytest.approx(120.0)
    assert isinstance(scen.point_timeout, float)  # int coerced
    assert scen.point_retries == 3
    assert scen.keep_going is False
    # Unset keys stay None so the CLI can tell "unset" from "0"/"off"
    # when folding scenario values under explicit flags.
    scen = parse_scenario('[scenario]\nexperiment = "fig9"\n')
    assert scen.point_timeout is None
    assert scen.point_retries is None
    assert scen.keep_going is None


def test_cli_flags_override_scenario_execution_keys(tmp_path, monkeypatch):
    """CLI-over-scenario precedence for the robustness policy: explicit
    flags win, scenario keys fill the gaps."""
    from contextlib import contextmanager

    import repro.core.executor as executor_mod

    scenario = tmp_path / "s.toml"
    scenario.write_text("""
[scenario]
experiment = "fig9"
fast = true

[params]
sizes = [4]
reps = 4

[execution]
jobs = 2
point_timeout = 60
point_retries = 5
keep_going = false
""")
    captured = {}
    real = executor_mod.executor_context

    @contextmanager
    def spy(jobs, policy=None):
        captured["jobs"] = jobs
        captured["policy"] = policy
        with real(1) as ex:  # run serial underneath to keep this fast
            yield ex

    monkeypatch.setattr(executor_mod, "executor_context", spy)
    assert main(["run", "--scenario", str(scenario),
                 "--point-retries", "0", "--keep-going"]) == 0
    assert captured["jobs"] == 2
    policy = captured["policy"]
    assert policy.point_retries == 0        # flag beats scenario's 5
    assert policy.keep_going is True        # flag beats scenario's false
    assert policy.point_timeout == pytest.approx(60.0)  # scenario fills


def test_unreadable_file_is_a_scenario_error(tmp_path):
    with pytest.raises(ScenarioError, match="cannot read"):
        load_scenario(str(tmp_path / "missing.toml"))


def test_var_kw_experiments_reject_unknown_params():
    """fig4a forwards **kw; bogus params must still fail validation
    (its registry entry declares the forwarded parameters)."""
    with pytest.raises(ScenarioError, match="valid parameters"):
        parse_scenario(
            '[scenario]\nexperiment = "fig4a"\n[params]\nnope = 1\n')


def test_fig3bc_rejects_phase_seconds():
    """fig3bc's run length is its AVX kernels' single sweep; a phase
    length it would ignore is not one of its parameters."""
    with pytest.raises(ScenarioError, match="'phase_seconds' is not a "
                       "parameter of experiment 'fig3bc'"):
        parse_scenario('[scenario]\nexperiment = "fig3bc"\n'
                       '[params]\nphase_seconds = 5.0\n')


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.name)
def test_example_scenarios_validate(path):
    scen = load_scenario(str(path))
    assert scen.fast, f"{path.name} should use --fast for CI"
    # Every example demonstrates at least one layered capability on
    # top of the base experiment (a fault plan, multi-seed trials, or
    # a topology/co-scheduling configuration).
    assert (scen.fault_specs or (scen.trials or 1) > 1
            or "topology" in scen.params or "apps" in scen.params)


def test_scenario_runs_end_to_end(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    scenario = tmp_path / "scen.toml"
    scenario.write_text("""
[scenario]
name = "fig9-smoke"
experiment = "fig9"
fast = true

[params]
sizes = [4]
reps = 4

[execution]
journal = "scen.journal.jsonl"

[output]
report = "scen.md"
""")
    assert main(["run", "--scenario", str(scenario)]) == 0
    assert (tmp_path / "scen.md").exists()
    journal = (tmp_path / "scen.journal.jsonl").read_text().splitlines()
    assert journal and all(json.loads(l) for l in journal)
    # --resume replays the journal; --jobs overrides the scenario's.
    capsys.readouterr()
    assert main(["run", "--scenario", str(scenario), "--resume",
                 "--jobs", "2"]) == 0
    assert "fig9" in capsys.readouterr().out


def test_scenario_with_faults_end_to_end(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    scenario = tmp_path / "fault.toml"
    scenario.write_text("""
[scenario]
experiment = "fig1a"
fast = true

[params]
sizes = [4, 65536]
reps = 4

[faults]
specs = ["loss:loss_rate=0.05,start=0,duration=1"]
timeout = 0.0002
max_retries = 8

[output]
report = "fault.md"
""")
    assert main(["run", "--scenario", str(scenario)]) == 0
    assert "fig1a" in (tmp_path / "fault.md").read_text()


def test_scenario_cli_conflicts(capsys):
    with pytest.raises(SystemExit):
        main(["run", "fig9", "--scenario", "x.toml"])
    assert "not both" in capsys.readouterr().err
    with pytest.raises(SystemExit):
        main(["run"])
    assert "--scenario" in capsys.readouterr().err


def test_malformed_scenario_fails_via_cli(tmp_path, capsys):
    bad = tmp_path / "bad.toml"
    bad.write_text('[scenario]\nexperiment = "fig4a"\n'
                   '[params]\nbogus_knob = 3\n')
    with pytest.raises(SystemExit):
        main(["run", "--scenario", str(bad)])
    err = capsys.readouterr().err
    assert "bogus_knob" in err and "valid parameters" in err


def test_execution_trials_key_parses():
    scen = parse_scenario(
        '[scenario]\nexperiment = "fig1a"\n'
        '[execution]\ntrials = 5\n')
    assert scen.trials == 5
    assert parse_scenario('[scenario]\nexperiment = "fig1a"\n'
                          ).trials is None


def test_execution_trials_validated():
    with pytest.raises(ScenarioError) as err:
        parse_scenario('[scenario]\nexperiment = "fig1a"\n'
                       '[execution]\ntrials = 0\n')
    assert "trials must be >= 1" in str(err.value)
    with pytest.raises(ScenarioError) as err:
        parse_scenario('[scenario]\nexperiment = "fig1a"\n'
                       '[execution]\ntrials = true\n')
    assert "trials" in str(err.value)


def test_scenario_trials_drive_the_campaign(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    scen = tmp_path / "s.toml"
    scen.write_text(
        '[scenario]\nexperiment = "fig1a"\nfast = true\n'
        '[params]\nsizes = [4, 64]\nreps = 3\n'
        '[execution]\ntrials = 2\njournal = "c.jsonl"\n')
    assert main(["run", "--scenario", str(scen)]) == 0
    entries = [json.loads(l) for l in
               (tmp_path / "c.jsonl").read_text().splitlines()]
    assert len(entries) == 16                  # 8 points x 2 trials
    assert sum(e.get("trial", 0) == 1 for e in entries) == 8
    # An explicit CLI --trials wins over the scenario value.
    (tmp_path / "c.jsonl").unlink()
    assert main(["run", "--scenario", str(scen), "--trials", "1"]) == 0
    entries = [json.loads(l) for l in
               (tmp_path / "c.jsonl").read_text().splitlines()]
    assert len(entries) == 8
    assert all("trial" not in e for e in entries)
