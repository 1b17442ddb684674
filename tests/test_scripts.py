"""The scripts under scripts/ run against the current API, at tiny sizes."""

import importlib.util
from pathlib import Path

from sigmadepth import cli
from sigmadepth.sim import default_config, run_scenario

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name: str):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def tiny_config(scenario, **overrides):
    tiny = dict(n_train=20, n_test=30, reps=2, sigma_grid=(1.0, 3.0))
    return default_config(scenario, **{**overrides, **tiny})


def test_run_all_sims_writes_the_simulate_table(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "default_config", tiny_config)
    assert load_script("run_all_sims").main(["--scenario", "4", "--outdir", str(tmp_path)]) == 0
    want = run_scenario(tiny_config(4, master_seed=0)).to_json()
    assert (tmp_path / "scenario4.json").read_text() == want
    assert (tmp_path / "scenario4.config.json").exists()


def test_sigma_selection_runs(capsys):
    assert load_script("sigma_selection").main(["--n", "20", "--reps", "1"]) == 0
    assert "median covering sigma" in capsys.readouterr().out
