"""Golden corpus: simulation tables and `sigmadepth classify`/`depth` outputs, byte for byte.

Each case's expected text is committed under tests/golden/.  The cases cover
all four scenarios, the three classifiers, exact and Monte-Carlo depth, the
elliptical sampler, both bands, the scenario-3 unfiltered baseline, an
empty scenario-3 test set, and exact CLI depth through 1-D pair counting
(1/8-grid data with ties, queried at its own points) and through 2-D
triangle enumeration.  A change that deliberately moves a random stream
or the arithmetic of a path changes these files: regenerate them with
`PYTHONPATH=src python tests/test_golden.py` and record the change in
CHANGES.md.
"""

import shutil
from pathlib import Path

import pytest

from sigmadepth.cli import main
from sigmadepth.sim import default_config, run_scenario

GOLDEN = Path(__file__).parent / "golden"

SMALL = dict(n_train=30, n_test=40, reps=2)
SCENARIOS = {
    "sim1_dd_linear": dict(scenario=1, **SMALL, sigma_grid=(1.0, 2.0), budget=2000),
    "sim1_maxdepth_elliptical": dict(
        scenario=1,
        setting="elliptical_location",
        classifier="maxdepth",
        **SMALL,
        sigma_grid=(1.0, 3.0),
        budget=2000,
    ),
    "sim1_dd_poly": dict(
        scenario=1, classifier="dd-poly", degree=2, **SMALL, sigma_grid=(1.0, 2.0), budget=1000
    ),
    "sim2_symmetric_exact": dict(
        scenario=2,
        n_train=20,
        n_test=30,
        reps=2,
        sigma_grid=(1.0, 2.0),
        delta_grid=(1.0, 2.5),
        budget=None,
    ),
    "sim2_asymmetric": dict(
        scenario=2,
        setting="asymmetric",
        **SMALL,
        sigma_grid=(1.0, 3.0),
        delta_grid=(0.5, 2.0),
        budget=1000,
    ),
    "sim3_baseline": dict(
        scenario=3,
        n_train=40,
        reps=2,
        sigma_grid=(1.0, 3.0),
        delta_grid=(0.5, 1.0),
        n_test=30,
        budget=1000,
    ),
    "sim3_empty_test": dict(
        scenario=3,
        setting="asymmetric",
        n_train=40,
        reps=2,
        sigma_grid=(1.0, 2.0),
        delta_grid=(1.0,),
        n_test=0,
        budget=1000,
    ),
    "sim4_maxdepth": dict(scenario=4, **SMALL, sigma_grid=(1.0, 2.0, 3.0)),
    "sim4_dd_linear": dict(scenario=4, classifier="dd-linear", **SMALL, sigma_grid=(1.0, 3.0)),
}

CLASSIFIERS = ("maxdepth", "dd-linear", "dd-poly")
CLASSIFY_INPUTS = ("classify_train1.csv", "classify_train2.csv", "classify_test.csv")
# name -> (data, query, method, sigma) for `sigmadepth depth`
DEPTH_RUNS = {
    "depth_1d_enlarged": ("depth1d_data.csv", "depth1d_data.csv", "simplex-enlarged", "2"),
    "depth_2d_simplicial": ("classify_train1.csv", "classify_test.csv", "simplicial", "1"),
}


def scenario_json(name: str) -> str:
    cfg = dict(SCENARIOS[name])
    return run_scenario(default_config(cfg.pop("scenario"), **cfg)).to_json()


def cli_outputs(argv: list, inputs, out: str, workdir: Path) -> dict:
    """Run `sigmadepth argv --out out` in workdir on committed inputs.

    Paths are relative, so the `.config.json` sidecar does not depend on
    where the corpus is checked out.  Returns {file name: text}.
    """
    for name in inputs:
        shutil.copy(GOLDEN / name, workdir / name)
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(workdir)
        assert main([*argv, "--out", out]) == 0
    config = f"{out}.config.json"
    return {name: (workdir / name).read_text() for name in (out, config)}


def classify_outputs(classifier: str, workdir: Path) -> dict:
    argv = [
        "classify",
        "--train1", CLASSIFY_INPUTS[0],
        "--train2", CLASSIFY_INPUTS[1],
        "--test", CLASSIFY_INPUTS[2],
        "--classifier", classifier,
        "--method", "simplex-enlarged",
        "--sigma", "1.5",
        "--seed", "7",
    ]
    return cli_outputs(argv, CLASSIFY_INPUTS, f"classify_{classifier}.csv", workdir)


def depth_outputs(name: str, workdir: Path) -> dict:
    data, query, method, sigma = DEPTH_RUNS[name]
    argv = ["depth", "--data", data, "--query", query, "--method", method, "--sigma", sigma]
    return cli_outputs(argv, {data, query}, f"{name}.csv", workdir)


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_scenario_table_matches_golden(name):
    assert scenario_json(name) == (GOLDEN / f"{name}.json").read_text()


@pytest.mark.parametrize("classifier", CLASSIFIERS)
def test_classify_output_matches_golden(classifier, tmp_path):
    for name, text in classify_outputs(classifier, tmp_path).items():
        assert text == (GOLDEN / name).read_text(), name


@pytest.mark.parametrize("name", sorted(DEPTH_RUNS))
def test_depth_output_matches_golden(name, tmp_path):
    for fname, text in depth_outputs(name, tmp_path).items():
        assert text == (GOLDEN / fname).read_text(), fname


if __name__ == "__main__":
    import tempfile

    for name in SCENARIOS:
        (GOLDEN / f"{name}.json").write_text(scenario_json(name))
    for classifier in CLASSIFIERS:
        with tempfile.TemporaryDirectory() as tmp:
            for name, text in classify_outputs(classifier, Path(tmp)).items():
                (GOLDEN / name).write_text(text)
    for run in DEPTH_RUNS:
        with tempfile.TemporaryDirectory() as tmp:
            for name, text in depth_outputs(run, Path(tmp)).items():
                (GOLDEN / name).write_text(text)
