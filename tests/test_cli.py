"""End-to-end tests of the command-line interface (driven in-process)."""

import csv
import json

import numpy as np
import pytest

from sigmadepth import cli
from sigmadepth.cli import main, read_points_csv
from sigmadepth.errors import InputError
from sigmadepth.sim import default_config, run_scenario


def write_csv(path, rows, header=None):
    lines = []
    if header:
        lines.append(",".join(header))
    lines += [",".join(repr(float(v)) for v in row) for row in rows]
    path.write_text("\n".join(lines) + "\n")


def test_read_points_csv_header_autodetect(tmp_path):
    f = tmp_path / "pts.csv"
    write_csv(f, [[0.0, 1.0], [2.0, 3.0]], header=["a", "b"])
    pts = read_points_csv(str(f))
    assert pts.shape == (2, 2)
    bare = tmp_path / "bare.csv"
    write_csv(bare, [[1.5], [2.5]])
    assert read_points_csv(str(bare)).shape == (2, 1)


def test_read_points_csv_rejects_garbage(tmp_path):
    f = tmp_path / "bad.csv"
    f.write_text("x,y\n1,2\n3,oops\n")
    with pytest.raises(InputError):
        read_points_csv(str(f))
    ragged = tmp_path / "ragged.csv"
    ragged.write_text("1,2\n3\n")
    with pytest.raises(InputError):
        read_points_csv(str(ragged))
    with pytest.raises(InputError):
        read_points_csv(str(tmp_path / "missing.csv"))


def test_depth_command_writes_csv_and_config(tmp_path):
    data = tmp_path / "data.csv"
    write_csv(data, [[0.0], [1.0], [2.0], [3.0]])
    query = tmp_path / "q.csv"
    write_csv(query, [[1.5], [99.0]])
    out = tmp_path / "depths.csv"
    code = main(
        [
            "depth",
            "--data", str(data),
            "--query", str(query),
            "--method", "simplex-enlarged",
            "--sigma", "2",
            "--out", str(out),
        ]
    )
    assert code == 0
    rows = list(csv.DictReader(out.read_text().splitlines()))
    assert [r["depth"] for r in rows][1] == "0.0"
    assert float(rows[0]["depth"]) > 0.5
    assert rows[0]["exact"] == "1"
    sidecar = json.loads((tmp_path / "depths.csv.config.json").read_text())
    assert sidecar["subcommand"] == "depth"
    assert sidecar["sigma"] == 2.0


def test_depth_command_without_out_writes_to_stdout_and_stderr(tmp_path, capsys):
    """Without --out the depth CSV goes to stdout and the config echo to stderr."""
    data = tmp_path / "data.csv"
    write_csv(data, [[0.0], [1.0], [2.0], [3.0]])
    query = tmp_path / "q.csv"
    write_csv(query, [[1.5], [99.0]])
    code = main(["depth", "--data", str(data), "--query", str(query), "--method", "simplex-enlarged", "--sigma", "2"])
    assert code == 0
    captured = capsys.readouterr()
    rows = list(csv.DictReader(captured.out.splitlines()))
    assert [r["x0"] for r in rows] == ["1.5", "99.0"]
    assert float(rows[0]["depth"]) > 0.5 and rows[1]["depth"] == "0.0"
    echo = json.loads(captured.err)
    assert echo["subcommand"] == "depth" and echo["out"] is None and echo["sigma"] == 2.0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["data.csv", "q.csv"]


@pytest.mark.parametrize(
    "d, approx, strategy, n_simplices",
    [(1, None, "count1d", 45), (2, None, "pairs2d", 120), (2, "300", "mc", 300)],
)
def test_depth_sidecar_names_strategy_and_simplices(tmp_path, d, approx, strategy, n_simplices):
    """The `.config.json` sidecar of `depth` records the counting path and the simplices per depth."""
    rng = np.random.default_rng(3)
    data = tmp_path / "data.csv"
    write_csv(data, rng.standard_normal((10, d)))
    query = tmp_path / "q.csv"
    write_csv(query, rng.standard_normal((3, d)))
    out = tmp_path / "depths.csv"
    argv = ["depth", "--data", str(data), "--query", str(query), "--out", str(out)]
    assert main(argv + (["--approx", approx] if approx else [])) == 0
    sidecar = json.loads((tmp_path / "depths.csv.config.json").read_text())
    assert sidecar["strategy"] == strategy and sidecar["n_simplices"] == n_simplices


def test_depth_command_is_reproducible_with_budget(tmp_path):
    rng = np.random.default_rng(0)
    data = tmp_path / "data.csv"
    write_csv(data, rng.standard_normal((40, 2)))
    query = tmp_path / "q.csv"
    write_csv(query, rng.standard_normal((5, 2)))
    outs = []
    for name in ("a.csv", "b.csv"):
        out = tmp_path / name
        code = main(
            [
                "depth",
                "--data", str(data),
                "--query", str(query),
                "--method", "simplex-enlarged",
                "--sigma", "1.5",
                "--approx", "5000",
                "--seed", "7",
                "--out", str(out),
            ]
        )
        assert code == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_exit_code_two_on_malformed_input(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("1,2\nx,y\n")
    query = tmp_path / "q.csv"
    write_csv(query, [[0.0, 0.0]])
    code = main(["depth", "--data", str(bad), "--query", str(query)])
    assert code == 2


def test_exit_code_two_on_dimension_mismatch(tmp_path):
    data = tmp_path / "d.csv"
    write_csv(data, [[0.0], [1.0], [2.0]])
    query = tmp_path / "q.csv"
    write_csv(query, [[0.0, 1.0]])
    assert main(["depth", "--data", str(data), "--query", str(query)]) == 2


def test_exit_code_three_on_insufficient_data(tmp_path):
    data = tmp_path / "d.csv"
    write_csv(data, [[0.0], [1.0], [2.0]])  # the full transform needs 4
    query = tmp_path / "q.csv"
    write_csv(query, [[0.5]])
    code = main(
        [
            "depth",
            "--data", str(data),
            "--query", str(query),
            "--method", "dist-enlarged-full",
            "--sigma", "2",
        ]
    )
    assert code == 3


def test_exit_code_four_on_exact_cap(tmp_path):
    rng = np.random.default_rng(1)
    data = tmp_path / "d.csv"
    write_csv(data, rng.standard_normal((400, 2)))  # C(400,3) > 10^7
    query = tmp_path / "q.csv"
    write_csv(query, [[0.0, 0.0]])
    code = main(
        [
            "depth",
            "--data", str(data),
            "--query", str(query),
            "--method", "simplex-enlarged",
            "--sigma", "2",
        ]
    )
    assert code == 4


@pytest.mark.parametrize(
    "argv",
    [
        "depth --data d.csv --query q.csv --approx 100 --seed -1",
        "depth --data d.csv --query q.csv --seed -1",
        "classify --train1 d.csv --train2 d.csv --test q.csv --approx 100 --seed -1",
        "simulate --scenario 4 --seed -1",
    ],
)
def test_exit_code_two_on_negative_seed(tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    write_csv(tmp_path / "d.csv", np.random.default_rng(2).standard_normal((10, 2)))
    write_csv(tmp_path / "q.csv", [[0.0, 0.0]])
    assert main(argv.split()) == 2


def test_argparse_rejects_unknown_method(tmp_path):
    with pytest.raises(SystemExit) as err:
        main(["depth", "--data", "x", "--query", "y", "--method", "bogus"])
    assert err.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        "simulate --scenario 4 --tol 1e-9",
        "simulate --scenario 2 --band symmetric",
        "symmetry --dist d.json --kind central --tol 1e-9",
        "symmetry --dist d.json --kind central --seed 3",
    ],
)
def test_flags_a_subcommand_never_reads_are_rejected(argv):
    with pytest.raises(SystemExit) as err:
        main(argv.split())
    assert err.value.code == 2


def test_main_builds_its_parser_once_per_process(tmp_path, monkeypatch, capsys):
    """classify, depth, classify and a bad flag in one process: one parser, and each
    call's exit code, output files, sidecars and echoes are those of a fresh call."""
    rng = np.random.default_rng(4)
    write_csv(tmp_path / "t1.csv", rng.standard_normal((12, 2)))
    write_csv(tmp_path / "t2.csv", rng.standard_normal((12, 2)) + 3.0)
    write_csv(tmp_path / "q.csv", 2.0 * rng.standard_normal((5, 2)))
    t1, t2, q = (str(tmp_path / f) for f in ("t1.csv", "t2.csv", "q.csv"))
    classify = ["classify", "--train1", t1, "--train2", t2, "--test", q, "--out", str(tmp_path / "pred.csv")]
    depth = ["depth", "--data", t1, "--query", q, "--approx", "200", "--seed", "3", "--out", str(tmp_path / "d.csv")]
    calls = [classify, depth, ["classify", "--train1", t1, "--train2", t2, "--test", q], ["depth", "--bogus", "1"]]
    inputs = {"t1.csv", "t2.csv", "q.csv"}

    def run(argv):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        written = {p.name: p.read_bytes() for p in tmp_path.iterdir() if p.name not in inputs}
        for name in written:
            (tmp_path / name).unlink()
        captured = capsys.readouterr()
        return code, written, captured.out, captured.err

    fresh = []
    for argv in calls:
        monkeypatch.setattr(cli, "_PARSER", None)
        fresh.append(run(argv))
    assert [r[0] for r in fresh] == [0, 0, 0, 2]
    assert sorted(fresh[0][1]) == ["pred.csv", "pred.csv.config.json"]
    assert sorted(fresh[1][1]) == ["d.csv", "d.csv.config.json"]

    built = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())
    monkeypatch.setattr(cli, "_PARSER", None)
    assert [run(argv) for argv in calls] == fresh
    assert len(built) == 1


def test_classify_command(tmp_path):
    rng = np.random.default_rng(5)
    t1 = tmp_path / "t1.csv"
    write_csv(t1, rng.standard_normal((30, 2)))
    t2 = tmp_path / "t2.csv"
    write_csv(t2, rng.standard_normal((30, 2)) + 4.0)
    test = tmp_path / "test.csv"
    write_csv(test, [[0.0, 0.0], [4.0, 4.0], [100.0, 100.0]])
    out = tmp_path / "pred.csv"
    code = main(
        [
            "classify",
            "--train1", str(t1),
            "--train2", str(t2),
            "--test", str(test),
            "--method", "simplex-enlarged",
            "--sigma", "2",
            "--out", str(out),
        ]
    )
    assert code == 0
    rows = list(csv.DictReader(out.read_text().splitlines()))
    assert rows[0]["predicted_class"] == "1"
    assert rows[1]["predicted_class"] == "2"
    assert [r["outsider"] for r in rows] == ["0", "0", "1"]
    assert (tmp_path / "pred.csv.config.json").exists()


def test_classify_dd_linear_runs(tmp_path):
    rng = np.random.default_rng(9)
    t1 = tmp_path / "t1.csv"
    write_csv(t1, rng.standard_normal((25, 1)))
    t2 = tmp_path / "t2.csv"
    write_csv(t2, rng.standard_normal((25, 1)) + 3.0)
    test = tmp_path / "test.csv"
    write_csv(test, [[0.0], [3.0]])
    out = tmp_path / "pred.csv"
    code = main(
        [
            "classify",
            "--train1", str(t1),
            "--train2", str(t2),
            "--test", str(test),
            "--classifier", "dd-linear",
            "--method", "simplex-enlarged",
            "--sigma", "1.5",
            "--out", str(out),
        ]
    )
    assert code == 0
    rows = list(csv.DictReader(out.read_text().splitlines()))
    assert [r["predicted_class"] for r in rows] == ["1", "2"]


def test_simulate_command_outputs_and_reruns_identically(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    argv = [
        "simulate",
        "--scenario", "4",
        "--n", "30",
        "--n-test", "60",
        "--reps", "2",
        "--sigma-grid", "1,3",
        "--seed", "11",
    ]
    assert main(argv) == 0
    first = (tmp_path / "sim4.csv").read_bytes()
    cfg = json.loads((tmp_path / "sim4.config.json").read_text())
    assert cfg["scenario"] == 4 and cfg["n_train"] == 30
    table = json.loads((tmp_path / "sim4.json").read_text())
    for row in table["rows"]:
        assert 0.0 <= row["mean"] <= 1.0
    assert main(argv) == 0
    assert (tmp_path / "sim4.csv").read_bytes() == first


def test_simulate_scenario_three_runs_its_baseline(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    argv = "simulate --scenario 3 --n 30 --reps 2 --sigma-grid 1,3 --delta 0.5,1 --budget 0 --seed 5"
    assert main(argv.split()) == 0
    cfg = default_config(
        3, n_train=30, reps=2, sigma_grid=(1.0, 3.0), delta_grid=(0.5, 1.0), budget=None, master_seed=5
    )
    text = (tmp_path / "sim3.json").read_text()
    assert text == run_scenario(cfg).to_json()
    settings = {row["setting"] for row in json.loads(text)["rows"]}
    assert "symmetric|baseline-full-training" in settings
    sidecar = json.loads((tmp_path / "sim3.config.json").read_text())
    assert sidecar["budget"] is None and sidecar["delta_grid"] == [0.5, 1.0]


def test_simulate_rejects_unknown_scenario(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["simulate", "--scenario", "9"]) == 2


@pytest.mark.parametrize(
    "argv",
    [
        "simulate --scenario 1 --delta 1",
        "simulate --scenario 4 --delta 1",
        "simulate --scenario 4 --setting foo",
        "simulate --scenario 4 --sigma-grid 1,1",
    ],
)
def test_simulate_rejects_inputs_before_running(tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    assert main(argv.split()) == 2
    assert list(tmp_path.iterdir()) == []


def test_simulate_scenario_three_reads_n_test(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    argv = "simulate --scenario 3 --n 20 --reps 1 --sigma-grid 1 --delta 1 --budget 0".split()
    tables = []
    for n_test in ("7", "700"):
        assert main([*argv, "--n-test", n_test, "--out", n_test]) == 0
        assert json.loads((tmp_path / f"{n_test}.config.json").read_text())["n_test"] == int(n_test)
        tables.append((tmp_path / f"{n_test}.json").read_text())
    assert tables[0] != tables[1]


def test_symmetry_command_with_packaged_fixture(tmp_path):
    from importlib.resources import files

    src = files("sigmadepth").joinpath("data/planar_four_atoms.json")
    dist = tmp_path / "dist.json"
    dist.write_text(src.read_text())
    out = tmp_path / "verdict.json"
    code = main(
        ["symmetry", "--dist", str(dist), "--kind", "halfspace", "--out", str(out)]
    )
    assert code == 0
    verdict = json.loads(out.read_text())
    assert verdict["symmetric"] is True
    assert verdict["center"] == [0.0, 0.0]
    central = main(
        ["symmetry", "--dist", str(dist), "--kind", "central", "--out", str(out)]
    )
    assert central == 0
    assert json.loads(out.read_text())["symmetric"] is False


def test_symmetry_command_center_override(tmp_path):
    dist = tmp_path / "dist.json"
    dist.write_text(
        json.dumps({"support": [[-1.0], [1.0]], "weights": [0.5, 0.5]})
    )
    out = tmp_path / "v.json"
    assert main(["symmetry", "--dist", str(dist), "--kind", "central",
                 "--center", "0", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["symmetric"] is True
    # no center anywhere: flag missing and file has none
    assert main(["symmetry", "--dist", str(dist), "--kind", "central"]) == 2
    dist.write_text(
        json.dumps({"support": [[-1.0], [1.0]], "weights": [0.5, 0.5], "center": "abc"})
    )
    assert main(["symmetry", "--dist", str(dist), "--kind", "central"]) == 2
    dist.write_text("not json at all")
    assert main(["symmetry", "--dist", str(dist), "--kind", "central",
                 "--center", "0"]) == 2
