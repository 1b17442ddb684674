"""Each output check passes the program's real output and rejects a corrupted one.

    python3 -m pytest -q perfbench/test_checks.py

The workloads are shrunk here (fewer points and queries) so the test runs
in seconds; the checks themselves are the benchmark's.
"""

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import reference as ref  # noqa: E402
import workloads as wl  # noqa: E402
from sigmadepth import DepthEvaluator  # noqa: E402


def swap_rows(text, i, j):
    lines = text.splitlines(keepends=True)
    lines[i + 1], lines[j + 1] = lines[j + 1], lines[i + 1]
    return "".join(lines)


def edit_cell(text, row, col, fn):
    lines = text.splitlines(keepends=True)
    cells = lines[row + 1].rstrip("\n").split(",")
    cells[col] = fn(cells[col])
    lines[row + 1] = ",".join(cells) + "\n"
    return "".join(lines)


class SmallStream(wl.Exact2DStream):
    N, Q = 15, 6


class SmallTies(wl.Ties2D):
    N, Q, LP_TRIANGLES = 16, 6, 2


class SmallSim1(wl.Sim1MC2D):
    N_TRAIN, N_TEST = 20, 20


class SmallSim4(wl.Sim4Interval):
    N_TRAIN, N_TEST, REPS = 30, 200, 2


def test_pair_reference_matches_program_on_ties():
    values = np.array([0.0, 0.0, 0.5, 1.0, 1.0, 1.0, 2.5])
    X = np.concatenate([values, [-0.5, 0.25, 3.0, 4.0]])
    from sigmadepth import DepthConfig

    for sigma in (1.0, 1.5, 3.0):
        got = DepthEvaluator(values[:, None], DepthConfig(method="simplex_enlarged", sigma=sigma)).contain_counts(
            X[:, None]
        )
        assert got.tolist() == ref.pair_counts(values, X, sigma).tolist()


def test_exact2d_check(tmp_path):
    w = SmallStream(seed=5, work=tmp_path)
    (simplex, blocks), failed = w.round()
    assert failed == 0
    assert w.check((simplex, blocks)) == []
    off_by_one = edit_cell(simplex, 2, 2, lambda v: repr(float(v) + 1.0 / math.comb(w.N, 3)))
    assert w.check((off_by_one, blocks))
    assert w.check((swap_rows(simplex, 0, 3), blocks))
    assert w.check((simplex, swap_rows(blocks, 1, 2)))


def test_ties2d_check(tmp_path):
    w = SmallTies(seed=7, work=tmp_path)
    text, failed = w.round()
    assert failed == 0
    depths = w.program_depths()
    counts = w.exact_counts()
    assert w.check(text, depths, counts) == []

    differ = [i for i in range(w.Q) if counts[0][i] != counts[1][i]]
    assert differ, "the test needs a query whose class depths differ"
    flipped = edit_cell(text, differ[0], 2, lambda v: "2" if v == "1" else "1")
    assert w.check(flipped, depths, counts)
    outsider = edit_cell(text, 0, 3, lambda v: "0" if v == "1" else "1")
    assert w.check(outsider, depths, counts)
    assert w.check(swap_rows(text, 0, differ[0] or 1), depths, counts)
    off_by_one = edit_cell(depths[0], 1, 2, lambda v: repr(float(v) + 1.0 / math.comb(w.N, 3)))
    assert w.check(text, [off_by_one, depths[1]], counts)


def test_sim4_check(tmp_path, monkeypatch):
    w = SmallSim4(seed=3, work=tmp_path)
    text, _ = w.round()
    assert w.check(text) == []

    table = json.loads(text)
    table["rows"][0], table["rows"][1] = table["rows"][1], table["rows"][0]
    assert w.check(json.dumps(table))

    table = json.loads(text)
    table["rows"][-1]["mean"] = 0.06
    assert w.check(json.dumps(table))

    original = DepthEvaluator.contain_counts

    def off_by_one(self, X):
        counts = original(self, X)
        counts[0] += 1
        return counts

    monkeypatch.setattr(DepthEvaluator, "contain_counts", off_by_one)
    assert w.check(text)


def test_sim1_check(tmp_path, monkeypatch):
    w = SmallSim1(seed=4, work=tmp_path)
    text, _ = w.round()
    assert w.check(text) == []

    table = json.loads(text)
    table["rows"][2], table["rows"][3] = table["rows"][3], table["rows"][2]
    assert w.check(json.dumps(table))

    table = json.loads(text)
    table["rows"][4]["rates"] = [1.5]
    assert w.check(json.dumps(table))

    original = DepthEvaluator.depths
    monkeypatch.setattr(DepthEvaluator, "depths", lambda self, X: np.clip(original(self, X) + 0.05, 0, 1))
    assert w.check(text)


@pytest.mark.parametrize("k,n,rejected", [(50, 100, False), (20, 100, True), (0, 0, False)])
def test_fair_coin(k, n, rejected):
    assert bool(wl.check_fair_coin(k, n, "coin")) == rejected
