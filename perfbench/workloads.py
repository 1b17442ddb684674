"""The benchmark's four workloads: inputs from a seed, one round, output checks.

A workload object makes its inputs in its constructor, runs one round of
operations in `round()` (returning the round's output and the number of
failed operations), and checks an output in `check()`, returning a list of
problems (empty when the output is correct).  Checks compare against `reference`,
which does not use sigmadepth, or against properties the method must have.
"""

from __future__ import annotations

import csv
import io
import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np

import reference as ref

# A p-value below this rejects a fair coin; small enough that correct output
# fails it about once in a million runs.
COIN_ALPHA = 1e-6


def write_points(path: Path, pts: np.ndarray) -> str:
    path.write_text("".join(",".join(repr(float(v)) for v in row) + "\n" for row in pts))
    return str(path)


def read_table(text: str):
    rows = list(csv.reader(io.StringIO(text))) or [[]]
    return rows[0], rows[1:]


def check_point_columns(rows, X: np.ndarray, where: str) -> list:
    """The leading columns of a CLI table must be the query points, in order."""
    if len(rows) != len(X):
        return [f"{where}: {len(rows)} rows for {len(X)} queries"]
    d = X.shape[1]
    bad = [i for i, row in enumerate(rows) if [float(v) for v in row[:d]] != X[i].tolist()]
    return [f"{where}: rows {bad[:5]} do not echo their query point"] if bad else []


def check_depth_table(text: str, X: np.ndarray, counts: np.ndarray, total: int, where: str) -> list:
    """A `sigmadepth depth` table must list X in order with depth = count / total."""
    header, rows = read_table(text)
    d = X.shape[1]
    if header != [f"x{j}" for j in range(d)] + ["depth", "exact"]:
        return [f"{where}: header {header}"]
    problems = check_point_columns(rows, X, where)
    if problems:
        return problems
    bad = [
        i
        for i, row in enumerate(rows)
        if float(row[d]) != int(counts[i]) / total or row[d + 1] != "1"
    ]
    if bad:
        i = bad[0]
        problems.append(
            f"{where}: {len(bad)} depths differ from the reference, first row {i}: "
            f"{rows[i][d]} vs {int(counts[i])}/{total}"
        )
    return problems


def check_fair_coin(errors: int, trials: int, where: str) -> list:
    p = ref.fair_coin_p(errors, trials)
    if p < COIN_ALPHA:
        return [f"{where}: {errors} errors in {trials} fair-coin ties (p = {p:.2g})"]
    return []


class Scenario:
    """One `sim.run_scenario` call per round on the scenario's default config,
    resized to N_TRAIN, N_TEST and REPS, with master_seed = seed."""

    ops_per_round = 1

    def __init__(self, seed: int, work: Path):
        from sigmadepth import sim

        self.seed = seed
        self.cfg = sim.default_config(
            self.SCENARIO, n_train=self.N_TRAIN, n_test=self.N_TEST, reps=self.REPS, master_seed=seed
        )

    def round(self):
        from sigmadepth import sim

        return sim.run_scenario(self.cfg).to_json(), 0


class Sim1MC2D(Scenario):
    """Scenario 1 (normal location-scale, dd-linear, MC budget 20 000, 7 sigmas)."""

    name = "sim1_mc2d"
    SCENARIO = 1
    N_TRAIN, N_TEST, REPS = 60, 30, 1
    BUDGET = 20_000
    CHECK_SIGMAS = (1.0, 2.0)

    def rep_data(self, rep: int):
        """The rep's data, redrawn from the generator the scenario documents:
        SeedSequence([master_seed, scenario, rep, sweep]); class 2 is class 1
        scaled by 3 and shifted by 2 in each coordinate."""
        rng = np.random.default_rng(np.random.SeedSequence([self.seed, 1, rep, 0]))
        half = self.N_TEST // 2
        train1 = rng.standard_normal((self.N_TRAIN, 2))
        train2 = rng.standard_normal((self.N_TRAIN, 2)) * 3.0 + 2.0
        test = np.vstack(
            [rng.standard_normal((half, 2)), rng.standard_normal((self.N_TEST - half, 2)) * 3.0 + 2.0]
        )
        return train1, train2, test

    def check(self, text: str) -> list:
        rows = json.loads(text)["rows"]
        sigmas = [r["sigma_or_delta"] for r in rows]
        if sigmas != list(self.cfg.sigma_grid):
            return [f"{self.name}: rows for sigmas {sigmas}, expected {list(self.cfg.sigma_grid)}"]
        problems = []
        for r in rows:
            rates = np.array(r["rates"] + r["outsider_rates"], dtype=float)
            rates = rates[~np.isnan(rates)]
            if len(r["rates"]) != self.REPS or np.any((rates < 0) | (rates > 1)):
                problems.append(f"{self.name}: sigma {r['sigma_or_delta']}: bad rates {r['rates']}")
            if not r["mean"] < 0.5:
                problems.append(f"{self.name}: sigma {r['sigma_or_delta']}: error rate {r['mean']} >= 0.5")

        # At sigma = 1 outsiders have depth 0 in both classes: a fair coin.
        errors = trials = 0
        for rep, orate in enumerate(rows[0]["outsider_rates"]):
            train1, train2, test = self.rep_data(rep)
            k = self._outsiders(train1, train2, test)
            if k == 0:
                if not math.isnan(orate):
                    problems.append(f"{self.name}: rep {rep}: outsider rate {orate} with no outsiders")
                continue
            e = orate * k
            if math.isnan(orate) or abs(e - round(e)) > 1e-9:
                problems.append(f"{self.name}: rep {rep}: outsider rate {orate} for {k} outsiders")
                continue
            errors += round(e)
            trials += k
        problems += check_fair_coin(errors, trials, f"{self.name} sigma=1 outsiders")
        return problems + self.check_mc_depth()

    @staticmethod
    def _outsiders(train1, train2, test) -> int:
        """Test points outside both training hulls, by the float reference at sigma = 1."""
        out = np.ones(len(test), dtype=bool)
        for train in (train1, train2):
            out &= ref.triangle_counts(train, test, [1.0])[0] == 0
        return int(out.sum())

    def check_mc_depth(self) -> list:
        """MC depth within 5 standard errors (plus one lattice step 1/B) of exact depth."""
        from sigmadepth import DepthConfig, DepthEvaluator

        train1, train2, test = self.rep_data(0)
        total = math.comb(self.N_TRAIN, 3)
        problems = []
        for cls, train in ((1, train1), (2, train2)):
            exact = ref.triangle_counts(train, test, self.CHECK_SIGMAS) / total
            for i, sigma in enumerate(self.CHECK_SIGMAS):
                cfg = DepthConfig(
                    method="simplex_enlarged", sigma=sigma, budget=self.BUDGET, seed=self.seed
                )
                mc = DepthEvaluator(train, cfg).depths(test)
                p = exact[i]
                tol = 5.0 * np.sqrt(p * (1.0 - p) / self.BUDGET) + 1.0 / self.BUDGET
                bad = np.flatnonzero(np.abs(mc - p) > tol)
                if bad.size:
                    j = bad[0]
                    problems.append(
                        f"{self.name}: class {cls} sigma {sigma}: MC depth {mc[j]} vs exact {p[j]}"
                    )
        return problems


class Sim4Interval(Scenario):
    """Scenario 4 (two unit intervals with a gap, exact, 21 sigmas, max-depth)."""

    name = "sim4_1d"
    SCENARIO = 4
    N_TRAIN, N_TEST, REPS = 200, 300, 3

    def rep_data(self, rep: int):
        """Rep data redrawn from SeedSequence([master_seed, 4, rep, 0]):
        training uniform on [-2, -1] and [1, 2], test uniform on [-1, 0] and [0, 1]."""
        rng = np.random.default_rng(np.random.SeedSequence([self.seed, 4, rep, 0]))
        half = self.N_TEST // 2
        train1 = rng.uniform(-2.0, -1.0, (self.N_TRAIN, 1))
        train2 = rng.uniform(1.0, 2.0, (self.N_TRAIN, 1))
        test = np.vstack(
            [rng.uniform(-1.0, 0.0, (half, 1)), rng.uniform(0.0, 1.0, (self.N_TEST - half, 1))]
        )
        return train1, train2, test

    def check(self, text: str) -> list:
        rows = json.loads(text)["rows"]
        sigmas = [r["sigma_or_delta"] for r in rows]
        if sigmas != list(self.cfg.sigma_grid):
            return [f"{self.name}: rows for sigmas {sigmas}"]
        problems = []
        first = rows[0]
        if first["sigma_or_delta"] != 1.0 or len(first["rates"]) != self.REPS:
            return [f"{self.name}: first row {first}"]
        # Every test point lies in the gap, outside both hulls: at sigma = 1
        # both depths are 0 and each point is a fair coin flip.
        errors = [r * self.N_TEST for r in first["rates"]]
        if any(abs(e - round(e)) > 1e-9 for e in errors):
            problems.append(f"{self.name}: sigma 1 rates {first['rates']} are not counts / {self.N_TEST}")
        if first["outsider_rates"] != first["rates"]:
            problems.append(f"{self.name}: sigma 1 outsider rates differ from the rates")
        problems += check_fair_coin(
            sum(round(e) for e in errors), self.N_TEST * self.REPS, f"{self.name} sigma=1"
        )
        for r in rows:
            if r["sigma_or_delta"] >= 3.0 and not r["mean"] < 0.05:
                problems.append(f"{self.name}: sigma {r['sigma_or_delta']}: error rate {r['mean']} >= 0.05")
        return problems + self.check_counts()

    def check_counts(self) -> list:
        """Program pair counts on rep 0's inputs against the all-pairs reference."""
        from sigmadepth import DepthConfig, DepthEvaluator

        train1, train2, test = self.rep_data(0)
        problems = []
        for cls, train in ((1, train1), (2, train2)):
            for sigma in self.cfg.sigma_grid:
                cfg = DepthConfig(method="simplex_enlarged", sigma=sigma)
                got = DepthEvaluator(train, cfg).contain_counts(test)
                want = ref.pair_counts(train, test, sigma)
                bad = np.flatnonzero(got != want)
                if bad.size:
                    j = bad[0]
                    problems.append(
                        f"{self.name}: class {cls} sigma {sigma}: {bad.size} counts differ, "
                        f"x={test[j, 0]!r}: {got[j]} vs {want[j]}"
                    )
        return problems


class Exact2DStream:
    """CLI `depth` on one 2-D normal cloud streamed in exact enumeration."""

    name = "exact2d_stream"
    ops_per_round = 2
    N, Q = 150, 30  # C(150, 3) = 551 300 > 2^19 simplices, so streamed
    SIGMA_SIMPLEX, SIGMA_BLOCKS = 1.5, 2.0

    def __init__(self, seed: int, work: Path):
        rng = np.random.default_rng([seed, 2])
        self.data = rng.standard_normal((self.N, 2))
        self.queries = 1.5 * rng.standard_normal((self.Q, 2))
        self.data_csv = write_points(work / "data.csv", self.data)
        self.query_csv = write_points(work / "query.csv", self.queries)
        self.outs = [str(work / "simplex.csv"), str(work / "blocks.csv")]

    def round(self):
        from sigmadepth import cli

        failed = 0
        texts = []
        for method, sigma, out in (
            ("simplex-enlarged", self.SIGMA_SIMPLEX, self.outs[0]),
            ("dist-enlarged-blocks", self.SIGMA_BLOCKS, self.outs[1]),
        ):
            code = cli.main(
                ["depth", "--data", self.data_csv, "--query", self.query_csv,
                 "--method", method, "--sigma", repr(sigma), "--out", out]
            )
            failed += code != 0
            texts.append(Path(out).read_text() if code == 0 else "")
        return tuple(texts), failed

    def check(self, tables) -> list:
        simplex, blocks = tables
        counts = ref.triangle_counts(self.data, self.queries, [self.SIGMA_SIMPLEX])[0]
        problems = check_depth_table(
            simplex, self.queries, counts, math.comb(self.N, 3), f"{self.name} simplex-enlarged"
        )
        combined = ref.sigma_blocks(self.data, self.SIGMA_BLOCKS)
        counts = ref.triangle_counts(combined, self.queries, [1.0])[0]
        return problems + check_depth_table(
            blocks, self.queries, counts, math.comb(len(combined), 3), f"{self.name} dist-enlarged-blocks"
        )


class Ties2D:
    """CLI `classify` (exact, simplex-enlarged, sigma 2) on grid-recorded data.

    Each class is N normal draws recorded on the grid STEP * Z^2.  Rounding
    makes collinear and repeated points, so some triangles are degenerate
    and go through the hull LP for every query.  A class is redrawn until it
    has exactly LP_TRIANGLES such triangles, which fixes the LP load per
    round while the data still differ with the seed.
    """

    name = "ties2d"
    ops_per_round = 1
    N, Q, STEP = 40, 6, 0.125
    LP_TRIANGLES = 100
    SIGMA = Fraction(2)
    MEANS = ((0.0, 0.0), (1.5, 0.0))

    def __init__(self, seed: int, work: Path):
        rng = np.random.default_rng([seed, 3])
        self.train = [self._draw_class(rng, mean) for mean in self.MEANS]
        self.test = self._grid(rng.standard_normal((self.Q, 2)) * 1.5 + (0.75, 0.0))
        self.train_csv = [write_points(work / f"train{i + 1}.csv", t) for i, t in enumerate(self.train)]
        self.test_csv = write_points(work / "test.csv", self.test)
        self.out = str(work / "classified.csv")
        self.work = work

    def _grid(self, pts):
        return np.round(pts / self.STEP) * self.STEP

    def _draw_class(self, rng, mean):
        for _ in range(100_000):
            pts = self._grid(rng.standard_normal((self.N, 2)) + mean)
            if len(ref.degenerate_lp_triangles(ref.to_grid(pts, self.STEP))) == self.LP_TRIANGLES:
                return pts
        raise RuntimeError("no draw with the required number of degenerate triangles")

    def _flags(self):
        return ["--method", "simplex-enlarged", "--sigma", str(float(self.SIGMA))]

    def round(self):
        from sigmadepth import cli

        code = cli.main(
            ["classify", "--train1", self.train_csv[0], "--train2", self.train_csv[1],
             "--test", self.test_csv, "--out", self.out, *self._flags()]
        )
        return (Path(self.out).read_text() if code == 0 else ""), int(code != 0)

    def program_depths(self) -> list:
        """`sigmadepth depth` tables of the test points against each class."""
        from sigmadepth import cli

        texts = []
        for i, train_csv in enumerate(self.train_csv):
            out = str(self.work / f"depth{i + 1}.csv")
            code = cli.main(["depth", "--data", train_csv, "--query", self.test_csv, "--out", out, *self._flags()])
            texts.append(Path(out).read_text() if code == 0 else f"exit code {code}")
        return texts

    def exact_counts(self):
        X = ref.to_grid(self.test, self.STEP)
        return [ref.exact_grid_counts(ref.to_grid(t, self.STEP), X, self.SIGMA, self.STEP) for t in self.train]

    def check(self, text: str, depth_texts: list | None = None, counts=None) -> list:
        counts = counts if counts is not None else self.exact_counts()
        depth_texts = depth_texts if depth_texts is not None else self.program_depths()
        total = math.comb(self.N, 3)
        problems = []
        for i, t in enumerate(depth_texts):
            problems += check_depth_table(t, self.test, counts[i], total, f"{self.name} depth class {i + 1}")

        header, rows = read_table(text)
        if header != ["x0", "x1", "predicted_class", "outsider"]:
            return problems + [f"{self.name}: header {header}"]
        problems += check_point_columns(rows, self.test, self.name)
        if problems:
            return problems
        X = ref.to_grid(self.test, self.STEP)
        inside = [ref.hull_contains(ref.to_grid(t, self.STEP), X) for t in self.train]
        for i, row in enumerate(rows):
            c1, c2 = counts[0][i], counts[1][i]
            want = 1 if c1 > c2 else 2 if c2 > c1 else None
            if row[2] not in ("1", "2") or (want is not None and int(row[2]) != want):
                problems.append(f"{self.name}: row {i}: class {row[2]} with exact counts {c1}, {c2}")
            outsider = not (inside[0][i] or inside[1][i])
            if row[3] != str(int(outsider)):
                problems.append(f"{self.name}: row {i}: outsider {row[3]}, reference {int(outsider)}")
        return problems


WORKLOADS = {w.name: w for w in (Sim1MC2D, Sim4Interval, Exact2DStream, Ties2D)}
