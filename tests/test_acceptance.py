"""Acceptance gate: ten end-to-end checks with pinned tolerances and time
limits.  Each test prints exactly one [A#] PASS/FAIL line (visible under
pytest -s); the asserted condition is the same as the printed one.
"""

import math
import time

import numpy as np

from sigmadepth.depth import (
    DepthConfig,
    DepthEvaluator,
    compute_depth,
    depth_maximizer,
)
from sigmadepth.sigma import sample_sigma_blocks
from sigmadepth.sim import default_config, run_scenario
from sigmadepth.symmetry import (
    check_angular_symmetry,
    check_central_symmetry,
    check_halfspace_symmetry,
    corpus_distribution,
    discrete_convolution,
    affine_image,
    gamma_median_root,
    halfspace_center_box,
    projection_median_interval,
)

from oracle import (
    analytic_depth_1d_uniform,
    naive_full_depth,
    two_interval_depth_quadrature,
)

CHECKERS = {
    "central": check_central_symmetry,
    "angular": check_angular_symmetry,
    "halfspace": check_halfspace_symmetry,
}


def report(tag: str, ok: bool, detail: str, elapsed: float, limit: float):
    status = "PASS" if ok and elapsed < limit else "FAIL"
    print(f"[{tag}] {status}: {detail} ({elapsed:.1f}s < {limit:.0f}s)")
    assert ok, f"{tag}: {detail}"
    assert elapsed < limit, f"{tag}: took {elapsed:.1f}s, limit {limit:.0f}s"


def test_a01_full_transform_matches_bruteforce_oracle():
    """200 exact full-transform depths equal the ordered-tuple count."""
    t0 = time.perf_counter()
    mismatches = 0
    total = 200
    for i in range(total):
        rng = np.random.default_rng(10_000 + i)
        n = 4 + i % 5  # 4..8
        sigma = (1.0, 2.0, 5.0)[i % 3]
        data = rng.standard_normal((n, 1))
        x = rng.uniform(-2.0, 2.0, 1)
        cfg = DepthConfig(method="dist_enlarged_full", sigma=sigma)
        est = compute_depth(data, x, cfg).value
        ref = naive_full_depth(data, x, sigma).value
        mismatches += est != ref
    elapsed = time.perf_counter() - t0
    report(
        "A1",
        mismatches == 0,
        f"{total - mismatches}/{total} instances bitwise identical",
        elapsed,
        60.0,
    )


def test_a02_depth_never_decreases_in_sigma():
    t0 = time.perf_counter()
    grid = (1.0, 1.2, 1.5, 2.0, 3.0, 5.0)
    violations = 0
    checked = 0
    for i in range(100):
        rng = np.random.default_rng(20_000 + i)
        d = 1 + i % 2
        n = int(rng.integers(d + 1, 31))
        data = rng.standard_normal((n, d))
        x = rng.standard_normal(d) * 1.5
        vals = [
            compute_depth(data, x, DepthConfig(method="simplex_enlarged", sigma=s)).value
            for s in grid
        ]
        violations += sum(b < a for a, b in zip(vals, vals[1:]))
        checked += len(grid) - 1
    elapsed = time.perf_counter() - t0
    report(
        "A2", violations == 0, f"0 of {checked} sigma steps decreased" if violations == 0
        else f"{violations} of {checked} sigma steps decreased", elapsed, 120.0,
    )


def test_a03_one_dim_estimate_tracks_population_curve():
    """Plain simplicial depth on U[0,1] samples vs the 2x(1-x) curve."""
    t0 = time.perf_counter()
    grid = np.linspace(0.0, 1.0, 21)
    target = np.array([analytic_depth_1d_uniform(x) for x in grid])
    good = 0
    worst = 0.0
    for i in range(100):
        rng = np.random.default_rng(30_000 + i)
        data = rng.uniform(0.0, 1.0, size=(2000, 1))
        vals = DepthEvaluator(data, DepthConfig()).depths(grid[:, None])
        err = float(np.abs(vals - target).max())
        worst = max(worst, err)
        good += err <= 0.05
    elapsed = time.perf_counter() - t0
    report(
        "A3", good >= 95, f"{good}/100 runs with sup-error <= 0.05 (worst {worst:.3f})",
        elapsed, 120.0,
    )


def test_a04_block_combination_scales_covariance_three_fold():
    t0 = time.perf_counter()
    rng = np.random.default_rng(4)
    data = rng.standard_normal((300_000, 2))
    combined = sample_sigma_blocks(data, 2.0)
    C = np.cov(combined.T)
    target = 3.0 * np.eye(2)
    rel = float(np.linalg.norm(C - target) / np.linalg.norm(target))
    elapsed = time.perf_counter() - t0
    report(
        "A4", rel <= 0.05,
        f"empirical covariance within {100 * rel:.2f}% of 3*I (limit 5%)",
        elapsed, 60.0,
    )


def test_a05_outsider_rates_track_dilation():
    """Location-scale experiment: double outsiders coin-flip at sigma 1
    and almost vanish once sigma 2 stretches the hulls over the test set."""
    t0 = time.perf_counter()
    cfg = default_config(
        1,
        setting="normal_location_scale",
        classifier="dd-linear",
        sigma_grid=(1.0, 2.0),
        reps=10,
    )
    table = run_scenario(cfg)
    at1 = table.row("normal_location_scale", 1.0).outsider_mean
    at2 = table.row("normal_location_scale", 2.0).outsider_mean
    ok = at2 <= 0.05 and abs(at1 - 0.5) <= 0.12
    elapsed = time.perf_counter() - t0
    report(
        "A5", ok,
        f"outsider rate {at2:.3f} at sigma 2 (<=0.05), {at1:.3f} at sigma 1 (0.5+-0.12)",
        elapsed, 600.0,
    )


def test_a06_interval_experiment_finds_useful_sigma_range():
    t0 = time.perf_counter()
    cfg = default_config(4, n_train=100, n_test=1000, reps=200)
    table = run_scenario(cfg)
    medians = {s: table.row("uniform_quartet", s).median for s in cfg.sigma_grid}
    at1 = medians[1.0]
    at3 = medians[3.0]
    best = min(medians, key=lambda s: (medians[s], s))
    ok = abs(at1 - 0.5) <= 0.05 and 2.5 <= best <= 4.0 and at3 <= 0.05
    elapsed = time.perf_counter() - t0
    report(
        "A6", ok,
        f"median rate {at1:.3f} at sigma 1, minimum at sigma {best:g}, "
        f"{at3:.3f} at sigma 3",
        elapsed, 300.0,
    )


def test_a07_two_interval_depth_is_not_unimodal():
    """Depth at an interval center exceeds depth at the gap midpoint side."""
    t0 = time.perf_counter()
    pop_gap = two_interval_depth_quadrature(1.0, 2.0, 0.5, 2.0).value
    pop_center = two_interval_depth_quadrature(2.0, 2.0, 0.5, 2.0).value
    wins = 0
    for i in range(100):
        rng = np.random.default_rng(70_000 + i)
        draws = rng.uniform(1.5, 2.5, size=10_000) * rng.choice([-1.0, 1.0], 10_000)
        ev = DepthEvaluator(
            draws[:, None], DepthConfig(method="simplex_enlarged", sigma=2.0)
        )
        d_gap, d_center = ev.depths(np.array([[1.0], [2.0]]))
        wins += d_center > d_gap
    ok = wins >= 95 and pop_center > pop_gap
    elapsed = time.perf_counter() - t0
    report(
        "A7", ok,
        f"{wins}/100 samples ranked center above gap; population "
        f"{pop_center:.3f} > {pop_gap:.3f}",
        elapsed, 120.0,
    )


def test_a08_symmetry_regression_suite():
    t0 = time.perf_counter()
    problems = []

    for name in (
        "planar_four_atoms",
        "planar_five_atoms",
        "axis_atoms_horizontal",
        "axis_atoms_vertical",
    ):
        dist, meta = corpus_distribution(name)
        for kind, expected in meta["claims"].items():
            got = CHECKERS[kind](dist, meta["center"]).symmetric
            if got != expected:
                problems.append(f"{name}/{kind}")

    four, _ = corpus_distribution("planar_four_atoms")
    five, _ = corpus_distribution("planar_five_atoms")
    H, _ = corpus_distribution("axis_atoms_horizontal")
    V, _ = corpus_distribution("axis_atoms_vertical")
    for label, S in (
        ("four-sum", discrete_convolution(four, four)),
        ("five-sum", discrete_convolution(five, five)),
        ("axis-sum", discrete_convolution(H, V)),
    ):
        lo, hi = halfspace_center_box(S)
        if not np.allclose(lo, hi):
            problems.append(f"{label}: center box not pointlike")
        elif check_halfspace_symmetry(S, lo).symmetric:
            problems.append(f"{label}: pinned center not rejected")

    # mixture sum with a segment of candidate centers: emptied by projection
    lam = 1.0 + 2.0 * math.sqrt(2.0)
    mix = discrete_convolution(
        affine_image(four, lam, [0.0, 0.0]),
        discrete_convolution(four, four, coeffs=(-math.sqrt(2.0), -math.sqrt(2.0))),
    )
    lo, hi = halfspace_center_box(mix)
    x_lo, x_hi = float(lo[0]), float(hi[0])
    for k in range(1, 60):
        theta = k * math.pi / 60.0
        cu = math.cos(theta)
        if abs(cu) < 1e-12:
            continue
        m_lo, m_hi = projection_median_interval(mix, [cu, math.sin(theta)])
        a, b = sorted((m_lo / cu, m_hi / cu))
        x_lo, x_hi = max(x_lo, a), min(x_hi, b)
    if not x_lo > x_hi + 1e-9:
        problems.append("mixture-sum: candidate segment did not empty")

    root = gamma_median_root()
    if abs(root - 1.67835) > 1e-4:
        problems.append(f"median root {root}")
    if abs(root - 2.0 * math.log(2.0)) <= 0.25:
        problems.append("median root too close to the double-log value")

    elapsed = time.perf_counter() - t0
    report(
        "A8", not problems,
        "corpus, three sums, segment emptiness and median root all reproduced"
        if not problems else "; ".join(problems),
        elapsed, 10.0,
    )


def test_a09_estimator_error_shrinks_like_root_n():
    t0 = time.perf_counter()
    x = np.array([0.3, -0.2])
    vals100 = np.empty(200)
    vals400 = np.empty(200)
    for rep in range(200):
        rng = np.random.default_rng(90_000 + rep)
        data = rng.standard_normal((100, 2))
        cfg = DepthConfig(method="simplex_enlarged", sigma=2.0)
        vals100[rep] = DepthEvaluator(data, cfg).depths(x[None])[0]
        data4 = rng.standard_normal((400, 2))
        cfg4 = DepthConfig(
            method="simplex_enlarged", sigma=2.0, budget=200_000, seed=rep
        )
        vals400[rep] = DepthEvaluator(data4, cfg4).depths(x[None])[0]
    ratio = float(vals100.std(ddof=1) / vals400.std(ddof=1))
    elapsed = time.perf_counter() - t0
    report(
        "A9", 1.5 <= ratio <= 2.5,
        f"sd ratio {ratio:.2f} for n 100 vs 400 (expect ~2, limits [1.5, 2.5])",
        elapsed, 300.0,
    )


def test_a10_depth_peak_concentrates_at_the_center():
    t0 = time.perf_counter()
    meds = {}
    for n in (200, 800):
        norms = []
        for rep in range(50):
            rng = np.random.default_rng(100_000 + rep)
            data = rng.standard_normal((n, 2))
            cfg = DepthConfig(
                method="dist_enlarged_blocks", sigma=2.0, budget=20_000,
                seed=1000 * n + rep,
            )
            norms.append(float(np.linalg.norm(depth_maximizer(data, cfg))))
        meds[n] = float(np.median(norms))
    ok = meds[800] < meds[200] and meds[800] < 0.3
    elapsed = time.perf_counter() - t0
    report(
        "A10", ok,
        f"median peak norm {meds[200]:.3f} (n=200) -> {meds[800]:.3f} (n=800, <0.3)",
        elapsed, 300.0,
    )
