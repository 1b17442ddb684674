"""Tests for the simulation harness: samplers, configs, reproducibility."""

import json
import math

import numpy as np
import pytest
from oracle import smallest_covering_sigma_rebuild

from sigmadepth.errors import InputError
from sigmadepth.sim import (
    COVER_LO,
    ResultRow,
    ResultTable,
    ScenarioConfig,
    band_filter,
    default_config,
    elliptical_density,
    elliptical_r0,
    full_scale_config,
    run_scenario,
    sample_elliptical,
    smallest_covering_sigma,
    _draw_in_band,
    _sim1_data,
)

R0 = elliptical_r0()


def test_r0_solves_normalization():
    # 1 + 2.5 y = (1 + y)^1.5 at y = r0^6
    y = R0**6
    assert 1.0 + 2.5 * y == pytest.approx((1.0 + y) ** 1.5, rel=1e-12)
    assert R0 == pytest.approx(1.2480544, abs=2e-7)


def test_density_integrates_to_one():
    xs = np.linspace(-60.0, 60.0, 1201)
    ys = np.linspace(-30.0, 30.0, 1201)
    dx = xs[1] - xs[0]
    dy = ys[1] - ys[0]
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    pts = np.stack([X.ravel(), Y.ravel()], axis=1)
    mass = elliptical_density(pts).sum() * dx * dy
    assert mass == pytest.approx(1.0, abs=5e-3)


def test_density_flat_inside_ellipse():
    inside = elliptical_density(np.array([[0.0, 0.0], [1.0, 0.5], [2.0 * R0 * 0.9, 0.0]]))
    assert np.allclose(inside, inside[0])
    far = elliptical_density(np.array([[30.0, 0.0]]))[0]
    assert far < inside[0] * 1e-3


def test_sampler_matches_ellipse_mass_and_center():
    draws = sample_elliptical(100_000, seed=4)
    s = draws[:, 0] ** 2 / 4.0 + draws[:, 1] ** 2
    empirical = float(np.mean(s < R0**2))
    # closed form: the flat part carries 1.5 y (1+y)^-1.5 of the mass
    y = R0**6
    analytic = 1.5 * y * (1.0 + y) ** -1.5
    assert empirical == pytest.approx(analytic, abs=0.01)
    assert np.abs(np.median(draws, axis=0)).max() < 0.05


def test_sampler_radius_follows_closed_form_cdf():
    from scipy.stats import kstest

    draws = sample_elliptical(50_000, seed=10)
    s = draws[:, 0] ** 2 / 4.0 + draws[:, 1] ** 2
    q = (1.0 + R0**6) ** -0.5  # tail mass beyond s = R0^2

    def cdf(t):
        t = np.asarray(t, dtype=float)
        return np.where(t < R0**2, (1.0 - q) * t / R0**2, 1.0 - (1.0 + t**3) ** -0.5)

    assert kstest(s, cdf).pvalue > 1e-6


def test_sampler_reproducible_and_guarded():
    a = sample_elliptical(500, seed=3)
    b = sample_elliptical(500, seed=3)
    assert np.array_equal(a, b)
    for n in (0, 2.5, True):
        with pytest.raises(InputError):
            sample_elliptical(n)


def test_band_filter_examples():
    pts = np.array([[0.0, 5.0], [0.5, 0.0], [-1.0, 3.0], [2.0, 0.0]])
    inside, outside = band_filter(pts, "symmetric", 1.0)
    assert [0.0, 5.0] in inside.tolist() and [-1.0, 3.0] in inside.tolist()
    assert [2.0, 0.0] in outside.tolist()
    inside_a, outside_a = band_filter(pts, "asymmetric", 1.0)
    assert [0.5, 0.0] in outside_a.tolist()  # x > 0 falls outside
    assert [0.0, 5.0] in inside_a.tolist()
    with pytest.raises(InputError):
        band_filter(pts, "diagonal", 1.0)
    for delta in (0.0, math.nan):
        with pytest.raises(InputError):
            band_filter(pts, "symmetric", delta)


@pytest.mark.parametrize("band", ["symmetric", "asymmetric"])
@pytest.mark.parametrize("mean", [-2.0, 2.0])
@pytest.mark.parametrize("delta", [0.05, 0.5, 1.95])
def test_band_draws_follow_the_truncated_normal(band, mean, delta):
    from scipy.stats import kstest, truncnorm

    pts = _draw_in_band(np.random.default_rng(12), mean, band, delta, 5000)
    inside, outside = band_filter(pts, band, delta)
    assert len(inside) == len(pts) and len(outside) == 0
    lo, hi = -delta, delta if band == "symmetric" else 0.0
    law = truncnorm(lo - mean, hi - mean, loc=mean)
    assert kstest(pts[:, 0], law.cdf).pvalue > 1e-6
    assert kstest(pts[:, 1], "norm").pvalue > 1e-6


def test_scale_setting_triples_the_spread():
    cfg = default_config(1, setting="normal_scale", n_test=20_000)
    rng = np.random.default_rng(0)
    _, _, test, truth = _sim1_data(cfg, rng, None)
    sd1 = test[truth == 1].std(axis=0)
    sd2 = test[truth == 2].std(axis=0)
    assert np.allclose(sd2 / sd1, 3.0, rtol=0.1)


def test_location_setting_shifts_every_coordinate():
    cfg = default_config(1, setting="normal_location", n_test=20_000)
    _, _, test, truth = _sim1_data(cfg, np.random.default_rng(1), None)
    gap = test[truth == 2].mean(axis=0) - test[truth == 1].mean(axis=0)
    assert np.allclose(gap, 2.0, atol=0.1)
    ecfg = default_config(1, setting="elliptical_location", n_test=20_000)
    _, _, etest, etruth = _sim1_data(ecfg, np.random.default_rng(2), None)
    # heavy tails: compare medians, which sit at the shift
    egap = np.median(etest[etruth == 2], axis=0) - np.median(etest[etruth == 1], axis=0)
    assert np.allclose(egap, 4.0, atol=0.25)


def test_config_validation():
    with pytest.raises(InputError):
        ScenarioConfig(scenario=7)
    with pytest.raises(InputError):
        ScenarioConfig(scenario=1, setting="weird")
    with pytest.raises(InputError):
        ScenarioConfig(scenario=1, setting="normal_location", classifier="svm")
    with pytest.raises(InputError):
        ScenarioConfig(scenario=2, setting="symmetric", delta_grid=(-1.0,))
    with pytest.raises(InputError):
        ScenarioConfig(scenario=3, setting="symmetric", delta_grid=(1.0, math.nan))
    with pytest.raises(InputError):
        ScenarioConfig(scenario=3, setting="symmetric", delta_grid=())
    with pytest.raises(InputError):
        ScenarioConfig(scenario=2, setting="symmetric", delta_grid=(0.5, 0.5))
    with pytest.raises(InputError):
        ScenarioConfig(scenario=1, setting="normal_location", reps=0)
    with pytest.raises(InputError):
        ScenarioConfig(scenario=1, setting="normal_location", delta_grid=(1.0,))
    with pytest.raises(InputError):
        ScenarioConfig(scenario=4, setting="foo")
    for scenario, setting, deltas in (
        (1, "normal_location", ()),
        (2, "symmetric", (1.0,)),
        (4, "uniform_quartet", ()),
    ):
        ScenarioConfig(scenario=scenario, setting=setting, delta_grid=deltas)
        with pytest.raises(InputError):
            ScenarioConfig(scenario=scenario, setting=setting, delta_grid=deltas, n_test=0)


@pytest.mark.parametrize(
    "field, value",
    [
        ("master_seed", 1.5),
        ("master_seed", True),
        ("reps", 1.5),
        ("n_train", 10.0),
        ("n_train", 0),
        ("n_test", 31.5),
        ("degree", 2.0),
        ("degree", 11),
        ("budget", 0.5),
        ("budget", True),
        ("method", "bogus"),
    ],
)
def test_config_rejects_bad_fields_before_running(field, value):
    with pytest.raises(InputError, match=field):
        default_config(4, **{field: value})


@pytest.mark.parametrize(
    "overrides",
    [
        dict(sigma_grid=("a",)),
        dict(sigma_grid=(None,)),
        dict(sigma_grid=(0.0,)),
        dict(sigma_grid=(math.nan,)),
        dict(sigma_grid=(1.0, math.inf)),
        dict(method="simplicial", sigma_grid=(1.0, 2.0)),
        dict(sigma_grid=(1.0, 1.0)),
    ],
)
def test_config_rejects_bad_sigma_grid_before_running(overrides):
    with pytest.raises(InputError, match="sigma"):
        default_config(4, **overrides)


def test_result_row_aggregates():
    row = ResultRow(
        scenario=4,
        setting="uniform_quartet",
        sigma_or_delta=2.0,
        rates=np.array([0.1, 0.2, 0.3]),
        outsider_rates=np.array([np.nan, 0.5, 0.25]),
    )
    assert row.mean == pytest.approx(0.2)
    assert row.sd == pytest.approx(0.1)
    assert row.median == pytest.approx(0.2)
    assert row.outsider_mean == pytest.approx(0.375)
    assert row.reps == 3
    with pytest.raises(InputError):
        ResultRow(4, "s", 1.0, np.array([1.2]), np.array([0.0]))


@pytest.mark.filterwarnings("error")
def test_all_nan_row_aggregates_to_nan_without_warnings():
    nan = np.array([np.nan, np.nan])
    row = ResultRow(3, "symmetric|sigma=1", 1.0, nan, nan)
    assert math.isnan(row.median)
    assert math.isnan(row.quantile(0.25))
    assert math.isnan(json.loads(ResultTable([row]).to_json())["rows"][0]["q75"])


def test_scenario_tables_are_reproducible():
    cfg = default_config(
        4, n_train=30, n_test=60, reps=3, sigma_grid=(1.0, 3.0)
    )
    t1 = run_scenario(cfg)
    t2 = run_scenario(cfg)
    assert t1.to_csv() == t2.to_csv()
    assert t1.to_json() == t2.to_json()
    obj = json.loads(t1.to_json())
    assert len(obj["rows"]) == 2
    for row in obj["rows"]:
        assert 0.0 <= row["mean"] <= 1.0


def test_scenario_two_runs_and_improves_with_sigma():
    cfg = default_config(
        2,
        n_train=40,
        n_test=150,
        reps=4,
        sigma_grid=(1.0, 2.0),
        delta_grid=(2.0,),
    )
    table = run_scenario(cfg)
    base = table.row("symmetric|sigma=1", 2.0)
    wide = table.row("symmetric|sigma=2", 2.0)
    assert wide.mean <= base.mean + 0.05
    with pytest.raises(KeyError):
        table.row("symmetric|sigma=9", 2.0)


def test_scenario_three_baseline_rows_present():
    cfg = default_config(
        3,
        n_train=40,
        n_test=80,
        reps=2,
        sigma_grid=(3.0,),
        delta_grid=(1.0,),
    )
    table = run_scenario(cfg)
    names = set(table.settings())
    assert "symmetric|sigma=3" in names
    assert any("baseline" in s for s in names)


def test_scenario_four_recovers_the_sigma_sweet_spot():
    cfg = default_config(4, n_train=60, n_test=200, reps=6, sigma_grid=(1.0, 3.0))
    table = run_scenario(cfg)
    narrow = table.row("uniform_quartet", 1.0)
    wide = table.row("uniform_quartet", 3.0)
    assert wide.mean < narrow.mean
    assert narrow.mean > 0.3  # sigma 1 cannot reach between the pieces


def test_smallest_covering_sigma_interval_case():
    rng = np.random.default_rng(6)
    train1 = rng.uniform(-2.0, -1.0, size=(200, 1))
    train2 = rng.uniform(1.0, 2.0, size=(200, 1))
    X = rng.uniform(-0.9, 0.9, size=(300, 1))
    sig = smallest_covering_sigma(train1, train2, X)
    assert 2.5 <= sig <= 4.0
    # every test point gets positive depth from at least one class at sig
    from sigmadepth.depth import DepthConfig, DepthEvaluator

    cfg = DepthConfig(method="simplex_enlarged", sigma=sig)
    d = np.maximum(
        DepthEvaluator(train1, cfg).depths(X), DepthEvaluator(train2, cfg).depths(X)
    )
    assert (d > 0).all()


def test_smallest_covering_sigma_ends_of_the_search():
    """COVER_LO when sigma 1 already covers every query; InputError when no sigma up to COVER_HI_CAP does."""
    rng = np.random.default_rng(6)
    train1 = rng.uniform(-2.0, -1.0, size=(50, 1))
    train2 = rng.uniform(1.0, 2.0, size=(50, 1))
    inside = np.concatenate([np.linspace(-1.8, -1.2, 5), np.linspace(1.2, 1.8, 5)])[:, None]
    assert smallest_covering_sigma(train1, train2, inside) == COVER_LO
    with pytest.raises(InputError, match="no covering sigma"):
        smallest_covering_sigma(train1, train2, [[1000.0]])


@pytest.mark.parametrize("method", ["simplicial", "dist_enlarged_blocks"])
def test_smallest_covering_sigma_rejects_methods_it_cannot_bisect(method):
    """Refused up front: simplicial depth has no sigma, and a distribution method no shown monotonicity."""
    from sigmadepth.depth import DepthConfig

    rng = np.random.default_rng(6)
    train1 = rng.uniform(-2.0, -1.0, size=(200, 1))
    train2 = rng.uniform(1.0, 2.0, size=(200, 1))
    X = rng.uniform(-0.9, 0.9, size=(300, 1))
    with pytest.raises(InputError, match="simplex_enlarged"):
        smallest_covering_sigma(train1, train2, X, DepthConfig(method=method))


@pytest.mark.parametrize("case", ["interval", "mc2d"])
def test_smallest_covering_sigma_reuses_one_evaluator_per_class(case, monkeypatch):
    """Same answer as two fresh evaluators per probe, from two evaluators in all."""
    from sigmadepth.depth import DepthConfig, DepthEvaluator

    rng = np.random.default_rng(6)
    if case == "interval":
        train1 = rng.uniform(-2.0, -1.0, size=(200, 1))
        train2 = rng.uniform(1.0, 2.0, size=(200, 1))
        X = rng.uniform(-0.9, 0.9, size=(300, 1))
        cfg = DepthConfig(method="simplex_enlarged")
    else:
        train1 = rng.standard_normal((30, 2)) - [3.0, 0.0]
        train2 = rng.standard_normal((30, 2)) + [3.0, 0.0]
        X = rng.standard_normal((40, 2)) * [1.0, 2.0]
        cfg = DepthConfig(method="simplex_enlarged", budget=3000, seed=11)
    want = smallest_covering_sigma_rebuild(train1, train2, X, cfg)
    assert want > 1.0  # the search brackets and bisects

    built = []
    init = DepthEvaluator.__init__

    def counted(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(DepthEvaluator, "__init__", counted)
    assert smallest_covering_sigma(train1, train2, X, cfg) == want
    assert len(built) == 2


def test_full_scale_config_scales_up():
    desk = default_config(4)
    full = full_scale_config(4)
    assert full.n_train == 1000 and full.reps == 1000
    assert desk.sigma_grid == full.sigma_grid
    assert full_scale_config(2).delta_grid[0] == pytest.approx(0.1)
