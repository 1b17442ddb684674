"""Tests for the max-depth and DD-plot classifiers."""

import numpy as np
import pytest

from sigmadepth.classify import (
    DDModel,
    classify_points,
    fit_dd,
    max_depth_classify,
    max_depth_classify_batch,
    misclassification_rate,
    outsider_mask,
    predict_dd,
    predict_dd_points,
    stable_hash,
)
from sigmadepth.depth import DepthConfig, DepthEvaluator
from sigmadepth.errors import InputError

CFG = DepthConfig(method="simplex_enlarged", sigma=2.0)


def rule_loss(slope, d1, d2, labels):
    margins = d2 - slope * d1
    is2 = labels == 2
    wrong = np.where(margins > 0, ~is2, is2).astype(float)
    wrong[margins == 0] = 0.5
    return float(wrong.mean())


def test_max_depth_separated_intervals():
    train1 = np.array([[0.0], [1.0]])
    train2 = np.array([[10.0], [11.0]])
    assert max_depth_classify(train1, train2, [0.5], CFG) == 1
    assert max_depth_classify(train1, train2, [10.5], CFG) == 2


def test_max_depth_midpoint_needs_enough_dilation():
    """Halfway between the intervals: sigma decides reach, then ties coin."""
    train1 = np.array([[0.0], [1.0]])
    train2 = np.array([[10.0], [11.0]])
    # sigma 10: [0,1] stretches to [-4.5, 5.5] and covers 5, [10,11] does not
    ten = DepthConfig(method="simplex_enlarged", sigma=10.0)
    assert max_depth_classify(train1, train2, [5.0], ten) == 1
    # sigma 12: both dilations cover 5, so the call resolves a (1, 1) tie
    twelve = DepthConfig(method="simplex_enlarged", sigma=12.0)
    got = {max_depth_classify(train1, train2, [5.0], twelve, tie_seed=s) for s in range(8)}
    assert got <= {1, 2} and len(got) == 2


def test_tie_coin_is_roughly_fair_across_seeds():
    train1 = np.array([[0.0], [1.0]])
    train2 = np.array([[10.0], [11.0]])
    twelve = DepthConfig(method="simplex_enlarged", sigma=12.0)
    hits = sum(
        max_depth_classify(train1, train2, [5.0], twelve, tie_seed=s) == 1
        for s in range(10_000)
    )
    assert 0.47 <= hits / 10_000 <= 0.53


def test_batch_matches_scalar_rule():
    rng = np.random.default_rng(3)
    train1 = rng.standard_normal((20, 2))
    train2 = rng.standard_normal((20, 2)) + 1.5
    X = rng.standard_normal((15, 2)) + 0.7
    ev1 = DepthEvaluator(train1, CFG)
    ev2 = DepthEvaluator(train2, CFG)
    batch = max_depth_classify_batch(ev1, ev2, X, tie_seed=4)
    scalar = [max_depth_classify(train1, train2, x, CFG, tie_seed=4) for x in X]
    assert np.array_equal(batch, scalar)


def test_classify_points_applies_the_named_rule():
    rng = np.random.default_rng(3)
    train1 = rng.standard_normal((20, 2))
    train2 = rng.standard_normal((20, 2)) + 1.5
    X = rng.standard_normal((15, 2)) + 0.7
    ev1 = DepthEvaluator(train1, CFG)
    ev2 = DepthEvaluator(train2, CFG)
    args = (ev1, ev2, train1, train2, X)
    kw = dict(degree=3, restarts=2, seed=5, tie_seed=4)
    assert np.array_equal(
        classify_points(*args, "maxdepth", **kw),
        max_depth_classify_batch(ev1, ev2, X, tie_seed=4),
    )
    labels = np.repeat([1, 2], 20)
    both = np.vstack([train1, train2])
    model = fit_dd(ev1.depths(both), ev2.depths(both), labels, degree=1, tie_seed=4)
    assert np.array_equal(
        classify_points(*args, "dd-linear", **kw),
        predict_dd_points(model, ev1.depths(X), ev2.depths(X), X),
    )
    with pytest.raises(InputError):
        classify_points(*args, "svm", **kw)


def test_linear_fit_attains_bruteforce_optimum():
    rng = np.random.default_rng(0)
    for trial in range(20):
        n = int(rng.integers(6, 50))
        d1 = rng.uniform(0.0, 1.0, n)
        d2 = rng.uniform(0.0, 1.0, n)
        d1[rng.random(n) < 0.2] = 0.0  # outsider-style zeros
        labels = rng.integers(1, 3, n)
        if len(set(labels)) < 2:
            labels[0] = 1
            labels[1] = 2
        model = fit_dd(d1, d2, labels, degree=1)
        fit_loss = rule_loss(model.coefficients[0], d1, d2, labels)
        grid = np.concatenate(
            [np.linspace(0.0, 30.0, 4001), d2[d1 > 0] / d1[d1 > 0] if (d1 > 0).any() else []]
        )
        brute = min(rule_loss(s, d1, d2, labels) for s in grid)
        assert fit_loss <= brute + 1e-12, trial


def test_linear_fit_separable_is_perfect():
    d1 = np.array([0.8, 0.7, 0.9, 0.1, 0.2, 0.15])
    d2 = np.array([0.1, 0.2, 0.05, 0.8, 0.9, 0.7])
    labels = np.array([1, 1, 1, 2, 2, 2])
    model = fit_dd(d1, d2, labels, degree=1)
    assert rule_loss(model.coefficients[0], d1, d2, labels) == 0.0
    assert predict_dd(model, 0.9, 0.1) == 1
    assert predict_dd(model, 0.1, 0.9) == 2


def test_fit_never_beats_majority_from_noise():
    rng = np.random.default_rng(8)
    n = 200
    d1 = rng.uniform(size=n)
    d2 = rng.uniform(size=n)
    labels = rng.integers(1, 3, n)
    model = fit_dd(d1, d2, labels, degree=1)
    assert rule_loss(model.coefficients[0], d1, d2, labels) <= 0.5


def test_poly_fit_no_worse_than_linear():
    rng = np.random.default_rng(5)
    n = 60
    d1 = rng.uniform(size=n)
    d2 = rng.uniform(size=n)
    labels = np.where(d2 > 0.3 * d1 + 0.4 * d1**2, 2, 1)
    flips = rng.random(n) < 0.1
    labels[flips] = 3 - labels[flips]
    lin = fit_dd(d1, d2, labels, degree=1)
    poly = fit_dd(d1, d2, labels, degree=2, restarts=6, seed=1)
    lin_loss = rule_loss(lin.coefficients[0], d1, d2, labels)
    margins = d2 - (poly.coefficients[0] * d1 + poly.coefficients[1] * d1**2)
    is2 = labels == 2
    wrong = np.where(margins > 0, ~is2, is2).astype(float)
    wrong[margins == 0] = 0.5
    assert wrong.mean() <= lin_loss + 1e-12
    assert poly.degree == 2


def test_fit_validation():
    d = np.array([0.1, 0.2, 0.3])
    with pytest.raises(InputError):
        fit_dd(d, d, np.array([1, 1, 1]))
    with pytest.raises(InputError):
        fit_dd(d, d, np.array([1, 2, 5]))
    with pytest.raises(InputError):
        fit_dd(d, d[:2], np.array([1, 2]))
    with pytest.raises(InputError):
        fit_dd(d, d, np.array([1, 2, 1]), degree=11)
    with pytest.raises(InputError):
        fit_dd(d, d, np.array([1, 2, 1]), restarts=0)


def test_boundary_is_polynomial_through_origin():
    model = DDModel(3, np.array([0.5, -0.25, 2.0]), CFG)
    xs = np.array([0.0, 0.4, 1.0])
    expected = 0.5 * xs - 0.25 * xs**2 + 2.0 * xs**3
    assert np.allclose(model.boundary(xs), expected)
    assert model.boundary(np.array([0.0]))[0] == 0.0


def test_model_json_round_trip():
    cfg = DepthConfig(method="dist_enlarged_blocks", sigma=3.0, budget=500, seed=9)
    model = DDModel(2, np.array([1.5, -0.5]), cfg, tie_seed=7)
    back = DDModel.from_json(model.to_json())
    assert back.degree == 2
    assert np.array_equal(back.coefficients, model.coefficients)
    assert back.depth_cfg == cfg
    assert back.tie_seed == 7
    with pytest.raises(InputError):
        DDModel.from_json("{\"degree\": 1}")


def test_predict_is_deterministic():
    model = DDModel(1, np.array([1.0]), CFG, tie_seed=3)
    assert predict_dd(model, 0.2, 0.3) == 2
    assert predict_dd(model, 0.3, 0.2) == 1
    tie = [predict_dd(model, 0.0, 0.0) for _ in range(5)]
    assert len(set(tie)) == 1 and tie[0] in (1, 2)


def test_predict_points_gives_each_tied_point_its_own_flip():
    model = DDModel(1, np.array([1.0]), CFG, tie_seed=0)
    rng = np.random.default_rng(2)
    X = rng.standard_normal((2000, 2)) * 5.0
    zeros = np.zeros(len(X))
    pred = predict_dd_points(model, zeros, zeros, X)
    frac1 = np.mean(pred == 1)
    assert 0.45 <= frac1 <= 0.55
    again = predict_dd_points(model, zeros, zeros, X)
    assert np.array_equal(pred, again)
    with pytest.raises(InputError):
        predict_dd_points(model, zeros[:5], zeros, X)


def test_outsider_mask_triangles():
    train1 = np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0]])
    train2 = np.array([[5.0, 5.0], [7.0, 5.0], [5.0, 7.0]])
    test = np.array(
        [[0.5, 0.5], [5.5, 5.5], [3.5, 3.5], [0.0, 0.0], [100.0, 0.0]]
    )
    mask = outsider_mask(train1, train2, test)
    assert mask.tolist() == [False, False, True, False, True]


def test_outsider_mask_handles_degenerate_hulls():
    line = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
    far = np.array([[10.0, 0.0], [11.0, 0.0], [10.0, 1.0]])
    test = np.array([[1.5, 1.5], [1.5, 1.6]])
    mask = outsider_mask(line, far, test)
    assert mask.tolist() == [False, True]


def test_outsider_mask_large_collinear_cloud():
    """A flat training cloud of many points needs memory linear in its size."""
    t = np.linspace(0.0, 1.0, 20_000)
    line = np.column_stack([t, 2.0 * t])
    far = np.array([[10.0, 0.0], [11.0, 0.0], [10.0, 1.0]])
    test = np.array([[0.5, 1.0], [0.5, 1.1], [2.0, 4.0], [-1.0, 0.0]])
    assert outsider_mask(line, far, test).tolist() == [False, True, True, True]


def test_outsider_mask_one_dimensional():
    t1 = np.array([[0.0], [1.0]])
    t2 = np.array([[5.0], [6.0]])
    mask = outsider_mask(t1, t2, np.array([[0.5], [3.0], [6.0]]))
    assert mask.tolist() == [False, True, False]
    with pytest.raises(InputError):
        outsider_mask(t1, np.zeros((2, 2)), np.array([[0.0]]))


def test_misclassification_rate_basics():
    assert misclassification_rate([1, 2, 1, 2], [1, 2, 2, 2]) == 0.25
    assert misclassification_rate([1], [1]) == 0.0
    with pytest.raises(InputError):
        misclassification_rate([1, 2], [1])
    with pytest.raises(InputError):
        misclassification_rate([], [])


def test_stable_hash_is_reproducible():
    a = stable_hash([0.5, -1.25])
    assert a == stable_hash([0.5, -1.25])
    assert a != stable_hash([0.5, -1.2500001])
    assert isinstance(a, int)
