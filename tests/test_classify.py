"""Tests for the max-depth and DD-plot classifiers."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from oracle import hull_contains_exact

import sigmadepth
from sigmadepth.classify import (
    DDModel,
    _row_hashes,
    classify_points,
    depth_rows,
    fit_dd,
    max_depth_classify_batch,
    misclassification_rate,
    outsider_mask,
    predict_dd_points,
)
from sigmadepth.depth import DepthConfig, DepthEvaluator
from sigmadepth.errors import InputError
from sigmadepth.geometry import DEFAULT_EPS, GeomTolerance, convex_hull_contains_many

CFG = DepthConfig(method="simplex_enlarged", sigma=2.0)


def rule_loss(slope, d1, d2, labels):
    margins = d2 - slope * d1
    is2 = labels == 2
    wrong = np.where(margins > 0, ~is2, is2).astype(float)
    wrong[margins == 0] = 0.5
    return float(wrong.mean())


def interval_depths(cfg, X):
    """Depths of X in the training intervals [0, 1] (class 1) and [10, 11] (class 2)."""
    return (
        DepthEvaluator([[0.0], [1.0]], cfg).depths(X),
        DepthEvaluator([[10.0], [11.0]], cfg).depths(X),
    )


def test_max_depth_separated_intervals():
    X = [[0.5], [10.5]]
    assert max_depth_classify_batch(*interval_depths(CFG, X), X).tolist() == [1, 2]


def test_max_depth_midpoint_needs_enough_dilation():
    """Halfway between the intervals: sigma decides reach, then ties coin."""
    # sigma 10: [0,1] stretches to [-4.5, 5.5] and covers 5, [10,11] does not
    ten = interval_depths(DepthConfig(method="simplex_enlarged", sigma=10.0), [[5.0]])
    assert max_depth_classify_batch(*ten, [[5.0]])[0] == 1
    # sigma 12: both dilations cover 5, so the call resolves a (1, 1) tie
    twelve = interval_depths(DepthConfig(method="simplex_enlarged", sigma=12.0), [[5.0]])
    got = {int(max_depth_classify_batch(*twelve, [[5.0]], tie_seed=s)[0]) for s in range(8)}
    assert got <= {1, 2} and len(got) == 2


def test_tie_coin_is_roughly_fair_across_seeds():
    twelve = interval_depths(DepthConfig(method="simplex_enlarged", sigma=12.0), [[5.0]])
    hits = sum(
        max_depth_classify_batch(*twelve, [[5.0]], tie_seed=s)[0] == 1
        for s in range(10_000)
    )
    assert 0.47 <= hits / 10_000 <= 0.53


def test_tie_coin_is_independent_of_the_batch():
    """A tied row's coin is the one it gets alone, wherever it sits in the batch."""
    rng = np.random.default_rng(11)
    X = rng.integers(-3, 4, size=(200, 2)) / 2.0  # 49 distinct rows, many duplicates
    zeros = np.zeros(len(X))
    batch = max_depth_classify_batch(zeros, zeros, X, tie_seed=9)
    alone = [max_depth_classify_batch([0.0], [0.0], x[None], tie_seed=9)[0] for x in X]
    assert np.array_equal(batch, alone)
    perm = rng.permutation(len(X))
    assert np.array_equal(max_depth_classify_batch(zeros, zeros, X[perm], tie_seed=9), batch[perm])
    assert len(set(batch.tolist())) == 2


def test_tie_coin_stream_is_pinned():
    """Regression guard on the coin stream: rows x tie seeds 0-7."""
    rows = np.array([[0.0, 0.0], [1.5, -2.25], [1e6, 3.125]])
    zeros = np.zeros(len(rows))
    got = np.array([max_depth_classify_batch(zeros, zeros, rows, tie_seed=s) for s in range(8)]).T
    assert got.tolist() == [
        [2, 1, 1, 2, 2, 2, 2, 2],
        [2, 2, 1, 1, 1, 2, 1, 1],
        [1, 2, 1, 1, 2, 1, 1, 2],
    ]


def test_tie_coin_treats_signed_zeros_as_one_point():
    for s in range(64):
        plus, minus = (
            max_depth_classify_batch([0.0], [0.0], [[x, 1.0]], tie_seed=s)[0] for x in (0.0, -0.0)
        )
        assert plus == minus


@pytest.mark.parametrize("bad", [1.5, np.float64(2.0), "x", None, True, -1])
def test_tie_seed_must_be_a_nonnegative_integer(bad):
    with pytest.raises(InputError, match="tie_seed"):
        max_depth_classify_batch([0.0], [1.0], [[0.0]], tie_seed=bad)
    with pytest.raises(InputError, match="tie_seed"):
        DDModel(1, [1.0], tie_seed=bad)


@pytest.mark.parametrize("degree", [True, 2.0, np.float64(1.0), "1", 0, 11])
def test_dd_model_degree_must_be_an_integer_in_range(degree):
    """DDModel checks its degree as fit_dd does: a bool or an integral float is refused."""
    with pytest.raises(InputError, match="degree must"):
        DDModel(degree, [1.0] * min(max(int(degree), 1), 11))
    assert DDModel(np.int64(2), [1.0, 2.0]).degree == 2


def test_tie_seed_accepts_numpy_and_large_integers():
    X = [[0.25], [4.0]]
    for s in (np.int64(5), np.uint64(2**63 + 1), 2**70):
        assert max_depth_classify_batch([0.0, 0.0], [0.0, 0.0], X, tie_seed=s).shape == (2,)
    assert DDModel(1, [1.0], tie_seed=np.int32(3)).tie_seed == 3


def test_batch_matches_scalar_rule():
    """The rule on X equals the rule on each one-row slice of X."""
    rng = np.random.default_rng(3)
    train1 = rng.standard_normal((20, 2))
    train2 = rng.standard_normal((20, 2)) + 1.5
    X = rng.standard_normal((15, 2)) + 0.7
    ev1 = DepthEvaluator(train1, CFG)
    ev2 = DepthEvaluator(train2, CFG)
    batch = max_depth_classify_batch(ev1.depths(X), ev2.depths(X), X, tie_seed=4)
    rows = [
        max_depth_classify_batch(ev1.depths(x[None]), ev2.depths(x[None]), x[None], tie_seed=4)[0]
        for x in X
    ]
    assert np.array_equal(batch, rows)


def test_classify_points_applies_the_named_rule():
    rng = np.random.default_rng(3)
    train1 = rng.standard_normal((20, 2))
    train2 = rng.standard_normal((20, 2)) + 1.5
    X = rng.standard_normal((15, 2)) + 0.7
    ev1 = DepthEvaluator(train1, CFG)
    ev2 = DepthEvaluator(train2, CFG)
    kw = dict(degree=3, restarts=2, seed=5, tie_seed=4)

    def args(classifier):
        rows, labels = depth_rows(train1, train2, X, classifier)
        return ev1.depths(rows), ev2.depths(rows), labels, X, classifier

    assert np.array_equal(
        classify_points(*args("maxdepth"), **kw),
        max_depth_classify_batch(ev1.depths(X), ev2.depths(X), X, tie_seed=4),
    )
    labels = np.repeat([1, 2], 20)
    both = np.vstack([train1, train2])
    model = fit_dd(ev1.depths(both), ev2.depths(both), labels, degree=1, tie_seed=4)
    assert np.array_equal(
        classify_points(*args("dd-linear"), **kw),
        predict_dd_points(model, ev1.depths(X), ev2.depths(X), X),
    )
    with pytest.raises(InputError):
        classify_points(*args("dd-linear")[:4], "svm", **kw)


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
    X = np.array([[0.0, 0.0], [1.0, 1.0]])
    assert predict_dd_points(model, [0.9, 0.1], [0.1, 0.9], X).tolist() == [1, 2]


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
    with pytest.raises(InputError):
        fit_dd(d, d, np.array([1, 2, 1]), degree=2.5)
    with pytest.raises(InputError):
        fit_dd(d, d, np.array([1, 2, 1]), degree=2, restarts=1.5)


def test_boundary_is_polynomial_through_origin():
    model = DDModel(3, np.array([0.5, -0.25, 2.0]))
    xs = np.array([0.0, 0.4, 1.0])
    expected = 0.5 * xs - 0.25 * xs**2 + 2.0 * xs**3
    assert np.allclose(model.boundary(xs), expected)
    assert model.boundary(np.array([0.0]))[0] == 0.0


def test_predict_is_deterministic():
    model = DDModel(1, np.array([1.0]), tie_seed=3)
    X = np.array([[0.5, -1.0], [2.0, 3.0], [7.0, 7.0]])
    d1, d2 = [0.2, 0.3, 0.0], [0.3, 0.2, 0.0]
    assert predict_dd_points(model, d1, d2, X)[:2].tolist() == [2, 1]
    tie = [int(predict_dd_points(model, d1, d2, X)[2]) for _ in range(5)]
    assert len(set(tie)) == 1 and tie[0] in (1, 2)


def test_predict_points_gives_each_tied_point_its_own_flip():
    model = DDModel(1, np.array([1.0]), tie_seed=0)
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


def test_max_depth_is_the_diagonal_dd_rule():
    rng = np.random.default_rng(5)
    X = rng.integers(-3, 4, size=(400, 2)).astype(float)
    # Depths on a coarse grid tie often; the first 50 rows are (0, 0) outsiders.
    v1 = rng.integers(0, 4, size=len(X)) / 4.0
    v2 = rng.integers(0, 4, size=len(X)) / 4.0
    v1[:50] = v2[:50] = 0.0
    assert (v1 == v2).sum() > 100
    for s in (0, 1, 7, 2**40 + 3):
        assert np.array_equal(
            max_depth_classify_batch(v1, v2, X, s),
            predict_dd_points(DDModel(1, [1.0], s), v1, v2, X),
        )


def test_both_rules_reject_non_finite_depths():
    X = [[0.0], [1.0]]
    for bad in ([np.nan, 0.5], [0.5, np.inf]):
        with pytest.raises(InputError):
            max_depth_classify_batch(bad, [0.5, 0.5], X)
        with pytest.raises(InputError):
            predict_dd_points(DDModel(1, [1.0]), [0.5, 0.5], bad, X)


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


def test_outsider_mask_nearly_flat_cloud():
    """A cloud Qhull rejects though one point is 1e-7 off its extreme segment keeps that point inside."""
    from scipy.spatial import ConvexHull, QhullError

    t = np.linspace(0.0, 1.0, 7)
    cloud = 1e8 + np.column_stack([t, t])
    cloud[3, 1] += 1e-7
    with pytest.raises(QhullError):
        ConvexHull(cloud)
    assert not outsider_mask(cloud, cloud + [10.0, 0.0], cloud).any()


@pytest.mark.parametrize("base", [1e4, 1e6])
def test_outsider_mask_decimal_collinear_cloud(base):
    """A collinear cloud written to one decimal gets the exact hull masks without the LP.

    The points (base + 0.1a, 2 base + 0.3a), a = 0..8, lie up to about
    1e-12 off the segment between their extremes, off it at eps 0 but
    within the default eps.  Qhull rejects the cloud, the polygon rule
    decides it, and in a fresh interpreter scipy.optimize stays unloaded.
    """
    from scipy.spatial import ConvexHull, QhullError

    cloud = np.array([[float(f"{base + 0.1 * a:.1f}"), float(f"{2 * base + 0.3 * a:.1f}")] for a in range(9)])
    other = cloud + [0.0, 10.0]
    seg = cloud[[0, -1, -1]]
    with pytest.raises(QhullError):
        ConvexHull(cloud)
    assert not convex_hull_contains_many(seg, cloud, GeomTolerance(eps=0.0)).all()
    span = cloud[-1] - cloud[0]
    X = np.vstack(
        [
            cloud,
            other,
            (cloud[:-1] + cloud[1:]) / 2,
            cloud[0] + [[-0.5], [-0.01], [1.01], [1.5]] * span,
            cloud + [0.0, 1e-3],
            cloud - [1e-6, 0.0],
            cloud[4] + [[0.5, 0.0], [0.0, 5.0], [3.0, -3.0]],
        ]
    )
    inside = zip(hull_contains_exact(cloud, X, DEFAULT_EPS), hull_contains_exact(other, X, DEFAULT_EPS))
    want = [not (a or b) for a, b in inside]
    assert {True, False} <= set(want)

    src = str(Path(sigmadepth.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = (
        "import json, sys, numpy as np, sigmadepth as sd\n"
        "cloud, other, X = (np.array(a) for a in json.loads(sys.stdin.read()))\n"
        "print(json.dumps([sd.outsider_mask(cloud, other, X).tolist(), 'scipy.optimize' in sys.modules]))"
    )
    arrays = json.dumps([cloud.tolist(), other.tolist(), X.tolist()])
    out = subprocess.run([sys.executable, "-c", code], input=arrays, env=env, capture_output=True, text=True, check=True)
    assert json.loads(out.stdout) == [want, False]


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


def stable_hash(values) -> int:
    """64-bit content hash of a float array: the tie coins' row hash at seed 0."""
    return int(_row_hashes(0, np.asarray(values, dtype=float).reshape(1, -1))[0])


def test_stable_hash_is_reproducible():
    a = stable_hash([0.5, -1.25])
    assert a == stable_hash([0.5, -1.25])
    assert a != stable_hash([0.5, -1.2500001])
    assert isinstance(a, int)
