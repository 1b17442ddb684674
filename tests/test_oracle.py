"""Tests for the brute-force and analytic reference implementations."""

import math

import numpy as np
import pytest

from sigmadepth.depth import DepthConfig, compute_depth
from sigmadepth.errors import InputError, InsufficientDataError

from oracle import (
    analytic_depth_1d_uniform,
    hull_distance_lp_exact,
    hull_distances_exact,
    naive_full_depth,
    two_interval_depth_quadrature,
)


def test_naive_counts_every_ordered_tuple():
    data = np.array([[0.0], [1.0], [2.0], [3.0]])
    rep = naive_full_depth(data, [1.5], 2.0)
    assert rep.method == "enumeration"
    assert rep.work == math.perm(4, 4)


def test_naive_identical_points_give_full_depth():
    # four copies of one point: every combined simplex degenerates there
    rep = naive_full_depth(np.zeros((4, 1)), [0.0], 2.0)
    assert rep.value == 1.0


def test_naive_far_query_gives_zero():
    data = np.array([[0.0], [0.5], [1.0], [1.5]])
    assert naive_full_depth(data, [50.0], 2.0).value == 0.0


def test_naive_guards():
    with pytest.raises(InputError):
        naive_full_depth(np.zeros((11, 1)) + np.arange(11)[:, None], [0.0], 2.0)
    with pytest.raises(InputError):
        naive_full_depth(np.random.default_rng(0).normal(size=(9, 3)), [0, 0, 0], 2.0)
    with pytest.raises(InsufficientDataError):
        naive_full_depth(np.array([[0.0], [1.0], [2.0]]), [0.5], 2.0)


@pytest.mark.parametrize("n", [4, 5, 6])
@pytest.mark.parametrize("sigma", [1.0, 2.0, 5.0])
def test_full_estimator_matches_naive_1d(n, sigma):
    """Reduced exact enumeration equals the ordered-tuple count, bitwise."""
    rng = np.random.default_rng(1000 * n + int(sigma))
    data = rng.standard_normal((n, 1))
    for x in (-0.5, 0.0, 0.4, 2.0):
        cfg = DepthConfig(method="dist_enlarged_full", sigma=sigma)
        est = compute_depth(data, [x], cfg)
        ref = naive_full_depth(data, [x], sigma)
        assert est.value == ref.value


@pytest.mark.parametrize("n,sigma", [(9, 1.0), (9, 2.0), (9, 5.0), (10, 2.0)])
def test_full_estimator_matches_naive_2d(n, sigma):
    rng = np.random.default_rng(17 * n + int(sigma))
    data = rng.standard_normal((n, 2))
    x = rng.standard_normal(2) * 0.5
    cfg = DepthConfig(method="dist_enlarged_full", sigma=sigma)
    est = compute_depth(data, x, cfg)
    ref = naive_full_depth(data, x, sigma)
    assert est.value == ref.value
    # the reduced enumeration revisits each configuration 48x less often
    assert ref.work == 48 * est.simplices_evaluated


def _small_hull_cases():
    """36 vertex sets of 1 to d + 1 points on a small grid (d = 1, 2, 3), with repeats and
    flat ones; the queries sit on a quarter grid around them or 1e-9 off a vertex."""
    rng = np.random.default_rng(2)
    for case in range(36):
        d = 1 + case % 3
        k = 1 + (case // 3) % (d + 1)
        V = rng.integers(-2, 3, (k, d)).astype(float)
        if k > 1 and case % 4 == 0:
            V[-1] = V[0]
        if k > 2 and case % 5 == 0:
            V[-1] = 2 * V[1] - V[0]
        near = V[0] + rng.choice([-2e-9, 1e-9, 3e-9], d)
        yield V, np.vstack([rng.integers(-12, 13, (1 if d == 3 else 2, d)) / 4, near])


def test_exact_hull_distance_matches_vertex_enumeration_lp():
    """The cross-product distance equals the optimum of the exact LP on every query:
    inside, within 1e-8, and farther."""
    sizes, kinds = set(), set()
    for V, X in _small_hull_cases():
        sizes.add(V.shape)
        fast = hull_distances_exact(V, X)
        assert fast == [hull_distance_lp_exact(V, x) for x in X]
        kinds.update((dist > 0) + (dist > 1e-8) for dist in fast)
    assert len(sizes) == 9 and kinds == {0, 1, 2}


def test_exact_hull_distance_of_an_lp_false_inside():
    """A query the float LP accepts at eps 1e-9 is 1.2e-9 from the flat tetrahedron."""
    V = np.array([[2.0, 0.0, 0.0], [-1.0, -1.0, 2.0], [0.0, 0.0, 1.0], [1.0, 1.0, 0.0]])
    x = np.array([0.5, -0.5, 1 + 2e-9])
    (dist,) = hull_distances_exact(V, [x])
    assert dist == hull_distance_lp_exact(V, x)
    assert 1.19e-9 < dist < 1.21e-9


def test_analytic_uniform_parabola():
    assert analytic_depth_1d_uniform(0.5) == 0.5
    assert analytic_depth_1d_uniform(0.25) == pytest.approx(0.375)
    assert analytic_depth_1d_uniform(0.0) == 0.0
    assert analytic_depth_1d_uniform(-3.0) == 0.0
    assert analytic_depth_1d_uniform(1.0) == 0.0


def test_quadrature_converges_under_doubling():
    coarse = two_interval_depth_quadrature(1.0, 2.0, 0.5, 2.0, cells=400)
    fine = two_interval_depth_quadrature(1.0, 2.0, 0.5, 2.0, cells=800)
    assert abs(coarse.value - fine.value) < 1e-3
    assert coarse.method == "quadrature"
    assert coarse.work == (2 * 400) ** 2


def test_quadrature_symmetric_about_origin():
    # symmetric up to knife-edge cells at the coverage boundary
    a = two_interval_depth_quadrature(1.3, 2.0, 0.5, 2.0).value
    b = two_interval_depth_quadrature(-1.3, 2.0, 0.5, 2.0).value
    assert a == pytest.approx(b, abs=1e-4)


def test_quadrature_detects_gap_vs_center():
    """Between separated dilated intervals, depth dips below its flanks."""
    gap = two_interval_depth_quadrature(1.0, 2.0, 0.5, 2.0).value
    flank = two_interval_depth_quadrature(2.0, 2.0, 0.5, 2.0).value
    assert flank > gap


def test_quadrature_precondition():
    # eps must not exceed min(sigma-1, 2) * c / sigma
    with pytest.raises(InputError):
        two_interval_depth_quadrature(0.0, 2.0, 1.5, 2.0)
    with pytest.raises(InputError):
        two_interval_depth_quadrature(0.0, -1.0, 0.5, 2.0)
    with pytest.raises(InputError):
        two_interval_depth_quadrature(0.0, 2.0, 0.5, 2.0, cells=1)
