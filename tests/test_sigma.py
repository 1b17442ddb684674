"""Tests for the discrete distribution helpers and the sigma combination."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sigmadepth.errors import InputError, InsufficientDataError, ResourceCapError
from sigmadepth.sigma import (
    DiscreteDistribution,
    affine_image,
    discrete_convolution,
    discrete_sigma_transform,
    merge_close_points,
    point_mass,
    sample_sigma_blocks,
    sigma_combine,
    sigma_covariance_factor,
    uniform_on,
)


def test_sigma_combine_segment():
    # leader 0, companion 1, sigma 2: 2*0 - 1/2*(0+1) = -0.5
    out = sigma_combine([[0.0], [1.0]], 2.0)
    assert np.allclose(out, [-0.5])


def test_sigma_combine_identity_at_one():
    block = np.array([[1.0, 2.0], [3.0, -1.0], [0.0, 0.0]])
    assert np.allclose(sigma_combine(block, 1.0), block[0])


def test_sigma_combine_coincident_block_is_fixed_point():
    block = np.tile([2.0, -3.0], (3, 1))
    for sigma in (1.0, 2.0, 7.5):
        assert np.allclose(sigma_combine(block, sigma), [2.0, -3.0])


def test_sigma_combine_block_size_check():
    with pytest.raises(InputError):
        sigma_combine([[0.0, 0.0], [1.0, 1.0]], 2.0)  # 2 points in R^2


@pytest.mark.parametrize("sigma", [0.0, -2.0, np.nan, np.inf, "a", None])
def test_sigma_combine_rejects_bad_sigma(sigma):
    with pytest.raises(InputError):
        sigma_combine([[0.0], [1.0]], sigma)


def test_sample_sigma_blocks_matches_manual_loop():
    rng = np.random.default_rng(3)
    data = rng.standard_normal((11, 2))
    out = sample_sigma_blocks(data, 2.5)
    assert out.shape == (3, 2)  # floor(11 / 3) blocks, trailing rows dropped
    manual = np.array([sigma_combine(data[3 * i : 3 * i + 3], 2.5) for i in range(3)])
    assert np.array_equal(out, manual)


def test_sample_sigma_blocks_needs_a_full_block():
    with pytest.raises(InsufficientDataError):
        sample_sigma_blocks(np.array([[0.0, 0.0], [1.0, 1.0]]), 2.0)


def test_covariance_factor_values():
    assert sigma_covariance_factor(1, 3.0) == pytest.approx(5.0)
    assert sigma_covariance_factor(2, 2.0) == pytest.approx(3.0)
    assert sigma_covariance_factor(4, 1.0) == pytest.approx(1.0)
    with pytest.raises(InputError):
        sigma_covariance_factor(0, 2.0)


@given(st.integers(1, 5), st.floats(0.1, 8.0))
@settings(max_examples=50, deadline=None)
def test_covariance_factor_formula(d, sigma):
    assert sigma_covariance_factor(d, sigma) == pytest.approx(
        sigma**2 + (1 - sigma**2) / (d + 1)
    )


def test_transform_of_point_mass_is_point_mass():
    P = point_mass([1.0, -2.0])
    T = discrete_sigma_transform(P, 3.0)
    assert len(T.support) == 1
    assert np.allclose(T.support[0], [1.0, -2.0])


def test_transform_two_point_uniform():
    """Four ordered pairs of {0, 1} map to 1.5*a - 0.5*b, each with mass 1/4."""
    P = uniform_on([[0.0], [1.0]])
    T = discrete_sigma_transform(P, 2.0)
    got = sorted(zip(T.support.ravel(), T.weights))
    expected = [(-0.5, 0.25), (0.0, 0.25), (1.0, 0.25), (1.5, 0.25)]
    for (x, w), (ex, ew) in zip(got, expected):
        assert x == pytest.approx(ex)
        assert w == pytest.approx(ew)


@given(st.integers(0, 2**32 - 1), st.sampled_from([1.0, 1.5, 2.0, 4.0]))
@settings(max_examples=25, deadline=None)
def test_transform_preserves_mean_and_scales_cov(seed, sigma):
    rng = np.random.default_rng(seed)
    k, d = 5, 2
    P = uniform_on(rng.standard_normal((k, d)) * [1.0, 2.0])
    T = discrete_sigma_transform(P, sigma)
    assert np.allclose(T.mean(), P.mean(), atol=1e-10)
    factor = sigma_covariance_factor(d, sigma)
    assert np.allclose(T.cov(), factor * P.cov(), atol=1e-10)


def test_transform_respects_cap():
    P = uniform_on(np.arange(6.0)[:, None])
    with pytest.raises(ResourceCapError):
        discrete_sigma_transform(P, 2.0, cap=10)


def test_convolution_of_coin_flips():
    P = uniform_on([[0.0], [1.0]])
    S = discrete_convolution(P, P)
    got = sorted(zip(S.support.ravel(), S.weights))
    assert np.allclose([g[0] for g in got], [0.0, 1.0, 2.0])
    assert np.allclose([g[1] for g in got], [0.25, 0.5, 0.25])


def test_convolution_with_coefficients():
    P = uniform_on([[1.0], [2.0]])
    Q = point_mass([10.0])
    S = discrete_convolution(P, Q, coeffs=(2.0, -1.0))
    got = sorted(S.support.ravel())
    assert np.allclose(got, [-8.0, -6.0])
    assert S.weights.sum() == pytest.approx(1.0)


def test_convolution_dimension_mismatch():
    with pytest.raises(InputError):
        discrete_convolution(point_mass([0.0]), point_mass([0.0, 0.0]))


def test_affine_image_scalar_and_matrix():
    P = uniform_on([[1.0, 0.0], [0.0, 1.0]])
    A = np.array([[0.0, -1.0], [1.0, 0.0]])  # quarter turn
    Q = affine_image(P, A, [1.0, 1.0])
    rows = {tuple(np.round(r, 12)) for r in Q.support}
    assert rows == {(1.0, 2.0), (0.0, 1.0)}
    R = affine_image(P, 2.0, [0.0, 0.0])
    assert np.allclose(sorted(R.support[:, 0]), [0.0, 2.0])


def test_affine_image_merges_collapsed_atoms():
    P = uniform_on([[-1.0], [1.0]])
    Q = affine_image(P, 0.0, [5.0])
    assert len(Q.support) == 1
    assert Q.weights[0] == pytest.approx(1.0)


def test_distribution_validation():
    with pytest.raises(InputError):
        DiscreteDistribution(np.zeros((2, 1)), np.array([0.5, 0.5]))  # duplicate atoms
    with pytest.raises(InputError):
        DiscreteDistribution(np.array([[0.0], [1.0]]), np.array([0.7, 0.7]))
    with pytest.raises(InputError):
        DiscreteDistribution(np.array([[0.0], [1.0]]), np.array([1.5, -0.5]))


def test_distribution_rejects_near_duplicates_split_by_the_sort():
    """(0.1, 0) and (0.1 + 1e-15, 0) coincide within tol; (0.1, 1) sorts between them."""
    with pytest.raises(InputError):
        DiscreteDistribution(
            np.array([[0.1, 0.0], [0.1, 1.0], [0.1 + 1e-15, 0.0]]), np.full(3, 1 / 3)
        )


def test_merge_close_points_groups_rows_within_tol_whatever_sorts_between():
    pts = np.array([[0.1, 0.0], [0.1, 1.0], [0.1 + 1e-15, 0.0], [0.2, 0.0]])
    wts = np.array([0.125, 0.25, 0.125, 0.5])
    mp, mw = merge_close_points(pts, wts)
    assert np.array_equal(mp, pts[[0, 1, 3]])
    assert np.array_equal(mw, [0.25, 0.25, 0.5])


def test_distribution_json_round_trip():
    P = uniform_on([[0.25, -1.0], [3.0, 2.0], [0.0, 0.0]])
    Q = DiscreteDistribution.from_json(P.to_json())
    assert np.array_equal(P.support, Q.support)
    assert np.array_equal(P.weights, Q.weights)
    with pytest.raises(InputError):
        DiscreteDistribution.from_json("{\"support\": [[0]]}")


def test_merge_close_points_accumulates_weights():
    pts = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0]])
    wts = np.array([0.25, 0.25, 0.5])
    mp, mw = merge_close_points(pts, wts)
    assert len(mp) == 2
    order = np.argsort(mp[:, 0])
    assert np.allclose(mw[order], [0.5, 0.5])
