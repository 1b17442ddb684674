"""Tests for the finite-support symmetry checkers and the shipped corpus."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sigmadepth.errors import InputError
from sigmadepth.sigma import (
    DiscreteDistribution,
    affine_image,
    discrete_convolution,
    point_mass,
    uniform_on,
)
from sigmadepth.symmetry import (
    SymmetryVerdict,
    check_angular_symmetry,
    check_central_symmetry,
    check_halfspace_symmetry,
    corpus_distribution,
    gamma_median_root,
    halfspace_center_box,
    projection_median_interval,
)

CORPUS = (
    "planar_four_atoms",
    "planar_five_atoms",
    "axis_atoms_horizontal",
    "axis_atoms_vertical",
)

CHECKERS = {
    "central": check_central_symmetry,
    "angular": check_angular_symmetry,
    "halfspace": check_halfspace_symmetry,
}


def symmetrized(seed: int, d: int, k: int, mu) -> DiscreteDistribution:
    """Uniform atoms plus their reflections: centrally symmetric about mu."""
    rng = np.random.default_rng(seed)
    mu = np.asarray(mu, dtype=float)
    half = rng.standard_normal((k, d)) + mu
    pts = np.vstack([half, 2.0 * mu - half])
    return DiscreteDistribution(pts, np.full(2 * k, 0.5 / k))


def test_verdict_consistency_guards():
    with pytest.raises(InputError):
        SymmetryVerdict(True, None, None)
    with pytest.raises(InputError):
        SymmetryVerdict(False, np.zeros(2), None)


@pytest.mark.parametrize("name", CORPUS)
def test_corpus_matches_documented_claims(name):
    dist, meta = corpus_distribution(name)
    center = meta["center"]
    for kind, expected in meta["claims"].items():
        verdict = CHECKERS[kind](dist, center)
        assert verdict.symmetric == expected, (name, kind)


def test_corpus_unknown_name():
    with pytest.raises(InputError):
        corpus_distribution("no_such_fixture")


def test_central_symmetry_on_the_line():
    P = uniform_on([[-2.0], [-1.0], [1.0], [2.0]])
    assert check_central_symmetry(P, [0.0]).symmetric
    off = check_central_symmetry(P, [0.5])
    assert not off.symmetric
    assert off.witness is not None


def test_central_symmetry_matches_atoms_split_by_the_sort():
    """Reflected corners sort apart from their partners in lexicographic order.

    Reflecting (0.1, 0) about the mean (0.3, 0.5) gives (0.5, 1) only up to
    rounding, and the sort places (0.5, 0) between the two copies of it.
    """
    P = uniform_on([[0.1, 0.0], [0.1, 1.0], [0.5, 0.0], [0.5, 1.0]])
    assert check_central_symmetry(P, P.mean()).symmetric


def test_central_symmetry_on_decimal_reflection_corpus():
    """Sets c +- h on a 0.1 grid are centrally symmetric about c by construction."""
    rng = np.random.default_rng(7)
    false_verdicts = 0
    for _ in range(2000):
        c = np.round(rng.uniform(-1.0, 1.0, 2), 1)
        k = int(rng.integers(1, 5))
        # First offset coordinate > 0, so no offset is zero or minus another.
        h = np.column_stack(
            [rng.uniform(0.1, 1.0, k), rng.uniform(-1.0, 1.0, k)]
        )
        h = np.unique(np.round(h, 1), axis=0)
        P = uniform_on(np.vstack([c + h, c - h]))
        false_verdicts += not check_central_symmetry(P, c).symmetric
    assert false_verdicts == 0


@given(st.integers(0, 2**32 - 1), st.sampled_from([1, 2]), st.integers(2, 5))
@settings(max_examples=40, deadline=None)
def test_symmetry_hierarchy_on_symmetrized_clouds(seed, d, k):
    """Central symmetry must imply the angular and halfspace notions."""
    mu = np.linspace(-1.0, 1.0, d)
    P = symmetrized(seed, d, k, mu)
    assert check_central_symmetry(P, mu).symmetric
    assert check_angular_symmetry(P, mu).symmetric
    assert check_halfspace_symmetry(P, mu).symmetric


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_central_symmetry_affine_closure(seed):
    rng = np.random.default_rng(seed + 12345)
    mu = rng.standard_normal(2)
    P = symmetrized(seed, 2, 3, mu)
    lam = float(rng.uniform(0.2, 3.0))
    b = rng.standard_normal(2)
    assert check_central_symmetry(affine_image(P, lam, b), lam * mu + b).symmetric
    theta = float(rng.uniform(0, 2 * math.pi))
    A = np.array(
        [[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]]
    )
    assert check_central_symmetry(affine_image(P, A, b), A @ mu + b).symmetric


def test_central_symmetry_survives_convolution():
    P = symmetrized(1, 2, 3, [1.0, 0.0])
    Q = symmetrized(2, 2, 2, [0.0, -2.0])
    S = discrete_convolution(P, Q)
    assert check_central_symmetry(S, [1.0, -2.0]).symmetric


def test_four_atom_self_sum_atoms():
    """Summing two independent copies of the four-atom cloud: ten atoms."""
    four, _ = corpus_distribution("planar_four_atoms")
    S = discrete_convolution(four, four)
    atoms = {tuple(p): w for p, w in zip(np.round(S.support, 9), S.weights)}
    expected = {
        (-2.0, -2.0): 1 / 16,
        (-2.0, 0.0): 1 / 16,
        (6.0, 0.0): 1 / 16,
        (6.0, 6.0): 1 / 16,
        (-2.0, -1.0): 1 / 8,
        (2.0, -1.0): 1 / 8,
        (2.0, 0.0): 1 / 8,
        (2.0, 2.0): 1 / 8,
        (2.0, 3.0): 1 / 8,
        (6.0, 3.0): 1 / 8,
    }
    assert atoms.keys() == expected.keys()
    for key, w in expected.items():
        assert atoms[key] == pytest.approx(w, abs=1e-15)


def test_four_atom_self_sum_loses_all_symmetry():
    """Both factors are angularly symmetric, the sum admits no center."""
    four, _ = corpus_distribution("planar_four_atoms")
    S = discrete_convolution(four, four)
    lo, hi = halfspace_center_box(S)
    assert np.allclose(lo, [2.0, 0.0]) and np.allclose(hi, [2.0, 0.0])
    verdict = check_halfspace_symmetry(S, [2.0, 0.0])
    assert not verdict.symmetric
    u = verdict.witness
    proj = (S.support - [2.0, 0.0]) @ u
    side = min(S.weights[proj >= -1e-9].sum(), S.weights[proj <= 1e-9].sum())
    assert side < 0.5 - 1e-9
    assert not check_angular_symmetry(S, [2.0, 0.0]).symmetric
    assert not check_central_symmetry(S, [2.0, 0.0]).symmetric


def test_five_atom_self_sum_loses_all_symmetry():
    five, _ = corpus_distribution("planar_five_atoms")
    S = discrete_convolution(five, five)
    assert len(S.support) == 15
    counts = {round(w, 12) for w in S.weights}
    assert counts == {round(1 / 25, 12), round(2 / 25, 12)}
    assert sum(w == pytest.approx(1 / 25) for w in S.weights) == 5
    lo, hi = halfspace_center_box(S)
    assert np.allclose(lo, hi)  # pointlike: only one candidate center
    assert not check_halfspace_symmetry(S, lo).symmetric


def test_axis_clouds_sum_loses_all_symmetry():
    """Horizontal times vertical: marginals pin (0,0), which then fails."""
    H, _ = corpus_distribution("axis_atoms_horizontal")
    V, _ = corpus_distribution("axis_atoms_vertical")
    S = discrete_convolution(H, V)
    assert len(S.support) == 9
    lo, hi = halfspace_center_box(S)
    assert np.allclose(lo, [0.0, 0.0]) and np.allclose(hi, [0.0, 0.0])
    verdict = check_halfspace_symmetry(S, [0.0, 0.0])
    assert not verdict.symmetric
    proj = S.support @ verdict.witness
    side = min(S.weights[proj >= -1e-9].sum(), S.weights[proj <= 1e-9].sum())
    assert side < 0.5 - 1e-9


def test_scaled_mixture_sum_has_no_center_anywhere():
    """A 40-atom sum whose admissible-center segment empties out.

    The candidate box is the segment [-1, 3] x {0}; intersecting the
    projection-median constraint over a grid of directions leaves nothing,
    so no point of the plane can be a halfspace (hence angular) center.
    """
    four, _ = corpus_distribution("planar_four_atoms")
    lam = 1.0 + 2.0 * math.sqrt(2.0)
    B = affine_image(four, lam, [0.0, 0.0])
    C = discrete_convolution(four, four, coeffs=(-math.sqrt(2.0), -math.sqrt(2.0)))
    S = discrete_convolution(B, C)

    assert len(S.support) == 40
    masses = sorted(set(np.round(S.weights, 12)))
    assert np.allclose(masses, [1 / 64, 1 / 32])

    lo, hi = halfspace_center_box(S)
    assert lo[1] == pytest.approx(0.0) and hi[1] == pytest.approx(0.0)
    x_lo, x_hi = float(lo[0]), float(hi[0])
    assert (x_lo, x_hi) == pytest.approx((-1.0, 3.0))

    # Any center lies on the segment; each direction u constrains u'c to the
    # median interval of u'X, which maps back to an interval in the x slot.
    for k in range(1, 60):
        theta = k * math.pi / 60.0
        cu = math.cos(theta)
        if abs(cu) < 1e-12:
            continue
        m_lo, m_hi = projection_median_interval(S, [cu, math.sin(theta)])
        a, b = sorted((m_lo / cu, m_hi / cu))
        x_lo = max(x_lo, a)
        x_hi = min(x_hi, b)
        if x_lo > x_hi + 1e-9:
            break
    assert x_lo > x_hi + 1e-9


def test_gamma_median_root_value():
    root = gamma_median_root()
    assert root == pytest.approx(1.67834699008381, abs=1e-8)
    assert abs(root - 2.0 * math.log(2.0)) > 0.25
    assert (1.0 + root) * math.exp(-root) == pytest.approx(0.5, abs=1e-9)


def test_projection_median_intervals():
    grid = uniform_on([[i, j] for i in range(3) for j in range(3)])
    lo, hi = halfspace_center_box(grid)
    assert np.allclose(lo, [1.0, 1.0]) and np.allclose(hi, [1.0, 1.0])
    line = uniform_on([[0.0], [1.0], [2.0], [3.0]])
    assert projection_median_interval(line, [1.0]) == (1.0, 2.0)
    # a direction must be finite and have the distribution's dimension
    for u in ([math.nan, 1.0], [1.0, math.inf], [1.0], [1.0, 0.0, 0.0]):
        with pytest.raises(InputError):
            projection_median_interval(grid, u)


def test_point_mass_and_guards():
    P = point_mass([0.5, -0.5])
    for checker in CHECKERS.values():
        assert checker(P, [0.5, -0.5]).symmetric
    assert not check_halfspace_symmetry(P, [0.0, 0.0]).symmetric
    cube = uniform_on([[0, 0, 0], [1, 1, 1], [2, 0, 1], [0, 2, 1]])
    with pytest.raises(InputError):
        check_central_symmetry(cube, [0, 0, 0])
    with pytest.raises(InputError):
        check_angular_symmetry(point_mass([0.0]), [0.0, 0.0])
