"""Tests for the depth evaluator: exact paths, Monte Carlo, invariances."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from oracle import count_pairs_1d_loop

from sigmadepth.depth import (
    DepthConfig,
    DepthEvaluator,
    DepthValue,
    _count_pairs_1d,
    _iter_combo_chunks,
    compute_depth,
    depth_maximizer,
    trimmed_region_grid,
)
from sigmadepth.errors import InputError, InsufficientDataError, ResourceCapError
from sigmadepth.geometry import GeomTolerance, SimplexBatch
from sigmadepth.sigma import sample_sigma_blocks

HOEFFDING_TRIALS = 50
HOEFFDING_M = 10_000
HOEFFDING_DELTA = 1e-3


def exact_cfg(method="simplex_enlarged", sigma=2.0, **kw):
    return DepthConfig(method=method, sigma=sigma, **kw)


@pytest.mark.parametrize("n, k, chunk", [(9, 3, 5), (7, 3, 1), (9, 4, 7), (6, 4, 1)])
def test_combo_chunks_follow_itertools_order(n, k, chunk):
    chunks = list(_iter_combo_chunks(n, k, chunk))
    assert all(0 < len(c) <= chunk for c in chunks)
    got = [tuple(int(i) for i in row) for c in chunks for row in c]
    assert got == list(itertools.combinations(range(n), k))


def test_simplicial_triangle_centroid():
    tri = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    val = compute_depth(tri, [1 / 3, 1 / 3], DepthConfig())
    assert val.value == 1.0
    assert val.exact
    assert val.simplices_evaluated == 1


def test_depth_positive_at_data_points():
    rng = np.random.default_rng(0)
    data = rng.standard_normal((15, 2))
    ev = DepthEvaluator(data, DepthConfig())
    assert (ev.depths(data) > 0).all()


def test_depth_value_range_guard():
    with pytest.raises(InputError):
        DepthValue(1.5, True, 10)


def test_vanishes_far_from_data():
    rng = np.random.default_rng(1)
    data = rng.standard_normal((20, 2))
    diam = np.ptp(data, axis=0).max()
    sigma = 3.0
    far = data.mean(axis=0) + 10.0 * sigma * diam
    val = compute_depth(data, far, exact_cfg(sigma=sigma))
    assert val.value == 0.0


@given(st.integers(0, 2**32 - 1), st.sampled_from([1, 2]))
@settings(max_examples=25, deadline=None)
def test_monotone_in_sigma(seed, d):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(d + 1, 13))
    data = rng.standard_normal((n, d))
    x = rng.standard_normal(d) * 1.5
    prev = -1.0
    for sigma in (1.0, 1.2, 2.0, 3.0, 5.0):
        val = compute_depth(data, x, exact_cfg(sigma=sigma)).value
        assert val >= prev
        prev = val


def test_affine_equivariance_exact():
    """Integer data under a unimodular integer map: identical counts."""
    rng = np.random.default_rng(7)
    data = np.unique(rng.integers(-6, 7, size=(40, 2)), axis=0).astype(float)
    A = np.array([[1.0, 2.0], [0.0, 1.0]])
    b = np.array([3.0, -7.0])
    queries = rng.integers(-6, 7, size=(12, 2)).astype(float)
    cfg = exact_cfg(sigma=2.0)
    ev = DepthEvaluator(data, cfg)
    ev_t = DepthEvaluator(data @ A.T + b, cfg)
    assert np.array_equal(
        ev.contain_counts(queries), ev_t.contain_counts(queries @ A.T + b)
    )


def test_one_dim_decay_outside_range():
    rng = np.random.default_rng(5)
    data = rng.uniform(0.0, 1.0, size=(80, 1))
    ev = DepthEvaluator(data, exact_cfg(sigma=2.0))
    xs = np.linspace(1.0, 4.0, 25)[:, None]
    vals = ev.depths(xs)
    assert (np.diff(vals) <= 0).all()


def test_monte_carlo_within_hoeffding_bound():
    """Budget-m estimates stay within the standard concentration radius."""
    bound = math.sqrt(math.log(2.0 / HOEFFDING_DELTA) / (2.0 * HOEFFDING_M))
    rng = np.random.default_rng(99)
    data = rng.standard_normal((40, 2))
    x = np.array([0.1, -0.2])
    exact = compute_depth(data, x, exact_cfg(sigma=2.0)).value
    for trial in range(HOEFFDING_TRIALS):
        approx = compute_depth(
            data, x, exact_cfg(sigma=2.0, budget=HOEFFDING_M, seed=trial)
        )
        assert not approx.exact
        assert abs(approx.value - exact) <= bound


def test_monte_carlo_deterministic():
    rng = np.random.default_rng(11)
    data = rng.standard_normal((60, 2))
    X = rng.standard_normal((5, 2))
    cfg = exact_cfg(sigma=1.5, budget=2000, seed=123)
    a = DepthEvaluator(data, cfg).depths(X)
    b = DepthEvaluator(data, cfg).depths(X)
    assert np.array_equal(a, b)


def test_streaming_enumeration_matches_direct_batch():
    """n large enough that the exact enumeration is streamed, not cached."""
    rng = np.random.default_rng(21)
    n = 148  # C(148, 3) = 529396 simplices, above the precompute limit
    data = rng.standard_normal((n, 2))
    X = rng.standard_normal((3, 2))
    cfg = exact_cfg(sigma=2.0)
    ev = DepthEvaluator(data, cfg)
    assert ev.exact and ev.n_simplices == math.comb(n, 3)

    counts = np.zeros(3, dtype=np.int64)
    combos = np.array(list(itertools.combinations(range(n), 3)))
    for s in range(0, len(combos), 100_000):
        verts = data[combos[s : s + 100_000]]
        counts += SimplexBatch(verts, sigma=2.0).contains_counts(X)
    assert np.array_equal(ev.contain_counts(X), counts)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_one_dim_counting_matches_pair_batch(seed):
    """The 1-D fast path must agree with brute-force pair containment.

    Sigma 0.5 runs the t > 0 branch, and sigma 1 with eps 0 the t == 0 one.
    """
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 30))
    data = rng.standard_normal((n, 1))
    if n > 4 and rng.random() < 0.5:
        data[1] = data[0]  # force duplicate values
    X = rng.standard_normal((8, 1)) * 2.0
    sigma = float(rng.choice([0.5, 1.0, 1.5, 2.0, 4.0]))
    pairs = np.array(list(itertools.combinations(range(n), 2)))
    for eps in (1e-9, 0.0):
        cfg = DepthConfig(method="simplex_enlarged", sigma=sigma, tol=GeomTolerance(eps=eps))
        ev = DepthEvaluator(data, cfg)
        assert ev._strategy == "count1d"
        brute = SimplexBatch(data[pairs], eps=eps, sigma=sigma).contains_counts(X)
        assert np.array_equal(ev.contain_counts(X), brute)


PAIR_COUNT_KINDS = ("gaussian", "grid", "decimal", "ties")


def _pair_count_corpus(kind):
    rng = np.random.default_rng(PAIR_COUNT_KINDS.index(kind))
    n = 26
    if kind == "grid":
        return rng.integers(-16, 17, n) / 8
    if kind == "decimal":
        return np.round(1e4 + 0.01 * rng.integers(-50, 51, n), 2)
    if kind == "ties":
        return rng.integers(0, 5, n).astype(float)
    return rng.standard_normal(n)


def _pair_count_queries(v, sigma, eps):
    """Data points, midpoints, far points, and every pair end with its float neighbours."""
    t = (1.0 - sigma) / 2.0 - eps * sigma
    u = 1.0 - t
    s = np.sort(v)
    i, j = np.triu_indices(len(s), 1)
    ends = np.concatenate([u * s[i] + t * s[j], u * s[j] + t * s[i]])
    reach = 10.0 * (s[-1] - s[0] + 1.0)
    far = np.array([s[0] - reach, s[-1] + reach])
    near = [np.nextafter(ends, -np.inf), np.nextafter(ends, np.inf)]
    return np.concatenate([v, (s[:-1] + s[1:]) / 2, far, ends, *near])


@pytest.mark.parametrize("cap", [SimplexBatch._CHUNK_ELEMS, 24])
@pytest.mark.parametrize("kind", PAIR_COUNT_KINDS)
def test_count_pairs_1d_matches_per_query_loop(kind, cap, monkeypatch):
    """Chunked 1-D pair counting gives byte-equal counts to the per-query loop.

    Sigma 0.5, 1 and above with eps 1e-9 and 0 run all three t branches
    (t > 0, t == 0, t < 0).  With the small cap the corpora below take one
    query per chunk, a ragged last chunk, and n > cap.
    """
    monkeypatch.setattr(SimplexBatch, "_CHUNK_ELEMS", cap)
    full = _pair_count_corpus(kind)
    hit = np.zeros(3, dtype=bool)  # one query per chunk, ragged last chunk, n > cap
    for n in (len(full), 13, 7, 5):
        v = full[-n:]
        for sigma in (0.5, 1.0, 1.5, 2.0, 3.0, 6.0):
            for eps in (1e-9, 0.0):
                X = _pair_count_queries(v, sigma, eps)
                step = max(1, cap // n)
                hit |= [step == 1, len(X) % step > 0, n > cap]
                got = _count_pairs_1d(v, X, sigma, eps)
                assert np.array_equal(got, count_pairs_1d_loop(v, X, sigma, eps)), (n, sigma, eps)
    assert cap > 24 or hit.all()


@pytest.mark.parametrize(
    "data_shape, budget",
    [((30, 1), None), ((14, 2), None), ((14, 2), 5000)],
)
def test_depths_divide_counts_exactly(data_shape, budget):
    """Array division gives the same doubles as Python's exact int / int."""
    rng = np.random.default_rng(7)
    ev = DepthEvaluator(rng.standard_normal(data_shape), exact_cfg(budget=budget, seed=3))
    X = rng.standard_normal((40, data_shape[1]))
    counts = ev.contain_counts(X)
    assert ev.n_simplices < 2**53
    want = np.array([c / ev.n_simplices for c in counts.tolist()])
    assert np.array_equal(ev.depths(X), want)


def test_blocks_method_reduces_to_combined_points():
    rng = np.random.default_rng(31)
    data = rng.standard_normal((11, 2))
    sigma = 2.5
    cfg = DepthConfig(method="dist_enlarged_blocks", sigma=sigma)
    ev = DepthEvaluator(data, cfg)
    combined = sample_sigma_blocks(data, sigma)
    assert ev.n_simplices == math.comb(len(combined), 3)
    X = rng.standard_normal((6, 2))
    combos = np.array(list(itertools.combinations(range(len(combined)), 3)))
    manual = SimplexBatch(combined[combos]).contains_counts(X)
    assert np.array_equal(ev.contain_counts(X), manual)


def test_preconditions():
    with pytest.raises(InsufficientDataError):
        compute_depth(np.array([[0.0, 0.0], [1.0, 1.0]]), [0, 0], DepthConfig())
    with pytest.raises(InsufficientDataError):
        compute_depth(
            np.array([[0.0], [1.0], [2.0]]),
            [0.5],
            DepthConfig(method="dist_enlarged_full", sigma=2.0),
        )


def test_exact_cap_guard():
    rng = np.random.default_rng(2)
    data = rng.standard_normal((40, 2))
    with pytest.raises(ResourceCapError):
        compute_depth(data, [0, 0], exact_cfg(sigma=2.0, exact_cap=100))
    # a Monte-Carlo budget sidesteps the cap
    val = compute_depth(data, [0, 0], exact_cfg(sigma=2.0, exact_cap=100, budget=500))
    assert 0.0 <= val.value <= 1.0


def test_config_validation():
    with pytest.raises(InputError):
        DepthConfig(method="nope")
    with pytest.raises(InputError):
        DepthConfig(method="simplicial", sigma=2.0)
    with pytest.raises(InputError):
        DepthConfig(sigma=-1.0)
    with pytest.raises(InputError):
        DepthConfig(budget=0)


def test_query_dimension_mismatch():
    data = np.array([[0.0], [1.0], [2.0]])
    ev = DepthEvaluator(data, DepthConfig())
    with pytest.raises(InputError):
        ev.depths(np.zeros((2, 2)))
    with pytest.raises(InputError):
        ev.depths(np.array([[np.nan]]))


def test_convenience_wrappers_agree():
    rng = np.random.default_rng(13)
    data = rng.standard_normal((12, 1))
    cfg = DepthConfig(sigma=2.0, method="simplex_enlarged")
    a = compute_depth(data, [0.2], cfg).value
    b = DepthEvaluator(data, cfg).depths(np.array([[0.2]]))[0]
    assert a == b
    data9 = rng.standard_normal((9, 2))
    blocks = compute_depth(
        data9, [0.0, 0.0], DepthConfig(method="dist_enlarged_blocks", sigma=2.0)
    )
    assert blocks.exact


def test_maximizer_centers_on_symmetric_cloud():
    rng = np.random.default_rng(17)
    data = rng.standard_normal((120, 2))
    cfg = exact_cfg(sigma=2.0, budget=4000, seed=5)
    peak = depth_maximizer(data, cfg)
    assert peak.shape == (2,)
    ev = DepthEvaluator(data, cfg)
    # the search is grid-seeded, so allow one grid cell of slack vs the mean
    assert ev.depths(peak[None])[0] >= ev.depths(data.mean(axis=0)[None])[0] - 0.02
    assert np.linalg.norm(peak) < 1.0


def test_trimmed_region_levels_nest():
    rng = np.random.default_rng(19)
    data = rng.standard_normal((40, 2))
    cfg = exact_cfg(sigma=2.0)
    axes, full = trimmed_region_grid(data, cfg, 0.0, grid=9)
    assert full.all()
    _, lo = trimmed_region_grid(data, cfg, 0.2, grid=9)
    _, hi = trimmed_region_grid(data, cfg, 0.5, grid=9)
    assert (hi <= lo).all()
    assert len(axes) == 2 and all(len(a) == 9 for a in axes)


def test_trimmed_region_guards():
    data = np.random.default_rng(0).standard_normal((10, 3))
    with pytest.raises(InputError):
        trimmed_region_grid(data, DepthConfig(), 0.1)
    with pytest.raises(InputError):
        trimmed_region_grid(data[:, :2], DepthConfig(), 1.5)
