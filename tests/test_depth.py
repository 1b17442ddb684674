"""Tests for the depth evaluator: exact paths, Monte Carlo, invariances."""

import itertools
import math
import threading
import tracemalloc
from dataclasses import replace
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from oracle import count_pairs_1d_loop, naive_full_depth

from sigmadepth import depth as depth_module
from sigmadepth import geometry
from sigmadepth.depth import (
    DepthConfig,
    DepthEvaluator,
    DepthValue,
    _count_pairs_1d,
    _iter_combo_chunks,
    _random_tuples,
    compute_depth,
    depth_maximizer,
    trimmed_region_grid,
)
from sigmadepth.errors import InputError, InsufficientDataError, ResourceCapError
from sigmadepth.geometry import GeomTolerance, SimplexBatch, TrianglePairTables
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


PROFILE_KINDS = ("grid", "decimal", "gaussian")
# Unsorted, with a repeat and a shrinking factor below 1.
PROFILE_SIGMAS = (3.0, 1.0, 1.5, 1.0, 0.5, 5.0, 1.2)


def _profile_corpus(kind, d):
    """Data and queries: data points, midpoints of consecutive points, far points.

    The 1/8-grid data put points on common lines or planes, and in 2-D
    repeat a point, so for d >= 2 some simplices are degenerate; the
    decimal data sit at 1e4.
    """
    rng = np.random.default_rng([d, PROFILE_KINDS.index(kind)])
    n = {1: 24, 2: 12, 3: 9}[d]
    if kind == "grid":
        P = rng.integers(0, 9, (n, d)) / 8
        if d == 2:
            P[1] = P[0]
    elif kind == "decimal":
        P = np.round(1e4 + 0.05 * rng.standard_normal((n, d)), 2)
    else:
        P = rng.standard_normal((n, d))
    far = P[:2] + 10.0 * (P.max(axis=0) - P.min(axis=0) + 1.0)
    return P, np.vstack([P, (P[:-1] + P[1:]) / 2, far])


@lru_cache(maxsize=None)
def _per_sigma_counts(d, kind, budget):
    """Counts of one fresh evaluator per sigma, seed 5, at the default kernel settings."""
    P, X = _profile_corpus(kind, d)
    cfg = DepthConfig(method="simplex_enlarged", budget=budget, seed=5)
    if kind == "grid" and d > 1:
        assert sum(b.n_degenerate for b in DepthEvaluator(P, cfg)._batches) > 0
    return np.stack([DepthEvaluator(P, replace(cfg, sigma=s)).contain_counts(X) for s in PROFILE_SIGMAS])


@pytest.mark.parametrize("cap", [geometry._CHUNK_ELEMS, 24])
@pytest.mark.parametrize("path", ["exact", "streamed", "mc", "mc-streamed"])
@pytest.mark.parametrize("kind", PROFILE_KINDS)
@pytest.mark.parametrize("d", [1, 2, 3])
def test_depth_profile_matches_per_sigma_evaluators(d, kind, path, cap, monkeypatch):
    """One profile call gives the counts of one fresh evaluator per sigma, same seed.

    The per-sigma evaluators run at the default kernel cap with a
    precomputed batch; the profile runs with the cap under test and, on the
    streamed paths, with enumeration or tuples streamed in several chunks.
    Exact 2-D counts come from pair tables at any size.
    """
    P, X = _profile_corpus(kind, d)
    budget = None if path in ("exact", "streamed") else 150
    cfg = DepthConfig(method="simplex_enlarged", budget=budget, seed=5)
    want = _per_sigma_counts(d, kind, budget)
    monkeypatch.setattr(geometry, "_CHUNK_ELEMS", cap)
    if "streamed" in path:
        monkeypatch.setattr(depth_module, "_PRECOMP_MAX", 10)
        monkeypatch.setattr(depth_module, "_STREAM_CHUNK", 40)
    ev = DepthEvaluator(P, cfg)
    if d == 2 and budget is None:
        assert ev.strategy == "pairs2d" and ev._batches is not None
    elif ev._strategy != "count1d":
        assert (ev._batches is None) == ("streamed" in path)
    # n_simplices < 2^53, so equal quotients mean equal counts
    assert np.array_equal(ev.depth_profile(X, PROFILE_SIGMAS), want / ev.n_simplices)


@pytest.mark.parametrize("method, budget", [("dist_enlarged_blocks", None), ("dist_enlarged_full", 300)])
def test_depth_profile_moves_points_per_sigma(method, budget):
    """The distribution methods give each sigma its own evaluator's depths."""
    rng = np.random.default_rng(17)
    P = rng.standard_normal((18, 2))
    X = rng.standard_normal((10, 2))
    cfg = DepthConfig(method=method, sigma=2.0, budget=budget, seed=9)
    want = np.stack([DepthEvaluator(P, replace(cfg, sigma=s)).depths(X) for s in PROFILE_SIGMAS])
    assert np.array_equal(DepthEvaluator(P, cfg).depth_profile(X, PROFILE_SIGMAS), want)


@pytest.mark.parametrize("budget", [None, 150])
@pytest.mark.parametrize("kind", PROFILE_KINDS)
@pytest.mark.parametrize("d", [1, 2, 3])
def test_depth_profile_never_decreases_in_sigma(d, kind, budget):
    """Along a sorted sigma grid the counts of every query never drop."""
    P, X = _profile_corpus(kind, d)
    cfg = DepthConfig(method="simplex_enlarged", budget=budget, seed=5)
    grid = sorted({*PROFILE_SIGMAS, 1.0 + 2**-40, 40.0})
    counts = DepthEvaluator(P, cfg).depth_profile(X, grid)
    assert (np.diff(counts, axis=0) >= 0).all()


def test_depth_profile_rejects_bad_sigmas():
    ev = DepthEvaluator(np.eye(3)[:, :2], DepthConfig())
    for sigmas in ([], [0.0], [float("nan")], [2.0]):  # 'simplicial' allows sigma 1 only
        with pytest.raises(InputError):
            ev.depth_profile(np.zeros((1, 2)), sigmas)
    assert ev.depth_profile(np.zeros((1, 2)), [1.0]).shape == (1, 1)


def test_streaming_enumeration_matches_direct_batch():
    """Pair-table counts above the precompute limit equal SimplexBatch over chunks of all triangles."""
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
        counts += SimplexBatch(verts).contains_counts(X, [2.0])[0]
    assert np.array_equal(ev.contain_counts(X), counts)


PAIR_TABLE_KINDS = ("gaussian", "grid", "decimal", "sliver")
PAIR_TABLE_SIGMAS = (0.7, 1.0, 1.0 + 2**-40, 1.5, 2.0, 3.0)


def _pair_table_corpus(kind):
    """24 points and 302 queries: two far points, the data points, every edge midpoint.

    The 1/8-grid data repeat a point and put many triples on common lines;
    the decimal data sit at 1e4, where some rounded triples count as
    singular; the sliver data lie within 1e-7 of a line at 1e3, so |det|
    straddles the singularity bound PIVOT_RTOL * scale (about 1e-9).
    """
    rng = np.random.default_rng([2, PAIR_TABLE_KINDS.index(kind)])
    n = 24
    if kind == "grid":
        P = rng.integers(0, 5, (n, 2)) / 8
        P[1] = P[0]
    elif kind == "decimal":
        P = np.round(1e4 + 0.05 * rng.standard_normal((n, 2)), 2)
    elif kind == "sliver":
        u = rng.random(n)
        P = np.column_stack([1e3 + u, 1e3 + 2 * u + 10.0 ** rng.uniform(-13, -7, n)])
    else:
        P = rng.standard_normal((n, 2))
    i, j = np.triu_indices(n, 1)
    far = P[:2] + 10.0 * (P.max(axis=0) - P.min(axis=0) + 1.0)
    return P, np.vstack([far, P, (P[i] + P[j]) / 2])


def _widest_rectangle(n):
    """Triangles with the middle vertex j = (n - 1) // 2: j * (n - 1 - j), the most of any j."""
    return (n - 1) ** 2 // 4


def _all_triangle_batch(P):
    return SimplexBatch(P[np.array(list(itertools.combinations(range(len(P)), 3)))])


def _sorted_rows(triangles):
    flat = triangles.reshape(-1, 6)
    return flat[np.lexsort(flat.T[::-1])]


@pytest.mark.parametrize("kind", PAIR_TABLE_KINDS)
def test_pair_tables_match_simplex_batch(kind, monkeypatch):
    """Pair-table counts equal SimplexBatch over all triangles, byte for byte.

    Computed directly and through exact 2-D evaluators: simplicial,
    simplex-enlarged over a sigma grid, and block transform at each sigma.
    The cap gives 7 queries per chunk, so 302 queries span 44 chunks, the
    last holding one.
    """
    P, X = _pair_table_corpus(kind)
    batch = _all_triangle_batch(P)
    want = batch.contains_counts(X, PAIR_TABLE_SIGMAS)
    assert (batch.n_degenerate > 0) == (kind != "gaussian")
    blocks_want = [
        _all_triangle_batch(sample_sigma_blocks(P, s)).contains_counts(X, [1.0])[0] for s in PAIR_TABLE_SIGMAS
    ]

    monkeypatch.setattr(geometry, "_CHUNK_ELEMS", 7 * _widest_rectangle(len(P)))
    flat, chunk_sizes = [], []
    add_hull_counts, add_hits = geometry._add_hull_counts, geometry._add_hits

    def recorded(counts, verts, *args):
        flat.append(verts)
        add_hull_counts(counts, verts, *args)

    def recorded_hits(counts, *args):
        chunk_sizes.append(counts.shape[1])
        add_hits(counts, *args)

    monkeypatch.setattr(geometry, "_add_hull_counts", recorded)
    monkeypatch.setattr(geometry, "_add_hits", recorded_hits)
    tables = TrianglePairTables(P)
    assert tables.n_degenerate == batch.n_degenerate
    assert np.array_equal(tables.contains_counts(X, PAIR_TABLE_SIGMAS), want)
    # one compare-and-count per middle vertex and chunk
    assert chunk_sizes == [7] * (43 * (len(P) - 2)) + [1] * (len(P) - 2)
    # the same singular triangles, each with its vertices in (i, j, k) order
    assert np.array_equal(_sorted_rows(flat[0]), _sorted_rows(batch._degenerate_verts))

    ev = DepthEvaluator(P, DepthConfig())
    assert ev.strategy == "pairs2d"
    assert np.array_equal(ev.contain_counts(X), want[1])
    ev = DepthEvaluator(P, exact_cfg())
    assert ev.strategy == "pairs2d"
    # n_simplices < 2^53, so equal quotients mean equal counts
    assert np.array_equal(ev.depth_profile(X, PAIR_TABLE_SIGMAS), want / ev.n_simplices)
    for s, counts in zip(PAIR_TABLE_SIGMAS, blocks_want):
        ev = DepthEvaluator(P, exact_cfg(method="dist_enlarged_blocks", sigma=s))
        assert ev.strategy == "pairs2d" and ev.n_simplices == math.comb(8, 3)
        assert np.array_equal(ev.contain_counts(X), counts)


@pytest.mark.parametrize("kind", ("gaussian", "grid", "sliver"))
def test_pair_table_counts_do_not_depend_on_query_chunk(kind, monkeypatch):
    """Caps giving 1, 2 and all queries per chunk give SimplexBatch's counts.

    301 queries, so the 2-query chunks end in a ragged one, and 1 and 0
    queries; 9 sigmas, one more than _add_hits compares per pass.  The
    hull fallback sees no query chunk, so it runs once, at the default cap.
    """
    P, X = _pair_table_corpus(kind)
    X = X[:-1]
    sigmas = (*PAIR_TABLE_SIGMAS, 1.25, 2.5, 4.0)
    want = _all_triangle_batch(P).contains_counts(X, sigmas)
    tables = TrianglePairTables(P)
    hull = np.zeros_like(want)
    geometry._add_hull_counts(hull, tables._degenerate_verts, X, sigmas, tables.eps)

    def hull_once(counts, verts, Xq, *args):
        counts += hull[:, : len(Xq)]

    monkeypatch.setattr(geometry, "_add_hull_counts", hull_once)
    for per_chunk in (1, 2, len(X)):
        monkeypatch.setattr(geometry, "_CHUNK_ELEMS", per_chunk * _widest_rectangle(len(P)))
        for q in (len(X), 1, 0):
            assert np.array_equal(tables.contains_counts(X[:q], sigmas), want[:, :q]), (per_chunk, q)


@pytest.mark.parametrize("n", [0, 1, 2])
def test_pair_tables_below_three_points_count_nothing(n):
    """Fewer than 3 points form no triangle: zero counts.  DepthEvaluator still refuses
    the data: InsufficientDataError, or InputError for no points at all."""
    P = np.arange(2.0 * n).reshape(n, 2)
    tables = TrianglePairTables(P)
    assert tables.n_degenerate == 0
    counts = tables.contains_counts(np.zeros((4, 2)), [1.0, 2.0])
    assert counts.shape == (2, 4) and not counts.any()
    with pytest.raises(InsufficientDataError if n else InputError):
        DepthEvaluator(P, DepthConfig())


def test_pair_table_count_memory_does_not_grow_with_queries():
    """The tracemalloc peak of one call is the same for 30 and 300 queries, apart from the counts.

    At n = 100 a chunk holds 65536 // 2450 = 26 queries, so both calls run full chunks.
    """
    rng = np.random.default_rng(31)
    tables = TrianglePairTables(rng.standard_normal((100, 2)))
    X = rng.standard_normal((300, 2))
    peaks = {}
    for q in (30, 300):
        tracemalloc.start()
        tables.contains_counts(X[:q], [1.5])
        peaks[q] = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    assert peaks[300] <= peaks[30] + 8 * (300 - 30)


def test_pair_table_path_builds_no_simplex_batch(monkeypatch):
    """Exact 2-D counting builds no SimplexBatch; streamed d = 3 and MC still do."""
    built = []
    init = SimplexBatch.__init__

    def counted(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(SimplexBatch, "__init__", counted)
    rng = np.random.default_rng(23)
    cases = [
        (rng.standard_normal((12, 2)), exact_cfg(), "pairs2d"),
        (rng.standard_normal((8, 3)), exact_cfg(), "streamed"),
        (rng.standard_normal((12, 2)), exact_cfg(budget=50), "mc"),
    ]
    for data, cfg, strategy in cases:
        if strategy != "pairs2d":
            monkeypatch.setattr(depth_module, "_PRECOMP_MAX", 10)
        built.clear()
        ev = DepthEvaluator(data, cfg)
        assert ev.strategy == strategy
        ev.depths(rng.standard_normal((4, data.shape[1])))
        assert (len(built) > 0) == (strategy != "pairs2d"), strategy


def test_pair_tables_are_built_once_per_evaluator(monkeypatch):
    """One exact 2-D evaluator builds its pair tables once for all its calls, with fresh evaluators' counts."""
    rng = np.random.default_rng(25)
    P = rng.standard_normal((30, 2))
    queries = [rng.standard_normal((q, 2)) for q in (1, 5, 40)]
    cfg = exact_cfg(sigma=1.5)
    want = [DepthEvaluator(P, cfg).depths(X) for X in queries]
    want_profile = np.stack([DepthEvaluator(P, replace(cfg, sigma=s)).depths(queries[1]) for s in PROFILE_SIGMAS])

    built = []
    init = TrianglePairTables.__init__

    def counted(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(TrianglePairTables, "__init__", counted)
    ev = DepthEvaluator(P, cfg)
    assert ev.strategy == "pairs2d"
    got = [ev.depths(X) for X in queries]
    profile = ev.depth_profile(queries[1], PROFILE_SIGMAS)
    assert len(built) == 1
    assert all(np.array_equal(g, w) for g, w in zip(got, want))
    assert np.array_equal(profile, want_profile)


@pytest.mark.parametrize(
    "shape, cfg, strategy",
    [
        ((10, 1), exact_cfg(), "count1d"),
        ((8, 3), exact_cfg(), "kept"),  # C(8, 4) = 70
        ((150, 2), exact_cfg(), "pairs2d"),  # C(150, 3) = 551 300 > 2^19
        ((62, 3), exact_cfg(), "streamed"),  # C(62, 4) = 557 845
        ((12, 2), exact_cfg(method="dist_enlarged_full"), "streamed"),  # 220 subsets x 7560
        ((10, 2), exact_cfg(budget=100), "mc"),
        ((10, 1), exact_cfg(budget=100), "mc"),
        ((10, 2), exact_cfg(), "pairs2d"),
    ],
)
def test_evaluator_reports_its_strategy(shape, cfg, strategy):
    ev = DepthEvaluator(np.random.default_rng(24).standard_normal(shape), cfg)
    assert ev.strategy == strategy
    assert (ev._batches is not None) == (strategy in ("pairs2d", "kept", "mc"))
    with pytest.raises(AttributeError):
        ev.strategy = "kept"


# 2-D needs n = 10 for several streamed chunks, and the oracle then walks
# 10! ordered tuples per query, so it gets one query.
@pytest.mark.parametrize("d, n, q", [(1, 6, 4), (2, 10, 1)])
def test_full_transform_enumeration_kept_streamed_and_naive_agree(d, n, q, monkeypatch):
    """Exact full-transform depths are identical kept, streamed in chunks, and by the oracle."""
    rng = np.random.default_rng([d, n])
    data = rng.standard_normal((n, d))
    X = 0.5 * rng.standard_normal((q, d))
    cfg = DepthConfig(method="dist_enlarged_full", sigma=2.0)
    kept = DepthEvaluator(data, cfg)
    monkeypatch.setattr(depth_module, "_PRECOMP_MAX", 10)
    # a chunk must hold one subset's whole pattern table; this one holds two
    monkeypatch.setattr(depth_module, "_STREAM_CHUNK", 2 * depth_module.full_pattern_count(d + 1))
    streamed = DepthEvaluator(data, cfg)
    assert kept._batches is not None and streamed._batches is None
    assert len(list(streamed._iter_batches())) > 1
    want = [naive_full_depth(data, x, cfg.sigma).value for x in X]
    assert kept.depths(X).tolist() == want
    assert streamed.depths(X).tolist() == want


@pytest.mark.parametrize("streamed", [False, True])
@pytest.mark.parametrize("d", [1, 2])
def test_full_transform_monte_carlo_matches_per_tuple_reference(d, streamed, monkeypatch):
    """Monte-Carlo full-transform counts equal one simplex per drawn tuple, leaders first.

    A budget of at most 256 tuples is a single draw whatever the chunk
    size, so the reference draws the same tuples from the seed directly.
    """
    rng = np.random.default_rng(40 + d)
    p = d + 1
    data = rng.standard_normal((3 * p * p, d))
    X = np.vstack([data[:4], rng.standard_normal((6, d))])
    sigma, budget, seed = 1.7, 200, 8
    if streamed:
        monkeypatch.setattr(depth_module, "_PRECOMP_MAX", 10)
        monkeypatch.setattr(depth_module, "_STREAM_CHUNK", 40)
    ev = DepthEvaluator(data, DepthConfig(method="dist_enlarged_full", sigma=sigma, budget=budget, seed=seed))
    assert (ev._batches is None) == streamed

    (tuples,) = _random_tuples(np.random.default_rng(seed), len(data), p * p, budget, budget)
    w = (1.0 - sigma) / p
    want = np.zeros(len(X), dtype=np.int64)
    for t in tuples:
        pts = data[t]
        verts = [
            sigma * pts[j] + w * (pts[j] + sum(pts[p + j * (p - 1) + k] for k in range(p - 1)))
            for j in range(p)
        ]
        want += SimplexBatch(np.array(verts)[None]).contains_counts(X, [1.0])[0]
    assert want.sum() > 0
    assert np.array_equal(ev.contain_counts(X), want)


def _random_tuples_sorted(rng, n, r, m, chunk):
    """_random_tuples with a sort-and-diff duplicate check: the reference for its rows and draws."""
    while m > 0:
        c = min(chunk, m)
        if 2 * r >= n:
            idx = np.argsort(rng.random((c, n)), axis=1)[:, :r]
        else:
            idx = rng.integers(0, n, size=(c, r))
            while True:
                bad = (np.diff(np.sort(idx, axis=1), axis=1) == 0).any(axis=1)
                if not bad.any():
                    break
                idx[bad] = rng.integers(0, n, size=(int(bad.sum()), r))
        yield idx
        m -= c


@pytest.mark.parametrize("r", [3, 4, 9])
def test_random_tuples_keep_their_bytes(r):
    """The tuples equal the sort-and-diff reference byte for byte, and the generator ends in the same state.

    n runs from 2r, the last size drawn by permutation, and 2r + 1, the
    first drawn with redraws, up to 400, over several seeds and chunk
    sizes, so no random stream moves.
    """
    for n in (2 * r, 2 * r + 1, 2 * r + 2, 3 * r + 1, 60, 400):
        for seed in (0, 1, 7):
            for m, chunk in ((3000, 3000), (2500, 700)):
                rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
                got = list(_random_tuples(rng, n, r, m, chunk))
                want = list(_random_tuples_sorted(ref, n, r, m, chunk))
                assert [(g.dtype, g.shape, g.tobytes()) for g in got] == [(w.dtype, w.shape, w.tobytes()) for w in want]
                assert rng.bit_generator.state == ref.bit_generator.state
                rows = np.concatenate(got)
                assert all(len(set(row)) == r for row in rows.tolist())
                assert rows.min() >= 0 and rows.max() < n


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
        brute = SimplexBatch(data[pairs], eps=eps).contains_counts(X, [sigma])[0]
        assert np.array_equal(ev.contain_counts(X), brute)


PAIR_COUNT_KINDS = ("gaussian", "grid", "decimal", "ties")
SORTED_END_KINDS = PAIR_COUNT_KINDS + ("decimal_1e6",)


def _pair_count_corpus(kind):
    rng = np.random.default_rng(SORTED_END_KINDS.index(kind))
    n = 26
    if kind == "grid":
        return rng.integers(-16, 17, n) / 8
    if kind == "decimal":
        return np.round(1e4 + 0.01 * rng.integers(-50, 51, n), 2)
    if kind == "decimal_1e6":
        return np.round(1e6 + 0.01 * rng.integers(-50, 51, n), 2)
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


@pytest.mark.parametrize("cap", [geometry._CHUNK_ELEMS, 24])
@pytest.mark.parametrize("kind", PAIR_COUNT_KINDS)
def test_count_pairs_1d_matches_per_query_loop(kind, cap, monkeypatch):
    """Chunked 1-D pair counting gives byte-equal counts to the per-query loop.

    Sigma 0.5, 1 and above with eps 1e-9 and 0 run all three t branches
    (t > 0, t == 0, t < 0).  With the small cap the corpora below take one
    query per chunk, a ragged last chunk, and n > cap.
    """
    monkeypatch.setattr(geometry, "_CHUNK_ELEMS", cap)
    full = _pair_count_corpus(kind)
    hit = np.zeros(3, dtype=bool)  # one query per chunk, ragged last chunk, n > cap
    for n in (len(full), 13, 7, 5):
        v = full[-n:]
        for sigma in (0.5, 1.0, 1.5, 2.0, 3.0, 6.0):
            for eps in (1e-9, 0.0):
                X = _pair_count_queries(v, sigma, eps)
                step = max(1, cap // n)
                hit |= [step == 1, len(X) % step > 0, n > cap]
                got = _count_pairs_1d(v, X, [sigma], eps)[:, 0]
                assert np.array_equal(got, count_pairs_1d_loop(v, X, sigma, eps)), (n, sigma, eps)
    assert cap > 24 or hit.all()


@pytest.mark.parametrize("kind", PAIR_COUNT_KINDS)
def test_count_pairs_1d_is_the_same_on_any_worker_count(kind, monkeypatch):
    """1-D pair counting gives the per-query loop's counts for a whole sigma grid on any worker count.

    One call counts sigmas 0.5 to 6 with eps 1e-9 and 0, so all three t
    branches run, on 1, 2, 3 and 8 workers with the default chunk cap and
    a cap of 24, under which 13 values take one query per chunk.  The
    cases cover q = 0, q = 1, one query per chunk, more chunks than
    workers and a ragged last chunk, and no thread outlives a call.
    """
    sigmas = [0.5, 1.0, 1.5, 2.0, 3.0, 6.0]
    default = geometry._CHUNK_ELEMS
    hit = np.zeros(5, dtype=bool)  # q 0, q 1, one query per chunk, chunks > workers, ragged last chunk
    for n, caps in ((13, [default, 24]), (5, [default, 24])):
        v = _pair_count_corpus(kind)[-n:]
        for eps in (1e-9, 0.0):
            X = np.concatenate([_pair_count_queries(v, sigma, eps) for sigma in sigmas])
            want = np.column_stack([count_pairs_1d_loop(v, X, sigma, eps) for sigma in sigmas])
            for cap in caps:
                monkeypatch.setattr(geometry, "_CHUNK_ELEMS", cap)
                for workers in (1, 2, 3, 8):
                    monkeypatch.setattr(geometry, "_WORKERS", workers)
                    for q in (0, 1, 7, len(X)):
                        step = max(1, cap // n)
                        chunks = math.ceil(q / step)
                        ragged = chunks > 1 and q % step > 0
                        hit |= [q == 0, q == 1, chunks > step == 1, chunks > workers, ragged]
                        threads = threading.active_count()
                        got = _count_pairs_1d(v, X[:q], sigmas, eps)
                        assert threading.active_count() == threads
                        assert got.shape == (q, len(sigmas))
                        assert np.array_equal(got, want[:q]), (n, eps, cap, workers, q)
    assert hit.all()


def _end_chunks(v, X, sigma, eps, cap):
    """Per query, how many pair chunks of cap pairs, in the counter's (j, i) order, hold an
    end within the counter's knife-edge window delta = 8 * 2^-52 * (|x| + (u + |t|) * max|v|)."""
    t = (1.0 - sigma) / 2.0 - eps * sigma
    u = 1.0 - t
    s = np.sort(v)
    first = np.searchsorted(s, s, side="left")
    j = np.repeat(np.arange(len(s)), first)
    i = np.concatenate([np.arange(f) for f in first])
    chunk = np.tile(np.arange(len(i)) // cap, 2)
    ends = np.concatenate([u * s[i] + t * s[j], u * s[j] + t * s[i]])
    delta = 8 * 2.0**-52 * (np.abs(X) + (u + abs(t)) * np.abs(s).max())
    near = np.abs(ends - X[:, None]) <= delta[:, None]
    return sum(near[:, chunk == c].any(axis=1) for c in range(chunk.max() + 1))


@pytest.mark.parametrize("cap", [geometry._CHUNK_ELEMS, 24])
@pytest.mark.parametrize("kind", SORTED_END_KINDS)
def test_count_pairs_1d_sorted_ends_match_per_query_rule(kind, cap, monkeypatch):
    """Counting from sorted pair ends gives the per-query rule's bytes, knife edges included.

    The queries sit on every pair end and one and two ulps either side,
    for sigmas just below, at and just above 1, so many of them fall in the
    window that sends a query back to the per-query rule.  With the cap of
    24 the pairs of 13 values span three or four chunks, and some query
    lies near ends in more than one chunk, so its flags are ORed across
    chunks before the one recount.
    """
    sigmas = [0.5, 1.0 - 1e-8, 1.0, 1.0 + 1e-12, 2.0, 6.0]
    v = _pair_count_corpus(kind)
    if cap == 24:
        v = v[-13:]
    most_chunks = 0  # the most pair chunks with an end near one query
    for eps in (0.0, 1e-9):
        X = np.concatenate([_pair_count_queries(v, sigma, eps) for sigma in sigmas])
        two_down = np.nextafter(np.nextafter(X, -np.inf), -np.inf)
        two_up = np.nextafter(np.nextafter(X, np.inf), np.inf)
        X = np.concatenate([X, two_down, two_up])
        assert 2 * len(X) >= len(v)  # the sorted path
        want = geometry._count_pairs_1d_per_query(v, X, sigmas, eps)
        with monkeypatch.context() as m:
            m.setattr(geometry, "_CHUNK_ELEMS", cap)
            got = _count_pairs_1d(v, X, sigmas, eps)
        assert np.array_equal(got, want), (kind, eps)
        if cap == 24:
            most_chunks = max(most_chunks, *(_end_chunks(v, X, sigma, eps, cap).max() for sigma in sigmas))
    s = np.sort(v)
    assert cap > 24 or (np.searchsorted(s, s).sum() > 2 * cap and most_chunks > 1)


def _sorted_end_rule(v, X, sigmas, eps):
    """Per sigma: every pair end, and each query's knife-edge window [lo, hi] as the counter computes it."""
    s = np.sort(v)
    first = np.searchsorted(s, s, side="left")
    j = np.repeat(np.arange(len(s)), first)  # pairs of distinct values in the counter's (j, i) order
    i = np.concatenate([np.arange(f) for f in first])
    for t in geometry._thresholds(np.asarray(sigmas, dtype=float), 1, eps):
        u = 1.0 - t
        reach = 8 * 2.0**-52 * np.abs(s).max() * (1.0 - t + abs(t))
        half = 8 * 2.0**-52 * np.abs(X) + reach
        yield t, np.concatenate([u * s[i] + t * s[j], u * s[j] + t * s[i]]), X - half, X + half


def _query_whose_window_ends_at(end, t, v, side):
    """A query whose window's top (side +1) or bottom (side -1) is exactly the float end, or None."""
    reach = 8 * 2.0**-52 * np.abs(v).max() * (1.0 - t + abs(t))
    x = end - side * (8 * 2.0**-52 * abs(end) + reach)
    for _ in range(8):
        x = np.nextafter(x, -side * np.inf)
    for _ in range(16):
        if x + side * (8 * 2.0**-52 * abs(x) + reach) == end:
            return x
        x = np.nextafter(x, side * np.inf)
    return None


@pytest.mark.parametrize("cap", [geometry._CHUNK_ELEMS, 24])
def test_count_pairs_1d_span_matches_per_query_rule(cap, monkeypatch):
    """Sorting only the ends inside the queries' span keeps the per-query rule's counts and recounts.

    Two clusters of grid values with ties; the queries lie all left of
    them, all right, in the gap between them (scenario 4's shape) and in a
    narrow window inside one.  Each set also holds the pair ends inside its
    range with their float neighbours and repeated queries; the last two
    sets also hold, per sigma, a query whose window ends exactly on the
    nearest pair end outside the range, so one end lies on the span's edge.  Besides the counts, the
    queries and sigmas sent back to the per-query rule must be those whose
    window holds an end of the full, unfiltered end list.
    """
    rng = np.random.default_rng(11)
    v = np.concatenate([rng.integers(-16, -7, 13), rng.integers(8, 17, 13)]) / 8.0
    sigmas = np.array([0.5, 1.0, 1.0 + 1e-12, 2.0, 6.0])
    rule = geometry._count_pairs_1d_per_query
    recounts = []

    def spy(values, queries, sig, eps):
        recounts.append((queries, sig))
        return rule(values, queries, sig, eps)

    monkeypatch.setattr(geometry, "_CHUNK_ELEMS", cap)
    monkeypatch.setattr(geometry, "_count_pairs_1d_per_query", spy)
    seen = np.zeros(4, dtype=bool)  # edge query at the top, at the bottom; a chunk with no end in span, one on both sides
    for left, right, edges in ((-30.0, -3.0, False), (3.0, 30.0, False), (-0.8, 0.9, True), (1.4, 1.45, True)):
        for eps in (0.0, 1e-9):
            X = np.linspace(left, right, 20)
            for t, ends, _, _ in _sorted_end_rule(v, X, sigmas, eps):
                ends = np.unique(ends)
                inside = ends[(ends >= left) & (ends <= right)]
                X = np.concatenate([X, inside, np.nextafter(inside, -np.inf), np.nextafter(inside, np.inf)])
                for side, out in ((1, ends[ends > right + 1e-3]), (-1, ends[ends < left - 1e-3])) if edges else ():
                    x = None if out.size == 0 else _query_whose_window_ends_at(out.min() if side > 0 else out.max(), t, v, side)
                    if x is not None:
                        X = np.append(X, x)
                        seen[0 if side > 0 else 1] = True
            X = rng.permutation(np.concatenate([X, X[:5]]))
            assert 2 * len(X) >= len(v)  # the sorted path

            want = rule(v, X, sigmas, eps)
            recounts.clear()
            got = _count_pairs_1d(v, X, sigmas, eps)
            assert np.array_equal(got, want), (left, right, eps)

            flagged = []
            for _, ends, lo, hi in _sorted_end_rule(v, np.sort(X), sigmas, eps):
                chunk = np.tile(np.arange(len(ends) // 2) // cap, 2)
                ends_sorted = np.sort(ends)
                flagged.append(np.searchsorted(ends_sorted, lo, "left") != np.searchsorted(ends_sorted, hi, "right"))
                span = (ends >= lo.min()) & (ends <= hi.max())
                for c in range(chunk.max() + 1):
                    mine = chunk == c
                    seen[2] |= not span[mine].any()
                    seen[3] |= (ends[mine] < lo.min()).any() and (ends[mine] > hi.max()).any()
            flagged = np.array(flagged)
            rows, cols = flagged.any(axis=0), flagged.any(axis=1)
            if rows.any():
                assert len(recounts) == 1
                assert np.array_equal(recounts[0][0], np.sort(X)[rows]), (left, right, eps)
                assert np.array_equal(recounts[0][1], sigmas[cols]), (left, right, eps)
            else:
                assert recounts == []
    assert seen.all(), seen


def test_count_pairs_1d_cost_rule_edges(monkeypatch):
    """Calls with 2q < n take the per-query rule and the rest sorted pair ends, both with the loop's counts.

    q = 0, q = 1 and q = 12 of 26 values return the per-query rule's array;
    q = 13 and 14 sort the ends and may call that rule only to recount
    knife edges.  No thread outlives a call.
    """
    v = _pair_count_corpus("grid")
    sigmas, eps = [1.0, 2.0], 1e-9
    X = np.concatenate([_pair_count_queries(v, sigma, eps) for sigma in sigmas])
    X = np.random.default_rng(3).permutation(X)
    rule = geometry._count_pairs_1d_per_query
    returned = []

    def spy(*args):
        returned.append(rule(*args))
        return returned[-1]

    monkeypatch.setattr(geometry, "_count_pairs_1d_per_query", spy)
    for q in (0, 1, 12, 13, 14):
        returned.clear()
        threads = threading.active_count()
        got = _count_pairs_1d(v, X[:q], sigmas, eps)
        assert threading.active_count() == threads
        assert got.shape == (q, len(sigmas))
        want = np.column_stack([count_pairs_1d_loop(v, X[:q], sigma, eps) for sigma in sigmas])
        assert np.array_equal(got, want), q
        assert any(got is r for r in returned) == (2 * q < len(v)), q


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
    manual = SimplexBatch(combined[combos]).contains_counts(X, [1.0])[0]
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


def test_exact_full_transform_in_3d_is_refused_at_construction():
    # One 16-point subset already needs 672 672 000 simplices, more than a
    # streamed chunk holds, however high the cap.
    data = np.random.default_rng(3).standard_normal((16, 3))
    cfg = exact_cfg(method="dist_enlarged_full", sigma=2.0, exact_cap=10**12)
    with pytest.raises(ResourceCapError, match="Monte-Carlo budget"):
        DepthEvaluator(data, cfg)


def test_config_validation():
    with pytest.raises(InputError):
        DepthConfig(method="nope")
    with pytest.raises(InputError):
        DepthConfig(method="simplicial", sigma=2.0)
    with pytest.raises(InputError):
        DepthConfig(sigma=-1.0)
    with pytest.raises(InputError):
        DepthConfig(budget=0)


@pytest.mark.parametrize(
    "field, value",
    [
        ("seed", -1),
        ("seed", 1.5),
        ("seed", True),
        ("seed", None),
        ("budget", True),
        ("budget", 1.5),
        ("budget", math.inf),
        ("budget", math.nan),
        ("exact_cap", math.nan),
        ("exact_cap", math.inf),
        ("exact_cap", 0),
        ("sigma", "a"),
        ("sigma", None),
        ("sigma", True),
    ],
)
def test_config_rejects_bad_seeds_and_counts(field, value):
    with pytest.raises(InputError):
        DepthConfig(method="simplex_enlarged", **{field: value})


def test_config_accepts_numpy_seeds_and_integral_counts():
    cfg = DepthConfig(seed=np.int64(3), budget=np.int64(100), exact_cap=1e6)
    assert cfg.seed == 3 and cfg.budget == 100


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


def test_maximizer_above_three_dims_starts_from_the_data_and_centroid(monkeypatch):
    """In d > 3 no grid is built: the search starts from the deepest data point or the centroid."""
    rng = np.random.default_rng(23)
    data = rng.standard_normal((9, 4))
    cfg = exact_cfg(sigma=2.0)

    def no_grid(*args):
        raise AssertionError("depth_maximizer built a grid in 4-D")

    monkeypatch.setattr(depth_module, "_grid", no_grid)
    peak = depth_maximizer(data, cfg)
    assert peak.shape == (4,)
    ev = DepthEvaluator(data, cfg)
    start = ev.depths(np.vstack([data, data.mean(axis=0)])).max()
    assert start > 0 and ev.depths(peak[None])[0] >= start


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
    with pytest.raises(InputError):
        trimmed_region_grid(data[:, :2], DepthConfig(), 0.1, grid=21.0)
    with pytest.raises(InputError):
        trimmed_region_grid(data[:, :2], DepthConfig(), 0.1, grid=(np.linspace(-1, 1, 3),))
    with pytest.raises(InputError):
        trimmed_region_grid(data[:, :2], DepthConfig(), 0.1, grid="21")
    with pytest.raises(InputError):
        trimmed_region_grid(data[:, :2], DepthConfig(), 0.1, grid=(["a"], [1.0]))


def test_trimmed_region_grid_takes_axes_of_different_lengths():
    """A 3 x 4 grid gives a (3, 4) mask of depth >= alpha at the "ij" nodes."""
    data = np.random.default_rng(0).standard_normal((10, 2))
    cfg = exact_cfg(sigma=2.0)
    xs, ys = np.linspace(-1, 1, 3), np.linspace(-1, 1, 4)
    axes, mask = trimmed_region_grid(data, cfg, 0.1, grid=(xs, ys))
    assert mask.shape == (3, 4)
    assert np.array_equal(axes[0], xs) and np.array_equal(axes[1], ys)
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    depths = DepthEvaluator(data, cfg).depths(np.column_stack([gx.ravel(), gy.ravel()]))
    assert np.array_equal(mask, (depths >= 0.1).reshape(3, 4))
    assert mask.any() and not mask.all()
