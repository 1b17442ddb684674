import itertools
import math
import sys
import threading
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sigmadepth import geometry
from sigmadepth.classify import outsider_mask
from sigmadepth.errors import InputError
from sigmadepth.geometry import (
    GeomTolerance,
    SimplexBatch,
    TrianglePairTables,
    barycentric_coordinates,
    convex_hull_contains,
    convex_hull_contains_many,
    enlarge_batch,
    enlarge_simplex,
    simplex_contains,
)
from sigmadepth.sigma import sample_sigma_blocks

from oracle import hull_contains_exact, hull_distances_exact

RTOL = 1e-12


def test_enlarge_segment():
    out = enlarge_simplex([[0.0], [1.0]], 2.0)
    assert np.allclose(out, [[-0.5], [1.5]], rtol=RTOL)


def test_enlarge_identity_at_one():
    tri = np.array([[0.0, 0.0], [3.0, 0.0], [0.0, 3.0]])
    assert np.allclose(enlarge_simplex(tri, 1.0), tri)


def test_enlarge_triangle_about_centroid():
    tri = [[0.0, 0.0], [3.0, 0.0], [0.0, 3.0]]
    out = enlarge_simplex(tri, 2.0)
    assert np.allclose(out, [[-1.0, -1.0], [5.0, -1.0], [-1.0, 5.0]], rtol=RTOL)


@pytest.mark.parametrize("sigma", [0.0, -1.0, float("nan"), "2", None, True])
def test_enlarge_rejects_bad_sigma(sigma):
    with pytest.raises(InputError):
        enlarge_simplex([[0.0], [1.0]], sigma)


def test_hull_membership_triangle():
    pts = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]
    assert convex_hull_contains(pts, [0.2, 0.2])
    assert not convex_hull_contains(pts, [0.6, 0.6])


def test_hull_membership_off_segment():
    assert not convex_hull_contains([[0.0, 0.0], [1.0, 0.0]], [0.5, 0.1])
    assert convex_hull_contains([[0.0, 0.0], [1.0, 0.0]], [0.5, 0.0])


def test_hull_closed_at_vertex():
    pts = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]
    assert convex_hull_contains(pts, [1.0, 0.0])


def test_hull_rejects_empty():
    with pytest.raises(InputError):
        convex_hull_contains(np.empty((0, 2)), [0.0, 0.0])


def test_triangle_hull_mask_decides_at_eps():
    """The slab rule decides a flat triangle at eps, not at the LP's feasibility tolerance.

    x is 1.84e-8 from the segment, in exact arithmetic: outside at the
    default eps of 1e-9, inside at 2e-8, and convex_hull_contains and
    simplex_contains give the mask's answer.
    """
    V = np.array([[2.0, 3.0], [1.0, 1.0], [1.0, 1.0]])
    x = np.array([[1.3333334550077849, 1.666666965233481]])
    for tol, want in [(GeomTolerance(), False), (GeomTolerance(eps=2e-8), True)]:
        assert hull_contains_exact(V, x, tol.eps) == [want]
        assert convex_hull_contains_many(V, x, tol).tolist() == [want]
        assert convex_hull_contains(V, x[0], tol) is want
        assert simplex_contains(V, x[0], tol) is want


def _grid_simplex(d, flat, rng):
    """d + 1 vertices on the 1/8 grid, in random order; a flat set's last vertex is an integer affine combination of the others."""
    while True:
        V = rng.integers(-4, 5, (d + 1, d))
        if flat:
            w = rng.integers(-1, 2, d)
            V[d] = w @ V[:d] + (1 - w.sum()) * V[0]
        if (round(np.linalg.det((V[1:] - V[0]).astype(float))) == 0) == flat and np.abs(V).max() <= 8:
            return rng.permutation(V) / 8


@pytest.mark.parametrize("flat", [True, False], ids=["flat", "full"])
@pytest.mark.parametrize("d", [2, 3])
def test_hull_decisions_agree_on_grid_simplices(d, flat):
    """convex_hull_contains, convex_hull_contains_many and simplex_contains agree with the exact rule.

    Triangles and tetrahedra on the 1/8 grid; queries at the vertices, the
    midpoints of vertex pairs and random 1/16-grid points of the box
    around them, and for flat sets also 2e-9 and 5e-10 off the vertices,
    where the slab rule decides at eps.  On a full-dimensional simplex
    simplex_contains puts its slack on the barycentric coordinates, so
    there the queries keep off that scale.
    """
    rng = np.random.default_rng([d, flat])
    tol = GeomTolerance()
    decided = set()
    for _ in range(6):
        V = _grid_simplex(d, flat, rng)
        mids = np.array([(a + b) / 2 for a, b in itertools.combinations(V, 2)])
        X = [V, mids, rng.integers(-10, 11, (12, d)) / 16]
        if flat:
            X.append(V + rng.choice([-1.0, 1.0], V.shape) * rng.choice([2e-9, 5e-10], (d + 1, 1)))
        X = np.vstack(X)
        want = hull_contains_exact(V, X, tol.eps)
        assert convex_hull_contains_many(V, X, tol).tolist() == want
        assert [convex_hull_contains(V, x, tol) for x in X] == want
        assert [simplex_contains(V, x, tol) for x in X] == want
        decided.update(want)
    assert decided == {True, False}


@pytest.mark.parametrize("d", [2, 3])
def test_full_cloud_hull_mask_runs_no_lp(d, monkeypatch):
    """A full-dimensional 200-point cloud is decided by the slab rule, with no LP call, as outsider_mask decides it."""
    rng = np.random.default_rng(d)
    cloud = rng.standard_normal((200, d))
    X = 2.0 * rng.standard_normal((100, d))
    calls = _count_lp_calls(monkeypatch)
    mask = convex_hull_contains_many(cloud, X)
    assert len(calls) == 0
    assert {True, False} <= set(mask.tolist())
    assert mask.tolist() == (~outsider_mask(cloud, cloud + 100.0, X)).tolist()
    assert [geometry._hull_lp(cloud, x, geometry.DEFAULT_EPS) for x in X[:20]] == mask[:20].tolist()


def _hull_corpus(kind, rng):
    """A cloud of more than d + 1 points: in 2-D Gaussian, on the 1/4 grid, one-decimal data at
    1e4 or 1e6, four points repeated, or the nearly collinear cloud at 1e8 that Qhull rejects;
    in 3-D Gaussian or on the 1/2 grid."""
    if kind == "gaussian":
        return rng.standard_normal((18, 2))
    if kind == "grid":
        return rng.integers(-3, 4, (18, 2)) / 4
    if kind in ("decimal_1e4", "decimal_1e6"):
        base = float(kind[-3:])
        return np.array([[f"{base + v:.1f}" for v in p] for p in rng.standard_normal((18, 2))], dtype=float)
    if kind == "duplicate":
        return rng.standard_normal((4, 2))[rng.integers(0, 4, 18)]
    if kind == "collinear_1e8":
        t = np.linspace(0.0, 1.0, 7)
        cloud = 1e8 + np.column_stack([t, t])
        cloud[3, 1] += 1e-7
        return cloud
    if kind == "gaussian_3d":
        return rng.standard_normal((10, 3))
    return rng.integers(-2, 3, (10, 3)) / 2


@pytest.mark.parametrize(
    "kind", ["gaussian", "grid", "decimal_1e4", "decimal_1e6", "duplicate", "collinear_1e8", "gaussian_3d", "grid_3d"]
)
def test_cloud_hull_mask_matches_exact(kind, monkeypatch):
    """On clouds of more than d + 1 points the mask equals the exact rational rule at eps 0, 1e-9 and 0.25.

    Queries sit at the points, at midpoints of consecutive points, 5e-10
    to 0.3 off the points, and in the box around them (on the 1/8 grid
    for grid clouds).  No case makes an LP call.
    """
    rng = np.random.default_rng(list(kind.encode()))
    P = _hull_corpus(kind, rng)
    d = P.shape[1]
    lo, hi = P.min(axis=0), P.max(axis=0)
    box = lo + (hi - lo) * rng.uniform(-0.3, 1.3, (20, d))
    if "grid" in kind:
        box = np.round(8 * box) / 8
    off = P + rng.choice([-1.0, 1.0], P.shape) * rng.choice([5e-10, 2e-9, 0.2, 0.3], (len(P), 1))
    X = np.vstack([P, (P[:-1] + P[1:]) / 2, off, box])
    dist = hull_distances_exact(P, X)
    calls = _count_lp_calls(monkeypatch)
    decided = set()
    for eps in (0.0, 1e-9, 0.25):
        want = [r <= Fraction(eps + geometry.HULL_SLACK) for r in dist]  # hull_contains_exact's rule
        assert convex_hull_contains_many(P, X, GeomTolerance(eps=eps)).tolist() == want
        decided.update(want)
    assert len(calls) == 0
    assert decided == {True, False}


def test_polygon_keeps_every_point_of_a_nearly_collinear_cloud():
    """Every point of a 2-D cloud lies in its own hull, even where the float chain misjudges a turn.

    Twelve points on a line through 0 with slope 3.3, spread over 1e5,
    each moved 1e-11 up or down or not at all: at this spread the float
    turns near the line are rounding, so the polygon misses points that
    the check puts back.  Every point is inside at eps 0, and queries
    3e-9 to 1e-8 off the points are decided as exactly at eps 1e-9.
    """
    rng = np.random.default_rng(0)
    for _ in range(20):
        t = rng.uniform(0.0, 1e5, 12)
        P = np.column_stack([t, 3.3 * t + rng.choice([0.0, 1e-11, -1e-11], 12)])
        assert convex_hull_contains_many(P, P, GeomTolerance(eps=0.0)).all()
        X = P + rng.choice([-1.0, 1.0], P.shape) * rng.choice([3e-9, 1e-8], (12, 1))
        assert convex_hull_contains_many(P, X).tolist() == hull_contains_exact(P, X, geometry.DEFAULT_EPS)


@pytest.mark.parametrize("lift", [False, True], ids=["2d", "3d"])
def test_hull_eps_is_one_norm_with_or_without_centroid(lift):
    """eps is a sup-norm distance however the hull is given.

    The triangle (0, 0), (1, 0), (0, 1) holds (1.2, 0.2) at eps 0.25: its
    sup-norm distance is 0.2, though its Euclidean distance to the long
    edge is 0.28.  (1.3, 0.3) is 0.3 away and stays out.  The same holds
    with the centroid added, and lifted to 3-D, where the triangle gets
    the apex (0, 0, 1) and each query a third coordinate equal to its second.
    """
    V = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    X = np.array([[1.2, 0.2], [1.3, 0.3]])
    if lift:
        V = np.vstack([np.column_stack([V, np.zeros(3)]), [0.0, 0.0, 1.0]])
        X = np.column_stack([X, X[:, 1]])
    tol = GeomTolerance(eps=0.25)
    for P in (V, np.vstack([V, V.mean(axis=0)])):
        assert hull_contains_exact(P, X, tol.eps) == [True, False]
        assert convex_hull_contains_many(P, X, tol).tolist() == [True, False]


def test_polygon_hull_memory_does_not_grow_with_queries():
    """The 2-D rule takes its queries in chunks, so its peak memory does not grow with q.

    100 points on a circle give 100 vertices and 102 candidate normals, a
    chunk of 6 queries.  From q = 300 to 3000 the tracemalloc peak grows
    by at most the 2700 bytes of the larger mask; one unchunked tensor of
    (normals, queries, vertices) would add about 80 KB per query.
    """
    import tracemalloc

    angle = np.linspace(0.0, 2.0 * np.pi, 100, endpoint=False)
    cloud = np.column_stack([np.cos(angle), np.sin(angle)])
    rng = np.random.default_rng(0)
    peaks = {}
    for q in (300, 3000):
        X = rng.uniform(-1.5, 1.5, (q, 2))
        tracemalloc.start()
        try:
            mask = convex_hull_contains_many(cloud, X)
            peaks[q] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert {True, False} <= set(mask.tolist())
    assert peaks[3000] <= peaks[300] + 2700


def test_barycentric_centroid():
    tri = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]
    lam = barycentric_coordinates(tri, [1 / 3, 1 / 3])
    assert np.allclose(lam, [1 / 3, 1 / 3, 1 / 3])


def test_barycentric_degenerate_returns_none():
    collinear = [[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]]
    assert barycentric_coordinates(collinear, [0.5, 0.5]) is None


def test_simplex_contains_plain_and_dilated():
    tri = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    assert simplex_contains(tri, [0.25, 0.25])
    assert not simplex_contains(tri, [0.8, 0.8])
    # after dilation by 3 about the centroid the same point is covered
    assert simplex_contains(enlarge_simplex(tri, 3.0), [0.8, 0.8])


def test_batch_sigma_equals_pre_enlarged():
    """Thresholded containment must agree with explicit dilation."""
    rng = np.random.default_rng(42)
    verts = rng.standard_normal((50, 3, 2))
    X = rng.standard_normal((40, 2))
    for sigma in (1.0, 1.7, 4.0):
        thresholded = SimplexBatch(verts).contains_counts(X, [sigma])
        dilated = np.stack([enlarge_simplex(v, sigma) for v in verts])
        explicit = SimplexBatch(dilated).contains_counts(X, [1.0])
        assert np.array_equal(thresholded, explicit)


@given(st.integers(0, 2**32 - 1), st.sampled_from([1, 2]))
@settings(max_examples=40, deadline=None)
def test_batch_counts_match_single_membership(seed, d):
    rng = np.random.default_rng(seed)
    verts = rng.standard_normal((8, d + 1, d))
    X = rng.standard_normal((6, d))
    counts = SimplexBatch(verts).contains_counts(X, [1.0])[0]
    manual = np.array(
        [sum(simplex_contains(v, x) for v in verts) for x in X]
    )
    assert np.array_equal(counts, manual)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_containment_monotone_in_sigma(seed):
    """Growing the dilation factor never loses a covered point."""
    rng = np.random.default_rng(seed)
    verts = rng.standard_normal((12, 3, 2))
    X = rng.standard_normal((10, 2))
    grid = [1.0, 1.3, 2.0, 3.5, 6.0]
    counts = [SimplexBatch(verts).contains_counts(X, [s])[0] for s in grid]
    for a, b in zip(counts, counts[1:]):
        assert (b >= a).all()


def test_degenerate_simplex_point_rule():
    # all vertices identical: containment degenerates to a point test
    verts = np.zeros((1, 3, 2))
    batch = SimplexBatch(verts)
    assert batch.contains_counts(np.array([[0.0, 0.0]]), [5.0])[0, 0] == 1
    assert batch.contains_counts(np.array([[0.5, 0.0]]), [5.0])[0, 0] == 0


def test_degenerate_flat_simplex_falls_back_to_hull():
    # collinear triangle: zero area, but the segment still contains points
    verts = np.array([[[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]]])
    batch = SimplexBatch(verts)
    assert batch.contains_counts(np.array([[1.5, 1.5]]), [1.0])[0, 0] == 1
    assert batch.contains_counts(np.array([[1.5, 1.6]]), [1.0])[0, 0] == 0


def _flat_grid_sets(d, seed):
    """Affinely dependent (d+1)-subsets of grid points with duplicates and collinear runs."""
    rng = np.random.default_rng(seed)
    P = rng.integers(0, 3, (6, d))
    P[1] = P[0]  # a duplicate
    P[2] = 2 * P[3] - P[4]  # P[2], P[3], P[4] collinear
    combos = np.array(list(itertools.combinations(range(len(P)), d + 1)))
    E = P[combos[:, 1:]] - P[combos[:, :1]]
    flat = np.round(np.linalg.det(E.astype(float))) == 0
    return P.astype(float), combos[flat]


@pytest.mark.parametrize("eps", [1e-9, 0.25])
@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("sigma", [1.0, 1.5, 2.0, 3.0])
def test_screened_hull_mask_matches_lp(d, sigma, eps):
    """The batched hull mask agrees with the exact rational distance on degenerate grid sets.

    Queries sit at the vertices, at the midpoints of vertex pairs, and just
    off the set: within and beyond the slack, and up to 1e-3 away.  The
    reference is exact, not the LP, which accepts at its own tolerance of
    about 1e-7: at eps 1e-9 in 3-D it accepts queries 1.2e-9 away.
    """
    tol = GeomTolerance(eps=eps)
    P, combos = _flat_grid_sets(d, seed=d)
    sets = enlarge_batch(P[combos], sigma)
    offsets = np.array([1e-3, 1e-6, 2e-9, 5e-10, 0.5 * eps, 0.99 * eps, 1.01 * eps])
    directions = np.vstack([np.eye(d), np.eye(d)[-1] - np.eye(d)[0]])
    decided = set()
    for V in sets[:: max(1, len(sets) // 5)]:
        mids = np.array([(a + b) / 2 for a, b in itertools.combinations(V, 2)])
        off = (mids[0] + offsets[:, None, None] * directions).reshape(-1, d)
        X = np.vstack([V, mids, off])
        want = hull_contains_exact(V, X, eps)
        assert convex_hull_contains_many(V, X, tol).tolist() == want
        decided.update(want)
    assert decided == {True, False}


def _flat_corpus_3d(kind, rng):
    """Five coplanar 3-D points: on the quarter grid, as two-decimal data at 1e4, or three distinct points with repeats."""
    if kind == "duplicate":
        return rng.integers(-4, 5, (3, 3))[[0, 1, 2, 0, 1]] / 4
    ab = rng.integers(-4, 5, (5, 2))
    c = rng.integers(-2, 3, 2)
    P = np.column_stack([ab, ab @ c])
    if kind == "grid":
        return P / 4
    return np.array([[f"{1e4 + 0.01 * v:.2f}" for v in p] for p in P], dtype=float)


@given(st.integers(0, 2**32 - 1), st.sampled_from(["grid", "decimal", "duplicate"]), st.sampled_from([1.0, 1.5, 3.0]))
@settings(max_examples=15, deadline=None)
def test_flat_3d_counts_match_exact_hulls(seed, kind, sigma):
    """Every tetrahedron of a flat 3-D corpus is degenerate, and the counts equal the exact rational rule.

    Queries sit at the points, at their midpoints, 2e-9 and 5e-10 off
    them, at the centroid, and far away.
    """
    rng = np.random.default_rng(seed)
    P = _flat_corpus_3d(kind, rng)
    verts = P[np.array(list(itertools.combinations(range(len(P)), 4)))]
    off = rng.choice([-1.0, 1.0], P.shape) * rng.choice([2e-9, 5e-10], (len(P), 1))
    X = np.vstack([P, (P[:-1] + P[1:]) / 2, P + off, P.mean(axis=0), P[0] + 1.0])
    batch = SimplexBatch(verts)
    assert batch.n_degenerate == len(verts)
    want = np.sum([hull_contains_exact(V, X, batch.eps) for V in enlarge_batch(verts, sigma)], axis=0)
    assert batch.contains_counts(X, [sigma]).tolist() == [want.tolist()]


def _count_lp_calls(monkeypatch):
    calls = []
    lp = geometry._hull_lp

    def counted(*args, **kwargs):
        calls.append(args)
        return lp(*args, **kwargs)

    monkeypatch.setattr(geometry, "_hull_lp", counted)
    return calls


def test_far_queries_skip_the_hull_lp(monkeypatch):
    """Flat triangles and tetrahedra are decided by the slab rule, far or near; a flat 4-simplex still takes the LP."""
    calls = _count_lp_calls(monkeypatch)
    batch = SimplexBatch(np.array([[[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]]]))
    far = np.array([[5.0, -5.0], [10.0, 10.0], [-3.0, 4.0], [1.0, 1.5]])
    assert batch.contains_counts(far, [1.0]).tolist() == [[0, 0, 0, 0]]
    assert batch.contains_counts(np.array([[1.5, 1.5]]), [1.0]).tolist() == [[1]]
    assert len(calls) == 0
    flat = SimplexBatch(np.array([[[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 1.0, 0.0]]]))
    assert flat.contains_counts(np.array([[0.5, 0.5, 0.0], [0.5, 0.5, 1e-3]]), [1.0]).tolist() == [[1, 0]]
    assert len(calls) == 0
    flat4 = SimplexBatch(np.vstack([np.zeros(4), np.eye(4)[:3], np.eye(4)[0] + np.eye(4)[1]])[None])
    assert flat4.contains_counts(np.array([[0.5, 0.5, 0.0, 0.0]]), [1.0]).tolist() == [[1]]
    assert len(calls) == 1


@pytest.mark.parametrize("eps", [1e-9, 0.25])
@pytest.mark.parametrize("sigma", [1.0, 1.5, 2.0, 3.0])
def test_collinear_triangles_match_lp(sigma, eps):
    """The slab rule agrees with the exact rational distance on collinear triangles.

    Queries sit at the vertices, at the segment ends and their float
    neighbours, at offsets from 1e-6 to 1e8 off a segment end and the
    segment's midpoint, in four directions, and on the segment's line at
    grid and decimal steps inside it and past each end.  The last two sets
    have centroids that round at sigma 1.5 and 2, so their dilated vertices
    are collinear only up to rounding.  The test keeps its name from when
    the hull LP was the reference.
    """
    tol = GeomTolerance(eps=eps)
    base = [
        [[0, 0], [1, 1], [2, 2]],
        [[0, 0], [0, 0], [3, 0]],
        [[2, 5], [2, 5], [2, 5]],
        [[4, 1], [0, 3], [2, 2]],
        [[0, 1], [1, 2], [2, 3]],
        [[0, 0], [1, 3], [2, 6]],
    ]
    sets = enlarge_batch(np.array(base, dtype=float), sigma)
    sets = np.concatenate([sets, sets + 1e4, sets[:, ::-1] - 7.5])
    directions = np.array([[1.0, 0.0], [0.0, -1.0], [1.0, 1.0], [-1.0, 0.5]])
    offsets = np.array([1e-6, 1e-3, 1.0, 1e3, 1e8])
    steps = np.array([-1e3, -2.5, -1.125, -0.1, 0.3, 0.625, 1.1, 1.125, 3.7, 1e3])
    decided = set()
    for V in sets:
        ends = V[np.lexsort(V.T[::-1])][[0, -1]]
        near = np.vstack([np.nextafter(ends, np.inf), np.nextafter(ends, -np.inf)])
        off = (np.vstack([ends[:1], ends.mean(axis=0)])[:, None, None] + offsets[:, None, None] * directions).reshape(-1, 2)
        on_line = ends[0] + steps[:, None] * (ends[1] - ends[0])
        X = np.vstack([V, ends, near, off, on_line])
        want = hull_contains_exact(V, X, eps)
        assert convex_hull_contains_many(V, X, tol).tolist() == want
        decided.update(want)
    assert decided == {True, False}


def test_sliver_triangle_needs_orientation_and_every_edge():
    """Flagged-degenerate slivers: vertices, long-edge midpoint and centroid are inside.

    At 1e4 the middle vertex sits 5e-9 off the long edge, so a rule that
    measured only the distance to the segment between the lexicographic
    extremes would lose it (vertex counts [1, 0, 1]).  At 1e6 the sliver
    is 5e-7 thick and its centroid is farther than eps from every edge, so
    a rule that only measured distances to the edges would lose it; the
    slab rule keeps it, for it lies inside every slab.
    """
    for mag, h in [(1e4, 5e-9), (1e6, 5e-7)]:
        V = mag + np.array([[0.0, 0.0], [1.0, 1.0 + h], [2.0, 2.0]])
        batch = SimplexBatch(V[None])
        assert batch.n_degenerate == 1
        X = np.vstack([V, (V[0] + V[2]) / 2, V.mean(axis=0)])
        assert [convex_hull_contains(V, x) for x in X] == [True] * 5
        assert convex_hull_contains_many(V, X).tolist() == [True] * 5
        assert batch.contains_counts(X, [1.0]).tolist() == [[1] * 5]


@pytest.mark.parametrize("shift", [0.0, 1e5, 1e6, 1e8])
def test_translated_triangles_stay_nondegenerate(shift):
    """Maps and singularity bound built from edges: a shift flags no triangle, moves no count."""
    rng = np.random.default_rng(0)
    data = rng.standard_normal((12, 2))
    X = rng.standard_normal((6, 2))
    combos = np.array(list(itertools.combinations(range(12), 3)))
    batch = SimplexBatch(data[combos] + shift)
    assert batch.n_degenerate == 0
    assert batch.contains_counts(X + shift, [1.0]).tolist() == [[0, 18, 68, 24, 46, 50]]


@pytest.mark.parametrize("sigma", [1.0, 2.0])
@pytest.mark.parametrize("mag", [100.0, 1e4])
def test_rounded_collinear_triples_are_degenerate(mag, sigma):
    """Decimal data far from the origin: flat triples are flagged, vertices counted.

    Five points lie on a line only to decimal precision, so the float
    determinant of a flat triple is rounding noise.  The reference counts
    are the exact rational hull rule per (triangle, query) pair on the
    copy shifted by -mag, which is exact in floats.
    """
    grid = [(j, 3 + j) for j in range(5)] + [(3, 1), (0, 9), (6, 2)]
    text = [(f"{mag + 0.1 * a:.1f}", f"{2 * mag + 0.1 * b:.1f}") for a, b in grid]
    exact = [tuple(Fraction(c) for c in p) for p in text]
    P = np.array(text, dtype=float)
    combos = list(itertools.combinations(range(len(P)), 3))

    def flat(i, j, l):
        (ax, ay), (bx, by), (cx, cy) = exact[i], exact[j], exact[l]
        return (bx - ax) * (cy - ay) - (by - ay) * (cx - ax) == 0

    batch = SimplexBatch(P[combos])
    assert batch.n_degenerate == sum(flat(*c) for c in combos) >= 10
    shift = np.array([mag, 2 * mag])
    hulls = enlarge_batch(P[combos] - shift, sigma)
    want = np.sum([hull_contains_exact(v, P - shift, batch.eps) for v in hulls], axis=0)
    assert batch.contains_counts(P, [sigma]).tolist() == [want.tolist()]


def test_hull_lp_accepts_own_vertex_far_from_origin():
    """The LP runs on the points relative to the query, so magnitude does not matter."""
    V = np.array([[9999.7, 10000.3], [10000.3, 9999.8], [10000.2, 10000.2]])
    assert geometry._hull_lp(V, V[2], geometry.DEFAULT_EPS)
    assert geometry._hull_lp(V - 1e4, V[2] - 1e4, geometry.DEFAULT_EPS)


def test_hull_lp_vertex_sweep_at_magnitude_1e4():
    """Every vertex of every triangle of decimal clouds at 1e4 is inside its hull."""
    rng = np.random.default_rng(7)
    for _ in range(4):
        P = np.round(1e4 + rng.standard_normal((8, 2)), 1)
        for tri in itertools.combinations(range(len(P)), 3):
            V = P[list(tri)]
            assert all(geometry._hull_lp(V, v, geometry.DEFAULT_EPS) for v in V)


def _einsum_counts(batch, X, sigma):
    """Counts by the former (q, m, d+1) einsum kernel on the batch's own maps."""
    lin = np.ascontiguousarray(batch._lin.transpose(2, 0, 1))
    val = np.einsum("mkd,qd->qmk", lin, X)
    val += np.ascontiguousarray(batch._const.T)
    thr = ((1.0 - sigma) / (batch.d + 1) - batch.eps * sigma) * batch._absdet
    counts = (val >= thr[:, None]).all(axis=2).sum(axis=1)
    hulls = enlarge_batch(batch._degenerate_verts, sigma)
    return counts + geometry._hulls_contain(hulls, X, batch.eps).sum(axis=0)


def _parity_data(kind, d, rng):
    n = {1: 30, 2: 14, 3: 9, 4: 8}[d]
    if kind == "grid":
        return rng.integers(0, 8, (n, d)).astype(float)
    if kind == "decimal":
        return np.round(1e4 + 0.05 * rng.standard_normal((n, d)), 2)
    return rng.standard_normal((n, d))


def _parity_points(kind, d):
    """The data points and the queries: three far points, the midpoints of neighbours, the data points."""
    rng = np.random.default_rng([d, len(kind)])
    P = _parity_data(kind, d, rng)
    far = P[:3] + 10.0 * (P.max(axis=0) - P.min(axis=0) + 1.0)
    return P, np.vstack([far, (P[:-1] + P[1:]) / 2, P])


def _parity_case(kind, d):
    P, X = _parity_points(kind, d)
    return _all_simplices(P), X


def _all_simplices(P):
    return P[np.array(list(itertools.combinations(range(len(P)), P.shape[1] + 1)))]


# Unsorted, with a repeat and shrinking factors below 1; more than 8, so the kernel compares them in two groups.
PARITY_SIGMAS = (3.0, 1.0, 1.5, 1.0, 0.5, 5.0, 1.2, 2.0, 4.0, 0.8, 2.5)


@pytest.mark.parametrize("cap", [geometry._CHUNK_ELEMS, 24])
@pytest.mark.parametrize("kind", ["grid", "decimal", "gaussian"])
@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_streaming_kernel_matches_einsum(d, kind, cap, monkeypatch):
    """The streaming kernel gives byte-equal counts to the einsum formulation.

    One pass over a sigma grid gives, row by row, the counts of a
    one-sigma call and of the einsum reference.  The reference has no
    chunks and dilates the degenerate vertex sets itself, so it catches a
    dropped simplex chunk and hull tests on another sigma's vertices.
    With the small cap the batches below take one query per chunk, a
    ragged last query chunk, and several chunks over the simplices.
    """
    monkeypatch.setattr(geometry, "_CHUNK_ELEMS", cap)
    hit = np.zeros(3, dtype=bool)  # one query per chunk, ragged query chunk, m > cap
    verts, X = _parity_case(kind, d)
    if kind == "grid" and d == 2:
        assert SimplexBatch(verts).n_degenerate > 0
    for m in (len(verts), 13, 7, 5):
        q_chunk = cap // min(m, cap)
        hit |= [q_chunk == 1, len(X) % q_chunk > 0, m > cap]
        batch = SimplexBatch(verts[-m:])
        counts = batch.contains_counts(X, PARITY_SIGMAS)
        assert counts.shape == (len(PARITY_SIGMAS), len(X))
        for row, sigma in zip(counts, PARITY_SIGMAS):
            assert row.tolist() == _einsum_counts(batch, X, sigma).tolist()
            assert row.tolist() == batch.contains_counts(X, [sigma])[0].tolist()
    assert cap > 24 or hit.all()


def test_simplex_batch_counts_are_the_same_on_any_worker_count(monkeypatch):
    """Threaded query blocks give the einsum reference's counts for a whole sigma grid.

    Grid triangles, with degenerate members, and decimal tetrahedra at 1e4
    are counted on 1, 2, 3 and 8 workers, with the default chunk cap and a
    cap of 24, under which the simplices take several chunks.  The cases
    cover q = 0, q = 1, one query chunk, more query chunks than workers and
    a ragged last block, and no thread outlives a call.
    """
    monkeypatch.setattr(geometry, "_MIN_JOB_CELLS", 1)  # split every call, however small
    default = geometry._CHUNK_ELEMS
    # q 0, q 1, one query chunk, chunks > workers, ragged last block, several simplex chunks, degenerate members
    hit = np.zeros(7, dtype=bool)
    for kind, d in (("grid", 2), ("decimal", 3)):
        verts, X = _parity_case(kind, d)
        for m in (len(verts), 7):
            batch = SimplexBatch(verts[-m:])
            mg = m - batch.n_degenerate
            want = np.array([_einsum_counts(batch, X, sigma) for sigma in PARITY_SIGMAS])
            for cap in (default, 24):
                monkeypatch.setattr(geometry, "_CHUNK_ELEMS", cap)
                q_chunk = cap // max(1, min(mg, cap))
                for workers in (1, 2, 3, 8):
                    monkeypatch.setattr(geometry, "_WORKERS", workers)
                    for q in (0, 1, 7, len(X)):
                        chunks = math.ceil(q / q_chunk)
                        block = math.ceil(chunks / max(1, min(workers, chunks))) * q_chunk
                        ragged = q > block and q % block > 0
                        hit |= [q == 0, q == 1, q > 1 and chunks == 1, chunks > workers > 1, ragged, mg > cap, m > mg]
                        threads = threading.active_count()
                        got = batch.contains_counts(X[:q], PARITY_SIGMAS)
                        assert threading.active_count() == threads
                        assert got.shape == (len(PARITY_SIGMAS), q)
                        assert np.array_equal(got, want[:, :q]), (kind, m, cap, workers, q)
    assert hit.all()


def test_simplex_batch_threads_keep_their_counts_under_stress(monkeypatch):
    """Eight workers on two or more cores, switching threads every microsecond, count as one does.

    Each of the 19 query chunks is a full kernel chunk, so the workers
    overlap for most of a call; a buffer or counts row shared between them
    would change some count.
    """
    rng = np.random.default_rng(17)
    batch = SimplexBatch(rng.standard_normal((2000, 3, 2)))
    X = rng.standard_normal((600, 2))
    monkeypatch.setattr(geometry, "_MIN_JOB_CELLS", 1)  # 150 000 cells per worker would not split
    monkeypatch.setattr(geometry, "_WORKERS", 1)
    want = batch.contains_counts(X, PARITY_SIGMAS)
    monkeypatch.setattr(geometry, "_WORKERS", 8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            assert np.array_equal(batch.contains_counts(X, PARITY_SIGMAS), want)
    finally:
        sys.setswitchinterval(interval)


def _recorded_threads(monkeypatch):
    """The worker count of every geometry._Threads block, in order."""
    made = []

    class Recorded(geometry._Threads):
        def __init__(self, workers):
            made.append(workers)
            super().__init__(workers)

    monkeypatch.setattr(geometry, "_Threads", Recorded)
    return made


def test_pair_table_counts_are_the_same_on_any_worker_count(monkeypatch):
    """Middle vertices split over threads give the one-thread kernel's counts for a whole sigma grid.

    Grid points, whose triangles include degenerate ones, are counted on
    1, 2, 3 and 8 workers with every call split, at the default chunk cap
    and at 7 queries per chunk, where 30 queries end in a ragged chunk of
    2.  The cases cover q = 0, q = 1, fewer middle vertices than workers
    and n < 3, and no thread outlives a call.
    """
    monkeypatch.setattr(geometry, "_MIN_JOB_CELLS", 1)
    made = _recorded_threads(monkeypatch)
    default = geometry._CHUNK_ELEMS
    P, X = _parity_points("grid", 2)
    hit = np.zeros(6, dtype=bool)  # q 0, q 1, ragged last chunk, n < 3, fewer middle vertices than workers, degenerate
    for n in (len(P), 4, 3, 2):
        tables = TrianglePairTables(P[:n])
        if n >= 3:
            monkeypatch.setattr(geometry, "_CHUNK_ELEMS", default)
            monkeypatch.setattr(geometry, "_WORKERS", 1)
            want = SimplexBatch(_all_simplices(P[:n])).contains_counts(X, PARITY_SIGMAS)
        else:
            want = np.zeros((len(PARITY_SIGMAS), len(X)), dtype=np.int64)
        widest = max((a.size for a in tables._absdets), default=1)
        for cap in (default, 7 * widest):
            monkeypatch.setattr(geometry, "_CHUNK_ELEMS", cap)
            for workers in (1, 2, 3, 8):
                monkeypatch.setattr(geometry, "_WORKERS", workers)
                for q in (0, 1, len(X)):
                    made.clear()
                    threads = threading.active_count()
                    got = tables.contains_counts(X[:q], PARITY_SIGMAS)
                    assert threading.active_count() == threads
                    assert np.array_equal(got, want[:, :q]), (n, cap, workers, q)
                    if q and n >= 3:
                        assert made == [min(workers, n - 2)]
                    hit |= [q == 0, q == 1, q % (cap // widest) > 0 and q > cap // widest, n < 3, n - 2 < workers, tables.n_degenerate > 0]
    assert hit.all()


def test_pair_table_threads_keep_their_counts_under_stress(monkeypatch):
    """Eight workers over the middle vertices, switching threads every microsecond, count as one does."""
    rng = np.random.default_rng(19)
    tables = TrianglePairTables(rng.standard_normal((60, 2)))
    X = rng.standard_normal((200, 2))
    monkeypatch.setattr(geometry, "_MIN_JOB_CELLS", 1)
    monkeypatch.setattr(geometry, "_WORKERS", 1)
    want = tables.contains_counts(X, PARITY_SIGMAS)
    monkeypatch.setattr(geometry, "_WORKERS", 8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            assert np.array_equal(tables.contains_counts(X, PARITY_SIGMAS), want)
    finally:
        sys.setswitchinterval(interval)


def test_counters_split_only_calls_above_the_work_floor(monkeypatch):
    """On two cores, the benchmark's short 2-D calls stay on the calling thread and its long ones split.

    One thread: a ties2d class (40 points, 6 queries) and the 50-point
    block transform of exact2d_stream (30 queries).  Two threads: the
    exact2d_stream count (150 points, 30 queries) and the kernel call of
    a sim1_mc2d class (150 queries against 20 000 triangles).
    """
    monkeypatch.setattr(geometry, "_WORKERS", 2)
    made = _recorded_threads(monkeypatch)
    rng = np.random.default_rng(41)
    cloud = rng.standard_normal((150, 2))
    calls = [
        (TrianglePairTables(rng.standard_normal((40, 2))), 6, 1),
        (TrianglePairTables(sample_sigma_blocks(cloud, 2.0)), 30, 1),
        (TrianglePairTables(cloud), 30, 2),
        (SimplexBatch(rng.standard_normal((20_000, 3, 2))), 150, 2),
    ]
    for counter, q, workers in calls:
        made.clear()
        counter.contains_counts(rng.standard_normal((q, 2)), [1.0, 2.0])
        assert made == [workers], (type(counter).__name__, q)


def test_tolerance_validation():
    with pytest.raises(InputError):
        GeomTolerance(eps=-1e-9)
    # a bool is a flag, not a number; strings, None and non-finite values are no eps either
    for eps in (True, False, "0.1", None, math.nan, math.inf, np.array([0.1])):
        with pytest.raises(InputError):
            GeomTolerance(eps=eps)
    assert GeomTolerance(eps=0.0).eps == 0.0
    assert GeomTolerance(eps=np.float64(0.5)).eps == 0.5
