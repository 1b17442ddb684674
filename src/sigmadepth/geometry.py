"""Point-in-simplex predicates, simplex enlargement, hull membership, and
the three containment counters: count_pairs_1d, TrianglePairTables and
SimplexBatch, which share one chunk cap and one threshold t(sigma).  The
two barycentric ones also share one compare-and-count (_add_hits) and
one thread rule (_ranges); 1-D pair counting runs on the calling thread.

Simplices are float arrays of shape (d+1, d): one vertex per row.  Points
are 1-D arrays of length d.  Containment is tested on the closed simplex
with a small slack ``eps`` applied to the barycentric coordinates, so a
point exactly on a facet counts as inside regardless of rounding.

Degenerate (affinely dependent) simplices are legal: containment then
falls back to convex-hull membership of the vertex set, so duplicated
data points behave deterministically.  convex_hull_contains_many is the
one hull decision.  In d <= 3 it is one sup-norm rule at eps, the slab
rule, with candidate normals chosen by the shape of the set: every 2-D
set goes through its convex polygon, with no Qhull and no LP.  Only
d >= 4 sets and flat 3-D clouds reach the hull LP, which accepts at its
tolerance of about 1e-7.
"""

from __future__ import annotations

import math
import numbers
import os
from dataclasses import dataclass

import numpy as np

from .errors import InputError

# Slack on barycentric coordinates for closed-simplex containment.
DEFAULT_EPS = 1e-9
# Relative determinant threshold below which a vertex matrix counts as singular.
PIVOT_RTOL = 1e-12
# Added to eps by every hull rule, so a point on the hull's boundary passes despite rounding.
HULL_SLACK = 1e-12
# Threads for the kernel and the pair tables: the cores this process may run on.
_WORKERS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
# Least work per thread, in (simplex, query) cells of a call for the kernel
# and of a query chunk for the pair tables, for which they split (_ranges).  Two workers' time over one's, on a
# shared 2-core host with numpy 2.4.6, over three to five sweeps: the kernel
# on 20 000 triangles and 7 sigmas read 0.89-2.31 at 0.06 Mi cells per job
# (q = 6), 0.64-1.29 at 0.34 Mi, 0.69-1.10 at 0.86 Mi and 0.58-0.79 at
# 1.43 Mi (q = 150); the pair tables, per query chunk, read 0.77-1.27 at
# 0.3-0.5 Mi, 0.81-1.06 at 0.77 Mi (n = 100, q = 10), 0.82-1.05 at 2.0 Mi
# (n = 100, q = 30) and 0.68-0.69 at 2.9 Mi (n = 150, q = 30).  Below about
# 1 Mi a split loses as often as it wins, and loses most when other
# processes hold a core.
_MIN_JOB_CELLS = 2**20
# Cap on each buffer of the three counters, in elements: 512 KiB per float
# buffer, so the kernel's working set stays in a 2 MiB L2 cache.  The pair
# tables size their query chunk by it, _CHUNK_ELEMS // (widest rectangle),
# so their table of one chunk, c * n^2, holds about four buffers' worth.
_CHUNK_ELEMS = 2**16


@dataclass(frozen=True)
class GeomTolerance:
    """Absolute slack applied to barycentric coordinates (eps >= 0)."""

    eps: float = DEFAULT_EPS

    def __post_init__(self):
        if not (_is_real(self.eps) and self.eps >= 0):
            raise InputError(f"eps must be a finite real >= 0, got {self.eps!r}")


def _is_real(value) -> bool:
    """A finite real number; a bool is a flag, not a number."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool) and math.isfinite(value)


def as_point(x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.ndim == 0:
        x = x.reshape(1)
    if x.ndim != 1 or x.size < 1 or not np.all(np.isfinite(x)):
        raise InputError("point must be a finite 1-D coordinate vector")
    return x


def as_points(points) -> np.ndarray:
    """Validate and return an (n, d) float array of finite points."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    if pts.ndim != 2 or pts.shape[0] < 1 or pts.shape[1] < 1:
        raise InputError(f"expected a nonempty (n, d) point array, got shape {pts.shape}")
    if not np.all(np.isfinite(pts)):
        raise InputError("points must be finite")
    return pts


def as_simplex(vertices) -> np.ndarray:
    v = np.asarray(vertices, dtype=float)
    if v.ndim == 1:
        v = v[:, None]
    if v.ndim != 2 or v.shape[0] != v.shape[1] + 1:
        raise InputError(f"simplex needs d+1 vertices in R^d, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise InputError("simplex vertices must be finite")
    return v


def bary_affine_parts(verts: np.ndarray):
    """Det-scaled barycentric coordinates as affine maps of the query point.

    For a batch of simplices (m, d+1, d) the coordinates of a query x in
    simplex s satisfy alpha_i(x) * det[s] = const[i, s] + lin[i, :, s] @ x.
    Returns (const (d+1, m), lin (d+1, d, m), det (m,), scale (m,)), rows
    first as the kernel reads them.  det and lin come from the edges
    v_i - v_0, and const_i = -lin_i @ v_j for a vertex v_j != v_i, so the
    rounding in const + lin @ x grows like |x| * |lin|, not like |x|^2.
    scale = max_i |v_i| * max_i |v_i - v_0|^(d-1), in sup norms, bounds
    that growth, and the singularity test is |det| <= PIVOT_RTOL * scale:
    a simplex whose det the rounding could swamp counts as degenerate.

    Closed forms for d = 1, 2 keep the hot paths division-free; larger d
    goes through batched LAPACK.
    """
    verts = np.asarray(verts, dtype=float)
    m, k, d = verts.shape
    if k != d + 1:
        raise InputError(f"expected (m, d+1, d) vertex array, got {verts.shape}")

    E = verts[:, 1:] - verts[:, :1]
    scale = _row_absmax(verts) * _row_absmax(E) ** (d - 1)

    lin = np.zeros((k, d, m))
    if d == 1:
        det = verts[:, 0, 0] - verts[:, 1, 0]
        lin[0, 0] = 1.0
        lin[1, 0] = -1.0
    elif d == 2:
        ax, ay = verts[:, 0, 0], verts[:, 0, 1]
        bx, by = verts[:, 1, 0], verts[:, 1, 1]
        cx, cy = verts[:, 2, 0], verts[:, 2, 1]
        lin[0, 0] = by - cy
        lin[0, 1] = cx - bx
        lin[1, 0] = cy - ay
        lin[1, 1] = ax - cx
        lin[2, 0] = ay - by
        lin[2, 1] = bx - ax
        det = _det2(E[:, 0], E[:, 1])
    else:
        # alpha_1..d = E^{-T} (x - v_0) with E's rows the edges; alpha_0 = 1 - sum.
        det = np.linalg.det(E)
        good = ~_singular(np.abs(det), scale)
        if np.any(good):
            adj = np.linalg.inv(E[good]) * det[good, None, None]
            lin[1:, :, good] = adj.transpose(2, 1, 0)
        lin[0] = -lin[1:].sum(axis=0)
    # alpha_i vanishes at every vertex but v_i: at v_1 for i = 0, else at v_0.
    const, odd, tmp = np.empty((k, m)), np.empty(m), np.empty(m)
    for i in range(k):
        _dot_into(verts[:, int(i == 0)], lin[i], const[i], odd, tmp)
    return -const, lin, det, scale


def _det2(e0: np.ndarray, e1: np.ndarray) -> np.ndarray:
    """2-D determinant of the edge vectors e0, e1 (..., 2), as bary_affine_parts forms it."""
    return e0[..., 0] * e1[..., 1] - e0[..., 1] * e1[..., 0]


def _singular(absdet: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """The singularity rule of bary_affine_parts, given absdet = |det|: |det| <= PIVOT_RTOL * scale."""
    return absdet <= PIVOT_RTOL * scale


def _row_absmax(a: np.ndarray) -> np.ndarray:
    """max |a[i, ...]| per leading index; a column loop beats numpy's short-row reduce."""
    a = a.reshape(len(a), math.prod(a.shape[1:]))  # not -1: a may have no rows
    out = np.abs(a[:, 0])
    for j in range(1, a.shape[1]):
        np.maximum(out, np.abs(a[:, j]), out=out)
    return out


def barycentric_coordinates(simplex, x):
    """Barycentric coordinates of x in the simplex, or None if degenerate.

    The returned alpha satisfies sum(alpha) = 1 and alpha @ vertices = x.
    None signals an affinely dependent vertex set (relative determinant
    below PIVOT_RTOL).
    """
    v = as_simplex(simplex)
    x = as_point(x)
    if x.size != v.shape[1]:
        raise InputError(f"point dim {x.size} != simplex dim {v.shape[1]}")
    const, lin, det, scale = bary_affine_parts(v[None])
    if _singular(np.abs(det), scale)[0]:
        return None
    return (const[:, 0] + lin[:, :, 0] @ x) / det[0]


def check_sigma(sigma: float) -> float:
    if not (_is_real(sigma) and sigma > 0):
        raise InputError(f"sigma must be a finite real > 0, got {sigma!r}")
    return float(sigma)


def enlarge_simplex(simplex, sigma: float) -> np.ndarray:
    """Dilate a simplex by factor sigma about its vertex centroid.

    Each vertex maps to c + sigma * (v - c) with c the centroid, which is
    therefore preserved exactly; sigma = 1 is the identity.
    """
    v = as_simplex(simplex)
    sigma = check_sigma(sigma)
    # At sigma = 1 enlarge_batch hands back its input, which may be the caller's array.
    return enlarge_batch(v[None], sigma)[0].copy()


def enlarge_batch(verts: np.ndarray, sigma: float) -> np.ndarray:
    """enlarge_simplex over a stacked (m, d+1, d) batch."""
    if sigma == 1.0:
        return verts
    c = verts.mean(axis=1, keepdims=True)
    return c + sigma * (verts - c)


def convex_hull_contains(points, x, tol: GeomTolerance = GeomTolerance()) -> bool:
    """True iff x lies within tol.eps of the convex hull of the points: convex_hull_contains_many on one row."""
    return bool(convex_hull_contains_many(points, as_point(x)[None], tol)[0])


def convex_hull_contains_many(points, X, tol: GeomTolerance = GeomTolerance()) -> np.ndarray:
    """Mask over the rows of X (q, d): within sup-norm tol.eps of the convex hull of the points (k, d).

    d = 1: the interval rule.  In d = 2 and 3 the slab rule of
    _slabs_contain, one sup-norm rule whose candidate normals and vertices
    depend on the set:
    - d = 2, any k: the convex polygon (_polygon_slabs), its edge normals
      and the two axes, with the queries in chunks so no buffer grows with q;
    - d = 3, k <= 4: every vertex difference (_hulls_contain);
    - d = 3, k > 4: Qhull's vertices (Barber, Dobkin & Huhdanpaa 1996), and
      its facet normals, facet edges crossed with the axes, and the axes
      (_qhull_slabs), queries in chunks as in 2-D.
    Flat 3-D clouds, which Qhull rejects, and every d >= 4 set go to _hull_lp.
    """
    pts = as_points(points)
    k, d = pts.shape
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X[:, None]
    if X.ndim != 2 or X.shape[1] != d or not np.all(np.isfinite(X)):
        raise InputError(f"queries must be a finite (q, {d}) array")
    if d == 2:
        return _slab_mask(*_polygon_slabs(pts), X, tol.eps)
    if d == 3 and k > 4:
        # imported here: scipy.spatial would cost start-up a third of a second
        from scipy.spatial import ConvexHull, QhullError

        try:
            hull = ConvexHull(pts)
        except QhullError:
            pass
        else:
            return _slab_mask(*_qhull_slabs(pts, hull), X, tol.eps)
    return _hulls_contain(pts[None], X, tol.eps)[0]


def _polygon_slabs(pts: np.ndarray):
    """(U, V): candidate normals and vertices of the slab rule for the hull of pts (k, 2).

    V is the convex polygon by Andrew's monotone chain (1979) over the
    lexicographically sorted points, dropping repeated and collinear ones;
    U its edge normals and the two axes, the facet normals of
    conv(V) + [-r, r]^2.  A float chain may drop a true vertex lying just
    outside it, so every point is checked against the polygon at
    HULL_SLACK, and any that fails joins V.  Every point then passes at
    any eps, and the slabs of U reach out to the few joined points.
    """
    rows = pts[np.lexsort(pts.T[::-1])].tolist()
    lower, upper = _chain(rows), _chain(rows[::-1])
    W = np.array(lower[:-1] + upper)  # the closed polygon: its first vertex again at the end
    V = W[: max(1, len(W) - 1)]
    U = np.concatenate([(W[1:] - W[:-1])[:, ::-1] * [-1.0, 1.0], np.eye(2)])
    outside = ~_slab_mask(U, V, pts, 0.0)
    return U, np.vstack([V, pts[outside]])


def _chain(rows: list) -> list:
    """One half of Andrew's monotone chain: the points of rows kept by strict left turns."""
    out = []
    for x, y in rows:
        # pop while (b - a) x (p - a) <= 0 for the last two kept points a, b
        while len(out) > 1:
            (ax, ay), (bx, by) = out[-2], out[-1]
            if (bx - ax) * (y - ay) > (by - ay) * (x - ax):
                break
            out.pop()
        out.append((x, y))
    return out


def _qhull_slabs(pts: np.ndarray, hull):
    """(U, V): candidate normals and vertices of the slab rule for a full 3-D cloud pts and its Qhull hull.

    V is Qhull's vertices and the points it found on a facet within its
    precision (Qhull's Qc), so no input point lies outside V's hull by more
    than that.  U is the facet normals of conv(V) + [-r, r]^3 (Gritzmann &
    Sturmfels 1993): the facet normals, the cross products of the facet
    edges with the axes, and the axes.
    """
    V = pts[np.union1d(hull.vertices, hull.coplanar[:, 0])]
    F = pts[hull.simplices]
    pairs = np.unique(np.sort(hull.simplices[:, [0, 1, 1, 2, 0, 2]].reshape(-1, 2), axis=1), axis=0)
    E = pts[pairs[:, 1]] - pts[pairs[:, 0]]
    facets = np.cross(F[:, 1] - F[:, 0], F[:, 2] - F[:, 0])
    return np.vstack([facets, np.cross(E[:, None], np.eye(3)).reshape(-1, 3), np.eye(3)]), V


def _slab_mask(U: np.ndarray, V: np.ndarray, X: np.ndarray, eps: float) -> np.ndarray:
    """_slabs_contain for one set of vertices V (k, d) and normals U (c, d), over the rows of X,
    in chunks of queries and normals whose (normals, queries, vertices) products fit in _CHUNK_ELEMS."""
    c_step = max(1, _CHUNK_ELEMS // len(V))
    q_step = max(1, _CHUNK_ELEMS // (min(len(U), c_step) * len(V)))
    out = np.ones(len(X), dtype=bool)
    for qs in range(0, len(X), q_step):
        for cs in range(0, len(U), c_step):
            out[qs : qs + q_step] &= _slabs_contain(U[None, cs : cs + c_step], V[None], X[qs : qs + q_step], eps)[0]
    return out


def _hulls_contain(V: np.ndarray, X: np.ndarray, eps: float) -> np.ndarray:
    """(m, q) mask: row j of X within sup-norm eps of the hull of V[i] (m, k, d).

    1-D: the interval rule.  d = 2, 3 and k <= d + 1: _slabs_contain, with
    every vertex difference and axis as the edge directions, their normals
    a quarter turn in 2-D and cross products in 3-D: 5 candidates per
    triangle, 36 per tetrahedron.  Other sets go to _hull_lp.
    """
    m, k, d = V.shape
    if d == 1:
        return (V.min(axis=1) - eps <= X.T) & (X.T <= V.max(axis=1) + eps)
    if d > 3 or k > d + 1:
        return np.array([[_hull_lp(v, x, eps) for x in X] for v in V], dtype=bool).reshape(m, len(X))
    a, b = np.triu_indices(k, 1)
    dirs = np.concatenate([V[:, b] - V[:, a], np.broadcast_to(np.eye(d), (m, d, d))], axis=1)
    if d == 2:
        U = np.stack([-dirs[..., 1], dirs[..., 0]], axis=-1)
    else:
        a, b = np.triu_indices(dirs.shape[1], 1)
        U = np.cross(dirs[:, a], dirs[:, b])
    return _slabs_contain(U, V, X, eps)


def _slabs_contain(U: np.ndarray, V: np.ndarray, X: np.ndarray, eps: float) -> np.ndarray:
    """(m, q) mask: row j of X inside every slab of the candidate normals U[i] (m, c, d) over V[i] (m, k, d).

    x is within r = eps + HULL_SLACK of conv(V) iff it lies in
    conv(V) + [-r, r]^d, whose facet normals are cross products of d - 1
    edge directions of the summands: hull edges or axes (Gritzmann &
    Sturmfels 1993).  Each u, zero or not a facet normal too, gives a valid
    slab min_k u.(x - v_k) <= r|u|_1, max_k u.(x - v_k) >= -r|u|_1,
    measured from every vertex so a vertex always passes.  So the rule is
    exact when U holds every facet normal.
    """
    # u.(x - v_k) as (m, k, c, q), one coordinate of x - v_k at a time; with
    # k second, the min and max over it are elementwise passes, not short-row reduces
    dots = U[:, None, :, 0, None] * (X[None, None, :, 0] - V[:, :, None, 0])[:, :, None]
    for j in range(1, V.shape[2]):
        dots += U[:, None, :, j, None] * (X[None, None, :, j] - V[:, :, None, j])[:, :, None]
    slack = (eps + HULL_SLACK) * np.abs(U).sum(axis=2)[..., None]
    return ((dots.min(axis=1) <= slack) & (dots.max(axis=1) >= -slack)).all(axis=1)


def _hull_lp(pts: np.ndarray, x: np.ndarray, eps: float) -> bool:
    """True iff the least sup-norm residual t of sum(lam_i * (p_i - x)) = 0,
    sum(lam) = 1, lam >= 0 over the rows p_i of pts is at most eps, as met by
    HiGHS to its feasibility tolerance of about 1e-7.  Posed on p_i - x, the
    tolerances act on the spread of the points, not on their distance from 0.
    """
    from scipy.optimize import linprog

    k, d = pts.shape
    # min t  s.t.  -t <= (lam @ (pts - x))_j <= t,  sum(lam) = 1,  lam >= 0
    rel = pts - x
    c = np.zeros(k + 1)
    c[-1] = 1.0
    A_ub = np.zeros((2 * d, k + 1))
    A_ub[:d, :k] = rel.T
    A_ub[d:, :k] = -rel.T
    A_ub[:, -1] = -1.0
    b_ub = np.zeros(2 * d)
    A_eq = np.zeros((1, k + 1))
    A_eq[0, :k] = 1.0
    res = linprog(c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=[1.0], method="highs")
    if not res.success:
        # HiGHS only fails here on numerically hopeless input; treat as outside.
        return False
    return res.fun <= eps + HULL_SLACK


def simplex_contains(simplex, x, tol: GeomTolerance = GeomTolerance()) -> bool:
    """Closed-simplex membership with barycentric slack tol.eps.

    Degenerate simplices fall back to hull membership of the vertex set.
    """
    v = as_simplex(simplex)
    x = as_point(x)
    if x.size != v.shape[1]:
        raise InputError(f"point dim {x.size} != simplex dim {v.shape[1]}")
    batch = SimplexBatch(v[None], eps=tol.eps)
    return bool(batch.contains_counts(x[None], [1.0])[0, 0])


class SimplexBatch:
    """Containment counting against a fixed stack of simplices, for a sigma grid.

    Precomputes the det-scaled barycentric affine maps once, sign-corrected
    so that det > 0, together with |det|; sigma never enters them.  The
    per-simplex decision at dilation sigma is: all d+1 barycentric
    coordinates >= t(sigma) where t(sigma) = (1-sigma)/(d+1) - eps*sigma,
    which is exactly closed membership (with slack eps) in the simplex
    dilated by sigma about its centroid, without touching the vertices.
    sigma=1 gives the plain closed-simplex test.  Degenerate members keep
    their undilated vertex sets and are decided by hull fallback on the set
    dilated by each sigma.

    The kernel streams over the d+1 barycentric rows: for a chunk of
    queries against a chunk of simplices it accumulates one row's values
    in a (q_chunk, m_chunk) float buffer and keeps their running minimum.
    Only the threshold t(sigma)*|det| depends on sigma, and "min >= thr" is
    exactly "all >= thr" for finite floats, so one pass compares the
    minimum with every sigma's threshold and counts the survivors
    (_add_hits, in the bytes of the row buffer).  Every buffer holds at
    most _CHUNK_ELEMS elements, so memory does not grow with the number of
    queries, simplices, sigmas or the dimension.

    The query chunks are split into one contiguous block of whole chunks
    per thread by _ranges: at most _WORKERS, each with at least
    _MIN_JOB_CELLS (simplex, query) cells, so a short call runs on the
    calling thread.  One pool serves every simplex chunk of a call.  Per
    simplex chunk the calling thread computes the thresholds once, and
    each thread runs the loop above over its block, on its own columns of
    the integer counts, so the counts do not depend on the split.
    Each thread keeps buffers of the full _CHUNK_ELEMS: numpy releases the
    GIL only inside a call, and with smaller chunks the threads queue for
    it between short calls and run slower than one thread.  The buffers
    are allocated on the calling thread, which keeps peak memory lower
    than allocating them in the workers.  The hull fallback runs on the
    calling thread after the last join.

    The t(sigma) threshold is monotone in sigma even in float arithmetic
    (products and sums of monotone terms), so containment indicators never
    flicker across a sigma sweep.
    """

    def __init__(self, verts: np.ndarray, eps: float = DEFAULT_EPS):
        verts = np.asarray(verts, dtype=float)
        self.m, k, self.d = verts.shape
        self.eps = float(eps)
        const, lin, det, scale = bary_affine_parts(verts)
        absdet = np.abs(det)
        good = ~_singular(absdet, scale)
        sign = np.where(det[good] < 0, -1.0, 1.0)
        # The nonsingular members' maps; np.compress keeps the row layout C-contiguous.
        self._const = np.compress(good, const, axis=1) * sign
        self._lin = np.compress(good, lin, axis=2) * sign
        self._absdet = absdet[good]
        self._degenerate_verts = verts[~good]

    @property
    def n_degenerate(self) -> int:
        return len(self._degenerate_verts)

    def contains_counts(self, X: np.ndarray, sigmas) -> np.ndarray:
        """(len(sigmas), q) counts: member simplices whose sigma-dilation contains each row of X (q, d)."""
        X = np.asarray(X, dtype=float)
        if X.ndim == 1:
            X = X[:, None]
        sigmas = np.asarray(sigmas, dtype=float).ravel()
        q = X.shape[0]
        counts = np.zeros((len(sigmas), q), dtype=np.int64)
        t = _thresholds(sigmas, self.d, self.eps)

        mg = len(self._absdet)
        if mg and q:
            m_chunk = min(mg, _CHUNK_ELEMS)
            q_chunk = max(1, _CHUNK_ELEMS // m_chunk)
            starts = range(0, q, q_chunk)
            shape = (min(q, q_chunk), m_chunk)
            ranges = _ranges([min(q_chunk, q - s) * mg for s in starts])
            blocks = [(starts[a:b], [np.empty(shape) for _ in range(4)]) for a, b in ranges]

            def count_block(job):
                """The query chunks of one block against the simplex chunk of lin, const and thr."""
                chunks, bufs = job
                for qs in chunks:
                    Xc = X[qs : qs + q_chunk, :, None]
                    r, w = len(Xc), thr.shape[1]
                    low, val, odd, term = (b[:r, :w] for b in bufs)
                    _dot_into(Xc, lin[0], low, odd, term)
                    low += const[0]
                    for i in range(1, self.d + 1):
                        _dot_into(Xc, lin[i], val, odd, term)
                        val += const[i]
                        np.minimum(low, val, out=low)
                    _add_hits(counts[:, qs : qs + r], low, thr, bufs[1])

            with _Threads(len(blocks)) as run:
                for ms in range(0, mg, m_chunk):
                    lin = self._lin[:, :, ms : ms + m_chunk]
                    const = self._const[:, ms : ms + m_chunk]
                    thr = t[:, None] * self._absdet[ms : ms + m_chunk]
                    run(count_block, blocks)

        _add_hull_counts(counts, self._degenerate_verts, X, sigmas, self.eps)
        return counts


def _thresholds(sigmas: np.ndarray, d: int, eps: float) -> np.ndarray:
    """t(sigma) = (1-sigma)/(d+1) - eps*sigma: x is in the sigma-dilation iff every barycentric coordinate is >= t."""
    return (1.0 - sigmas) / (d + 1) - eps * sigmas


def _add_hits(counts: np.ndarray, low: np.ndarray, thr: np.ndarray, free: np.ndarray) -> None:
    """counts[k, i] += the cells of low[i] at or above thr[k], for low (r, ...) and thr (len(counts), ...).

    The fused compare-and-count of both barycentric counters: up to 8
    thresholds per numpy call, their hit masks in the bytes of free, a
    C-contiguous float buffer of at least low.size elements whose values
    the caller no longer needs.
    """
    planes = free.reshape(-1).view(bool)
    for k in range(0, len(thr), 8):
        hit = planes[: len(thr[k : k + 8]) * low.size].reshape(-1, *low.shape)
        np.greater_equal(low, thr[k : k + 8, None], out=hit)
        # summing bytes into int32 is about twice as fast as count_nonzero
        counts[k : k + 8] += hit.reshape(len(hit), len(low), -1).view(np.uint8).sum(axis=2, dtype=np.int32)


def _add_hull_counts(counts: np.ndarray, verts: np.ndarray, X: np.ndarray, sigmas, eps: float) -> None:
    """Add to counts (len(sigmas), q) the degenerate simplices verts (m, d+1, d) whose
    sigma-dilated vertex set holds each row of X within eps, in chunks of the simplices
    whose (simplices, normals, queries, vertices) slab tensor fits in _CHUNK_ELEMS."""
    _, p, d = verts.shape
    per_simplex = len(X) * p * math.comb(math.comb(p, 2) + d, d - 1)
    chunk = max(1, _CHUNK_ELEMS // max(per_simplex, 1))
    for ms in range(0, len(verts), chunk):
        dv = verts[ms : ms + chunk]
        for k, sigma in enumerate(sigmas):
            counts[k] += _hulls_contain(enlarge_batch(dv, sigma), X, eps).sum(axis=0)


def _ranges(work) -> list:
    """Contiguous (start, stop) ranges over the units whose work in (simplex, query) cells is work[i],
    one per thread, of about equal work: the most, up to _WORKERS, that give each range at least
    _MIN_JOB_CELLS cells, and at least one.  Range k ends after the last unit whose running total
    is at most k/r of the whole, for r ranges, and empty ranges are dropped."""
    upto = np.cumsum(work)
    r = max(1, min(_WORKERS, len(upto), int(upto[-1]) // _MIN_JOB_CELLS))
    cuts = [0, *np.searchsorted(upto * r, upto[-1] * np.arange(1, r), side="right"), len(upto)]
    return [(a, b) for a, b in zip(cuts, cuts[1:]) if a < b]


class _Threads:
    """with _Threads(workers) as run: run(fn, jobs) calls fn(job) for at most
    workers jobs, one per thread, the calling thread running jobs[0].

    One pool serves every run of the block, and starts its workers - 1
    threads at the first run.  A run returns when every job is done and
    re-raises a worker's exception, and leaving the block joins every
    thread.  concurrent.futures is imported here, so start-up does not pay
    for it.
    """

    def __init__(self, workers: int):
        self._pool = None
        if workers > 1:
            from concurrent.futures import ThreadPoolExecutor

            self._pool = ThreadPoolExecutor(workers - 1)

    def __enter__(self):
        return self._run

    def _run(self, fn, jobs) -> None:
        others = [self._pool.submit(fn, job) for job in jobs[1:]]
        try:
            fn(jobs[0])
        finally:
            for future in others:
                future.result()

    def __exit__(self, *exc) -> None:
        if self._pool is not None:
            self._pool.shutdown()


def _dot_into(X: np.ndarray, L: np.ndarray, out: np.ndarray, odd: np.ndarray, tmp: np.ndarray) -> None:
    """out = sum_j X[:, j] * L[j] for L (d, m) and X (q, d, 1), or (m, d) for one point per map.

    The one summation order of the map constants, kernel and pair tables:
    numpy einsum's for a short contraction in two SIMD lanes (even j, odd
    j, then the two partial sums), bit-identical to it for d <= 7 on numpy
    2.4 x86-64, as test_streaming_kernel_matches_einsum pins.  odd and tmp
    are scratch buffers shaped like out; tmp is used for d > 2.
    """
    d = len(L)
    np.multiply(X[:, 0], L[0], out=out)
    for j in range(2, d, 2):
        out += np.multiply(X[:, j], L[j], out=tmp)
    if d > 1:
        np.multiply(X[:, 1], L[1], out=odd)
        for j in range(3, d, 2):
            odd += np.multiply(X[:, j], L[j], out=tmp)
        out += odd


class TrianglePairTables:
    """SimplexBatch's counts over all C(n, 3) triangles of the points V (n, 2).

    The triangles are (i < j < k), vertices in that order, and no
    barycentric map is built per triangle.  Row r of bary_affine_parts
    over the pseudo-triangles (v_a, v_a, v_b), a < b, gives the pair table
    T_r[a, b] = x . L_r[a, b] + C_r[a, b], summed by _dot_into, and the
    det-scaled values of triangle (i, j, k) are T0[j, k], T1[i, k] and
    T0[i, j]: the very doubles of the map kernel, before its sign flip to
    det > 0, which is exact.  With v_0 = v_1, row 1's map is exactly row
    0's negated, so T1 = -T0 and only row 0's map is kept.  So the
    decision is the kernel's: the least of the three values times
    sign(det) is >= t(sigma)*|det|.  Per middle vertex j the triangles
    fill the rectangle T1[:j, j+1:] = -T0[:j, j+1:], with T0[j, j+1:]
    broadcast down its rows and T0[:j, j] across its columns.  det and the
    singularity rule are those of bary_affine_parts on the edges v_j - v_i
    and v_k - v_i; singular triangles take the hull fallback, as in
    SimplexBatch.

    The pair map, |det| and sign(det) (9 bytes per triangle) and the
    singular triangles are built once, here.  A call takes its queries in
    chunks of c = _CHUNK_ELEMS // (the widest rectangle, about n^2/4), at
    least one.  Per chunk the calling thread fills one table of c * n^2
    values, summing _dot_into's odd lane a piece at a time in a rectangle
    buffer, and then each rectangle is counted once for all c queries.

    The middle vertices are split into contiguous ranges of about equal
    triangle counts, one per thread, by _ranges over one chunk's
    C(n, 3) * c cells: the threads join after every chunk, so that
    is the work that has to pay for a split, and a short call runs on the
    calling thread.  Once q fills a chunk the split, and so the memory,
    no longer grows with q.
    Each range counts its rectangles with its own buffers into its own
    counts row, and the rows are summed after the join, so the counts do
    not depend on the split.  The pool, buffers and rows are made once per
    call.  Each thread has two rectangle buffers of at most _CHUNK_ELEMS
    elements, or one rectangle when n > 513, and the table holds about
    four times that, whatever q.  The first chunk's odd lane is summed in
    a buffer of its own, freed before any thread starts, and the later
    ones in the first range's buffer.  So a call's peak memory is reached
    in that first fill, on the calling thread, and does not depend on how
    the threads' numpy temporaries overlap, nor on the number of chunks.
    """

    def __init__(self, V: np.ndarray, eps: float = DEFAULT_EPS):
        V = np.asarray(V, dtype=float)
        self.n = n = len(V)
        self.eps = float(eps)
        # The map of each pair a < b; the pairs a >= b are never read.
        a, b = np.triu_indices(n, 1)
        const, lin, _, _ = bary_affine_parts(V[np.stack([a, a, b], axis=1)])
        self._lin, self._const = np.zeros((2, n * n)), np.zeros(n * n)
        self._lin[:, a * n + b], self._const[a * n + b] = lin[0], const[0]

        # Per middle vertex j: |det|, NaN where singular so that no threshold
        # passes; the sign of det; and the singular triangles (i, j, k).
        D = V[None, :] - V[:, None]  # D[i, j] = v_j - v_i
        vmax = _row_absmax(V)
        emax = _row_absmax(D.reshape(n * n, 2)).reshape(n, n)
        vpair = np.maximum.outer(vmax, vmax)
        self._absdets, self._signs = [], []
        flat = [np.empty((0, 3), dtype=np.intp)]
        for j in range(1, n - 1):
            det = _det2(D[:j, j, None], D[:j, j + 1 :])
            # from det < 0, not the sign bit: -0.0 gets +1, as in SimplexBatch
            self._signs.append(1 - 2 * (det < 0).view(np.int8))
            absdet = np.abs(det, out=det)
            # bary_affine_parts' scale: max |v| over the three vertices times max |edge|
            scale = np.maximum(vpair[:j, j + 1 :], vmax[j])
            scale *= np.maximum(emax[:j, j, None], emax[:j, j + 1 :])
            singular = _singular(absdet, scale)
            if singular.any():
                i, k = np.nonzero(singular)
                absdet[i, k] = np.nan
                flat.append(np.stack([i, np.full_like(i, j), k + j + 1], axis=1))
            self._absdets.append(absdet)
        self._degenerate_verts = V[np.concatenate(flat)]

    @property
    def n_degenerate(self) -> int:
        return len(self._degenerate_verts)

    def _fill(self, Xc: np.ndarray, T0: np.ndarray, widest: int, odd=None) -> np.ndarray:
        """T0 (c, n * n) = the pair map at the queries Xc (c, 2, 1), widest columns at a time,
        summing _dot_into's odd lane in odd (c * widest elements), or in a new buffer if None."""
        if odd is None:
            odd = np.empty(len(Xc) * widest)
        for s in range(0, self.n**2, widest):
            out = T0[:, s : s + widest]
            lane = odd[: out.size].reshape(out.shape)
            _dot_into(Xc, self._lin[:, s : s + widest], out, lane, lane)  # tmp is used for d > 2 only
            out += self._const[s : s + widest]
        return T0

    def contains_counts(self, X: np.ndarray, sigmas) -> np.ndarray:
        """(len(sigmas), q) counts: triangles whose sigma-dilation contains each row of X (q, 2)."""
        X = np.asarray(X, dtype=float)
        sigmas = np.asarray(sigmas, dtype=float).ravel()
        n, q = self.n, len(X)
        t = _thresholds(sigmas, 2, self.eps)
        counts = np.zeros((len(sigmas), q), dtype=np.int64)

        if self._absdets and q:  # no triangles below 3 points
            widest = max(x.size for x in self._absdets)
            q_chunk = max(1, _CHUNK_ELEMS // widest)
            qc = min(q, q_chunk)
            table = np.empty((qc, n * n))
            # per range of middle vertices: its low, val and sign buffers and its counts row
            jobs = [
                (a, b, np.empty(qc * widest), np.empty(qc * widest), np.empty(widest), np.empty((len(t), qc), np.int64))
                for a, b in _ranges([x.size * qc for x in self._absdets])
            ]

            def count_range(job):
                """The rectangles of middle vertices a + 1 .. b into the job's counts row."""
                a, b, low_buf, val_buf, sign_buf, hits = job
                hits = hits[:, :c]
                hits.fill(0)
                for j in range(a + 1, b + 1):
                    absdet, sign8 = self._absdets[j - 1], self._signs[j - 1]
                    low, val = (x[: c * absdet.size].reshape(c, *absdet.shape) for x in (low_buf, val_buf))
                    # float signs: one cast per pass beats three mixed-type multiplies
                    sign = sign_buf[: absdet.size].reshape(absdet.shape)
                    np.copyto(sign, sign8)
                    # the least sign-corrected value of T1[i, k], T0[j, k] and T0[i, j];
                    # negating the rectangle first is faster than one strided multiply
                    np.negative(T0[:, :j, j + 1 :], out=low)
                    low *= sign
                    np.multiply(T0[:, None, j, j + 1 :], sign, out=val)
                    np.minimum(low, val, out=low)
                    np.multiply(T0[:, :j, j, None], sign, out=val)
                    np.minimum(low, val, out=low)
                    _add_hits(hits, low, np.multiply.outer(t, absdet), val_buf)

            with _Threads(len(jobs)) as run:
                for qs in range(0, q, q_chunk):
                    Xc = X[qs : qs + q_chunk, :, None]
                    c = len(Xc)
                    # the first chunk's odd lane gets a buffer of its own, freed before any thread
                    # starts, so the call peaks there; later chunks use job 0's low buffer
                    T0 = self._fill(Xc, table[:c], widest, jobs[0][2] if qs else None).reshape(c, n, n)
                    run(count_range, jobs)
                    counts[:, qs : qs + c] = sum(job[-1][:, :c] for job in jobs)

        _add_hull_counts(counts, self._degenerate_verts, X, sigmas, self.eps)
        return counts


def count_pairs_1d(values: np.ndarray, queries: np.ndarray, sigmas, eps: float):
    """(q, len(sigmas)) counts: the C(n, 2) pairs of values whose sigma-dilation contains each query.

    A pair (a < b) contains x iff A <= x <= B with A = u*a + t*b,
    B = u*b + t*a, t = _thresholds(sigma, 1, eps) and u = 1 - t > 1/2.
    Pairs of equal values use the point rule |x - a| <= eps, matching the
    hull fallback of the barycentric counters.

    Per sigma the ends of the P ~ n^2/2 pairs of distinct values are
    formed in chunks of _CHUNK_ELEMS pairs, in buffers made once per call.
    Ends below every query's window are counted, ends inside the queries'
    span are sorted, and ends above it drop out; a query's count is
    #(A <= x) - #(B < x) plus its flat pairs: O(P + P_in log P_in +
    q log P_in) per sigma, P_in the ends inside the span, on the calling
    thread.  Queries in the gap between two clusters, as in scenario 4,
    sort about a quarter of the ends.  The counts are byte-identical
    to _count_pairs_1d_per_query's, whose thresholds round differently:
    a query within delta = 8 * 2^-52 * (|x| + (u + |t|) * max|v|) of a
    computed end is recounted by that rule at that sigma.  Derivation,
    with unit roundoff e = 2^-53 and first-order terms: the computed A is
    within 2e(u|a| + |t||b|) of the exact u*a + t*b; the per-query rule
    decides a <= (x - t*b)/u, a threshold computed to within
    (2e|x| + 3e|t||b|)/u, so off by at most 2e|x| + 3e|t||b| in x; B
    likewise, with u and t swapped.  So away from the ends by more than
    2e|x| + 5e(u + |t|)max|v|, both rules side with the exact
    A <= x <= B, and delta is at least three times that.  With delta = 0,
    queries one ulp from an end change count.

    Cost rule: calls with 2q < n take the per-query rule.  The sorted
    ends' time over that rule's, both on one thread of a shared 2-core
    host with numpy 2.4.6, at n = 200 / 1000 / 2000 / 10 000 and 21
    sigmas: queries in the gap between two clusters 0.87 / 0.90 / 0.92 /
    0.79 at q = n/8, 0.47 / 0.42 / 0.42 / 0.50 at n/4 and 0.25 / 0.23 /
    0.25 / 0.31 at n/2; Gaussian queries over Gaussian data 1.26 / 1.47 /
    1.28 / 1.57, 0.65 / 0.74 / 0.74 / 0.77 and 0.38 / 0.42 / 0.43 / 0.55.
    At 1 sigma they read 2.6-3.6 at n/8, 1.3-2.3 at n/4 and 0.72-1.18 at
    n/2, and at q = 2 3.6-1100 for either count of sigmas.  So A7's two
    queries against 10 000 values never sort the 50 M ends.
    """
    v = np.sort(np.asarray(values, dtype=float).ravel())
    x = np.asarray(queries, dtype=float).ravel()
    sigmas = np.asarray(sigmas, dtype=float).ravel()
    n, q = len(v), len(x)
    if 2 * q < n:
        return _count_pairs_1d_per_query(v, x, sigmas, eps)

    # Queries in increasing order, so the searches walk the ends forward.
    order = np.argsort(x)
    xs = x[order]
    ts = _thresholds(sigmas, 1, eps)
    window = 8 * 2.0**-52 * np.abs(xs)  # delta's |x| term; its max|v| term is reach
    reach = 8 * 2.0**-52 * np.abs(v).max(initial=0.0) * (1.0 - ts + np.abs(ts))

    first = np.searchsorted(v, v, side="left")  # per slot j: count of strictly smaller values
    last = np.cumsum(first)  # pairs (i, j), i < first[j], in (j, i) order: one past j's last
    pairs = int(first.sum())
    hits = np.zeros((len(ts), q), dtype=np.int64)
    edge = np.zeros((len(ts), q), dtype=bool)  # within delta of an end in some chunk
    width = min(pairs, _CHUNK_ELEMS)
    floats, flags = np.empty((2, width)), np.empty((2, width), dtype=bool)
    for p0 in range(0, pairs, _CHUNK_ELEMS):
        p = np.arange(p0, min(p0 + _CHUNK_ELEMS, pairs))
        j = np.searchsorted(last, p, side="right")
        a, b = v[p - last[j] + first[j]], v[j]
        (ends, term), (kept, inside) = floats[:, : len(p)], flags[:, : len(p)]
        for k, t in enumerate(ts):
            u = 1.0 - t
            lo, hi = xs - (window + reach[k]), xs + (window + reach[k])
            # An end below lo0 is below every query's window and one above
            # hi1 is in none: count the first, drop the second, and sort only
            # the span [lo0, hi1], in place when nothing drops out.
            lo0, hi1 = lo.min(), hi.max()
            for near, far, sign in ((a, b, 1), (b, a, -1)):
                np.add(np.multiply(near, u, out=ends), np.multiply(far, t, out=term), out=ends)
                np.greater_equal(ends, lo0, out=kept)
                np.logical_and(kept, np.less_equal(ends, hi1, out=inside), out=inside)
                span = ends if np.count_nonzero(inside) == len(p) else ends[inside]
                span.sort()
                below = np.searchsorted(span, lo, side="left")
                hits[k] += sign * (below + (len(p) - np.count_nonzero(kept)))
                edge[k] |= below != np.searchsorted(span, hi, side="right")

    hits += _flat_counts(v, xs, eps)

    # One call recounts the flagged queries at the flagged sigmas, so one
    # flat-pair pass serves them all.  A cell flagged at neither gets its
    # count again: away from the ends both rules agree.
    rows, cols = edge.any(axis=0), edge.any(axis=1)
    if rows.any():
        hits[np.ix_(cols, rows)] = _count_pairs_1d_per_query(v, xs[rows], sigmas[cols], eps).T
    counts = np.empty((q, len(ts)), dtype=np.int64)
    counts[order] = hits.T
    return counts


def _count_pairs_1d_per_query(values: np.ndarray, queries: np.ndarray, sigmas, eps: float):
    """count_pairs_1d by n binary searches over the sorted values per query and sigma.

    O(q * n log n).  For a pair (a < b) and each query it decides
    a <= (x - t*b)/u for A <= x and the matching threshold in a for B < x.
    The queries go in chunks whose threshold buffers hold at most
    _CHUNK_ELEMS elements, on the calling thread: two threads lost at
    every short call measured and were level on long ones.
    """
    v = np.sort(np.asarray(values, dtype=float).ravel())
    n = len(v)
    x = np.asarray(queries, dtype=float).ravel()

    first = np.searchsorted(v, v, side="left")  # per slot j: count of strictly smaller values
    strict_total = int(first.sum())
    flat = _flat_counts(v, x, eps)

    ts = _thresholds(np.asarray(sigmas, dtype=float).ravel(), 1, eps)
    counts = np.empty((len(x), len(ts)), dtype=np.int64)
    step = max(1, _CHUNK_ELEMS // n)
    for s in range(0, len(x), step):
        xq = x[s : s + step, None]
        for k, t in enumerate(ts):
            u = 1.0 - t
            # fail-left: A > x, conditioned on the smaller element of the pair
            thr_l = (xq - t * v) / u
            fail_l = (first - np.minimum(np.searchsorted(v, thr_l, side="right"), first)).sum(axis=1)
            # fail-right: B < x
            if t < 0.0:
                thr_r = (xq - u * v) / t
                kept = np.minimum(np.searchsorted(v, thr_r, side="right"), first)
                fail_r = (first - kept).sum(axis=1)
            elif t == 0.0:
                fail_r = np.where(v < xq, first, 0).sum(axis=1)
            else:
                thr_r = (xq - u * v) / t
                fail_r = np.minimum(np.searchsorted(v, thr_r, side="left"), first).sum(axis=1)
            counts[s : s + step, k] = strict_total - fail_l - fail_r + flat[s : s + step]
    return counts


def _flat_counts(v: np.ndarray, x: np.ndarray, eps: float) -> np.ndarray:
    """Per query, the pairs of equal values a in v with |x - a| <= eps, in query chunks of _CHUNK_ELEMS cells."""
    vals_u, cnt = np.unique(v, return_counts=True)
    tied = cnt > 1  # only repeated values form flat pairs
    tied_vals, flat_group = vals_u[tied], cnt[tied] * (cnt[tied] - 1) // 2
    step = max(1, _CHUNK_ELEMS // max(len(tied_vals), 1))
    flat = np.empty(len(x), dtype=np.int64)
    for s in range(0, len(x), step):
        flat[s : s + step] = np.where(np.abs(tied_vals - x[s : s + step, None]) <= eps, flat_group, 0).sum(axis=1)
    return flat
