"""Reference computations the benchmark checks the program against.

Nothing here imports sigmadepth.  Each function recomputes a quantity by a
different route than the program takes:

- 2-D containment by barycentric coordinates solved from edge vectors, over
  an explicit list of every triangle;
- 2-D containment on grid data in exact integer (rational) arithmetic, with
  degenerate triangles decided by an exact sup-norm distance to a segment;
- 1-D containment by listing every pair as an explicit interval;
- convex-hull membership by an exact integer monotone-chain hull.

Containment follows the documented rule: a simplex dilated by sigma about
its centroid contains x when every barycentric coordinate of x is at least
t(sigma) = (1 - sigma)/(d + 1) - eps * sigma, with eps = 1e-9.  Degenerate
simplices contain x when x lies within sup-norm distance eps of the convex
hull of their dilated vertices.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np

EPS = 1e-9
# The program accepts a hull-LP residual up to eps plus this margin.
LP_MARGIN = 1e-12


def all_triples(n: int) -> np.ndarray:
    """Every index triple i < j < k of range(n), shape (C(n, 3), 3)."""
    flat = np.fromiter(
        itertools.chain.from_iterable(itertools.combinations(range(n), 3)),
        dtype=np.int64,
        count=3 * math.comb(n, 3),
    )
    return flat.reshape(-1, 3)


def sigma_blocks(data: np.ndarray, sigma: float) -> np.ndarray:
    """Collapse consecutive disjoint blocks of d+1 rows to one point each.

    A block (X_1, ..., X_{d+1}) becomes sigma * X_1 + (1 - sigma)/(d+1) * sum X_j;
    trailing rows that do not fill a block are dropped.
    """
    n, d = data.shape
    p = d + 1
    k = n // p
    blocks = data[: k * p].reshape(k, p, d)
    return sigma * blocks[:, 0] + (1.0 - sigma) / p * blocks.sum(axis=1)


def triangle_counts(points: np.ndarray, X: np.ndarray, sigmas, chunk: int = 1 << 15):
    """Counts (len(sigmas), q) of data triangles whose sigma-dilation contains X.

    Floating point, for data in general position: barycentric coordinates
    come from the edge vectors b - a and c - a of each triangle.
    """
    tri = all_triples(len(points))
    thr = [(1.0 - s) / 3.0 - EPS * s for s in sigmas]
    counts = np.zeros((len(sigmas), len(X)), dtype=np.int64)
    for s in range(0, len(tri), chunk):
        t = tri[s : s + chunk]
        a, b, c = points[t[:, 0]], points[t[:, 1]], points[t[:, 2]]
        e1, e2 = b - a, c - a
        det = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
        if np.any(det == 0.0):
            raise ValueError("float reference needs data in general position")
        rx = X[None, :, 0] - a[:, 0, None]
        ry = X[None, :, 1] - a[:, 1, None]
        l1 = (rx * e2[:, 1, None] - ry * e2[:, 0, None]) / det[:, None]
        l2 = (e1[:, 0, None] * ry - e1[:, 1, None] * rx) / det[:, None]
        lmin = np.minimum(np.minimum(l1, l2), 1.0 - l1 - l2)
        for i, th in enumerate(thr):
            counts[i] += (lmin >= th).sum(axis=0)
    return counts


def pair_counts(values: np.ndarray, X: np.ndarray, sigma: float) -> np.ndarray:
    """Counts (q,) of value pairs whose sigma-dilated interval contains X.

    Every pair a < b becomes the interval [a - w(b - a), b + w(b - a)] with
    w = (sigma - 1)/2 + eps * sigma; a pair of equal values contains x when
    |x - a| <= eps.
    """
    v = np.asarray(values, dtype=float).ravel()
    x = np.asarray(X, dtype=float).ravel()
    i, j = np.triu_indices(len(v), 1)
    a = np.minimum(v[i], v[j])
    b = np.maximum(v[i], v[j])
    flat = a == b
    w = (sigma - 1.0) / 2.0 + EPS * sigma
    lo = np.sort((a - w * (b - a))[~flat])
    hi = np.sort((b + w * (b - a))[~flat])
    inside = np.searchsorted(lo, x, side="right") - np.searchsorted(hi, x, side="left")
    point = np.sort(a[flat])
    inside += np.searchsorted(point, x + EPS, side="right") - np.searchsorted(
        point, x - EPS, side="left"
    )
    return inside.astype(np.int64)


# -- exact arithmetic on grid data -------------------------------------------


def to_grid(points: np.ndarray, step: float) -> np.ndarray:
    """Integer coordinates of points that lie exactly on the grid step * Z^d."""
    scaled = np.asarray(points, dtype=float) / step
    ints = np.rint(scaled)
    if not np.array_equal(ints, scaled):
        raise ValueError("points are not on the grid")
    return ints.astype(np.int64)


def _cross(ax, ay, bx, by):
    return ax * by - ay * bx


def degenerate_lp_triangles(P: np.ndarray) -> np.ndarray:
    """Index triples of collinear, not all-equal grid points (integer coords)."""
    tri = all_triples(len(P))
    a, b, c = P[tri[:, 0]], P[tri[:, 1]], P[tri[:, 2]]
    det = _cross(b[:, 0] - a[:, 0], b[:, 1] - a[:, 1], c[:, 0] - a[:, 0], c[:, 1] - a[:, 1])
    same = (a == b).all(axis=1) & (a == c).all(axis=1)
    return tri[(det == 0) & ~same]


def _supnorm_to_segment(P, Q, x) -> Fraction:
    """Exact sup-norm distance from x to the segment [P, Q] (Fraction coords).

    f(s) = max_j |P_j + s D_j - x_j| is convex and piecewise linear, so its
    minimum on [0, 1] sits at an end or where two of the pieces +-g_j meet.
    """
    D = [Q[j] - P[j] for j in range(2)]
    g0 = [P[j] - x[j] for j in range(2)]  # g_j(s) = g0_j + s D_j
    cands = {Fraction(0), Fraction(1)}
    pieces = [(g0[j] * sgn, D[j] * sgn) for j in range(2) for sgn in (1, -1)]
    pieces.append((Fraction(0), Fraction(0)))
    for (c1, s1), (c2, s2) in itertools.combinations(pieces, 2):
        if s1 != s2:
            s = (c2 - c1) / (s1 - s2)
            if 0 <= s <= 1:
                cands.add(s)
    return min(max(abs(g0[j] + s * D[j]) for j in range(2)) for s in cands)


def exact_grid_counts(P: np.ndarray, X: np.ndarray, sigma, step) -> np.ndarray:
    """Exact counts (q,) of triangles of grid points P dilated by sigma containing X.

    P and X hold integer grid coordinates of points on the grid step * Z^2.

    Integer coordinates are grid coordinates, so every quantity below is
    exact.  For a triangle with nonzero doubled area D the test
    A_i * sign(D) >= t(sigma) * |D| on the doubled sub-areas A_i is scaled
    by 3 * denominator(sigma) to integers; the eps term is then smaller
    than one unit and only decides equality, which the >= already admits.
    Collinear triangles use the exact sup-norm distance from x to the
    hull of their dilated vertices, in data units (grid units * step).
    """
    sigma = Fraction(sigma)
    p, r = sigma.numerator, sigma.denominator
    tri = all_triples(len(P))
    a, b, c = P[tri[:, 0]], P[tri[:, 1]], P[tri[:, 2]]
    D = _cross(b[:, 0] - a[:, 0], b[:, 1] - a[:, 1], c[:, 0] - a[:, 0], c[:, 1] - a[:, 1])
    if 3 * EPS * p * int(np.abs(D).max(initial=0)) >= 1:
        raise ValueError("grid too fine for the integer form of the eps slack")
    good = D != 0
    flat = tri[~good]
    a, b, c, D = a[good], b[good], c[good], D[good]
    sign = np.sign(D)
    absD = np.abs(D)
    counts = np.zeros(len(X), dtype=np.int64)
    for qi, x in enumerate(X):
        ax, ay = a[:, 0] - x[0], a[:, 1] - x[1]
        bx, by = b[:, 0] - x[0], b[:, 1] - x[1]
        cx, cy = c[:, 0] - x[0], c[:, 1] - x[1]
        ok = np.ones(len(D), dtype=bool)
        for A in (_cross(bx, by, cx, cy), _cross(cx, cy, ax, ay), _cross(ax, ay, bx, by)):
            ok &= 3 * r * sign * A - (r - p) * absD >= 0
        counts[qi] = int(ok.sum())

    eps = Fraction(EPS) / Fraction(step)  # eps in grid units
    margin = Fraction(LP_MARGIN) / Fraction(step)
    for t in flat:
        verts = [tuple(Fraction(int(v)) for v in P[i]) for i in t]
        cen = tuple(sum(v[j] for v in verts) / 3 for j in range(2))
        dil = [tuple(cen[j] + sigma * (v[j] - cen[j]) for j in range(2)) for v in verts]
        if dil[0] == dil[1] == dil[2]:
            for qi, x in enumerate(X):
                if max(abs(Fraction(int(x[j])) - dil[0][j]) for j in range(2)) <= eps:
                    counts[qi] += 1
            continue
        # Collinear: the hull is the segment between the two farthest vertices.
        P0, Q0 = max(
            itertools.combinations(dil, 2),
            key=lambda pq: sum((pq[0][j] - pq[1][j]) ** 2 for j in range(2)),
        )
        for qi, x in enumerate(X):
            xf = tuple(Fraction(int(v)) for v in x)
            if _supnorm_to_segment(P0, Q0, xf) <= eps + margin:
                counts[qi] += 1
    return counts


def hull_contains(P: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Closed convex-hull membership of integer points X in the hull of P (exact)."""
    pts = sorted(set(map(tuple, P.tolist())))

    def half(seq):
        out = []
        for q in seq:
            while len(out) >= 2 and _cross(
                out[-1][0] - out[-2][0], out[-1][1] - out[-2][1],
                q[0] - out[-2][0], q[1] - out[-2][1],
            ) <= 0:
                out.pop()
            out.append(q)
        return out[:-1]

    hull = half(pts) + half(pts[::-1])  # counter-clockwise
    edges = list(zip(hull, hull[1:] + hull[:1]))
    return np.array(
        [
            all(
                _cross(e[1][0] - e[0][0], e[1][1] - e[0][1], x[0] - e[0][0], x[1] - e[0][1]) >= 0
                for e in edges
            )
            for x in X.tolist()
        ],
        dtype=bool,
    )


def fair_coin_p(k: int, n: int) -> float:
    """Two-sided exact binomial p-value of k heads in n fair flips."""
    if n == 0:
        return 1.0
    probs = [math.comb(n, i) for i in range(n + 1)]
    return sum(q for q in probs if q <= probs[k]) / 2**n
