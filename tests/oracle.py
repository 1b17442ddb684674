"""Brute-force and analytic references for the depth estimators.

Everything here trades speed for directness: the full-transform depth is
re-derived from all ordered index tuples with no combinatorial reduction,
and population depths come from closed forms or plain midpoint quadrature.
Test-only: it lives beside the tests and is not installed with the package.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from sigmadepth.errors import InputError, InsufficientDataError
from sigmadepth.geometry import GeomTolerance, SimplexBatch, as_points
from sigmadepth.sigma import check_sigma

NAIVE_MAX_N = 10
NAIVE_MAX_D = 2


@dataclass(frozen=True)
class OracleReport:
    value: float
    method: str  # enumeration | quadrature | closed-form
    work: int  # tuples enumerated or cells integrated

    def __post_init__(self):
        if not (0.0 <= self.value <= 1.0):
            raise InputError(f"oracle value outside [0,1]: {self.value}")


def naive_full_depth(data, x, sigma: float, tol: GeomTolerance = GeomTolerance()):
    """Full-transform depth by literal enumeration of ordered index tuples.

    Walks ALL n!/(n-(d+1)^2)! ordered tuples of (d+1)^2 distinct indices,
    reads each as d+1 leader-first blocks, combines every block into a
    vertex, and counts simplices containing x.  No unordered reduction:
    every configuration is revisited (d+1)!*(d!)^(d+1) times, which cancels
    in the normalization.  Shares only the containment predicate with the
    estimators.  Guarded to n <= 10, d <= 2.
    """
    sigma = check_sigma(sigma)
    pts = as_points(data)
    x = np.atleast_1d(np.asarray(x, dtype=float))
    n, d = pts.shape
    if n > NAIVE_MAX_N or d > NAIVE_MAX_D:
        raise InputError(
            f"naive enumeration is guarded to n <= {NAIVE_MAX_N}, d <= {NAIVE_MAX_D}"
        )
    if x.shape != (d,):
        raise InputError(f"query must be a point in R^{d}")
    p = d + 1
    r = p * p
    if n < r:
        raise InsufficientDataError(f"need at least (d+1)^2 = {r} points, got {n}")

    total = math.perm(n, r)
    w = (1.0 - sigma) / p
    count = 0
    chunk = 50_000
    tuples = itertools.permutations(range(n), r)
    while True:
        flat = np.fromiter(
            itertools.chain.from_iterable(itertools.islice(tuples, chunk)),
            dtype=np.int64,
        )
        if flat.size == 0:
            break
        idx = flat.reshape(-1, r)
        tpts = pts[idx]  # (c, p*p, d)
        lead = tpts[:, :p, :]
        group_sums = tpts[:, p:, :].reshape(len(idx), p, p - 1, d).sum(axis=2)
        verts = sigma * lead + w * (lead + group_sums)
        count += int(
            SimplexBatch(verts, eps=tol.eps).contains_counts(x[None])[0]
        )
    return OracleReport(count / total, "enumeration", total)


def analytic_depth_1d_uniform(x: float) -> float:
    """Population simplicial depth of x for the uniform law on [0, 1].

    The random interval [X1, X2] covers x with probability 2F(x)(1-F(x)),
    here 2x(1-x) on [0, 1] and zero outside.
    """
    x = float(x)
    if x <= 0.0 or x >= 1.0:
        return 0.0
    return 2.0 * x * (1.0 - x)


def two_interval_depth_quadrature(
    x: float, c: float, eps: float, sigma: float, cells: int = 400
) -> OracleReport:
    """Population dilated-interval depth for the two-interval uniform law.

    The law is uniform on [-c-eps, -c+eps] union [c-eps, c+eps] (density
    1/(4 eps) on each piece).  The depth of x is the probability that the
    sigma-dilation of the random interval [X1, X2] covers x, i.e. that

        ((1+sigma) min + (1-sigma) max) / 2 <= x <= ((1+sigma) max + (1-sigma) min) / 2,

    a pair of half-plane conditions in the (x1, x2) plane.  Integrated by
    the midpoint rule with `cells` nodes per axis per component interval.

    Requires 0 < eps <= min(sigma - 1, 2) * c / sigma, the regime in which
    the two components stay separated after dilation.
    """
    sigma = check_sigma(sigma)
    c = float(c)
    eps = float(eps)
    x = float(x)
    if not (c > 0.0 and np.isfinite(c)):
        raise InputError(f"interval center c must be positive, got {c}")
    if not (0.0 < eps <= min(sigma - 1.0, 2.0) * c / sigma):
        raise InputError(
            "need 0 < eps <= min(sigma-1, 2)*c/sigma "
            f"(got eps={eps}, c={c}, sigma={sigma})"
        )
    if cells < 2:
        raise InputError("cells must be >= 2")

    step = 2.0 * eps / cells
    offsets = (np.arange(cells) + 0.5) * step
    nodes = np.concatenate([-c - eps + offsets, c - eps + offsets])
    # Each node carries mass density * step = (1/(4 eps)) * (2 eps / cells).
    mass = 1.0 / (2.0 * cells)

    a = nodes[:, None]
    b = nodes[None, :]
    lo = np.minimum(a, b)
    hi = np.maximum(a, b)
    covered = (
        ((1.0 + sigma) * lo + (1.0 - sigma) * hi) / 2.0 <= x
    ) & (
        ((1.0 + sigma) * hi + (1.0 - sigma) * lo) / 2.0 >= x
    )
    value = float(covered.sum()) * mass * mass
    return OracleReport(min(value, 1.0), "quadrature", covered.size)


def count_pairs_1d_loop(values: np.ndarray, queries: np.ndarray, sigma: float, eps: float):
    """Exact 1-D containment counting over all C(n,2) value pairs, one query at a time.

    This is the per-query loop that `sigmadepth.depth._count_pairs_1d` ran
    before it was vectorized over query chunks, kept as the reference for
    bit-identical counts.

    A pair (a <= b) dilated by sigma with barycentric slack eps contains x
    iff A <= x <= B with A = (1-t)a + t*b, B = (1-t)b + t*a and
    t = (1-sigma)/2 - eps*sigma.  Cross-pair counts come from n binary
    searches over the sorted values per query, O(q * n log n) in all,
    instead of enumerating the n^2/2 pairs.  Pairs of exactly equal values
    use the degenerate point rule |x - a| <= eps, matching the hull
    fallback of the matrix kernel.
    """
    v = np.sort(np.asarray(values, dtype=float).ravel())
    n = len(v)
    x = np.asarray(queries, dtype=float).ravel()
    t = (1.0 - sigma) / 2.0 - eps * sigma
    u = 1.0 - t

    first = np.searchsorted(v, v, side="left")  # per slot j: count of strictly smaller values
    strict_total = int(first.sum())

    vals_u, cnt = np.unique(v, return_counts=True)
    flat_group = cnt * (cnt - 1) // 2

    counts = np.empty(len(x), dtype=np.int64)
    for qi, xq in enumerate(x):
        # fail-left: A > x, conditioned on the smaller element of the pair
        thr_l = (xq - t * v) / u
        fail_l = int((first - np.minimum(np.searchsorted(v, thr_l, side="right"), first)).sum())
        # fail-right: B < x
        if t < 0.0:
            thr_r = (xq - u * v) / t
            fail_r = int((first - np.minimum(np.searchsorted(v, thr_r, side="right"), first)).sum())
        elif t == 0.0:
            fail_r = int(first[v < xq].sum())
        else:
            thr_r = (xq - u * v) / t
            fail_r = int(np.minimum(np.searchsorted(v, thr_r, side="left"), first).sum())
        flat_in = int(flat_group[np.abs(vals_u - xq) <= eps].sum())
        counts[qi] = strict_total - fail_l - fail_r + flat_in
    return counts
