"""Sample depth estimators built on containment counting.

Three estimators share one engine:

- simplex-enlarged depth: fraction of the C(n, d+1) data simplices whose
  sigma-dilation contains the query (sigma=1 is classical simplicial depth);
- block-transform depth: the data is collapsed blockwise through the sigma
  combination first, then classical simplicial depth is taken over the
  combined points;
- full-transform depth: a U-statistic consuming (d+1)^2 distinct sample
  points per simplex, each vertex a sigma combination of one leader and d
  partners; enumerated in the reduced unordered form (subset, leaders,
  labeled partner groups).

Exact mode enumerates index combinations up to a configurable cap; Monte
Carlo mode averages over `budget` uniformly drawn index tuples (with
replacement across draws, unbiased).  All randomness flows from the config
seed through a single sequential generator, so results are bit-stable.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.optimize import minimize

from .errors import InputError, InsufficientDataError, ResourceCapError
from .geometry import GeomTolerance, SimplexBatch, as_point, as_points
from .sigma import check_sigma, sample_sigma_blocks

METHODS = (
    "simplicial",
    "simplex_enlarged",
    "dist_enlarged_blocks",
    "dist_enlarged_full",
)

DEFAULT_EXACT_CAP = 10**7
# Simplex batches up to this size are precomputed and reused across queries.
_PRECOMP_MAX = 2**19
# Streaming chunk size (simplices per kernel batch).
_STREAM_CHUNK = 2**18


@dataclass(frozen=True)
class DepthConfig:
    method: str = "simplicial"
    sigma: float = 1.0
    budget: int | None = None
    seed: int = 0
    tol: GeomTolerance = GeomTolerance()
    exact_cap: int = DEFAULT_EXACT_CAP

    def __post_init__(self):
        if self.method not in METHODS:
            raise InputError(f"unknown method {self.method!r}; expected one of {METHODS}")
        check_sigma(self.sigma)
        if self.method == "simplicial" and self.sigma != 1.0:
            raise InputError("method 'simplicial' requires sigma = 1")
        if self.budget is not None and (int(self.budget) != self.budget or self.budget < 1):
            raise InputError(f"budget must be a positive integer, got {self.budget}")
        if int(self.exact_cap) < 1:
            raise InputError("exact_cap must be >= 1")
        if not isinstance(self.tol, GeomTolerance):
            raise InputError("tol must be a GeomTolerance")


@dataclass(frozen=True)
class DepthValue:
    value: float
    exact: bool
    simplices_evaluated: int

    def __post_init__(self):
        if not (0.0 <= self.value <= 1.0):
            raise InputError(f"depth value outside [0,1]: {self.value}")


def _iter_combo_chunks(n: int, k: int, chunk: int):
    """Yield all C(n, k) index combinations as (c, k) int arrays, lex order."""
    if k == 3:
        buf = []
        size = 0
        for i in range(n - 2):
            a, b = np.triu_indices(n - i - 1, 1)
            block = np.empty((len(a), 3), dtype=np.int64)
            block[:, 0] = i
            block[:, 1] = a + i + 1
            block[:, 2] = b + i + 1
            buf.append(block)
            size += len(block)
            if size >= chunk:
                merged = np.concatenate(buf)
                for s in range(0, len(merged), chunk):
                    yield merged[s : s + chunk]
                buf, size = [], 0
        if buf:
            yield np.concatenate(buf)
        return
    it = itertools.combinations(range(n), k)
    while True:
        flat = np.fromiter(
            itertools.chain.from_iterable(itertools.islice(it, chunk)),
            dtype=np.int64,
        )
        if flat.size == 0:
            return
        yield flat.reshape(-1, k)


def _labeled_partitions(items, group_size, groups):
    """All ways to split items into `groups` labeled groups of group_size."""
    if groups == 1:
        return [[list(items)]]
    out = []
    items = list(items)
    for first in itertools.combinations(items, group_size):
        rest = [x for x in items if x not in first]
        for tail in _labeled_partitions(rest, group_size, groups - 1):
            out.append([list(first)] + tail)
    return out


@lru_cache(maxsize=8)
def _full_patterns(p: int):
    """Leader/group index patterns for the full-transform enumeration.

    Over a sorted tuple of p^2 indices: choose p leader slots, split the
    remaining p^2-p slots into p labeled groups of p-1 (group j feeds
    vertex j alongside leader j).  Returns (leads (T, p), groups (T, p, p-1)).
    """
    slots = range(p * p)
    leads = []
    groups = []
    for lead in itertools.combinations(slots, p):
        rest = [s for s in slots if s not in lead]
        for part in _labeled_partitions(rest, p - 1, p):
            leads.append(lead)
            groups.append(part)
    return np.asarray(leads, dtype=np.int64), np.asarray(groups, dtype=np.int64)


def full_pattern_count(p: int) -> int:
    """Simplices per p^2-subset in the full-transform enumeration."""
    return math.comb(p * p, p) * math.factorial(p * p - p) // math.factorial(p - 1) ** p


def _combine_vertices(lead_pts: np.ndarray, group_sums: np.ndarray, sigma: float, p: int):
    """Vertex = sigma*leader + (1-sigma)/p * (leader + sum of its partners)."""
    w = (1.0 - sigma) / p
    return sigma * lead_pts + w * (lead_pts + group_sums)


def _random_tuples(rng, n: int, r: int, m: int, chunk: int):
    """Yield m uniformly random r-tuples of distinct indices in [0, n)."""
    remaining = m
    while remaining > 0:
        c = min(chunk, remaining)
        if 2 * r >= n:
            keys = rng.random((c, n))
            idx = np.argsort(keys, axis=1)[:, :r]
        else:
            idx = rng.integers(0, n, size=(c, r))
            while True:
                s = np.sort(idx, axis=1)
                bad = (s[:, 1:] == s[:, :-1]).any(axis=1)
                if not bad.any():
                    break
                idx[bad] = rng.integers(0, n, size=(int(bad.sum()), r))
        yield idx
        remaining -= c


def _count_pairs_1d(values: np.ndarray, queries: np.ndarray, sigma: float, eps: float):
    """Exact 1-D containment counting over all C(n,2) value pairs.

    A pair (a <= b) dilated by sigma with barycentric slack eps contains x
    iff A <= x <= B with A = (1-t)a + t*b, B = (1-t)b + t*a and
    t = (1-sigma)/2 - eps*sigma.  Cross-pair counts come from n binary
    searches over the sorted values per query, O(q * n log n) in all,
    instead of enumerating the n^2/2 pairs.  The searches run over chunks
    of queries, each threshold buffer holding at most
    `SimplexBatch._CHUNK_ELEMS` elements, with no per-query Python loop.
    Pairs of exactly equal values use the degenerate point rule
    |x - a| <= eps, matching the hull fallback of the matrix kernel.
    """
    v = np.sort(np.asarray(values, dtype=float).ravel())
    n = len(v)
    x = np.asarray(queries, dtype=float).ravel()
    t = (1.0 - sigma) / 2.0 - eps * sigma
    u = 1.0 - t

    first = np.searchsorted(v, v, side="left")  # per slot j: count of strictly smaller values
    strict_total = int(first.sum())

    vals_u, cnt = np.unique(v, return_counts=True)
    tied = cnt > 1  # only repeated values form flat pairs
    tied_vals, flat_group = vals_u[tied], cnt[tied] * (cnt[tied] - 1) // 2

    counts = np.empty(len(x), dtype=np.int64)
    step = max(1, SimplexBatch._CHUNK_ELEMS // n)
    for s in range(0, len(x), step):
        xq = x[s : s + step, None]
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
        flat_in = np.where(np.abs(tied_vals - xq) <= eps, flat_group, 0).sum(axis=1)
        counts[s : s + step] = strict_total - fail_l - fail_r + flat_in
    return counts


class DepthEvaluator:
    """Depth of many query points against one (data, config) pair.

    Precomputes whatever the strategy allows: the block-combined points,
    the Monte-Carlo tuple set, or the full simplex batch when it fits in
    memory; large exact enumerations are streamed per call.  Repeated
    construction with the same inputs reproduces identical values, so the
    one-shot operations below simply build an evaluator and discard it.
    """

    def __init__(self, data, cfg: DepthConfig):
        self.cfg = cfg
        data = as_points(data)
        self.n, self.d = data.shape
        p = self.d + 1
        self._p = p

        if cfg.method in ("simplicial", "simplex_enlarged"):
            if self.n < p:
                raise InsufficientDataError(
                    f"need at least d+1 = {p} points, got {self.n}"
                )
            self._base = data
            self._ksig = cfg.sigma
            self._tuple_len = p
            total = math.comb(self.n, p)
        elif cfg.method == "dist_enlarged_blocks":
            if self.n < p * p:
                raise InsufficientDataError(
                    f"need at least (d+1)^2 = {p * p} points, got {self.n}"
                )
            self._base = sample_sigma_blocks(data, cfg.sigma)
            self._ksig = 1.0
            self._tuple_len = p
            total = math.comb(len(self._base), p)
        elif cfg.method == "dist_enlarged_full":
            if self.n < p * p:
                raise InsufficientDataError(
                    f"need at least (d+1)^2 = {p * p} points, got {self.n}"
                )
            self._base = data
            self._ksig = 1.0
            self._tuple_len = p * p
            total = math.comb(self.n, p * p) * full_pattern_count(p)
        else:  # pragma: no cover - DepthConfig already validates
            raise InputError(f"unknown method {cfg.method!r}")

        self.exact = cfg.budget is None
        self.n_simplices = total if self.exact else int(cfg.budget)

        self._nb = len(self._base)
        self._strategy = "enum"
        if self.exact and self.d == 1 and cfg.method != "dist_enlarged_full":
            self._strategy = "count1d"
        elif not self.exact:
            self._strategy = "mc"
        # The cap guards enumeration work; the 1-D counting path costs
        # O(n log n) per query, in query chunks, however many pairs the
        # total names.
        if self._strategy == "enum" and self.exact and total > cfg.exact_cap:
            raise ResourceCapError(
                f"exact enumeration needs {total} simplices (cap {cfg.exact_cap}); "
                "pass a Monte-Carlo budget or raise exact_cap"
            )
        self._batch = None
        if self._strategy == "mc":
            if self.n_simplices <= _PRECOMP_MAX:
                self._batch = self._build_mc_batch()
        elif self._strategy == "enum" and total <= _PRECOMP_MAX:
            self._batch = SimplexBatch(
                np.concatenate(list(self._iter_enum_verts())),
                eps=cfg.tol.eps,
                sigma=self._ksig,
            )

    # -- vertex materialization ------------------------------------------

    def _full_verts_from_subsets(self, subs: np.ndarray) -> np.ndarray:
        """(c, p^2) sorted index subsets -> (c*T, p, d) simplex vertices."""
        p = self._p
        leads, groups = _full_patterns(p)
        pts = self._base[subs]  # (c, p^2, d)
        lead_pts = pts[:, leads, :]  # (c, T, p, d)
        group_sums = pts[:, groups, :].sum(axis=3)  # (c, T, p, d)
        verts = _combine_vertices(lead_pts, group_sums, self.cfg.sigma, p)
        return verts.reshape(-1, p, self.d)

    def _full_verts_from_tuples(self, idx: np.ndarray) -> np.ndarray:
        """(c, p^2) ordered index tuples -> (c, p, d) vertices, leaders first."""
        p = self._p
        pts = self._base[idx]
        lead_pts = pts[:, :p, :]
        group_sums = pts[:, p:, :].reshape(len(idx), p, p - 1, self.d).sum(axis=2)
        return _combine_vertices(lead_pts, group_sums, self.cfg.sigma, p)

    def _iter_enum_verts(self):
        """Vertices of every enumerated simplex, in chunks, in lex order."""
        if self.cfg.method == "dist_enlarged_full":
            sub_chunk = max(1, _STREAM_CHUNK // full_pattern_count(self._p))
            for subs in _iter_combo_chunks(self.n, self._tuple_len, sub_chunk):
                yield self._full_verts_from_subsets(subs)
        else:
            for combos in _iter_combo_chunks(self._nb, self._tuple_len, _STREAM_CHUNK):
                yield self._base[combos]

    def _build_mc_batch(self) -> SimplexBatch:
        verts = np.concatenate(list(self._iter_mc_verts()))
        return SimplexBatch(verts, eps=self.cfg.tol.eps, sigma=self._ksig)

    def _iter_mc_verts(self):
        rng = np.random.default_rng(self.cfg.seed)
        r = self._tuple_len
        nb = self._nb
        chunk = max(256, min(_STREAM_CHUNK, (2**22) // max(nb, 1)))
        for idx in _random_tuples(rng, nb, r, self.n_simplices, chunk):
            if self.cfg.method == "dist_enlarged_full":
                yield self._full_verts_from_tuples(idx)
            else:
                yield self._base[idx]

    # -- evaluation -------------------------------------------------------

    def contain_counts(self, X) -> np.ndarray:
        """Number of evaluated simplices containing each row of X."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        if X.shape[1] != self.d:
            raise InputError(f"query dim {X.shape[1]} != data dim {self.d}")
        if not np.all(np.isfinite(X)):
            raise InputError("query points must be finite")

        if self._strategy == "count1d":
            return _count_pairs_1d(
                self._base[:, 0], X[:, 0], self._ksig, self.cfg.tol.eps
            )
        if self._batch is not None:
            return self._batch.contains_counts(X)

        counts = np.zeros(len(X), dtype=np.int64)
        chunks = self._iter_mc_verts() if self._strategy == "mc" else self._iter_enum_verts()
        for verts in chunks:
            counts += SimplexBatch(
                verts, eps=self.cfg.tol.eps, sigma=self._ksig
            ).contains_counts(X)
        return counts

    def depths(self, X) -> np.ndarray:
        # Counts and totals below 2^53 are exact doubles, so this rounds the
        # exact quotient just as Python's int / int does.
        return self.contain_counts(X) / self.n_simplices

    def depth_value(self, x) -> DepthValue:
        x = as_point(x)
        value = self.depths(x[None])[0]
        return DepthValue(value, self.exact, self.n_simplices)


def compute_depth(data, x, cfg: DepthConfig) -> DepthValue:
    """Depth of a single point under cfg.method."""
    return DepthEvaluator(data, cfg).depth_value(x)


def depth_maximizer(data, cfg: DepthConfig) -> np.ndarray:
    """Approximate argmax of the configured sample depth.

    Coarse grid over the data bounding box (21 nodes per axis, d <= 3),
    then Nelder-Mead refinement of the best node (200 iterations).  For
    d > 3 the grid is replaced by the data points themselves plus the
    centroid.  Deterministic given cfg.seed.
    """
    data = as_points(data)
    ev = DepthEvaluator(data, cfg)
    lo = data.min(axis=0)
    hi = data.max(axis=0)

    if data.shape[1] <= 3:
        axes = [np.linspace(lo[j], hi[j], 21) for j in range(data.shape[1])]
        mesh = np.meshgrid(*axes, indexing="ij")
        cand = np.stack([m.ravel() for m in mesh], axis=1)
    else:
        cand = np.vstack([data, data.mean(axis=0)[None, :]])

    vals = ev.depths(cand)
    best = int(np.argmax(vals))
    x0, v0 = cand[best], vals[best]

    res = minimize(
        lambda z: -ev.depths(z[None])[0],
        x0,
        method="Nelder-Mead",
        options={"maxiter": 200, "xatol": 1e-6, "fatol": 1e-12},
    )
    if np.all(np.isfinite(res.x)) and -res.fun >= v0:
        return np.asarray(res.x, dtype=float)
    return np.asarray(x0, dtype=float)


def trimmed_region_grid(data, cfg: DepthConfig, alpha: float, grid=21):
    """Boolean mask of grid nodes with depth >= alpha (upper level set).

    grid: either nodes-per-axis (int, over the data bounding box) or a
    tuple of per-axis coordinate arrays.  Returns (axes, mask) with mask
    shaped like the grid.  d <= 2 only.
    """
    data = as_points(data)
    n, d = data.shape
    if d > 2:
        raise InputError("trimmed regions are exported for d <= 2 only")
    alpha = float(alpha)
    if not (0.0 <= alpha <= 1.0) or not np.isfinite(alpha):
        raise InputError(f"alpha must lie in [0, 1], got {alpha}")

    if isinstance(grid, (int, np.integer)):
        if grid < 2:
            raise InputError("grid needs at least 2 nodes per axis")
        lo, hi = data.min(axis=0), data.max(axis=0)
        axes = [np.linspace(lo[j], hi[j], int(grid)) for j in range(d)]
    else:
        axes = [np.asarray(a, dtype=float).ravel() for a in grid]
        if len(axes) != d or any(len(a) < 1 for a in axes):
            raise InputError("grid must give one coordinate array per axis")

    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=1)
    vals = DepthEvaluator(data, cfg).depths(pts)
    mask = (vals >= alpha).reshape([len(a) for a in axes])
    return axes, mask
