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
import numbers
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

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
# Streaming chunk size (simplices per kernel batch).  Exact full-transform
# chunks hold whole subsets, so one subset's pattern table must fit in one
# chunk: 7560 simplices in 2-D, but 672 672 000 in 3-D.
_STREAM_CHUNK = 2**18


def _is_count(value) -> bool:
    """A finite integral real >= 1; a bool is a flag, not a count."""
    return (
        isinstance(value, numbers.Real)
        and not isinstance(value, bool)
        and math.isfinite(value)
        and value >= 1
        and int(value) == value
    )


def _is_int(value, least: int) -> bool:
    """A Python or NumPy integer >= least; a bool is a flag, not a number."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool) and value >= least


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
        if self.budget is not None and not _is_count(self.budget):
            raise InputError(f"budget must be a positive integer, got {self.budget!r}")
        if not _is_count(self.exact_cap):
            raise InputError(f"exact_cap must be a positive integer, got {self.exact_cap!r}")
        if not _is_int(self.seed, 0):
            raise InputError(f"seed must be a nonnegative integer, got {self.seed!r}")
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


def _random_tuples(rng, n: int, r: int, m: int, chunk: int):
    """Yield m uniformly random r-tuples of distinct indices in [0, n)."""
    remaining = m
    while remaining > 0:
        c = min(chunk, remaining)
        # No temporary is bound to a name here, so none stays alive while
        # the caller builds its batch from the yielded chunk.
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
        remaining -= c


def _count_pairs_1d(values: np.ndarray, queries: np.ndarray, sigmas, eps: float):
    """Exact 1-D containment counting over all C(n,2) value pairs, per sigma.

    A pair (a <= b) dilated by sigma with barycentric slack eps contains x
    iff A <= x <= B with A = (1-t)a + t*b, B = (1-t)b + t*a and
    t = (1-sigma)/2 - eps*sigma.  Cross-pair counts come from n binary
    searches over the sorted values per query and sigma, O(q * n log n)
    per sigma, instead of enumerating the n^2/2 pairs.  The values are
    sorted once for every sigma.  The searches run over chunks of queries,
    each threshold buffer holding at most `SimplexBatch._CHUNK_ELEMS`
    elements, with no per-query Python loop.  Pairs of exactly equal values
    use the degenerate point rule |x - a| <= eps, matching the hull
    fallback of the matrix kernel.  Returns (q, len(sigmas)) counts, one
    row per query.
    """
    v = np.sort(np.asarray(values, dtype=float).ravel())
    n = len(v)
    x = np.asarray(queries, dtype=float).ravel()

    first = np.searchsorted(v, v, side="left")  # per slot j: count of strictly smaller values
    strict_total = int(first.sum())

    vals_u, cnt = np.unique(v, return_counts=True)
    tied = cnt > 1  # only repeated values form flat pairs
    tied_vals, flat_group = vals_u[tied], cnt[tied] * (cnt[tied] - 1) // 2

    sigmas = [float(s) for s in np.ravel(sigmas)]
    counts = np.empty((len(x), len(sigmas)), dtype=np.int64)
    step = max(1, SimplexBatch._CHUNK_ELEMS // n)
    for s in range(0, len(x), step):
        xq = x[s : s + step, None]
        flat_in = np.where(np.abs(tied_vals - xq) <= eps, flat_group, 0).sum(axis=1)
        for k, sigma in enumerate(sigmas):
            t = (1.0 - sigma) / 2.0 - eps * sigma
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
            counts[s : s + step, k] = strict_total - fail_l - fail_r + flat_in
    return counts


class DepthEvaluator:
    """Depth of many query points against one (data, config) pair.

    Precomputes whatever the strategy allows: the block-combined points,
    and the simplex chunks of `_iter_batches` when they hold at most
    `_PRECOMP_MAX` simplices; larger enumerations and Monte-Carlo budgets
    are streamed through the same chunks on every call.  Repeated
    construction with the same inputs reproduces identical values, so the
    one-shot operations below simply build an evaluator and discard it.
    """

    def __init__(self, data, cfg: DepthConfig):
        self.cfg = cfg
        data = as_points(data)
        self.n, self.d = data.shape
        p = self.d + 1
        # The simplex methods dilate the simplices by sigma, so the kernel
        # serves every sigma at once; the distribution methods move the
        # points with sigma instead.
        self._dilates = cfg.method in ("simplicial", "simplex_enlarged")
        self._full = cfg.method == "dist_enlarged_full"

        need = p if self._dilates else p * p
        if self.n < need:
            raise InsufficientDataError(
                f"method {cfg.method!r} needs at least {need} points in {self.d}-D, got {self.n}"
            )
        self._data = data
        self._base = sample_sigma_blocks(data, cfg.sigma) if cfg.method == "dist_enlarged_blocks" else data
        self._tuple_len = p * p if self._full else p
        total = math.comb(len(self._base), self._tuple_len) * (full_pattern_count(p) if self._full else 1)

        self.exact = cfg.budget is None
        self.n_simplices = total if self.exact else int(cfg.budget)

        self._strategy = "enum"
        if self.exact and self.d == 1 and not self._full:
            self._strategy = "count1d"
        elif not self.exact:
            self._strategy = "mc"
        if self._strategy == "enum" and self._full and full_pattern_count(p) > _STREAM_CHUNK:
            raise ResourceCapError(
                f"exact 'dist_enlarged_full' in {self.d}-D needs {full_pattern_count(p)} "
                "simplices per subset; pass a Monte-Carlo budget"
            )
        # The cap guards enumeration work; the 1-D counting path costs
        # O(n log n) per query, in query chunks, however many pairs the
        # total names.
        if self._strategy == "enum" and total > cfg.exact_cap:
            raise ResourceCapError(
                f"exact enumeration needs {total} simplices (cap {cfg.exact_cap}); "
                "pass a Monte-Carlo budget or raise exact_cap"
            )
        # Small simplex sets keep their chunks for every later query; larger
        # ones are rebuilt chunk by chunk on each call.
        self._batches = None
        if self._strategy != "count1d" and self.n_simplices <= _PRECOMP_MAX:
            self._batches = self._build_mc_batch() if self._strategy == "mc" else list(self._iter_batches())

    # -- simplex materialization -----------------------------------------

    def _iter_batches(self):
        """One SimplexBatch per chunk of simplices: lex-order enumeration or MC draws.

        Exact evaluators walk the sorted index subsets; Monte-Carlo ones
        draw `budget` index tuples from the config seed.  For the full
        transform each index row becomes simplices through one leader/group
        pattern gather, vertex = sigma*leader + (1-sigma)/p * (leader + sum
        of its partners): every pattern of `_full_patterns` per sorted
        subset, and the leaders-first pattern per random tuple.
        """
        p, nb, r = self.d + 1, len(self._base), self._tuple_len
        if self.exact:
            chunk = _STREAM_CHUNK // full_pattern_count(p) if self._full else _STREAM_CHUNK
            rows = _iter_combo_chunks(nb, r, chunk)
            leads, groups = _full_patterns(p) if self._full else (None, None)
        else:
            chunk = max(256, min(_STREAM_CHUNK, (2**22) // max(nb, 1)))
            rows = _random_tuples(np.random.default_rng(self.cfg.seed), nb, r, self.n_simplices, chunk)
            leads, groups = np.arange(p)[None], np.arange(p, p * p).reshape(1, p, p - 1)
        sigma, w = self.cfg.sigma, (1.0 - self.cfg.sigma) / p
        for idx in rows:
            verts = self._base[idx]
            if self._full:
                lead_pts = verts[:, leads]  # (c, T, p, d)
                group_sums = verts[:, groups].sum(axis=3)  # (c, T, p, d)
                verts = (sigma * lead_pts + w * (lead_pts + group_sums)).reshape(-1, p, self.d)
            yield SimplexBatch(verts, eps=self.cfg.tol.eps)

    def _build_mc_batch(self) -> list:
        """Every Monte-Carlo chunk, kept for reuse across queries.

        A method of its own so that a profiler can time tuple sampling apart.
        """
        return list(self._iter_batches())

    # -- evaluation -------------------------------------------------------

    def depth_profile(self, X, sigmas) -> np.ndarray:
        """(len(sigmas), q) depths of the rows of X, one row per sigma.

        For 'simplicial' and 'simplex_enlarged' every sigma dilates the same
        simplices (the same Monte-Carlo tuples too), so one kernel pass or
        one 1-D count serves the whole grid.  The distribution methods move
        their points with sigma and evaluate one sigma at a time, each with
        this evaluator's config at that sigma.  Each row equals the depths
        of an evaluator built at that sigma with the same seed.
        """
        return self._counts(X, sigmas) / self.n_simplices

    def contain_counts(self, X) -> np.ndarray:
        """Number of evaluated simplices containing each row of X, at cfg.sigma."""
        return self._counts(X, [self.cfg.sigma])[0]

    def depths(self, X) -> np.ndarray:
        # Counts and totals below 2^53 are exact doubles, so this rounds the
        # exact quotient just as Python's int / int does.
        return self.contain_counts(X) / self.n_simplices

    def _counts(self, X, sigmas) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=float))
        if X.shape[1] != self.d:
            raise InputError(f"query dim {X.shape[1]} != data dim {self.d}")
        if not np.all(np.isfinite(X)):
            raise InputError("query points must be finite")
        # replace() validates each sigma for the method
        cfgs = [replace(self.cfg, sigma=float(s)) for s in np.ravel(sigmas)]
        if not cfgs:
            raise InputError("need at least one sigma")
        if self._dilates:
            return self._kernel_counts(X, [c.sigma for c in cfgs])
        rows = []
        for c in cfgs:
            ev = self if c == self.cfg else DepthEvaluator(self._data, c)
            rows.append(ev._kernel_counts(X, [1.0])[0])
        return np.stack(rows)

    def _kernel_counts(self, X, sigmas) -> np.ndarray:
        """(len(sigmas), q) counts with the simplices dilated by each sigma."""
        if self._strategy == "count1d":
            return _count_pairs_1d(self._base[:, 0], X[:, 0], sigmas, self.cfg.tol.eps).T
        # Counts sum independent per-pair decisions, so chunking cannot move them.
        counts = np.zeros((len(sigmas), len(X)), dtype=np.int64)
        for batch in self._batches or self._iter_batches():
            counts += batch.contains_counts(X, sigmas)
        return counts

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

    from scipy.optimize import minimize

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
