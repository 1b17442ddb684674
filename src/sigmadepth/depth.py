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

Exact counts take one of three paths: pair counting from sorted pair ends
in 1-D, the triangle pair tables of `geometry.TrianglePairTables` in 2-D, and
barycentric maps in d >= 3 and for the full transform, kept up to
`_PRECOMP_MAX` simplices and rebuilt chunk by chunk on every call above.
All three counters (`geometry.count_pairs_1d`, `TrianglePairTables` and
`SimplexBatch`) live in `geometry`; this module only chooses and feeds them.
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .errors import InputError, InsufficientDataError, ResourceCapError
from .geometry import GeomTolerance, SimplexBatch, TrianglePairTables, as_point, as_points, check_sigma
from .geometry import count_pairs_1d as _count_pairs_1d  # the name the benchmark tracer wraps
from .sigma import sample_sigma_blocks

METHODS = (
    "simplicial",
    "simplex_enlarged",
    "dist_enlarged_blocks",
    "dist_enlarged_full",
)

DEFAULT_EXACT_CAP = 10**7
# Simplex batches up to this size are precomputed and reused across queries;
# larger d >= 3, full-transform and Monte-Carlo sets are streamed chunk by
# chunk on each call.  Exact 2-D triangle sets keep pair tables at any size.
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
    it = itertools.combinations(range(n), k)
    while True:
        flat = np.fromiter(
            itertools.chain.from_iterable(itertools.islice(it, chunk)),
            dtype=np.int64,
        )
        if flat.size == 0:
            return
        yield flat.reshape(-1, k)


@lru_cache(maxsize=8)
def _full_patterns(p: int):
    """Leader/group index patterns for the full-transform enumeration.

    Over a sorted tuple of p^2 indices: choose p leader slots, split the
    remaining p^2-p slots into p labeled groups of p-1 (group j feeds
    vertex j alongside leader j).  The splits are the permutations of the
    remaining slots whose groups increase, in lex order.  Returns
    (leads (T, p), groups (T, p, p-1)).
    """
    rises = [i for i in range(p * p - p - 1) if (i + 1) % (p - 1)]  # neighbours within one group
    splits = np.array([s for s in itertools.permutations(range(p * p - p)) if all(s[i] < s[i + 1] for i in rises)])
    leads = np.array(list(itertools.combinations(range(p * p), p)), dtype=np.int64)
    rest = np.array([np.setdiff1d(np.arange(p * p), lead) for lead in leads])
    return np.repeat(leads, len(splits), axis=0), rest[:, splits].reshape(-1, p, p - 1)


def full_pattern_count(p: int) -> int:
    """Simplices per p^2-subset in the full-transform enumeration."""
    return math.comb(p * p, p) * math.factorial(p * p - p) // math.factorial(p - 1) ** p


def _random_tuples(rng, n: int, r: int, m: int, chunk: int):
    """Yield m uniformly random r-tuples of distinct indices in [0, n), in chunks of at most `chunk` rows.

    With 2r >= n each row is the first r of a random permutation (argsort
    of n uniforms).  Otherwise rows are drawn with replacement and every
    row holding an index twice is redrawn, all such rows at once, until
    none is left.  Those rows are found by OR-ing the C(r, 2) column
    equalities, without sorting any row; the redraws, and so the random
    stream, depend only on which rows repeat an index.
    """
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
                bad = _repeats(idx)
                if not bad.any():
                    break
                idx[bad] = rng.integers(0, n, size=(int(bad.sum()), r))
        yield idx
        remaining -= c


def _repeats(idx: np.ndarray) -> np.ndarray:
    """Rows of idx (c, r) holding some index twice.

    The columns are copied out once, contiguous; the copy lives in this
    frame, not in the generator's, so it is freed before the chunk is yielded.
    """
    cols = idx.T.copy()
    bad = np.zeros(len(idx), dtype=bool)
    for a, b in itertools.combinations(range(len(cols)), 2):
        bad |= cols[a] == cols[b]
    return bad


class DepthEvaluator:
    """Depth of many query points against one (data, config) pair.

    Precomputes whatever the strategy allows: the block-combined points,
    the 2-D pair tables, and the simplex chunks of `_iter_batches` up to
    `_PRECOMP_MAX` simplices.  `strategy` names the path:

    - 'count1d': exact 1-D pair counting, no simplices;
    - 'pairs2d': exact 2-D triangles at any size, from pair tables built
      once (`geometry.TrianglePairTables`);
    - 'kept': exact in d >= 3 or for the full transform, the chunks are
      kept and reused for every query;
    - 'streamed': as 'kept' above `_PRECOMP_MAX`, rebuilt on every call;
    - 'mc': Monte Carlo, the draws kept up to `_PRECOMP_MAX`, else redrawn
      from the seed on every call.

    Every path gives the counts of `SimplexBatch` over the same simplices.
    Repeated construction with the same inputs reproduces identical values,
    so the one-shot operations below simply build an evaluator and discard
    it.
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

        if not self.exact:
            self._strategy = "mc"
        elif self.d == 1 and not self._full:
            self._strategy = "count1d"
        elif self.d == 2 and not self._full:
            self._strategy = "pairs2d"
        elif total <= _PRECOMP_MAX:
            self._strategy = "kept"
        else:
            self._strategy = "streamed"
        enumerates = self.exact and self._strategy != "count1d"
        if enumerates and self._full and full_pattern_count(p) > _STREAM_CHUNK:
            raise ResourceCapError(
                f"exact 'dist_enlarged_full' in {self.d}-D needs {full_pattern_count(p)} "
                "simplices per subset; pass a Monte-Carlo budget"
            )
        # The cap guards enumeration work; the 1-D counting path costs
        # O(n log n) per query, in query chunks, however many pairs the
        # total names.
        if enumerates and total > cfg.exact_cap:
            raise ResourceCapError(
                f"exact enumeration needs {total} simplices (cap {cfg.exact_cap}); "
                "pass a Monte-Carlo budget or raise exact_cap"
            )
        # Pair tables, and the chunks of small simplex sets, serve every later query.
        self._batches = None
        if self._strategy == "pairs2d":
            self._batches = [TrianglePairTables(self._base, eps=cfg.tol.eps)]
        elif self._strategy == "kept":
            self._batches = list(self._iter_batches())
        elif self._strategy == "mc" and self.n_simplices <= _PRECOMP_MAX:
            self._batches = self._build_mc_batch()

    @property
    def strategy(self) -> str:
        """How counts are made: 'count1d', 'pairs2d', 'kept', 'streamed' or 'mc'."""
        return self._strategy

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

    if data.shape[1] <= 3:
        _, cand = _grid(data, 21)
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


def _grid(data: np.ndarray, grid):
    """(axes, nodes in "ij" order) of grid: nodes per axis over the bounding
    box of data (n, d), or one coordinate array per axis."""
    if _is_int(grid, 2):
        lo, hi = data.min(axis=0), data.max(axis=0)
        axes = [np.linspace(lo[j], hi[j], int(grid)) for j in range(data.shape[1])]
    elif isinstance(grid, (list, tuple)) or getattr(grid, "ndim", 0) > 0:
        # the axes may differ in length, so grid itself is never made one array
        try:
            axes = [np.asarray(a, dtype=float).ravel() for a in grid]
        except (TypeError, ValueError):
            raise InputError(f"grid axes must be numeric, got {grid!r}") from None
        if len(axes) != data.shape[1] or any(len(a) < 1 for a in axes):
            raise InputError("grid must give one coordinate array per axis")
    else:
        raise InputError(f"grid must be a node count >= 2 or one coordinate array per axis, got {grid!r}")
    mesh = np.meshgrid(*axes, indexing="ij")
    return axes, np.stack([m.ravel() for m in mesh], axis=1)


def trimmed_region_grid(data, cfg: DepthConfig, alpha: float, grid=21):
    """Boolean mask of grid nodes with depth >= alpha (upper level set).

    grid: either nodes-per-axis (int, over the data bounding box) or a
    tuple of per-axis coordinate arrays.  Returns (axes, mask) with mask
    shaped like the grid.  d <= 2 only.
    """
    data = as_points(data)
    d = data.shape[1]
    if d > 2:
        raise InputError("trimmed regions are exported for d <= 2 only")
    alpha = float(alpha)
    if not (0.0 <= alpha <= 1.0) or not np.isfinite(alpha):
        raise InputError(f"alpha must lie in [0, 1], got {alpha}")

    axes, pts = _grid(data, grid)
    vals = DepthEvaluator(data, cfg).depths(pts)
    mask = (vals >= alpha).reshape([len(a) for a in axes])
    return axes, mask
