"""Depth-based classifiers: the maximum-depth rule and DD-plot fits.

A DD-plot scatters (depth w.r.t. class 1, depth w.r.t. class 2); the fitted
separating curve is a polynomial through the origin, class 2 being the
region above the curve.  The maximum-depth rule is the DD rule whose curve
is the diagonal d2 = d1, so both rules share one decision on a batch of
test points, and every exact tie is resolved by a deterministic fair coin:
the top bit of a keyed 64-bit hash of the tie seed and the tied point's
coordinates, computed for all tied points at once.  Repeated runs agree
bit for bit while distinct seeds average out to a fair allocation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .depth import _is_int
from .errors import InputError
from .geometry import DEFAULT_EPS, GeomTolerance, as_points, convex_hull_contains_many

__all__ = [
    "DDModel",
    "max_depth_classify_batch",
    "fit_dd",
    "predict_dd_points",
    "depth_rows",
    "classify_points",
    "outsider_mask",
    "misclassification_rate",
]

MAX_DEGREE = 10
CLASSIFIERS = ("maxdepth", "dd-linear", "dd-poly")


_GAMMA = 0x9E3779B97F4A7C15


def _mix64(z):
    """SplitMix64's finalizer on a uint64 array (Steele, Lea & Flood, OOPSLA 2014)."""
    z = (z ^ (z >> 30)) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> 27)) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> 31)


def _row_hashes(seed: int, X) -> np.ndarray:
    """(k,) uint64 keyed hashes of the rows of the (k, d) float array X.

    Each row's float64 bit patterns are folded column by column into a state
    that starts from seed mod 2^64.  X + 0.0 turns -0.0 into 0.0, so the two
    zeros, equal as points, hash alike.
    """
    bits = np.ascontiguousarray(X + 0.0, dtype=np.float64).view(np.uint64)
    h = np.full(len(bits), int(seed) % 2**64, dtype=np.uint64)
    for col in bits.T:
        h = _mix64((h ^ col) + np.uint64(_GAMMA))
    return h


def _tie_coin(tie_seed: int, X) -> np.ndarray:
    """(k,) fair coins, class 1 or 2, for the tied (k, d) rows X.

    Each coin is the top bit of the row's hash keyed on tie_seed, so it
    depends on (tie_seed, row) alone: equal rows get equal coins whatever
    else is in the batch.
    """
    return 1 + (_row_hashes(tie_seed, X) >> 63).astype(np.int64)


def _check_tie_seed(tie_seed):
    if not _is_int(tie_seed, 0):
        raise InputError(f"tie_seed must be a nonnegative integer, got {tie_seed!r}")


@dataclass(frozen=True)
class DDModel:
    """Polynomial-through-origin DD-plot rule: class 2 iff d2 > sum a_k d1^k."""

    degree: int
    coefficients: np.ndarray
    tie_seed: int = 0

    def __post_init__(self):
        _check_tie_seed(self.tie_seed)
        if not _is_int(self.degree, 1) or self.degree > MAX_DEGREE:
            raise InputError(f"degree must be an integer in [1, {MAX_DEGREE}], got {self.degree!r}")
        coeffs = np.atleast_1d(np.asarray(self.coefficients, dtype=float))
        if coeffs.shape != (self.degree,):
            raise InputError("need exactly one coefficient per degree")
        if not np.isfinite(coeffs).all():
            raise InputError("coefficients must be finite")
        object.__setattr__(self, "coefficients", coeffs)

    def boundary(self, d1):
        """Value of the separating polynomial at depth-1 value(s) d1."""
        d1 = np.asarray(d1, dtype=float)
        acc = np.zeros_like(d1)
        for a in self.coefficients[::-1]:
            acc = a + d1 * acc
        return d1 * acc


def _decide(d2, cut, X, tie_seed):
    """Class 2 where d2 > cut, else class 1; rows with d2 == cut flip a coin.

    Tying depth pairs are common (every double outsider sits at exactly
    (0, 0)), so keying the coin on the depth values would assign all of
    them to one class.  Keying on the point coordinates instead gives each
    tied point its own fair flip, which is what the outsider rate tables
    assume, while staying reproducible.  All tied rows flip in one
    `_tie_coin` call, made only when some row ties.
    """
    _check_tie_seed(tie_seed)
    X = as_points(X)
    d2 = np.asarray(d2, dtype=float).ravel()
    cut = np.asarray(cut, dtype=float).ravel()
    if not d2.size == cut.size == len(X):
        raise InputError("depth vectors must align with the points")
    if not (np.isfinite(d2).all() and np.isfinite(cut).all()):
        raise InputError("depths must be finite")
    out = np.where(d2 > cut, 2, 1).astype(np.int64)
    tied = d2 == cut
    if tied.any():
        out[tied] = _tie_coin(tie_seed, X[tied])
    return out


def max_depth_classify_batch(v1, v2, X, tie_seed=0):
    """Assign each row of X to the class giving it larger depth; exact ties flip a coin.

    v1 and v2 are the rows' depths in class 1 and class 2: the DD rule with
    the diagonal v2 = v1 as its curve.
    """
    return _decide(v2, v1, X, tie_seed)


def _labels_as_two_classes(labels, n):
    labels = np.asarray(labels)
    if labels.shape != (n,):
        raise InputError("labels must align with the depth vectors")
    if not np.isin(labels, (1, 2)).all():
        raise InputError("labels must be 1 or 2")
    if (labels == 1).all() or (labels == 2).all():
        raise InputError("both classes must be present")
    return labels.astype(np.int64)


def _rule_loss(margins, labels):
    """Mean 0-1 loss of 'class 2 iff margin > 0' over the last axis; boundary hits count half."""
    is2 = labels == 2
    wrong = np.where(margins > 0, ~is2, is2).astype(float)
    wrong[margins == 0] = 0.5
    return wrong.mean(axis=-1)


def _linear_scan(d1, d2, labels):
    """Exhaustive slope search; returns (best slope, best loss).

    Candidates: every data slope d2_i/d1_i with d1_i > 0, zero, a finite
    stand-in for the +inf rule (anything above the largest data slope),
    and midpoints of consecutive distinct slopes.  The midpoints guard the
    half-open-interval rules against float jitter at the data slopes, so
    the scan attains the global optimum of the slope family.  Ties go to
    the smallest slope.
    """
    pos = d1 > 0
    slopes = np.unique(d2[pos] / d1[pos]) if pos.any() else np.empty(0)
    cands = [np.zeros(1), slopes]
    if slopes.size:
        cands.append((slopes[:-1] + slopes[1:]) / 2.0)
        cands.append(np.array([2.0 * slopes[-1] + 1.0]))
    else:
        cands.append(np.ones(1))
    cands = np.unique(np.concatenate(cands))
    losses = _rule_loss(d2[None, :] - cands[:, None] * d1[None, :], labels)
    best = int(np.argmin(losses))  # argmin takes the first = smallest slope
    return float(cands[best]), float(losses[best])


def fit_dd(
    d1,
    d2,
    labels,
    degree: int = 1,
    restarts: int = 8,
    seed=0,
    tie_seed=0,
) -> DDModel:
    """Fit the DD-plot rule 'class 2 iff d2 > poly(d1)' by 0-1 loss.

    Degree 1 is solved exactly by the exhaustive slope scan.  Higher
    degrees run a derivative-free polytope search from several starts (the
    padded linear optimum plus seeded random starts), keeping the best;
    loss ties prefer the smaller-norm coefficient vector.
    """
    d1 = np.asarray(d1, dtype=float).ravel()
    d2 = np.asarray(d2, dtype=float).ravel()
    if d1.shape != d2.shape or d1.size < 2:
        raise InputError("need matching depth vectors of length >= 2")
    labels = _labels_as_two_classes(labels, d1.size)
    if not _is_int(degree, 1) or degree > MAX_DEGREE:
        raise InputError(f"degree must be an integer in [1, {MAX_DEGREE}], got {degree!r}")
    if not _is_int(restarts, 1):
        raise InputError(f"restarts must be an integer >= 1, got {restarts!r}")

    slope, lin_loss = _linear_scan(d1, d2, labels)
    if degree == 1:
        return DDModel(1, np.array([slope]), tie_seed)

    from scipy.optimize import minimize

    powers = np.stack([d1**k for k in range(1, degree + 1)], axis=1)

    def loss(a):
        return float(_rule_loss(d2 - powers @ a, labels))

    x0 = np.zeros(degree)
    x0[0] = slope
    starts = [x0]
    scale = max(1.0, abs(slope))
    for k in range(1, restarts):
        rng = np.random.default_rng([abs(int(seed)), k])
        starts.append(rng.normal(0.0, scale, degree))
    best = (lin_loss, float(np.linalg.norm(x0)), x0)
    for start in starts:
        res = minimize(
            loss,
            start,
            method="Nelder-Mead",
            options={"maxiter": 400 * degree, "xatol": 1e-3, "fatol": 1e-9},
        )
        key = (loss(res.x), float(np.linalg.norm(res.x)), res.x)
        if key[:2] < best[:2]:
            best = key
    return DDModel(degree, best[2], tie_seed)


def predict_dd_points(model: DDModel, d1, d2, X):
    """Vectorized DD rule over test points, ties keyed on the points."""
    return _decide(d2, model.boundary(d1), X, model.tie_seed)


def _class_labels(n1: int, n2: int) -> np.ndarray:
    return np.r_[np.ones(n1, dtype=np.int64), np.full(n2, 2, dtype=np.int64)]


def depth_rows(train1, train2, test, classifier: str):
    """Rows whose per-class depths `classify_points` needs, and the labels of its fit rows.

    'maxdepth' needs the test rows only.  The DD-plot rules also fit on the
    training rows, so they need [train1; train2; test] with labels 1, 2.
    """
    if classifier == "maxdepth":
        return as_points(test), np.empty(0, dtype=np.int64)
    return np.vstack([train1, train2, test]), _class_labels(len(train1), len(train2))


def classify_points(
    depths1,
    depths2,
    labels,
    test,
    classifier: str,
    degree: int,
    restarts: int,
    seed,
    tie_seed,
):
    """Predicted class (1 or 2) of each test point from its depths in the two classes.

    depths1 and depths2 are the class depths of the rows that `depth_rows`
    names: the first len(labels) rows are training points labelled 1 or 2,
    the rest are the test points.  'maxdepth' applies the max-depth rule to
    the test rows.  The DD-plot rules fit 'class 2 iff d2 > poly(d1)' on
    the training rows, with degree 1 for 'dd-linear' and `degree` for
    'dd-poly'; `seed` seeds the fit's random restarts and is unused by
    'maxdepth'.  Exact ties flip coins keyed on tie_seed.
    """
    if classifier not in CLASSIFIERS:
        raise InputError(f"classifier must be one of {CLASSIFIERS}")
    depths1 = np.asarray(depths1, dtype=float).ravel()
    depths2 = np.asarray(depths2, dtype=float).ravel()
    nfit = len(labels)
    if not len(depths1) == len(depths2) == nfit + len(test):
        raise InputError("depth vectors must cover the fit rows and the test rows")
    test1, test2 = depths1[nfit:], depths2[nfit:]
    if classifier == "maxdepth":
        return max_depth_classify_batch(test1, test2, test, tie_seed=tie_seed)
    model = fit_dd(
        depths1[:nfit],
        depths2[:nfit],
        labels,
        degree=1 if classifier == "dd-linear" else degree,
        restarts=restarts,
        seed=seed,
        tie_seed=tie_seed,
    )
    return predict_dd_points(model, test1, test2, test)


def outsider_mask(train1, train2, test, tol: GeomTolerance | None = None):
    """True for test points outside the convex hulls of BOTH training sets,
    each decided by geometry.convex_hull_contains_many at tol.eps."""
    tol = tol if tol is not None else GeomTolerance(eps=DEFAULT_EPS)
    train1 = as_points(train1)
    train2 = as_points(train2)
    test = as_points(test)
    if not train1.shape[1] == train2.shape[1] == test.shape[1]:
        raise InputError("dimension mismatch between training and test sets")
    in1 = convex_hull_contains_many(train1, test, tol)
    in2 = convex_hull_contains_many(train2, test, tol)
    return ~(in1 | in2)


def misclassification_rate(predicted, truth) -> float:
    """Fraction of label mismatches."""
    p = np.asarray(predicted).ravel()
    t = np.asarray(truth).ravel()
    if p.shape != t.shape:
        raise InputError("predicted and truth lengths differ")
    if p.size == 0:
        raise InputError("need at least one prediction")
    return float(np.mean(p != t))
