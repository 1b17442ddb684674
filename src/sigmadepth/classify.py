"""Depth-based classifiers: the maximum-depth rule and DD-plot fits.

A DD-plot scatters (depth w.r.t. class 1, depth w.r.t. class 2); the fitted
separating curve is a polynomial through the origin, class 2 being the
region above the curve.  All exact ties are resolved by a deterministic
fair coin derived from a tie seed and a content hash of the tied values,
so repeated runs agree bit for bit while distinct seeds average out to a
fair allocation.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from .depth import DepthConfig, DepthEvaluator, compute_depth
from .errors import InputError
from .geometry import DEFAULT_EPS, GeomTolerance, as_point, convex_hull_contains_many
from .sigma import as_points

__all__ = [
    "DDModel",
    "stable_hash",
    "max_depth_classify",
    "max_depth_classify_batch",
    "fit_dd",
    "predict_dd",
    "predict_dd_points",
    "classify_points",
    "outsider_mask",
    "misclassification_rate",
]

MAX_DEGREE = 10
CLASSIFIERS = ("maxdepth", "dd-linear", "dd-poly")


def stable_hash(values) -> int:
    """64-bit content hash of a float array (process-salt independent)."""
    arr = np.ascontiguousarray(np.asarray(values, dtype=float))
    digest = hashlib.blake2b(arr.tobytes(), digest_size=8).digest()
    return int.from_bytes(digest, "little")


def _tie_coin(tie_seed, values) -> int:
    """Fair coin for exact ties; deterministic in (tie_seed, values)."""
    mix = (int(tie_seed) ^ stable_hash(values)) & (2**64 - 1)
    return 1 + int(np.random.default_rng(mix).integers(2))


@dataclass(frozen=True)
class DDModel:
    """Polynomial-through-origin DD-plot rule: class 2 iff d2 > sum a_k d1^k."""

    degree: int
    coefficients: np.ndarray
    depth_cfg: DepthConfig
    tie_seed: int = 0

    def __post_init__(self):
        if not 1 <= int(self.degree) <= MAX_DEGREE:
            raise InputError(f"degree must be in [1, {MAX_DEGREE}]")
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

    def to_json(self) -> str:
        cfg = self.depth_cfg
        return json.dumps(
            {
                "degree": int(self.degree),
                "coefficients": [float(a) for a in self.coefficients],
                "depth_cfg": {
                    "method": cfg.method,
                    "sigma": cfg.sigma,
                    "budget": cfg.budget,
                    "seed": cfg.seed,
                    "tol_eps": cfg.tol.eps,
                    "exact_cap": cfg.exact_cap,
                },
                "tie_seed": int(self.tie_seed),
            }
        )

    @staticmethod
    def from_json(text: str) -> "DDModel":
        try:
            obj = json.loads(text)
            c = obj["depth_cfg"]
            cfg = DepthConfig(
                method=c["method"],
                sigma=c["sigma"],
                budget=c["budget"],
                seed=c["seed"],
                tol=GeomTolerance(eps=c["tol_eps"]),
                exact_cap=c["exact_cap"],
            )
            return DDModel(
                obj["degree"], np.asarray(obj["coefficients"]), cfg, obj["tie_seed"]
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError(f"bad model JSON: {exc}") from exc


def max_depth_classify(train1, train2, x, cfg: DepthConfig, tie_seed=0) -> int:
    """Assign x to the class giving it larger depth; exact ties flip a coin."""
    x = as_point(x)
    v1 = compute_depth(train1, x, cfg).value
    v2 = compute_depth(train2, x, cfg).value
    if v1 > v2:
        return 1
    if v2 > v1:
        return 2
    return _tie_coin(tie_seed, x)


def max_depth_classify_batch(eval1: DepthEvaluator, eval2: DepthEvaluator, X, tie_seed=0):
    """Vectorized max-depth rule reusing prebuilt evaluators per class."""
    X = as_points(X)
    v1 = eval1.depths(X)
    v2 = eval2.depths(X)
    out = np.where(v1 >= v2, 1, 2)
    for i in np.flatnonzero(v1 == v2):
        out[i] = _tie_coin(tie_seed, X[i])
    return out


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
    """Mean 0-1 loss of 'class 2 iff margin > 0'; boundary hits count half."""
    is2 = labels == 2
    wrong = np.where(margins > 0, ~is2, is2).astype(float)
    wrong[margins == 0] = 0.5
    return float(wrong.mean())


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
    margins = d2[None, :] - cands[:, None] * d1[None, :]
    is2 = labels == 2
    wrong = np.where(margins > 0, ~is2, is2).astype(float)
    wrong[margins == 0] = 0.5
    losses = wrong.mean(axis=1)
    best = int(np.argmin(losses))  # argmin takes the first = smallest slope
    return float(cands[best]), float(losses[best])


def fit_dd(
    d1,
    d2,
    labels,
    degree: int = 1,
    restarts: int = 8,
    seed=0,
    depth_cfg: DepthConfig | None = None,
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
    if not 1 <= int(degree) <= MAX_DEGREE:
        raise InputError(f"degree must be in [1, {MAX_DEGREE}]")
    if restarts < 1:
        raise InputError("restarts must be >= 1")
    cfg = depth_cfg if depth_cfg is not None else DepthConfig()

    slope, lin_loss = _linear_scan(d1, d2, labels)
    if degree == 1:
        return DDModel(1, np.array([slope]), cfg, tie_seed)

    powers = np.stack([d1**k for k in range(1, degree + 1)], axis=1)

    def loss(a):
        return _rule_loss(d2 - powers @ a, labels)

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
    return DDModel(degree, best[2], cfg, tie_seed)


def predict_dd(model: DDModel, d1, d2) -> int:
    """Apply the fitted rule to one (d1, d2) pair; exact tie flips a coin."""
    d1 = float(d1)
    d2 = float(d2)
    cut = float(model.boundary(d1))
    if d2 > cut:
        return 2
    if d2 < cut:
        return 1
    return _tie_coin(model.tie_seed, [d1, d2])


def predict_dd_points(model: DDModel, d1, d2, X):
    """Vectorized DD rule over test points, ties keyed on the points.

    Tying depth pairs are common (every double outsider sits at exactly
    (0, 0)), so keying the coin on the depth values would assign all of
    them to one class.  Keying on the point coordinates instead gives each
    tied point its own fair flip, which is what the outsider rate tables
    assume, while staying reproducible.
    """
    X = as_points(X)
    d1 = np.asarray(d1, dtype=float).ravel()
    d2 = np.asarray(d2, dtype=float).ravel()
    if not d1.size == d2.size == len(X):
        raise InputError("depth vectors must align with the points")
    cut = model.boundary(d1)
    pred = np.where(d2 > cut, 2, 1).astype(np.int64)
    for i in np.flatnonzero(d2 == cut):
        pred[i] = _tie_coin(model.tie_seed, X[i])
    return pred


def classify_points(
    ev1: DepthEvaluator,
    ev2: DepthEvaluator,
    train1,
    train2,
    test,
    classifier: str,
    degree: int,
    restarts: int,
    seed,
    tie_seed,
):
    """Predicted class (1 or 2) of each test point from two class evaluators.

    'maxdepth' applies the max-depth rule.  The DD-plot rules fit
    'class 2 iff d2 > poly(d1)' on the training depths, with degree 1 for
    'dd-linear' and `degree` for 'dd-poly'; `seed` seeds the fit's random
    restarts and is unused by 'maxdepth'.  Exact ties flip coins keyed on
    tie_seed.
    """
    if classifier not in CLASSIFIERS:
        raise InputError(f"classifier must be one of {CLASSIFIERS}")
    if classifier == "maxdepth":
        return max_depth_classify_batch(ev1, ev2, test, tie_seed=tie_seed)
    both = np.vstack([train1, train2])
    labels = np.r_[
        np.ones(len(train1), dtype=np.int64), np.full(len(train2), 2, dtype=np.int64)
    ]
    model = fit_dd(
        ev1.depths(both),
        ev2.depths(both),
        labels,
        degree=1 if classifier == "dd-linear" else degree,
        restarts=restarts,
        seed=seed,
        depth_cfg=ev1.cfg,
        tie_seed=tie_seed,
    )
    return predict_dd_points(model, ev1.depths(test), ev2.depths(test), test)


def _hull_contains_mask(train, X, tol: GeomTolerance):
    d = train.shape[1]
    if d == 1:
        lo = train[:, 0].min() - tol.eps
        hi = train[:, 0].max() + tol.eps
        return (X[:, 0] >= lo) & (X[:, 0] <= hi)
    try:
        from scipy.spatial import ConvexHull, QhullError

        hull = ConvexHull(train)
        normals = hull.equations[:, :d]
        offsets = hull.equations[:, d]
        dist = X @ normals.T + offsets
        return (dist <= tol.eps + 1e-12).all(axis=1)
    except QhullError:
        # degenerate training cloud (collinear etc.): screened hull LP
        return convex_hull_contains_many(train, X, tol)


def outsider_mask(train1, train2, test, tol: GeomTolerance | None = None):
    """True for test points outside the convex hulls of BOTH training sets."""
    tol = tol if tol is not None else GeomTolerance(eps=DEFAULT_EPS)
    train1 = as_points(train1)
    train2 = as_points(train2)
    test = as_points(test)
    if not train1.shape[1] == train2.shape[1] == test.shape[1]:
        raise InputError("dimension mismatch between training and test sets")
    in1 = _hull_contains_mask(train1, test, tol)
    in2 = _hull_contains_mask(train2, test, tol)
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
