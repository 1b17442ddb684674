"""The sigma combination of point blocks and its exact discrete pushforward.

A block of d+1 points collapses to sigma * X_1 + (1 - sigma)/(d+1) * sum(X_j),
an affine combination that stretches X_1 away from the block mean.  Applied
to i.i.d. draws it induces a transformed distribution whose covariance is
the original scaled by sigma_covariance_factor; for finite-support inputs
the transform is computed exactly by tuple enumeration.

Exact discrete results merge coincident atoms with merge_close_points.  It
groups rows one coordinate at a time, so atoms within 1e-12 of each other
in every coordinate share a group even when other atoms sort between them
in lexicographic order; DiscreteDistribution uses it to reject supports
that are not pairwise distinct, and the central symmetry check to match
reflected atoms.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import InputError, InsufficientDataError, ResourceCapError
from .geometry import as_points

MERGE_TOL = 1e-12
WEIGHT_TOL = 1e-12
DEFAULT_TUPLE_CAP = 10**7


def merge_close_points(points: np.ndarray, weights: np.ndarray, tol: float = MERGE_TOL):
    """Collapse points whose coordinates match within tol, summing weights.

    Rows are grouped one coordinate at a time: at coordinate j they are
    lexsorted by (group so far, coordinate j), and a new group starts where
    the group changes or the coordinate jumps by more than tol.  Rows
    within tol of each other in every coordinate therefore always share a
    group, whatever sorts between them (a chain of rows spaced under tol
    may merge further).  Returns one row per group, the group's first row
    in the final sort, and the summed weights, with the groups in
    lexicographic order of their merged coordinates.  Exact duplicates
    come out as from a plain lexsort, and each group's weights are summed
    in input order.
    """
    points = np.asarray(points, dtype=float)
    weights = np.asarray(weights, dtype=float)
    n, d = points.shape
    if n == 0:
        return points, weights
    gid = np.zeros(n, dtype=np.int64)
    new = np.empty(n, dtype=bool)
    new[0] = True
    for j in range(d):
        order = np.lexsort((points[:, j], gid))
        g = gid[order]
        col = points[order, j]
        new[1:] = (g[1:] != g[:-1]) | (col[1:] - col[:-1] > tol)
        gid[order] = np.cumsum(new) - 1
    return points[order[new]], np.bincount(gid, weights=weights)


@dataclass(frozen=True)
class DiscreteDistribution:
    """Finite-support distribution: support (k, d) points, weights summing to 1."""

    support: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        sup = as_points(self.support)
        wts = np.asarray(self.weights, dtype=float).ravel()
        if len(wts) != len(sup):
            raise InputError("support and weights lengths differ")
        if np.any(wts < 0) or not np.all(np.isfinite(wts)):
            raise InputError("weights must be finite and >= 0")
        if abs(wts.sum() - 1.0) > WEIGHT_TOL:
            raise InputError(f"weights must sum to 1 within {WEIGHT_TOL}, got {wts.sum()!r}")
        merged, _ = merge_close_points(sup, wts)
        if len(merged) != len(sup):
            raise InputError("support points must be pairwise distinct (tol 1e-12)")
        object.__setattr__(self, "support", sup)
        object.__setattr__(self, "weights", wts)

    @property
    def dim(self) -> int:
        return self.support.shape[1]

    def mean(self) -> np.ndarray:
        return self.weights @ self.support

    def cov(self) -> np.ndarray:
        centered = self.support - self.mean()
        return (centered * self.weights[:, None]).T @ centered

    def to_json(self) -> str:
        return json.dumps(
            {"support": self.support.tolist(), "weights": self.weights.tolist()}
        )

    @staticmethod
    def from_json(text: str) -> "DiscreteDistribution":
        try:
            obj = json.loads(text)
            return DiscreteDistribution(
                np.asarray(obj["support"], dtype=float),
                np.asarray(obj["weights"], dtype=float),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError(f"bad distribution JSON: {exc}") from exc


def uniform_on(points) -> DiscreteDistribution:
    pts = as_points(points)
    k = len(pts)
    return DiscreteDistribution(pts, np.full(k, 1.0 / k))


def point_mass(point) -> DiscreteDistribution:
    pts = as_points(np.asarray(point, dtype=float)[None, :])
    return DiscreteDistribution(pts, np.ones(1))


def check_sigma(sigma: float) -> float:
    sigma = float(sigma)
    if not (np.isfinite(sigma) and sigma > 0):
        raise InputError(f"sigma must be finite and > 0, got {sigma}")
    return sigma


def _combine_blocks(blocks: np.ndarray, sigma: float) -> np.ndarray:
    """sigma * X_1 + (1 - sigma)/p * sum_j X_j for (..., p, d) blocks of p points."""
    p = blocks.shape[-2]
    return sigma * blocks[..., 0, :] + (1.0 - sigma) / p * blocks.sum(axis=-2)


def sigma_combine(block, sigma: float) -> np.ndarray:
    """Collapse a block of d+1 points in R^d to one point.

    Returns sigma * X_1 + (1 - sigma)/(d+1) * sum_j X_j, the first point
    pushed away from the block mean; sigma = 1 returns X_1 unchanged.
    """
    sigma = check_sigma(sigma)
    pts = as_points(block)
    k, d = pts.shape
    if k != d + 1:
        raise InputError(f"block must hold d+1 points in R^d, got {k} points in R^{d}")
    return _combine_blocks(pts, sigma)


def sample_sigma_blocks(data, sigma: float) -> np.ndarray:
    """Collapse consecutive disjoint blocks of d+1 data points.

    The first k*(d+1) rows, k = floor(n/(d+1)), are split in data order into
    k blocks; each yields one combined point (first element of the block
    privileged).  Trailing points are unused.  Deterministic in data order.
    """
    sigma = check_sigma(sigma)
    pts = as_points(data)
    n, d = pts.shape
    p = d + 1
    if n < p:
        raise InsufficientDataError(f"need at least d+1 = {p} points, got {n}")
    k = n // p
    blocks = pts[: k * p].reshape(k, p, d)
    return _combine_blocks(blocks, sigma)


def sigma_covariance_factor(d: int, sigma: float) -> float:
    """Covariance multiplier of the transformed distribution: sigma^2 + (1-sigma^2)/(d+1)."""
    sigma = check_sigma(sigma)
    if int(d) != d or d < 1:
        raise InputError(f"d must be a positive integer, got {d}")
    return sigma**2 + (1.0 - sigma**2) / (d + 1)


def _merged(pts: np.ndarray, wts: np.ndarray) -> DiscreteDistribution:
    """Merge coincident atoms, renormalizing away rounding before the sum check."""
    pts, wts = merge_close_points(pts, wts)
    return DiscreteDistribution(pts, wts / wts.sum())


def discrete_sigma_transform(
    P: DiscreteDistribution, sigma: float, cap: int = DEFAULT_TUPLE_CAP
) -> DiscreteDistribution:
    """Exact pushforward of P under the sigma combination of d+1 i.i.d. draws.

    Enumerates all |support|^(d+1) index tuples (leader first), maps each
    block through sigma_combine, accumulates product weights, and merges
    coincident outputs (coordinates within 1e-12).
    """
    sigma = check_sigma(sigma)
    sup = P.support
    wts = P.weights
    s, d = sup.shape
    p = d + 1
    total = s**p
    if total > cap:
        raise ResourceCapError(
            f"{s}^{p} = {total} tuples exceeds the cap {cap}; raise cap explicitly"
        )

    out_pts = np.empty((total, d))
    out_wts = np.empty(total)
    # Unrank tuple ids into base-s digits chunk by chunk; digit 0 is the leader.
    chunk = max(1, min(total, 2**20))
    divisors = s ** np.arange(p - 1, -1, -1, dtype=np.int64)
    for start in range(0, total, chunk):
        ids = np.arange(start, min(start + chunk, total), dtype=np.int64)
        digits = (ids[:, None] // divisors) % s
        out_pts[start : start + len(ids)] = _combine_blocks(sup[digits], sigma)
        out_wts[start : start + len(ids)] = np.prod(wts[digits], axis=1)

    return _merged(out_pts, out_wts)


def discrete_convolution(
    P: DiscreteDistribution,
    Q: DiscreteDistribution,
    coeffs=(1.0, 1.0),
    cap: int = DEFAULT_TUPLE_CAP,
) -> DiscreteDistribution:
    """Exact distribution of a*X + b*Y for independent X ~ P, Y ~ Q."""
    a, b = (float(c) for c in coeffs)
    if not (np.isfinite(a) and np.isfinite(b)):
        raise InputError("coefficients must be finite")
    if P.dim != Q.dim:
        raise InputError(f"dimension mismatch: {P.dim} vs {Q.dim}")
    kp, kq = len(P.support), len(Q.support)
    if kp * kq > cap:
        raise ResourceCapError(f"support product {kp}*{kq} exceeds the cap {cap}")
    pts = (a * P.support)[:, None, :] + (b * Q.support)[None, :, :]
    wts = P.weights[:, None] * Q.weights[None, :]
    return _merged(pts.reshape(kp * kq, P.dim), wts.ravel())


def affine_image(P: DiscreteDistribution, scale, shift) -> DiscreteDistribution:
    """Exact distribution of scale * X + shift (scale scalar or (d, d) matrix)."""
    shift = np.asarray(shift, dtype=float).ravel()
    if shift.size != P.dim:
        raise InputError("shift dimension mismatch")
    scale = np.asarray(scale, dtype=float)
    if scale.ndim == 0:
        pts = float(scale) * P.support + shift
    elif scale.shape == (P.dim, P.dim):
        pts = P.support @ scale.T + shift
    else:
        raise InputError("scale must be a scalar or a (d, d) matrix")
    return _merged(pts, P.weights)
