"""Exact symmetry checkers for finite-support distributions in R^1 and R^2.

Central symmetry is decided by reflecting the support and matching weighted
atoms.  Angular and halfspace symmetry quantify over all directions, but for
finite support the two halfspace masses are piecewise constant in the
direction angle, jumping only where the direction is orthogonal to some
(atom - center) vector; evaluating a finite critical set of directions is
therefore exhaustive (provided the jump angles are separated by more than
the 1e-7 rad perturbation used to sample the open arcs, which holds for
the shipped corpus).
"""

from __future__ import annotations

import importlib.resources
import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .geometry import as_point
from .sigma import DiscreteDistribution, merge_close_points

__all__ = [
    "SymmetryVerdict",
    "check_central_symmetry",
    "check_angular_symmetry",
    "check_halfspace_symmetry",
    "halfspace_center_box",
    "projection_median_interval",
    "gamma_median_root",
    "corpus_distribution",
]

PROB_TOL = 1e-12
MATCH_TOL = 1e-12
PROJ_RTOL = 1e-9
ARC_PERTURBATION = 1e-7


@dataclass(frozen=True)
class SymmetryVerdict:
    """Outcome of a symmetry check about a proposed center.

    witness is the violating object: a direction (angular/halfspace) or an
    unmatched support atom (central).
    """

    symmetric: bool
    center: np.ndarray | None
    witness: np.ndarray | None

    def __post_init__(self):
        if self.symmetric and self.center is None:
            raise InputError("symmetric verdict must carry the center")
        if not self.symmetric and self.witness is None:
            raise InputError("asymmetric verdict must carry a witness")


def _checker_inputs(P: DiscreteDistribution, mu):
    if P.dim > 2:
        raise InputError("symmetry checkers support d <= 2 only")
    mu = as_point(mu)
    if mu.size != P.dim:
        raise InputError(f"center dim {mu.size} != distribution dim {P.dim}")
    return mu


def check_central_symmetry(P: DiscreteDistribution, mu) -> SymmetryVerdict:
    """Exact test of X - mu =d= mu - X by weighted atom matching."""
    mu = _checker_inputs(P, mu)
    reflected = 2.0 * mu - P.support
    pts = np.vstack([P.support, reflected])
    signed = np.concatenate([P.weights, -P.weights])
    merged, net = merge_close_points(pts, signed, tol=MATCH_TOL)
    bad = np.abs(net) > PROB_TOL
    if not bad.any():
        return SymmetryVerdict(True, mu, None)
    return SymmetryVerdict(False, None, merged[int(np.flatnonzero(bad)[0])])


def _critical_directions(diffs: np.ndarray, d: int) -> np.ndarray:
    """Directions where halfspace masses can change, plus arc samples.

    For each support offset v: the direction of v, its orthogonal, and
    +-1e-7 rad rotations of both.  The orthogonals are exactly the angles
    where an atom crosses the boundary hyperplane.
    """
    if d == 1:
        return np.array([[1.0]])
    if len(diffs) == 0:
        return np.array([[1.0, 0.0], [0.0, 1.0]])
    base = np.arctan2(diffs[:, 1], diffs[:, 0])
    angles = np.concatenate(
        [
            base + off
            for off in (
                0.0,
                math.pi / 2,
                ARC_PERTURBATION,
                -ARC_PERTURBATION,
                math.pi / 2 + ARC_PERTURBATION,
                math.pi / 2 - ARC_PERTURBATION,
            )
        ]
    )
    return np.stack([np.cos(angles), np.sin(angles)], axis=1)


def _mass_split(P: DiscreteDistribution, mu: np.ndarray):
    """Split atoms into the center atom (if any) and offset atoms."""
    diffs = P.support - mu
    norms = np.linalg.norm(diffs, axis=1)
    scale = max(1.0, float(np.abs(P.support).max()), float(np.abs(mu).max()))
    at_center = norms <= MATCH_TOL * scale
    return diffs[~at_center], norms[~at_center], P.weights[~at_center], float(
        P.weights[at_center].sum()
    )


def _direction_scan(P: DiscreteDistribution, mu, fails) -> SymmetryVerdict:
    """Verdict of the first critical direction u with fails(pos, neg, w_center): the masses
    of the closed halfplanes u'(X - mu) >= 0 and <= 0 without the atom at mu, and its mass."""
    mu = _checker_inputs(P, mu)
    diffs, norms, wts, w_center = _mass_split(P, mu)
    if len(diffs) == 0:
        return SymmetryVerdict(True, mu, None)
    tolv = PROJ_RTOL * norms
    for u in _critical_directions(diffs, P.dim):
        proj = diffs @ u
        pos = float(wts[proj >= -tolv].sum())
        neg = float(wts[proj <= tolv].sum())
        if fails(pos, neg, w_center):
            return SymmetryVerdict(False, None, u)
    return SymmetryVerdict(True, mu, None)


def check_angular_symmetry(P: DiscreteDistribution, mu) -> SymmetryVerdict:
    """Test that (X-mu)/|X-mu| and its negation are identically distributed.

    Equivalent (Zuo-Serfling) to P(u'(X-mu) >= 0) = P(u'(mu-X) >= 0) for
    every direction u, checked over the critical direction set.  The atom
    at mu (where the ratio is undefined) is excluded from both sides.
    """
    return _direction_scan(P, mu, lambda pos, neg, w_center: abs(pos - neg) > PROB_TOL)


def check_halfspace_symmetry(P: DiscreteDistribution, mu) -> SymmetryVerdict:
    """Test that every closed halfspace through mu has mass >= 1/2."""
    # float addition is monotone, so min(pos, neg) + w is min(pos + w, neg + w) exactly
    return _direction_scan(P, mu, lambda pos, neg, w_center: min(pos, neg) + w_center < 0.5 - PROB_TOL)


def projection_median_interval(P: DiscreteDistribution, u):
    """Weighted median interval [lo, hi] of the projection u'X.

    A halfspace symmetry center c must satisfy lo <= u'c <= hi for every
    direction u; intersecting these constraints over a direction grid can
    shrink the admissible set to a point or to nothing.
    """
    u = as_point(u)
    if u.size != P.dim:
        raise InputError(f"direction dim {u.size} != distribution dim {P.dim}")
    z = P.support @ u
    order = np.argsort(z, kind="stable")
    z = z[order]
    w = P.weights[order]
    cum = np.cumsum(w)
    lo = z[int(np.searchsorted(cum, 0.5 - PROB_TOL))]
    cum_rev = np.cumsum(w[::-1])
    hi = z[::-1][int(np.searchsorted(cum_rev, 0.5 - PROB_TOL))]
    return float(lo), float(hi)


def halfspace_center_box(P: DiscreteDistribution):
    """Per-coordinate median intervals: the box of admissible centers.

    Coordinate-axis case of projection_median_interval; a pointlike box
    pins down the only candidate halfspace/angular center, which is how one
    shows certain convolutions of symmetric laws admit no center at all.
    """
    lo = np.empty(P.dim)
    hi = np.empty(P.dim)
    for j in range(P.dim):
        e = np.zeros(P.dim)
        e[j] = 1.0
        lo[j], hi[j] = projection_median_interval(P, e)
    return lo, hi


def gamma_median_root(tol: float = 1e-9) -> float:
    """Root of (1+m) * exp(-m) = 1/2 on [0, 10] by bisection.

    This is the median of the unit-scale Gamma distribution with shape 2.
    """
    f = lambda m: (1.0 + m) * math.exp(-m) - 0.5
    lo, hi = 0.0, 10.0
    if f(lo) <= 0 or f(hi) >= 0:
        raise InputError("bisection bracket is invalid")
    while hi - lo > tol:
        mid = (lo + hi) / 2.0
        if f(mid) > 0:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2.0


def corpus_distribution(name: str):
    """Load a shipped corpus distribution by file stem.

    Returns (distribution, meta) where meta carries the documented center
    and the expected checker outcomes.
    """
    resource = importlib.resources.files("sigmadepth").joinpath(f"data/{name}.json")
    try:
        text = resource.read_text()
    except FileNotFoundError as exc:
        raise InputError(f"unknown corpus distribution {name!r}") from exc
    dist = DiscreteDistribution.from_json(text)
    meta = {k: v for k, v in json.loads(text).items() if k not in ("support", "weights")}
    return dist, meta
