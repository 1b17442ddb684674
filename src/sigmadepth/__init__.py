"""Simplicial depth with two enlargement generalizations.

The classical simplicial depth of a point is the probability that a
random simplex (vertices i.i.d. from the data) contains it; it vanishes
outside the convex hull of the sample.  This package adds two families
that do not: dilating each sampled simplex about its centroid by a factor
sigma, or transforming the underlying distribution by the sigma-weighted
affine combination of d+1 independent draws and taking classical depth
there.  On top of the estimators sit depth-based classifiers, discrete
symmetry checkers, and a simulation harness.
"""

from .classify import (
    DDModel,
    fit_dd,
    max_depth_classify_batch,
    misclassification_rate,
    outsider_mask,
    predict_dd_points,
)
from .depth import (
    DepthConfig,
    DepthEvaluator,
    DepthValue,
    METHODS,
    compute_depth,
    depth_maximizer,
    trimmed_region_grid,
)
from .errors import InputError, InsufficientDataError, ResourceCapError
from .geometry import (
    GeomTolerance,
    barycentric_coordinates,
    convex_hull_contains,
    enlarge_simplex,
    simplex_contains,
)
from .sigma import (
    DiscreteDistribution,
    affine_image,
    discrete_convolution,
    discrete_sigma_transform,
    sample_sigma_blocks,
    sigma_combine,
    sigma_covariance_factor,
    uniform_on,
    point_mass,
)
from .sim import (
    ResultTable,
    ScenarioConfig,
    band_filter,
    default_config,
    full_scale_config,
    run_scenario,
    sample_elliptical,
    smallest_covering_sigma,
)
from .symmetry import (
    SymmetryVerdict,
    check_angular_symmetry,
    check_central_symmetry,
    check_halfspace_symmetry,
    corpus_distribution,
    gamma_median_root,
    halfspace_center_box,
    projection_median_interval,
)

__version__ = "0.1.0"

__all__ = [
    "DDModel",
    "DepthConfig",
    "DepthEvaluator",
    "DepthValue",
    "DiscreteDistribution",
    "GeomTolerance",
    "InputError",
    "InsufficientDataError",
    "METHODS",
    "ResourceCapError",
    "ResultTable",
    "ScenarioConfig",
    "SymmetryVerdict",
    "affine_image",
    "band_filter",
    "barycentric_coordinates",
    "check_angular_symmetry",
    "check_central_symmetry",
    "check_halfspace_symmetry",
    "compute_depth",
    "convex_hull_contains",
    "corpus_distribution",
    "default_config",
    "depth_maximizer",
    "discrete_convolution",
    "discrete_sigma_transform",
    "enlarge_simplex",
    "fit_dd",
    "gamma_median_root",
    "halfspace_center_box",
    "max_depth_classify_batch",
    "misclassification_rate",
    "outsider_mask",
    "full_scale_config",
    "point_mass",
    "predict_dd_points",
    "projection_median_interval",
    "run_scenario",
    "sample_elliptical",
    "sample_sigma_blocks",
    "sigma_combine",
    "sigma_covariance_factor",
    "simplex_contains",
    "smallest_covering_sigma",
    "trimmed_region_grid",
    "uniform_on",
]
