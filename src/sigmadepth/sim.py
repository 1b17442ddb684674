"""Reproducible harness for the four classification experiments.

Scenario sketch (all rates are misclassification rates):

1. Overlapping clouds, DD-plot classifier.  Class 1 is standard bivariate
   normal (or the heavy-tailed elliptical density below); class 2 differs
   in location, scale, or both.  Rates are reported for the full test set
   and for the outsiders, the test points falling outside both training
   hulls.
2. Four normals on a horizontal axis: train on the outer pair (means
   (-4,0) and (4,0)), classify draws from the inner pair, sweeping the
   inner separation delta.
3. Missing-data bands: two normals with means (-2,0) and (2,0); training
   keeps only draws outside a vertical band, the test set is drawn inside
   it, and a baseline arm at sigma 1 trains on the unfiltered draws.
4. Four adjacent unit intervals on the line: train on the outer two,
   classify the inner two, sweeping the enlargement factor sigma.

`run_scenario` is the one simulation loop.  Only the data differ between
scenarios: one data function per scenario draws both training sets and the
labelled test set, n_test // 2 points of class 1 and the rest of class 2.
Each scenario's settings are listed in SETTINGS, and only scenarios 2 and 3
sweep a delta grid.  Every replication derives its generator from
(master_seed, scenario, rep index, sweep index), so tables are bit-identical
across reruns and do not depend on evaluation order.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import asdict, dataclass, replace

import numpy as np

from .classify import (
    CLASSIFIERS,
    MAX_DEGREE,
    _class_labels,
    classify_points,
    depth_rows,
    misclassification_rate,
    outsider_mask,
)
from .depth import DepthConfig, DepthEvaluator, _is_int
from .errors import InputError
from .geometry import as_points

__all__ = [
    "ScenarioConfig",
    "ResultRow",
    "ResultTable",
    "default_config",
    "full_scale_config",
    "run_scenario",
    "sample_elliptical",
    "elliptical_density",
    "elliptical_r0",
    "band_filter",
    "smallest_covering_sigma",
]

SIM1_SETTINGS = (
    "normal_location",
    "normal_scale",
    "normal_location_scale",
    "elliptical_location",
    "elliptical_scale",
    "elliptical_location_scale",
)
BANDS = ("symmetric", "asymmetric")
SETTINGS = {1: SIM1_SETTINGS, 2: BANDS, 3: BANDS, 4: ("uniform_quartet",)}
# smallest_covering_sigma's search: first probe, largest bracket, final width.
COVER_LO = 1.0
COVER_HI_CAP = 64.0
COVER_TOL = 1e-3

# Location shifts per coordinate: 2 for the normal pairs, 4 for the
# heavier-tailed elliptical pairs (whose clouds are wider).
NORMAL_SHIFT = 2.0
ELLIPTICAL_SHIFT = 4.0
# Scale alternative: class 2's coordinates multiplied by this factor.
SCALE = 3.0


@dataclass(frozen=True)
class ScenarioConfig:
    """Desk-scale experiment description; see default_config/full_scale_config."""

    scenario: int
    setting: str = ""
    n_train: int = 200
    n_test: int = 1000
    reps: int = 20
    sigma_grid: tuple = (1.0, 1.2, 1.5, 2.0, 3.0, 4.0, 5.0)
    delta_grid: tuple = ()
    classifier: str = "maxdepth"
    degree: int = 3
    budget: int | None = 20_000
    method: str = "simplex_enlarged"
    master_seed: int = 0

    def __post_init__(self):
        if not _is_int(self.scenario, 1) or self.scenario not in SETTINGS:
            raise InputError("scenario must be 1, 2, 3 or 4")
        # scenario 3 may draw an empty test set; its rows are then NaN
        least = dict(n_train=1, n_test=0 if self.scenario == 3 else 1, reps=1, degree=1, master_seed=0)
        for name, lo in least.items():
            value = getattr(self, name)
            if not _is_int(value, lo):
                raise InputError(f"{name} must be an integer >= {lo}, got {value!r}")
        if self.degree > MAX_DEGREE:
            raise InputError(f"degree must be in [1, {MAX_DEGREE}]")
        if len(self.sigma_grid) == 0:
            raise InputError("sigma_grid must be nonempty")
        for sigma in self.sigma_grid:
            _depth_cfg(self, sigma, seed=0)  # checks method, budget and sigma
        # a repeated value would merge its rows into one with doubled reps
        if len(set(self.sigma_grid)) < len(self.sigma_grid):
            raise InputError(f"sigma_grid values must be distinct, got {self.sigma_grid!r}")
        if self.classifier not in CLASSIFIERS:
            raise InputError(f"classifier must be one of {CLASSIFIERS}")
        if self.setting not in SETTINGS[self.scenario]:
            raise InputError(f"scenario {self.scenario} setting must be one of {SETTINGS[self.scenario]}")
        if (self.scenario in (2, 3)) != bool(self.delta_grid):
            raise InputError("scenarios 2 and 3 need a delta_grid; the others take none")
        if not all(delta > 0 for delta in self.delta_grid):
            raise InputError("delta values must be positive")
        if len(set(self.delta_grid)) < len(self.delta_grid):
            raise InputError(f"delta_grid values must be distinct, got {self.delta_grid!r}")

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class ResultRow:
    """One sweep point: per-rep rates plus their aggregates."""

    scenario: int
    setting: str
    sigma_or_delta: float
    rates: np.ndarray
    outsider_rates: np.ndarray

    def __post_init__(self):
        rates = np.asarray(self.rates, dtype=float)
        orates = np.asarray(self.outsider_rates, dtype=float)
        if rates.shape != orates.shape or rates.ndim != 1:
            raise InputError("rate vectors must be 1d and aligned")
        for arr in (rates, orates):
            vals = arr[~np.isnan(arr)]
            if vals.size and (vals.min() < 0 or vals.max() > 1):
                raise InputError("rates must lie in [0, 1]")
        object.__setattr__(self, "rates", rates)
        object.__setattr__(self, "outsider_rates", orates)

    @property
    def reps(self) -> int:
        return int(self.rates.size)

    @property
    def mean(self) -> float:
        return _agg(self.rates)[0]

    @property
    def sd(self) -> float:
        return _agg(self.rates)[1]

    @property
    def outsider_mean(self) -> float:
        return _agg(self.outsider_rates)[0]

    @property
    def outsider_sd(self) -> float:
        return _agg(self.outsider_rates)[1]

    @property
    def median(self) -> float:
        return _nan_stat(np.nanmedian, self.rates)

    def quantile(self, q: float) -> float:
        return _nan_stat(np.nanpercentile, self.rates, 100.0 * q)


def _nan_stat(fn, arr: np.ndarray, *args) -> float:
    # numpy warns on an all-NaN slice, which every empty-test row is
    if np.isnan(arr).all():
        return float("nan")
    return float(fn(arr, *args))


def _agg(arr: np.ndarray):
    vals = arr[~np.isnan(arr)]
    if vals.size == 0:
        return float("nan"), float("nan")
    mean = float(vals.mean())
    sd = float(vals.std(ddof=1)) if vals.size > 1 else 0.0
    return mean, sd


class ResultTable:
    """Ordered result rows with CSV/JSON serialization."""

    CSV_COLUMNS = (
        "scenario",
        "setting",
        "sigma_or_delta",
        "mean",
        "sd",
        "outsider_mean",
        "outsider_sd",
        "reps",
    )

    def __init__(self, rows):
        self.rows = list(rows)

    def row(self, setting: str, sigma_or_delta: float) -> ResultRow:
        for r in self.rows:
            if r.setting == setting and math.isclose(r.sigma_or_delta, sigma_or_delta):
                return r
        raise KeyError(f"no row ({setting!r}, {sigma_or_delta})")

    def settings(self):
        seen = dict.fromkeys(r.setting for r in self.rows)
        return list(seen)

    def to_csv(self) -> str:
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(self.CSV_COLUMNS)
        for rec in self._records():
            w.writerow([rec[c] for c in self.CSV_COLUMNS])
        return buf.getvalue()

    def to_json(self) -> str:
        return json.dumps({"rows": self._records()}, indent=1)

    def _records(self) -> list:
        """One dict per row: the CSV columns, then the JSON-only statistics."""
        return [
            {
                "scenario": r.scenario,
                "setting": r.setting,
                "sigma_or_delta": float(r.sigma_or_delta),
                "mean": r.mean,
                "sd": r.sd,
                "outsider_mean": r.outsider_mean,
                "outsider_sd": r.outsider_sd,
                "reps": r.reps,
                "median": r.median,
                "q25": r.quantile(0.25),
                "q75": r.quantile(0.75),
                "rates": [float(v) for v in r.rates],
                "outsider_rates": [float(v) for v in r.outsider_rates],
            }
            for r in self.rows
        ]


def default_config(scenario: int, **overrides) -> ScenarioConfig:
    """Desk-scale defaults: minutes on one core, not multi-hour runs."""
    base = {
        1: dict(
            setting="normal_location_scale",
            classifier="dd-linear",
            sigma_grid=(1.0, 1.2, 1.5, 2.0, 3.0, 4.0, 5.0),
        ),
        2: dict(
            setting="symmetric",
            sigma_grid=(1.0, 1.5, 2.0, 3.0),
            delta_grid=tuple(np.arange(0.5, 3.6, 0.5).round(2)),
            reps=10,
        ),
        3: dict(
            setting="symmetric",
            sigma_grid=(1.0, 1.5, 3.0, 5.0),
            delta_grid=tuple(np.arange(0.25, 1.76, 0.25).round(2)),
            n_test=200,
            reps=10,
        ),
        4: dict(
            setting="uniform_quartet",
            sigma_grid=tuple(np.arange(1.0, 6.01, 0.25).round(2)),
            budget=None,
        ),
    }.get(scenario, {})
    base.update(overrides)
    return ScenarioConfig(scenario=scenario, **base)


def full_scale_config(scenario: int, **overrides) -> ScenarioConfig:
    """Full-scale parameterization; expect long runtimes."""
    cfg = default_config(scenario)
    scale = {
        1: dict(n_train=500, n_test=5000, reps=100),
        2: dict(
            n_train=500,
            n_test=5000,
            reps=100,
            sigma_grid=(1.0, 1.2, 1.5, 2.0, 3.0, 4.0, 5.0),
            delta_grid=tuple(np.arange(0.1, 3.91, 0.1).round(2)),
        ),
        3: dict(
            n_train=500,
            reps=100,
            sigma_grid=(1.0, 1.2, 1.5, 2.0, 3.0, 4.0, 5.0),
            delta_grid=tuple(np.arange(0.05, 1.96, 0.05).round(2)),
        ),
        4: dict(n_train=1000, n_test=5000, reps=1000),
    }[scenario]
    scale.update(overrides)
    return replace(cfg, **scale)


# ---------------------------------------------------------------------------
# elliptical sampler


def elliptical_r0() -> float:
    """Boundary radius making the two-piece elliptical density integrate to 1.

    Writing y = r0^6, normalization reduces to 1 + 2.5 y = (1+y)^(3/2),
    whose positive root solves y^2 - 3.25 y - 2 = 0.
    """
    y = (3.25 + math.sqrt(3.25**2 + 8.0)) / 2.0
    return y ** (1.0 / 6.0)


R0 = elliptical_r0()


def elliptical_density(points) -> np.ndarray:
    """Two-piece heavy-tailed density, constant inside x^2/4 + y^2 < R0^2."""
    pts = as_points(points)
    if pts.shape[1] != 2:
        raise InputError("elliptical density is bivariate")
    s = pts[:, 0] ** 2 / 4.0 + pts[:, 1] ** 2
    flat = 3.0 / (4.0 * math.pi) * R0**4 * (1.0 + R0**6) ** -1.5
    tail = 3.0 * s**2 / (4.0 * math.pi * (1.0 + s**3) ** 1.5)
    return np.where(s < R0**2, flat, tail)


def sample_elliptical(n: int, seed=0) -> np.ndarray:
    """Exact draws from the elliptical density by inversion.

    The density depends on s = x^2/4 + y^2 alone, and s has survival
    function P(s > t) = 1 - (1 - q) t / R0^2 below R0^2 (the flat part) and
    (1 + t^3)^(-1/2) above it, with tail mass q = (1 + R0^6)^(-1/2).  One
    uniform v in (0, 1] inverts it; a second gives the uniform angle theta,
    and the point is (2 sqrt(s) cos theta, sqrt(s) sin theta).
    """
    if not _is_int(n, 1):
        raise InputError(f"need an integer n >= 1 draws, got {n!r}")
    rng = np.random.default_rng(seed)
    u = rng.random((n, 2))
    v = 1.0 - u[:, 0]
    q = (1.0 + R0**6) ** -0.5
    s = np.where(v <= q, np.cbrt(v**-2.0 - 1.0), R0**2 * (1.0 - v) / (1.0 - q))
    theta = 2.0 * math.pi * u[:, 1]
    r = np.sqrt(s)
    return np.column_stack([2.0 * r * np.cos(theta), r * np.sin(theta)])


# ---------------------------------------------------------------------------
# scenario machinery


def _band_bounds(band: str, delta: float):
    """(lo, hi) of the closed band: [-delta, delta] or, asymmetric, [-delta, 0]."""
    if band not in BANDS:
        raise InputError("band must be symmetric|asymmetric")
    if not delta > 0:
        raise InputError(f"delta must be positive, got {delta!r}")
    return -delta, (delta if band == "symmetric" else 0.0)


def band_filter(points, band: str, delta: float):
    """Split points by the closed vertical band on the first coordinate.

    symmetric: -delta <= x <= delta; asymmetric: -delta <= x <= 0.
    Returns (inside, outside).
    """
    pts = as_points(points)
    if pts.shape[1] != 2:
        raise InputError("band_filter expects bivariate points")
    lo, hi = _band_bounds(band, delta)
    x = pts[:, 0]
    inside = (x >= lo) & (x <= hi)
    return pts[inside], pts[~inside]


def _rep_rng(cfg: ScenarioConfig, rep: int, sweep: int):
    return np.random.default_rng(
        np.random.SeedSequence([cfg.master_seed, cfg.scenario, rep, sweep])
    )


def _depth_cfg(cfg: ScenarioConfig, sigma: float, seed: int) -> DepthConfig:
    return DepthConfig(method=cfg.method, sigma=sigma, budget=cfg.budget, seed=seed)


def _rates(pred, truth, omask):
    rate = misclassification_rate(pred, truth)
    orate = (
        misclassification_rate(pred[omask], truth[omask])
        if omask.any()
        else float("nan")
    )
    return rate, orate


# Data functions: (cfg, rng, delta) -> (train1, train2, test, truth), where
# delta is the sweep value of scenarios 2 and 3 and None otherwise.


def _sim1_data(cfg: ScenarioConfig, rng, delta):
    family, _, variant = cfg.setting.partition("_")
    shift_size = NORMAL_SHIFT if family == "normal" else ELLIPTICAL_SHIFT
    shift = shift_size if "location" in variant else 0.0
    factor = SCALE if "scale" in variant else 1.0
    half = cfg.n_test // 2

    def draw(m):
        if family == "normal":
            return rng.standard_normal((m, 2))
        return sample_elliptical(m, seed=rng)

    train1 = draw(cfg.n_train)
    train2 = draw(cfg.n_train) * factor + shift
    test = np.vstack([draw(half), draw(cfg.n_test - half) * factor + shift])
    return train1, train2, test, _class_labels(half, cfg.n_test - half)


def _sim2_data(cfg: ScenarioConfig, rng, delta):
    half = cfg.n_test // 2
    train1 = rng.standard_normal((cfg.n_train, 2)) + [-4.0, 0.0]
    train2 = rng.standard_normal((cfg.n_train, 2)) + [4.0, 0.0]
    mu3 = delta if cfg.setting == "symmetric" else 2.0
    test = np.vstack(
        [
            rng.standard_normal((half, 2)) + [-delta, 0.0],
            rng.standard_normal((cfg.n_test - half, 2)) + [mu3, 0.0],
        ]
    )
    return train1, train2, test, _class_labels(half, cfg.n_test - half)


def _draw_in_band(rng, mean: float, band: str, delta: float, n: int) -> np.ndarray:
    """n draws of N((mean, 0), I) conditioned on the band, by inversion.

    x follows the normal truncated to [lo, hi], clipped so that rounding
    never leaves the closed band; y is standard normal.
    """
    from scipy.special import ndtr, ndtri

    lo, hi = _band_bounds(band, delta)
    a, b = ndtr(lo - mean), ndtr(hi - mean)
    x = np.clip(mean + ndtri(a + rng.random(n) * (b - a)), lo, hi)
    return np.column_stack([x, rng.standard_normal(n)])


def _sim3_data(cfg: ScenarioConfig, rng, delta):
    """Unfiltered training draws; run_scenario drops the ones inside the band."""
    raw1 = rng.standard_normal((cfg.n_train, 2)) + [-2.0, 0.0]
    raw2 = rng.standard_normal((cfg.n_train, 2)) + [2.0, 0.0]
    half = cfg.n_test // 2
    test1 = _draw_in_band(rng, -2.0, cfg.setting, delta, half)
    test2 = _draw_in_band(rng, 2.0, cfg.setting, delta, cfg.n_test - half)
    return raw1, raw2, np.vstack([test1, test2]), _class_labels(half, cfg.n_test - half)


def _sim4_data(cfg: ScenarioConfig, rng, delta):
    half = cfg.n_test // 2
    train1 = rng.uniform(-2.0, -1.0, (cfg.n_train, 1))
    train2 = rng.uniform(1.0, 2.0, (cfg.n_train, 1))
    test = np.vstack(
        [
            rng.uniform(-1.0, 0.0, (half, 1)),
            rng.uniform(0.0, 1.0, (cfg.n_test - half, 1)),
        ]
    )
    return train1, train2, test, _class_labels(half, cfg.n_test - half)


_DATA = {1: _sim1_data, 2: _sim2_data, 3: _sim3_data, 4: _sim4_data}


def run_scenario(cfg: ScenarioConfig) -> ResultTable:
    """Run one configured experiment and return its aggregated table.

    For each rep and sweep point (the delta grid of scenarios 2 and 3, a
    single point otherwise) the scenario's data function draws from that
    point's generator.  The arms are one per sigma plus scenario 3's
    unfiltered baseline at sigma 1, which classifies against the raw
    training draws.  Each arm draws its depth, tie and fit seeds in turn.
    Per training set, one evaluator per class, built with the seeds of the
    set's first arm, gives the depths at all the set's sigmas in one
    `depth_profile` call, so the sigma arms share their Monte-Carlo tuples
    (common random numbers).  Each arm then classifies the test set from
    its row of the profiles.  An empty test set records NaN rates.
    """
    sweep = cfg.delta_grid if cfg.scenario in (2, 3) else (None,)
    baseline = cfg.scenario == 3
    keys = [*cfg.sigma_grid, *(["baseline"] if baseline else [])]
    acc = {(k, delta): ([], []) for k in keys for delta in sweep}
    for rep in range(cfg.reps):
        for i, delta in enumerate(sweep):
            rng = _rep_rng(cfg, rep, i)
            train1, train2, test, truth = _DATA[cfg.scenario](cfg, rng, delta)
            if cfg.scenario == 3:
                raw = (train1, train2)
                train1, train2 = (band_filter(t, cfg.setting, delta)[1] for t in raw)
            if len(test) == 0:
                for k in keys:
                    for col in acc[(k, delta)]:
                        col.append(float("nan"))
                continue
            # (training sets, [(key, sigma) per arm]), in the order the arms draw seeds
            sets = [((train1, train2), [(s, s) for s in cfg.sigma_grid])]
            if baseline:
                sets.append((raw, [("baseline", 1.0)]))
            for (t1, t2), arms in sets:
                mask = outsider_mask(t1, t2, test)
                # per arm: class 1 and class 2 depth seeds, then the tie
                # seed, then the DD fit seed: the tables' random streams
                seeds = [
                    (
                        int(rng.integers(2**63 - 1)),
                        int(rng.integers(2**63 - 1)),
                        int(rng.integers(2**31)),
                        None if cfg.classifier == "maxdepth" else int(rng.integers(2**31)),
                    )
                    for _ in arms
                ]
                points, labels = depth_rows(t1, t2, test, cfg.classifier)
                sigmas = [sigma for _, sigma in arms]
                cfg1, cfg2 = (_depth_cfg(cfg, sigmas[0], seed) for seed in seeds[0][:2])
                prof1 = DepthEvaluator(t1, cfg1).depth_profile(points, sigmas)
                prof2 = DepthEvaluator(t2, cfg2).depth_profile(points, sigmas)
                for (key, _), (_, _, tie_seed, seed), d1, d2 in zip(arms, seeds, prof1, prof2):
                    pred = classify_points(
                        d1,
                        d2,
                        labels,
                        test,
                        cfg.classifier,
                        degree=cfg.degree,
                        restarts=8,
                        seed=seed,
                        tie_seed=tie_seed,
                    )
                    for col, rate in zip(acc[(key, delta)], _rates(pred, truth, mask)):
                        col.append(rate)
    rows = []
    for (key, delta), (r, o) in acc.items():
        if delta is None:
            rows.append(ResultRow(cfg.scenario, cfg.setting, key, np.array(r), np.array(o)))
            continue
        label = "baseline-full-training" if key == "baseline" else f"sigma={key:g}"
        rows.append(
            ResultRow(cfg.scenario, f"{cfg.setting}|{label}", delta, np.array(r), np.array(o))
        )
    return ResultTable(rows)


def smallest_covering_sigma(train1, train2, X, cfg: DepthConfig | None = None) -> float:
    """Smallest sigma giving every query positive depth for some class.

    Uses that positive depth is monotone in sigma for the simplex-dilated
    method, the only one accepted (InputError otherwise): doubling from
    COVER_LO finds a bracket below COVER_HI_CAP, and bisection refines it
    to a width of COVER_TOL.  One evaluator per class, built once, answers
    every probe through `depth_profile`, with the same values as fresh
    evaluators at each sigma.  This is the practical sigma-selection rule
    suggested by the interval-support analysis: just large enough that no
    query is a double outsider.
    """
    base = cfg if cfg is not None else DepthConfig(method="simplex_enlarged")
    if base.method != "simplex_enlarged":
        raise InputError(f"smallest_covering_sigma needs method 'simplex_enlarged', got {base.method!r}")
    train1 = as_points(train1)
    train2 = as_points(train2)
    X = as_points(X)

    ev1 = DepthEvaluator(train1, base)
    ev2 = DepthEvaluator(train2, base)

    def covered(sig: float) -> bool:
        v1 = ev1.depth_profile(X, [sig])[0]
        v2 = ev2.depth_profile(X, [sig])[0]
        return bool(np.maximum(v1, v2).min() > 0.0)

    lo = COVER_LO
    if covered(lo):
        return lo
    hi = 2.0 * lo
    while not covered(hi):
        hi *= 2.0
        if hi > COVER_HI_CAP:
            raise InputError(f"no covering sigma found up to {COVER_HI_CAP}")
    while hi - lo > COVER_TOL:
        mid = (lo + hi) / 2.0
        if covered(mid):
            hi = mid
        else:
            lo = mid
    return hi
