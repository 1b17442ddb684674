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
   keeps only draws outside a vertical band, testing accumulates draws
   inside it, and a baseline arm at sigma 1 trains on the unfiltered draws.
4. Four adjacent unit intervals on the line: train on the outer two,
   classify the inner two, sweeping the enlargement factor sigma.

`run_scenario` is the one simulation loop.  Only the data differ between
scenarios: one data function per scenario draws both training sets and the
labelled test set.  Every replication derives its generator from
(master_seed, scenario, rep index, sweep index), so tables are bit-identical
across reruns and do not depend on evaluation order.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import asdict, dataclass, replace
from functools import lru_cache

import numpy as np

from .classify import (
    CLASSIFIERS,
    classify_points,
    depth_rows,
    misclassification_rate,
    outsider_mask,
)
from .depth import DepthConfig, DepthEvaluator
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

# Location shifts per coordinate: 2 for the normal pairs, 4 for the
# heavier-tailed elliptical pairs (whose clouds are wider).
NORMAL_SHIFT = 2.0
ELLIPTICAL_SHIFT = 4.0
# Scale alternative: class 2's coordinates (or, with scale_on_cov, its
# covariance) multiplied by this factor.
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
    scale_on_cov: bool = False
    test_per_class: int = 100
    draw_cap: int = 10**6

    def __post_init__(self):
        if self.scenario not in (1, 2, 3, 4):
            raise InputError("scenario must be 1, 2, 3 or 4")
        if self.reps < 1:
            raise InputError("reps must be >= 1")
        if len(self.sigma_grid) == 0:
            raise InputError("sigma_grid must be nonempty")
        if self.classifier not in CLASSIFIERS:
            raise InputError(f"classifier must be one of {CLASSIFIERS}")
        if self.master_seed < 0:
            raise InputError("master_seed must be nonnegative")
        # scenario 3 sizes its test set by test_per_class instead
        if self.scenario != 3 and self.n_test < 1:
            raise InputError("n_test must be >= 1")
        if self.scenario == 1 and self.setting not in SIM1_SETTINGS:
            raise InputError(f"scenario 1 setting must be one of {SIM1_SETTINGS}")
        if self.scenario in (2, 3):
            if self.setting not in BANDS:
                raise InputError("scenario 2/3 setting must be symmetric|asymmetric")
            if len(self.delta_grid) == 0:
                raise InputError("scenario 2/3 needs a delta_grid")
            if min(self.delta_grid) <= 0:
                raise InputError("delta values must be positive")

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
        for r in self.rows:
            w.writerow(
                [
                    r.scenario,
                    r.setting,
                    repr(float(r.sigma_or_delta)),
                    repr(r.mean),
                    repr(r.sd),
                    repr(r.outsider_mean),
                    repr(r.outsider_sd),
                    r.reps,
                ]
            )
        return buf.getvalue()

    def to_json(self) -> str:
        rows = [
            {
                "scenario": r.scenario,
                "setting": r.setting,
                "sigma_or_delta": r.sigma_or_delta,
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
        return json.dumps({"rows": rows}, indent=1)


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


def _proposal_density(s: np.ndarray) -> np.ndarray:
    # spherical bivariate t with 1 df, post-scaled by diag(2, 1)
    return (1.0 / (4.0 * math.pi)) * (1.0 + s) ** -1.5


@lru_cache(maxsize=1)
def _envelope_constant() -> float:
    s_in = np.linspace(0.0, R0**2, 20_001)
    s_out = R0**2 * np.geomspace(1.0, 1e8, 20_001)
    s = np.concatenate([s_in, s_out])
    x = np.sqrt(4.0 * s)  # points (x, 0) with x^2/4 = s
    ratio = elliptical_density(np.stack([x, np.zeros_like(x)], axis=1))
    ratio = ratio / _proposal_density(s)
    return float(ratio.max()) * 1.05


def sample_elliptical(n: int, seed=0) -> np.ndarray:
    """Acceptance-rejection draws from the elliptical density.

    Proposal: T/|W| with T bivariate standard normal and W scalar normal
    (a spherical 1-df t), then scaled by diag(2, 1) so proposal level sets
    match the target's.  A proposal/target ratio above the precomputed
    envelope is a hard error rather than a silent bias.
    """
    if n < 1:
        raise InputError("need n >= 1 draws")
    rng = np.random.default_rng(seed)
    M = _envelope_constant()
    out = []
    have = 0
    while have < n:
        m = max(2048, int(1.5 * (n - have) * M))
        t = rng.standard_normal((m, 2)) / np.abs(rng.standard_normal((m, 1)))
        pts = t * np.array([2.0, 1.0])
        s = pts[:, 0] ** 2 / 4.0 + pts[:, 1] ** 2
        ratio = elliptical_density(pts) / (M * _proposal_density(s))
        if ratio.max() > 1.0 + 1e-12:
            raise RuntimeError("acceptance-rejection envelope violated")
        keep = rng.uniform(size=m) < ratio
        out.append(pts[keep])
        have += int(keep.sum())
    return np.vstack(out)[:n]


# ---------------------------------------------------------------------------
# scenario machinery


def band_filter(points, band: str, delta: float):
    """Split points by the closed vertical band on the first coordinate.

    symmetric: -delta <= x <= delta; asymmetric: -delta <= x <= 0.
    Returns (inside, outside).
    """
    pts = as_points(points)
    if pts.shape[1] != 2:
        raise InputError("band_filter expects bivariate points")
    if band not in BANDS:
        raise InputError("band must be symmetric|asymmetric")
    if delta <= 0:
        raise InputError("delta must be positive")
    x = pts[:, 0]
    upper = delta if band == "symmetric" else 0.0
    inside = (x >= -delta) & (x <= upper)
    return pts[inside], pts[~inside]


def _rep_rng(cfg: ScenarioConfig, rep: int, sweep: int):
    return np.random.default_rng(
        np.random.SeedSequence([cfg.master_seed, cfg.scenario, rep, sweep])
    )


def _depth_cfg(cfg: ScenarioConfig, sigma: float, seed: int) -> DepthConfig:
    return DepthConfig(method=cfg.method, sigma=float(sigma), budget=cfg.budget, seed=seed)


def _rates(pred, truth, omask):
    rate = misclassification_rate(pred, truth)
    orate = (
        misclassification_rate(pred[omask], truth[omask])
        if omask.any()
        else float("nan")
    )
    return rate, orate


def _truth(n1: int, n2: int) -> np.ndarray:
    return np.r_[np.ones(n1, dtype=np.int64), np.full(n2, 2, dtype=np.int64)]


# Data functions: (cfg, rng, delta) -> (train1, train2, test, truth), where
# delta is the sweep value of scenarios 2 and 3 and None otherwise.


def _sim1_data(cfg: ScenarioConfig, rng, delta):
    family, _, variant = cfg.setting.partition("_")
    shift_size = NORMAL_SHIFT if family == "normal" else ELLIPTICAL_SHIFT
    shift = shift_size if "location" in variant else 0.0
    factor = 1.0
    if "scale" in variant:
        factor = math.sqrt(SCALE) if cfg.scale_on_cov else SCALE
    half = cfg.n_test // 2

    def draw(m):
        if family == "normal":
            return rng.standard_normal((m, 2))
        return sample_elliptical(m, seed=rng)

    train1 = draw(cfg.n_train)
    train2 = draw(cfg.n_train) * factor + shift
    test = np.vstack([draw(half), draw(cfg.n_test - half) * factor + shift])
    return train1, train2, test, _truth(half, cfg.n_test - half)


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
    return train1, train2, test, _truth(half, cfg.n_test - half)


def _accumulate_inside(rng, mean, band, delta, target, cap):
    got = []
    have = 0
    drawn = 0
    while have < target and drawn < cap:
        m = int(min(max(2048, 4 * (target - have)), cap - drawn))
        pts = rng.standard_normal((m, 2)) + mean
        drawn += m
        inside, _ = band_filter(pts, band, delta)
        got.append(inside)
        have += len(inside)
    pts = np.vstack(got) if got else np.empty((0, 2))
    return pts[:target]


def _sim3_data(cfg: ScenarioConfig, rng, delta):
    """Unfiltered training draws; run_scenario drops the ones inside the band."""
    raw1 = rng.standard_normal((cfg.n_train, 2)) + [-2.0, 0.0]
    raw2 = rng.standard_normal((cfg.n_train, 2)) + [2.0, 0.0]
    test1 = _accumulate_inside(
        rng, [-2.0, 0.0], cfg.setting, delta, cfg.test_per_class, cfg.draw_cap
    )
    test2 = _accumulate_inside(
        rng, [2.0, 0.0], cfg.setting, delta, cfg.test_per_class, cfg.draw_cap
    )
    return raw1, raw2, np.vstack([test1, test2]), _truth(len(test1), len(test2))


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
    return train1, train2, test, _truth(half, cfg.n_test - half)


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
    # Only scenario 4 may leave the setting empty.
    setting = cfg.setting or "uniform_quartet"
    rows = []
    for (key, delta), (r, o) in acc.items():
        if delta is None:
            rows.append(ResultRow(cfg.scenario, setting, key, np.array(r), np.array(o)))
            continue
        label = "baseline-full-training" if key == "baseline" else f"sigma={key:g}"
        rows.append(
            ResultRow(cfg.scenario, f"{setting}|{label}", delta, np.array(r), np.array(o))
        )
    return ResultTable(rows)


def smallest_covering_sigma(
    train1,
    train2,
    X,
    cfg: DepthConfig | None = None,
    lo: float = 1.0,
    hi_cap: float = 64.0,
    tol: float = 1e-3,
) -> float:
    """Smallest sigma giving every query positive depth for some class.

    Uses that positive depth is monotone in sigma for the simplex-dilated
    method: doubling finds a bracket, bisection refines it.  One evaluator
    per class, built once, answers every probe through `depth_profile`,
    with the same values as fresh evaluators at each sigma.  This is the
    practical sigma-selection rule suggested by the interval-support
    analysis: just large enough that no query is a double outsider.
    """
    base = cfg if cfg is not None else DepthConfig(method="simplex_enlarged")
    train1 = as_points(train1)
    train2 = as_points(train2)
    X = as_points(X)

    ev1 = DepthEvaluator(train1, base)
    ev2 = DepthEvaluator(train2, base)

    def covered(sig: float) -> bool:
        v1 = ev1.depth_profile(X, [sig])[0]
        v2 = ev2.depth_profile(X, [sig])[0]
        return bool(np.maximum(v1, v2).min() > 0.0)

    if covered(lo):
        return lo
    hi = max(2.0 * lo, 2.0)
    while not covered(hi):
        hi *= 2.0
        if hi > hi_cap:
            raise InputError(f"no covering sigma found up to {hi_cap}")
    while hi - lo > tol:
        mid = (lo + hi) / 2.0
        if covered(mid):
            hi = mid
        else:
            lo = mid
    return hi
