"""Command-line surface: depth, classify, simulate, symmetry.

Exit codes: 0 success, 2 malformed input or bad flags, 3 violated
preconditions (e.g. too few points for the requested estimator), 4
resource cap exceeded.  Every subcommand echoes its fully resolved
configuration: to `<out>.config.json` when --out is given, to stderr
otherwise, so any output can be reproduced from the echo alone.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import sys
from pathlib import Path

import numpy as np

from .classify import CLASSIFIERS, classify_points, depth_rows, outsider_mask
from .depth import METHODS, DepthConfig, DepthEvaluator
from .errors import InputError, InsufficientDataError, ResourceCapError
from .geometry import DEFAULT_EPS, GeomTolerance
from .sigma import DiscreteDistribution
from .sim import ScenarioConfig, default_config, full_scale_config, run_scenario
from .symmetry import (
    check_angular_symmetry,
    check_central_symmetry,
    check_halfspace_symmetry,
)

METHOD_FLAGS = {m.replace("_", "-"): m for m in METHODS}


def read_points_csv(path: str) -> np.ndarray:
    """Numeric CSV -> (n, d) array; a non-numeric first row is a header."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    rows = [r for r in csv.reader(io.StringIO(text)) if r]
    if not rows:
        raise InputError(f"{path} is empty")
    start = 0
    try:
        [float(v) for v in rows[0]]
    except ValueError:
        start = 1
    if start == len(rows):
        raise InputError(f"{path} has a header but no data rows")
    width = len(rows[start])
    out = np.empty((len(rows) - start, width))
    for i, row in enumerate(rows[start:]):
        if len(row) != width:
            raise InputError(f"{path}: row {start + i + 1} has {len(row)} fields, expected {width}")
        try:
            out[i] = [float(v) for v in row]
        except ValueError as exc:
            raise InputError(f"{path}: non-numeric value in row {start + i + 1}") from exc
    return out


def _floats(text: str) -> tuple:
    try:
        return tuple(float(v) for v in text.split(",") if v.strip() != "")
    except ValueError as exc:
        raise InputError(f"expected comma-separated numbers, got {text!r}") from exc


def _write_text(path: str | None, content: str) -> None:
    if path is None:
        sys.stdout.write(content)
    else:
        Path(path).write_text(content)


def _write_points_csv(path: str | None, X: np.ndarray, extra_names: list, extra_rows) -> None:
    """CSV of the rows of X as x0..x{d-1} (repr of each float), then one extra row per point."""
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow([f"x{j}" for j in range(X.shape[1])] + extra_names)
    w.writerows([*(repr(float(c)) for c in x), *extra] for x, extra in zip(X, extra_rows))
    _write_text(path, buf.getvalue())


def _echo_config(out: str | None, payload: dict) -> None:
    text = json.dumps(payload, indent=1, default=str)
    if out is None:
        print(text, file=sys.stderr)
    else:
        Path(f"{out}.config.json").write_text(text)


def _flags(args) -> dict:
    """The parsed command line, subcommand first, in the parser's flag order."""
    return {k: v for k, v in vars(args).items() if k != "func"}


def _depth_config(args) -> DepthConfig:
    return DepthConfig(
        method=METHOD_FLAGS[args.method],
        sigma=args.sigma,
        budget=args.approx,
        seed=args.seed,
        tol=GeomTolerance(eps=args.tol),
    )


def _cmd_depth(args) -> int:
    data = read_points_csv(args.data)
    queries = read_points_csv(args.query)
    cfg = _depth_config(args)
    ev = DepthEvaluator(data, cfg)
    vals = ev.depths(queries)
    rows = [(repr(float(v)), int(ev.exact)) for v in vals]
    _write_points_csv(args.out, queries, ["depth", "exact"], rows)
    _echo_config(args.out, {**_flags(args), "strategy": ev.strategy, "n_simplices": ev.n_simplices})
    return 0


def _cmd_classify(args) -> int:
    train1 = read_points_csv(args.train1)
    train2 = read_points_csv(args.train2)
    test = read_points_csv(args.test)
    cfg = _depth_config(args)
    rows, labels = depth_rows(train1, train2, test, args.classifier)
    pred = classify_points(
        DepthEvaluator(train1, cfg).depths(rows),
        DepthEvaluator(train2, cfg).depths(rows),
        labels,
        test,
        args.classifier,
        degree=args.degree,
        restarts=args.restarts,
        seed=args.seed,
        tie_seed=args.seed,
    )
    outs = outsider_mask(train1, train2, test, GeomTolerance(eps=args.tol))
    rows = [(int(p), int(o)) for p, o in zip(pred, outs)]
    _write_points_csv(args.out, test, ["predicted_class", "outsider"], rows)
    _echo_config(args.out, _flags(args))
    return 0


def _cmd_simulate(args) -> int:
    make = full_scale_config if args.full_scale else default_config
    # the flags named after a ScenarioConfig field override it when given
    fields = {f.name for f in dataclasses.fields(ScenarioConfig)}
    overrides = {k: v for k, v in vars(args).items() if k in fields and v is not None}
    if args.budget is not None and args.budget <= 0:
        overrides["budget"] = None  # exact depth
    cfg = make(**overrides)
    table = run_scenario(cfg)
    prefix = args.out if args.out is not None else f"sim{args.scenario}"
    Path(f"{prefix}.csv").write_text(table.to_csv())
    Path(f"{prefix}.json").write_text(table.to_json())
    _echo_config(prefix, {"subcommand": "simulate", **cfg.to_dict()})
    return 0


def _cmd_symmetry(args) -> int:
    try:
        text = Path(args.dist).read_text()
    except OSError as exc:
        raise InputError(f"cannot read {args.dist}: {exc}") from exc
    dist = DiscreteDistribution.from_json(text)
    obj = json.loads(text)
    if args.center is not None:
        center = np.array(_floats(args.center))
    elif "center" in obj:
        try:
            center = np.asarray(obj["center"], dtype=float)
        except (TypeError, ValueError) as exc:
            raise InputError(f"malformed center in {args.dist}: {exc}") from exc
    else:
        raise InputError("no --center given and the JSON has no 'center' field")
    checker = {
        "central": check_central_symmetry,
        "angular": check_angular_symmetry,
        "halfspace": check_halfspace_symmetry,
    }[args.kind]
    verdict = checker(dist, center)
    payload = {
        "kind": args.kind,
        "symmetric": verdict.symmetric,
        "center": None if verdict.center is None else [float(v) for v in verdict.center],
        "witness": None if verdict.witness is None else [float(v) for v in verdict.witness],
    }
    _write_text(args.out, json.dumps(payload, indent=1) + "\n")
    _echo_config(args.out, {**_flags(args), "center": [float(v) for v in center]})
    return 0


def _add_depth_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--method", default="simplicial", choices=sorted(METHOD_FLAGS))
    p.add_argument("--sigma", type=float, default=1.0)
    p.add_argument("--approx", type=int, default=None, metavar="M", help="Monte-Carlo budget; omit for exact")
    p.add_argument("--seed", type=int, default=0, help="random seed")
    p.add_argument("--tol", type=float, default=DEFAULT_EPS, help="geometric tolerance eps")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sigmadepth",
        description="Simplicial depth with simplex- and distribution-enlargement.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("depth", help="depth of query points w.r.t. a data CSV")
    p.add_argument("--data", required=True)
    p.add_argument("--query", required=True)
    _add_depth_flags(p)
    p.add_argument("--out", default=None, help="output path")
    p.set_defaults(func=_cmd_depth)

    p = sub.add_parser("classify", help="two-class depth classification")
    p.add_argument("--train1", required=True)
    p.add_argument("--train2", required=True)
    p.add_argument("--test", required=True)
    p.add_argument("--classifier", default="maxdepth", choices=CLASSIFIERS)
    p.add_argument("--degree", type=int, default=3)
    p.add_argument("--restarts", type=int, default=8)
    _add_depth_flags(p)
    p.add_argument("--out", default=None, help="output path")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("simulate", help="run one of the four experiments")
    p.add_argument("--scenario", type=int, required=True)
    p.add_argument("--setting", default=None)
    p.add_argument("--n", dest="n_train", type=int, default=None, help="training size per class")
    p.add_argument("--n-test", type=int, default=None)
    p.add_argument("--reps", type=int, default=None)
    p.add_argument("--sigma-grid", type=_floats, default=None, help="comma separated, e.g. 1,1.5,2")
    p.add_argument(
        "--delta", dest="delta_grid", type=_floats, default=None, help="comma separated band/shift values"
    )
    p.add_argument("--classifier", default=None, choices=CLASSIFIERS)
    p.add_argument("--degree", type=int, default=None)
    p.add_argument("--budget", type=int, default=None, help="depth MC budget; <=0 means exact")
    p.add_argument(
        "--full-scale", action="store_true", help="publication-size runs (slow)"
    )
    p.add_argument("--seed", dest="master_seed", type=int, default=0, help="master seed")
    p.add_argument("--out", default=None, help="output prefix")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("symmetry", help="check a discrete distribution's symmetry")
    p.add_argument("--dist", required=True, help="JSON with support/weights (optional center)")
    p.add_argument("--center", default=None, help="comma separated coordinates")
    p.add_argument("--kind", required=True, choices=("central", "angular", "halfspace"))
    p.add_argument("--out", default=None, help="output path")
    p.set_defaults(func=_cmd_symmetry)

    return parser


_PARSER = None  # build_parser() on the first main() call, reused after


def main(argv=None) -> int:
    global _PARSER
    if _PARSER is None:
        _PARSER = build_parser()
    args = _PARSER.parse_args(argv)
    try:
        return args.func(args)
    except InsufficientDataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ResourceCapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
