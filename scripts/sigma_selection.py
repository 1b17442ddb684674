"""Study the sigma-selection heuristic on the two-interval training setup.

Draws the two uniform training classes on [-2,-1] and [1,2], finds the
smallest dilation factor under which no held-out point between them is a
double outsider (positive depth for at least one class), and compares the
misclassification rate at that factor against a small grid around it.

Usage:
    python scripts/sigma_selection.py [--n 100] [--reps 20] [--seed 0]
"""

import argparse
import sys

import numpy as np

from sigmadepth.classify import max_depth_classify_batch
from sigmadepth.depth import DepthConfig, DepthEvaluator
from sigmadepth.sim import smallest_covering_sigma


def one_rep(n: int, rng) -> tuple:
    train1 = rng.uniform(-2.0, -1.0, (n, 1))
    train2 = rng.uniform(1.0, 2.0, (n, 1))
    half = 500
    test = np.vstack(
        [rng.uniform(-1.0, 0.0, (half, 1)), rng.uniform(0.0, 1.0, (half, 1))]
    )
    truth = np.r_[np.ones(half, dtype=np.int64), np.full(half, 2, dtype=np.int64)]
    sig = smallest_covering_sigma(train1, train2, test)
    sigmas = (sig, 2.0, 3.0, 4.0)
    cfg = DepthConfig(method="simplex_enlarged")
    prof1 = DepthEvaluator(train1, cfg).depth_profile(test, sigmas)
    prof2 = DepthEvaluator(train2, cfg).depth_profile(test, sigmas)
    rates = {}
    for sigma, v1, v2 in zip(sigmas, prof1, prof2):
        pred = max_depth_classify_batch(v1, v2, test, tie_seed=int(rng.integers(2**31)))
        rates[float(sigma)] = float(np.mean(pred != truth))
    return sig, rates


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=100, help="training size per class")
    ap.add_argument("--reps", type=int, default=20)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)

    sigs = []
    rate_at_sig = []
    for rep in range(args.reps):
        rng = np.random.default_rng(np.random.SeedSequence([args.seed, rep]))
        sig, rates = one_rep(args.n, rng)
        sigs.append(sig)
        rate_at_sig.append(rates[sig])
        print(
            f"rep {rep:3d}: covering sigma {sig:.3f}  "
            + "  ".join(f"rate@{s:g}={r:.3f}" for s, r in rates.items())
        )
    print(
        f"\nmedian covering sigma over {args.reps} reps: {np.median(sigs):.3f} "
        f"(rates there: median {np.median(rate_at_sig):.3f})"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
