"""Run the four experiments at desk scale and write tables to results/.

Each scenario is one `sigmadepth simulate` run writing scenario<k>.csv,
scenario<k>.json and a scenario<k>.config.json echo, so every number in the
tables can be traced back to its exact configuration.  Pass --full-scale for
the full-size runs (expect hours).

Usage:
    python scripts/run_all_sims.py [--full-scale] [--outdir results] [--seed 0]
"""

import argparse
import sys
import time
from pathlib import Path

from sigmadepth import cli


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument(
        "--full-scale", action="store_true", help="publication-size runs (slow)"
    )
    ap.add_argument("--outdir", default="results")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument(
        "--scenario", type=int, default=None, help="run a single scenario (1-4)"
    )
    args = ap.parse_args(argv)

    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    for scen in [args.scenario] if args.scenario else (1, 2, 3, 4):
        base = outdir / f"scenario{scen}"
        cmd = ["simulate", "--scenario", str(scen), "--seed", str(args.seed), "--out", str(base)]
        t0 = time.perf_counter()
        code = cli.main(cmd + ["--full-scale"] * args.full_scale)
        if code:
            return code
        print(f"scenario {scen}: {time.perf_counter() - t0:.1f}s -> {base}.csv")
    return 0


if __name__ == "__main__":
    sys.exit(main())
