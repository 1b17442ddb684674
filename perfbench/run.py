"""sigmadepth benchmark: one workload, end-to-end or traced per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
./src.  The run makes the workload's inputs from the seed, runs one warm-up
round, then timed rounds until S seconds have passed (at least three),
checks every round's output, and prints the machine facts and then, as the
last line, one JSON object with the keys correct, attempted, failed and
metrics.

--trace 0 reports the end-to-end metrics: setup_s (median fresh-interpreter
import of sigmadepth and sigmadepth.cli), run_s (median round) and
peak_rss_mb.  --trace 1 alternates untraced and traced rounds and reports
the per-layer metrics (medians over traced rounds) and trace.overhead_s
(median traced-minus-untraced difference of adjacent rounds); the spans go
to perfbench/out/trace-<workload>-<seed>.json.  Per-round times go to
standard error.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
MIN_ROUNDS = 3
SETUP_REPS = 5


def cap_threads() -> int:
    """Cap the BLAS and OpenMP pools at the usable cores; call before numpy loads."""
    cores = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        cur = os.environ.get(var, "")
        os.environ[var] = str(min(int(cur), cores)) if cur.isdigit() and int(cur) > 0 else str(cores)
    return cores


def machine_facts(cores: int) -> dict:
    import numpy as np
    import scipy

    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "cores": cores,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "threads": {v: os.environ[v] for v in THREAD_VARS},
    }


def measure_setup() -> float:
    """Median wall time of a fresh interpreter importing sigmadepth and its CLI."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, "-c", "import sigmadepth, sigmadepth.cli"]
    times = []
    for _ in range(SETUP_REPS + 1):  # the first fills the bytecode cache
        t0 = time.perf_counter()
        subprocess.run(cmd, env=env, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return statistics.median(times[1:])


def timed(workload):
    t0 = time.perf_counter()
    output, failed = workload.round()
    return time.perf_counter() - t0, output, failed


def run(workload, seconds: float, trace: bool, seed: int):
    """Rounds of the workload; returns (outputs, failed, metrics)."""
    import tracing

    outputs = []
    failed = 0
    _, out, f = timed(workload)  # warm-up: lazy imports, first-call set-up
    outputs.append(out)
    failed += f
    plain, traced, layers = [], [], []
    tracer = tracing.Tracer()
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or len(plain) < MIN_ROUNDS:
        t, out, f = timed(workload)
        plain.append(t)
        outputs.append(out)
        failed += f
        if trace:
            first = len(tracer.spans)
            tracer.counters.clear()
            with tracer.installed(), tracer.span("bench.round"):
                t, out, f = timed(workload)
            traced.append(t)
            layers.append(tracer.layer_metrics(first))
            outputs.append(out)
            failed += f

    print("round seconds: " + " ".join(f"{t:.3f}" for t in plain), file=sys.stderr)
    if traced:
        print("traced round seconds: " + " ".join(f"{t:.3f}" for t in traced), file=sys.stderr)
    if not trace:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        return outputs, failed, {
            "run_s": {"value": statistics.median(plain), "unit": "s"},
            "peak_rss_mb": {"value": peak_kb / 1024.0, "unit": "MB"},
        }
    metrics = {}
    for name in layers[0]:
        unit = "s" if name.endswith("_s") else "ratio" if name.endswith("ratio") else "count"
        metrics[name] = {"value": statistics.median_low(m[name] for m in layers), "unit": unit}
    # Each traced round runs right after an untraced one; pairing them
    # cancels most of the host's drift.
    metrics["trace.overhead_s"] = {
        "value": statistics.median(t - p for t, p in zip(traced, plain)),
        "unit": "s",
    }
    (OUT / f"trace-{workload.name}-{seed}.json").write_text(
        json.dumps({"fields": ["name", "start", "end", "parent"], "spans": tracer.spans})
    )
    return outputs, failed, metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    cores = cap_threads()
    if not (SRC / "sigmadepth" / "__init__.py").is_file():
        print(f"error: no sigmadepth sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    setup_s = None if args.trace else measure_setup()
    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{os.getpid()}"
    work.mkdir()
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, work)
        outputs, failed, metrics = run(wl, args.seconds, bool(args.trace), args.seed)
        problems = [f"round {i}: output differs from round 0" for i, o in enumerate(outputs) if o != outputs[0]]
        problems += wl.check(outputs[0])
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if setup_s is not None:
        metrics = {"setup_s": {"value": setup_s, "unit": "s"}, **metrics}
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": wl.ops_per_round * len(outputs),
        "failed": failed,
        "metrics": metrics,
    }
    print("machine: " + json.dumps(machine_facts(cores)))
    print(json.dumps(result))
    (OUT / f"result-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
