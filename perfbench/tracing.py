"""Per-layer tracing of sigmadepth from outside the package.

`Tracer.installed()` replaces the layer-boundary functions and methods of
the modules geometry, depth, classify, sim and cli with wrappers that record
a span (name, start, end, parent) and bump counters; leaving the block puts
the originals back.  Spans are kept in memory and written out by the caller
when the run ends.  A layer's self time is its span's duration minus the
durations of its direct child spans.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

import numpy as np


def _rows(X) -> int:
    return len(np.atleast_2d(np.asarray(X)))


def _after_build(c, args, kwargs, result):
    batch = args[0]
    c["simplices_built"] += batch.m
    c["degenerate_simplices"] += batch.n_degenerate


def _after_kernel(c, args, kwargs, result):
    batch, X = args[0], args[1]
    c["kernel_pairs"] += (batch.m - batch.n_degenerate) * _rows(X)


def _after_lp(c, args, kwargs, result):
    c["lp_calls"] += 1
    c["lp_hits"] += bool(result)


def _after_init(c, args, kwargs, result):
    c["evaluators"] += 1


def _after_contain(c, args, kwargs, result):
    c["queries"] += len(result)


def _after_count1d(c, args, kwargs, result):
    c["count1d_queries"] += len(result)


def _after_tie(c, args, kwargs, result):
    c["tie_coins"] += 1


# (module, attribute path, span name or None for a counter only, counter hook)
TARGETS = (
    ("geometry", "SimplexBatch.__init__", "geometry.build", _after_build),
    ("geometry", "SimplexBatch.contains_counts", "geometry.kernel", _after_kernel),
    ("geometry", "convex_hull_contains", "geometry.lp", _after_lp),
    ("depth", "DepthEvaluator.__init__", "depth.init", _after_init),
    ("depth", "DepthEvaluator._build_mc_batch", "depth.mc_sample", None),
    ("depth", "DepthEvaluator.contain_counts", "depth.stream", _after_contain),
    ("depth", "_count_pairs_1d", "depth.count1d", _after_count1d),
    ("classify", "fit_dd", "classify.fit_dd", None),
    ("classify", "outsider_mask", "classify.outsider_mask", None),
    ("classify", "max_depth_classify_batch", "classify.predict", None),
    ("classify", "predict_dd_points", "classify.predict", None),
    ("classify", "_tie_coin", None, _after_tie),
    ("sim", "run_scenario", "sim.run_scenario", None),
    ("cli", "read_points_csv", "cli.read_csv", None),
    ("cli", "main", "cli.main", None),
)

# Per-layer metric -> span whose summed self time it reports.
SELF_TIMES = {
    "geometry.kernel_s": "geometry.kernel",
    "geometry.build_s": "geometry.build",
    "geometry.lp_s": "geometry.lp",
    "depth.init_s": "depth.init",
    "depth.mc_sample_s": "depth.mc_sample",
    "depth.stream_s": "depth.stream",
    "depth.count1d_s": "depth.count1d",
    "classify.fit_dd_s": "classify.fit_dd",
    "classify.outsider_mask_s": "classify.outsider_mask",
    "classify.predict_s": "classify.predict",
    "sim.self_s": "sim.run_scenario",
    "cli.read_csv_s": "cli.read_csv",
    "cli.self_s": "cli.main",
}
COUNTS = {
    "geometry.kernel_pairs": "kernel_pairs",
    "geometry.simplices_built": "simplices_built",
    "geometry.lp_calls": "lp_calls",
    "geometry.degenerate_simplices": "degenerate_simplices",
    "depth.evaluators": "evaluators",
    "depth.queries": "queries",
    "depth.count1d_queries": "count1d_queries",
    "classify.tie_coins": "tie_coins",
}


class Tracer:
    """Records spans and counters while its wrappers are installed."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self._stack = []
        self.counters = Counter()

    def _wrap(self, fn, name, hook):
        counters = self.counters

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if name is None:
                result = fn(*args, **kwargs)
            else:
                with self.span(name):
                    result = fn(*args, **kwargs)
            if hook is not None:
                hook(counters, args, kwargs, result)
            return result

        return traced

    @contextmanager
    def span(self, name):
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx][2] = time.perf_counter()

    @contextmanager
    def installed(self):
        """Swap every target for its traced wrapper, in every sigmadepth module."""
        for mod_name, _, _, _ in TARGETS:
            importlib.import_module(f"sigmadepth.{mod_name}")
        modules = [m for k, m in sys.modules.items() if k == "sigmadepth" or k.startswith("sigmadepth.")]
        undo = []
        try:
            for mod_name, path, name, hook in TARGETS:
                owner = sys.modules[f"sigmadepth.{mod_name}"]
                *cls_path, attr = path.split(".")
                for part in cls_path:
                    owner = getattr(owner, part)
                original = owner.__dict__[attr]
                wrapper = self._wrap(original, name, hook)
                if cls_path:
                    setattr(owner, attr, wrapper)
                    undo.append((owner, attr, original))
                    continue
                # Module-level functions are also bound by `from x import f`.
                for mod in modules:
                    if mod.__dict__.get(attr) is original:
                        setattr(mod, attr, wrapper)
                        undo.append((mod, attr, original))
            yield self
        finally:
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)

    def layer_metrics(self, first_span: int = 0) -> dict:
        """Per-layer metrics from the spans recorded since index first_span."""
        spans = self.spans[first_span:]
        child = defaultdict(float)
        for name, start, end, parent in spans:
            if parent >= first_span:
                child[parent - first_span] += end - start
        self_time = defaultdict(float)
        for i, (name, start, end, _) in enumerate(spans):
            self_time[name] += end - start - child[i]
        c = self.counters
        out = {metric: self_time[span] for metric, span in SELF_TIMES.items()}
        out.update({metric: c[key] for metric, key in COUNTS.items()})
        out["geometry.lp_hit_ratio"] = c["lp_hits"] / c["lp_calls"] if c["lp_calls"] else 0.0
        return out
