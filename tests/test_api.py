"""API guard: every exported name resolves, and submodules export only their own names."""

import ast
import importlib
import importlib.util
import inspect
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import sigmadepth

SUBMODULES = [
    importlib.import_module(f"sigmadepth.{info.name}")
    for info in pkgutil.iter_modules(sigmadepth.__path__)
]
EXPORTING = [module for module in SUBMODULES if hasattr(module, "__all__")]


def top_level_definitions(module) -> set:
    """Names a module binds itself at top level: defs, classes and assignments."""
    names = set()
    for node in ast.parse(inspect.getsource(module)).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


def test_package_all_resolves():
    missing = [name for name in sigmadepth.__all__ if not hasattr(sigmadepth, name)]
    assert missing == []


@pytest.mark.parametrize("module", EXPORTING, ids=lambda module: module.__name__)
def test_submodule_all_resolves_to_own_names(module):
    exported = module.__all__
    assert [name for name in exported if not hasattr(module, name)] == []
    own = top_level_definitions(module)
    assert [name for name in exported if name not in own] == []


def test_perfbench_tracer_targets_resolve():
    """Every function the benchmark tracer wraps still exists under its traced name."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    # Installing looks up every target and raises on a missing one; leaving restores them.
    with tracing.Tracer().installed():
        pass


def test_import_leaves_scipy_optimize_unloaded():
    """The package and its CLI import without scipy.optimize, scipy.special or scipy.spatial;
    only the LP, the fits, the scenario-3 band draws and Qhull need them, and scipy.spatial
    alone costs start-up about a third of a second.  Flat hulls in d <= 3 are decided by the
    interval and slab rules, so exact 2-D and 3-D depth on grid data (109 flat tetrahedra, queries
    in their planes) and a flat training cloud leave the LP unloaded."""
    src = str(Path(sigmadepth.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    mods = ("scipy.optimize", "scipy.special", "scipy.spatial")
    code = (
        "import sys, numpy as np, sigmadepth as sd, sigmadepth.cli\n"
        f"print([m in sys.modules for m in {mods!r}])\n"
        "grid = np.array([[i / 8, j / 8] for i in range(4) for j in range(3)])\n"
        "ev = sd.DepthEvaluator(grid, sd.DepthConfig('simplex_enlarged', sigma=1.5))\n"
        "counts = [60, 60, 2, 92, 92, 0, 60, 60, 2, 6, 6, 6]\n"
        "assert ev.exact and ev.contain_counts(grid + 1 / 16).tolist() == counts\n"
        "grid = np.array([[i / 4, j / 4, k / 4] for i in range(3) for j in range(2) for k in range(2)])\n"
        "ev = sd.DepthEvaluator(grid, sd.DepthConfig('simplex_enlarged', sigma=1.5))\n"
        "counts = [104, 104, 0, 0, 104, 104, 0, 0, 1, 1, 0, 0]\n"
        "assert ev.exact and ev.contain_counts(grid + [1 / 8, 1 / 8, 0]).tolist() == counts\n"
        "line = np.column_stack([np.arange(5.0), 2 * np.arange(5.0)])\n"
        "mask = sd.outsider_mask(line, line + [0, 10], np.array([[1.5, 3.0], [1.5, 4.0]]))\n"
        "assert mask.tolist() == [False, True]\n"
        "print('scipy.optimize' in sys.modules)"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["[False,", "False,", "False]", "False"]


def test_import_leaves_thread_pool_unloaded():
    """The package and its CLI import without concurrent.futures; only a call that splits its
    queries over threads (1-D pair counting or the SimplexBatch kernel, with more than one query
    chunk on more than one core) loads it, so start-up pays nothing for the pool."""
    src = str(Path(sigmadepth.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = "import sys, sigmadepth, sigmadepth.cli\nprint('concurrent.futures' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["False"]
