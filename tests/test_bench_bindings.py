"""What the benchmark in ``bench/`` binds of the library, checked in tier-1.

The benchmark's tracer wraps library functions by module and name, its
worker builds a ``HumConfig`` and recomputes each traced solve's true
residual from the captured arguments, and ``run.py`` reads the import time
of ``scipy.optimize`` under ``-X importtime``.  A change in ``src/`` that
breaks any of these fails the traced benchmark runs; these tests make that
visible to the test suite.  They read ``bench/`` and change nothing there.
"""

import ast
import importlib
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import impulsehum
from impulsehum import ExperimentConfig, HumConfig, TimeScheme, scenarios, validate
from impulsehum.mesh import Discretization, SubdomainMask

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"


@pytest.fixture(scope="module")
def bench():
    """The benchmark's ``tracer`` and ``worker`` modules, imported the way
    ``run.py`` runs them, with ``bench/`` on the path."""
    sys.path.insert(0, str(BENCH))
    try:
        tracer = importlib.import_module("tracer")
        worker = importlib.import_module("worker")
    finally:
        sys.path.remove(str(BENCH))
    return tracer, worker


def _library_state():
    """The identity of every attribute of every loaded ``impulsehum``
    module, and of the class attributes the tracer patches."""
    owners = {name: module for name, module in sys.modules.items()
              if name == "impulsehum" or name.startswith("impulsehum.")}
    owners["Trajectory"] = impulsehum.Trajectory
    return {name: {attr: id(value) for attr, value in vars(owner).items()}
            for name, owner in owners.items()}


def test_traced_names_resolve(bench):
    tracer, _ = bench
    for mod, attr in [*tracer.SPANNED, *tracer.COUNTED]:
        assert callable(getattr(importlib.import_module(f"impulsehum.{mod}"), attr)), (mod, attr)
    for mod, cls, attr in tracer.SPANNED_METHODS:
        owner = getattr(importlib.import_module(f"impulsehum.{mod}"), cls)
        assert callable(owner.__dict__[attr]), (mod, cls, attr)


def test_bench_imports_from_the_library_resolve():
    found = 0
    for path in sorted(BENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.split(".")[0] == "impulsehum":
                        importlib.import_module(alias.name)
                        found += 1
            elif isinstance(node, ast.ImportFrom) and node.module and \
                    node.module.split(".")[0] == "impulsehum":
                module = importlib.import_module(node.module)
                for alias in node.names:
                    assert hasattr(module, alias.name), (path.name, node.module, alias.name)
                    found += 1
    assert found > 0


def test_worker_hum_config_builds():
    # bench/worker.py builds its Gramian timing config with these keywords
    cfg = HumConfig(epsilon=1e-2, tau=0.01, t_final=0.02, tol=1e-3)
    assert (cfg.epsilon, cfg.tau, cfg.t_final, cfg.tol) == (1e-2, 0.01, 0.02, 1e-3)


def test_traced_solve_feeds_the_true_residual_check(bench, tmp_path):
    tracer, worker = bench
    before = _library_state()
    cfg = validate(replace(ExperimentConfig(), nx=10, n_steps=20, tau=0.01,
                           out_dir=str(tmp_path)))
    with tracer.Tracer() as tr:
        scenarios.run_controlled(cfg, cfg.epsilons[0])
    assert _library_state() == before
    assert len(tr.captured) == 1
    (psi0, hcfg, d, mask, scheme, *_), sol = tr.captured[0]
    assert isinstance(psi0, np.ndarray) and isinstance(hcfg, HumConfig)
    assert isinstance(d, Discretization) and isinstance(mask, SubdomainMask)
    assert isinstance(scheme, TimeScheme)
    ((residual, converged),) = worker.true_residuals(tr)
    assert math.isfinite(residual) and converged == sol.converged
    assert tr.spans and tr.counts["mesh.inner_calls"] > 0


def test_cli_import_lists_scipy_optimize():
    # bench/run.py's import_optimize_s takes the median of the scipy.optimize
    # lines under -X importtime and fails on none; a lazy scipy.optimize
    # import has to change bench/ first (ROADMAP items 1-2).
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    err = subprocess.run([sys.executable, "-X", "importtime", "-c", "import impulsehum.cli"],
                         env=env, capture_output=True, text=True, check=True).stderr
    names = [fields[2].strip() for fields in (line.split("|") for line in err.splitlines())
             if len(fields) == 3]
    assert "scipy.optimize" in names
