import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from impulsehum import Grid, TimeScheme, build_discretization, evolution, hum, subdomain_mask


@pytest.fixture
def setup25():
    """Reference setup: unit interval, 25 cells, horizon 0.02, impulse at 0.01."""
    grid = Grid(0.0, 1.0, 25)
    d = build_discretization(grid)
    mask = subdomain_mask(grid, 0.2, 0.8)
    scheme = TimeScheme(0.02, 200, "crank_nicolson")
    x = grid.nodes
    psi0 = np.sqrt(2.0) * np.sin(np.pi * x)
    psi0[0] = psi0[-1] = 0.0
    return grid, d, mask, scheme, psi0


@pytest.fixture(params=[(0.02 * (1 - 1e-12), 0.02, 200), (36.999999963, 37.0, 50)],
                ids=["T0.02-n200", "T37-n50"])
def final_step_tau(request):
    """(tau, t_final, n_steps) with tau inside (0, t_final) but read by
    ``_grid_step`` as the final step n: 2e-10 steps short of it on the
    reference grid, and 5e-8 = 1e-9 n steps short, the edge of the
    tolerance, at t_final 37 with 50 steps."""
    return request.param


@pytest.fixture
def setup4():
    """Tiny grid where dense oracles are exact and cheap."""
    grid = Grid(0.0, 1.0, 4)
    d = build_discretization(grid)
    mask = subdomain_mask(grid, 0.2, 0.8)
    scheme = TimeScheme(0.02, 200, "crank_nicolson")
    return grid, d, mask, scheme


@pytest.fixture
def step_count(monkeypatch) -> list:
    """Count theta-steps, one per column, by wrapping ``evolution._march``;
    entry 0 of the list is the step count, entry 1 the count of marches."""
    counted = [0, 0]
    march = evolution._march

    def counting(u, d, n, dt, theta, keep, start=0):
        counted[0] += (n - start) * (u.shape[1] if u.ndim == 2 else 1)
        counted[1] += 1
        return march(u, d, n, dt, theta, keep, start)

    monkeypatch.setattr(evolution, "_march", counting)
    return counted


@pytest.fixture
def force_breakdown(monkeypatch):
    """``force_breakdown(k, eps)`` makes the CG curvature negative from the
    k-th iteration of every solve at penalty ``eps`` on: from its k-th call
    in that solve, ``hum.gramian_apply`` returns ``fake(rho)``, by default
    -1e3 rho."""

    def arm(k, eps, fake=lambda rho: -1e3 * rho):
        calls = [0]
        run_cg, gramian_apply = hum._run_cg, hum.gramian_apply

        def counted_run_cg(*args):
            calls[0] = 0
            return run_cg(*args)

        def broken(rho, cfg, d, mask, scheme):
            calls[0] += 1
            if cfg.epsilon == eps and calls[0] >= k:
                return fake(rho)
            return gramian_apply(rho, cfg, d, mask, scheme)

        monkeypatch.setattr(hum, "_run_cg", counted_run_cg)
        monkeypatch.setattr(hum, "gramian_apply", broken)

    return arm
