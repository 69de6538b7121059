"""Independent reference for the HUM workloads' norms.

It does not use the library's propagator or solver.  The semi-discrete pair
(W, K) is rebuilt from its documented formulas, the symmetric pencil
W^{-1/2} K W^{-1/2} = V diag(lam) V^T is diagonalised once, and a theta-scheme
propagation over n steps becomes diag(r(lam dt)^n) in the coordinates
y = V^T W^{1/2} u, where the weighted inner product is Euclidean.  The
penalised HUM system (Lambda + eps I) f = -E(T) psi0 is then solved densely.

For a CG iterate with relative residual at most ``tol`` the library's norms
lie within rigorous bounds of these exact values (see ``norm_bounds``), so
the check accepts any correct solver and rejects a wrong answer.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import eigh_tridiagonal, solve

_THETA = {"crank_nicolson": 0.5, "backward_euler": 1.0}


def exact_rows(cfg: dict, psi0: np.ndarray) -> dict:
    """Exact minimiser norms per penalty for a resolved config dict."""
    a, b, nx = cfg["a"], cfg["b"], cfg["nx"]
    dx = (b - a) / nx
    w = np.full(nx + 1, dx)
    w[0] = w[-1] = 1.0 + dx / 2.0
    k_main = np.full(nx + 1, -2.0 / dx)
    k_main[0] = k_main[-1] = -1.0 / dx
    k_off = np.full(nx, 1.0 / dx)
    sq = np.sqrt(w)
    lam, v = eigh_tridiagonal(k_main / w, k_off / (sq[:-1] * sq[1:]))

    x = np.linspace(a, b, nx + 1)
    pad = 1e-12 * (b - a)
    mask = ((x >= cfg["omega_lo"] - pad) & (x <= cfg["omega_hi"] + pad)).astype(float)
    mask[0] = mask[-1] = 0.0

    theta = _THETA[cfg["method"]]
    dt = cfg["t_final"] / cfg["n_steps"]
    r = (1.0 + (1.0 - theta) * dt * lam) / (1.0 - theta * dt * lam)
    n_span = round((cfg["t_final"] - cfg["tau"]) / dt)
    d_span = r**n_span
    d_full = r ** cfg["n_steps"]

    vm = v[mask > 0]
    gram = d_span[:, None] * (vm.T @ vm) * d_span[None, :]
    y_psi = v.T @ (sq * psi0)
    y_b = d_full * y_psi
    rows = {}
    for eps in cfg["epsilons"]:
        y_f = solve(gram + eps * np.eye(nx + 1), -y_b, assume_a="pos")
        control = mask * ((v @ (d_span * y_f)) / sq)
        final = y_b + gram @ y_f
        rows[repr(float(eps))] = {
            "final_norm": float(np.linalg.norm(final)),
            "control_norm": float(np.sqrt(dx * np.sum(mask * control**2))),
        }
    return {
        "initial_norm": float(np.linalg.norm(y_psi)),
        "b_norm": float(np.linalg.norm(y_b)),
        "rows": rows,
    }


def norm_bounds(eps: float, tol: float, b_norm: float) -> tuple[float, float]:
    """Worst-case distance of (final_norm, control_norm) from the exact values.

    With g = (Lambda + eps I) f + b and |g| <= tol |b|, the final state is
    g - eps f and the exact one -eps f*, so it moves by at most 2 |g|; the
    control B E(T - tau) (f - f*) has squared norm <e, Lambda e> <= |g|^2 / eps.
    A relative floor of 1e-9 absorbs roundoff.
    """
    g = tol * b_norm
    return 2.0 * g + 1e-9 * b_norm, g / np.sqrt(eps) + 1e-9 * b_norm
