"""Penalized HUM machinery: Gramian, CG solver, cost bound.

The minimal-norm impulse control is obtained by minimizing a penalized
quadratic functional over adjoint initial data, which is equivalent to the
operator equation

    (Lambda + eps I) f = -E(T) psi0,      Lambda = E(T-tau) B E(T-tau),

where E(t) is the discrete semigroup, B the interior restriction to the
control region, and all inner products the weighted one (Lambda + eps I is
self-adjoint positive definite only in that geometry).  The conjugate
gradient iteration below works matrix-free: one application of Lambda (two
propagations) per iteration; the functional it records is read off its
residual.  Besides CG, a solve is four ``evolve`` legs: psi0 to the impulse's
left limit at tau, then over T - tau that limit (b = E(T) psi0), the
minimizer (the control) and the jumped limit (the final state).  Every span
over T - tau is the n - k steps of dt after the impulse's step k (a tau
within ``_grid_step``'s 1e-9 k of it is read as k everywhere), so a solve
uses one step size and one factor.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .evolution import TimeScheme, _check_state, _grid_step, _impulse_step, _write_csv, evolve
from .mesh import (ConfigError, Discretization, State, SubdomainMask, _check_count, _check_mask,
                   control_op, inner, norm, subdomain_norm)


@dataclass(frozen=True)
class HumConfig:
    """Penalty, stopping rule and timing of one solve.

    The impulse time ``tau`` lies strictly inside (0, t_final): an impulse at
    the final time leaves nothing to control.  A solve reads tau and t_final
    as the scheme's steps k and n, and marches T - tau as the n - k after k.
    """

    epsilon: float
    tau: float
    t_final: float
    tol: float = 1e-3
    max_iter: Optional[int] = None

    def __post_init__(self) -> None:
        if not self.epsilon > 0:
            raise ConfigError("epsilons", f"entries must be positive, got {self.epsilon}")
        if not 0.0 < self.t_final < np.inf:
            raise ConfigError("t_final", f"must be positive and finite, got {self.t_final}")
        if not 0.0 < self.tau < self.t_final:
            raise ConfigError(
                "tau", f"need 0 < tau < t_final, got tau={self.tau}, t_final={self.t_final}"
            )
        if not 0.0 < self.tol < 1.0:
            raise ConfigError("tol", f"must lie in (0, 1), got {self.tol}")
        if self.max_iter is not None:
            _check_count("max_iter", self.max_iter)
            if self.max_iter < 1:
                raise ConfigError("max_iter", f"must be at least 1, got {self.max_iter}")


@dataclass(frozen=True)
class HumSolution:
    """Minimizer, control and bookkeeping of one CG solve."""

    minimizer: State
    control: State
    final_state: State
    iterations: int
    residual_history: np.ndarray
    functional_history: np.ndarray
    control_norm: float
    final_norm: float
    initial_norm: float
    epsilon: float
    tol: float
    converged: bool
    kappa: Optional[float]
    true_residual: float


def gramian_apply(
    rho: State,
    cfg: HumConfig,
    d: Discretization,
    mask: SubdomainMask,
    scheme: TimeScheme,
) -> State:
    """Apply Lambda = E(T-tau) B E(T-tau) to ``rho``, one state, over
    :func:`_span`; they and ``mask`` are checked before any step."""
    span = _span(cfg, scheme)
    rho = _check_state(rho, d, "rho")
    _check_mask(mask, d)
    return evolve(control_op(evolve(rho, span, d, scheme), mask), span, d, scheme)


def _span(cfg: HumConfig, scheme: TimeScheme) -> float:
    """T - tau as the n - k steps of dt after the impulse's step k; raises
    unless t_final is the scheme's step n (``_grid_step``) and tau a step
    before it (:func:`_impulse_step`)."""
    if _grid_step(cfg.t_final, scheme.dt) != scheme.n_steps:
        raise ValueError(
            f"a HUM solve needs the scheme's horizon: HumConfig.t_final={cfg.t_final}, "
            f"TimeScheme.t_final={scheme.t_final}"
        )
    return (scheme.n_steps - _impulse_step(cfg.tau, scheme)) * scheme.dt


def _run_cg(b: State, apply_op: Callable[[State], State], d: Discretization, tol: float,
            max_iter: int):
    """CG on A f = -b, A = ``apply_op`` self-adjoint positive definite.

    Returns the iterate, the residual and functional histories, the
    iteration count, whether the recursive residual met the tolerance, and
    |g_0|.

    Follows the printed iteration from f_0 = 0, so g_0 = b: descent
    directions w_k, step rho_k = |g_{k-1}|^2 / <gbar_k, w_{k-1}>,
    restart-free, stop on |g_k| / |g_0| <= tol.  It also stops, unconverged,
    at the iteration cap or at a curvature <gbar_k, w_{k-1}> that is not
    positive (NaN included), which the positive definite operator admits
    only through roundoff: either way the last iterate is returned, so a
    breakdown at iteration k returns what a cap of k - 1 does.

    The functional J(f) = 1/2 <A f, f> + <b, f>, with A the operator, is
    recorded as 1/2 <g + b, f> from the residual g = A f + b that CG already
    holds.  For :func:`cg_solve` this is the penalized objective
    1/2 |E(T-tau) f|_omega^2 + eps/2 |f|^2 + <psi0, E(T) f>, because E(T) is
    self-adjoint, so <psi0, E(T) f> = <b, f>.
    """

    def objective(v: State, g: State) -> float:
        return 0.5 * inner(g + b, v, d)

    f = np.zeros(d.grid.n_dof)
    g = b.copy()
    g0_norm = norm(g, d)
    if g0_norm == 0.0:
        return f, np.array([0.0]), np.array([objective(f, g)]), 0, True, g0_norm

    residuals = [1.0]
    functionals = [objective(f, g)]
    w = g.copy()
    g_norm = g0_norm
    converged = False
    iterations = 0
    for k in range(1, max_iter + 1):
        gbar = apply_op(w)
        denom = inner(gbar, w, d)
        if not denom > 0.0:
            break
        rho = g_norm**2 / denom
        f = f - rho * w
        g = g - rho * gbar
        new_norm = norm(g, d)
        residuals.append(new_norm / g0_norm)
        functionals.append(objective(f, g))
        iterations = k
        if new_norm / g0_norm <= tol:
            converged = True
            break
        w = g + (new_norm**2 / g_norm**2) * w
        g_norm = new_norm
    return f, np.array(residuals), np.array(functionals), iterations, converged, g0_norm


def _solve(
    psi0: State,
    cfg: HumConfig,
    d: Discretization,
    mask: SubdomainMask,
    scheme: TimeScheme,
    obs_weight: float,
    penalty: float,
    kappa: Optional[float],
) -> HumSolution:
    """Run CG, at most ``cfg.max_iter`` (10 nx by default) iterations, on
    b = E(T) psi0, the left limit at tau marched over T - tau (bit for bit
    one march over all n steps); Psi(T) is that limit jumped by the control
    obs_weight B E(T-tau) f and marched over T - tau (bit for bit the last
    state of :func:`solve_impulsive`).  Inputs are checked before any step.

    As the control carries the observation weight, Psi(T) = b + obs_weight
    Lambda f up to roundoff, so penalty f + Psi(T) is the true residual at
    f.  ``converged`` also requires it (relative to |g_0|) to meet tol,
    because CG's recursive residual can drift below the true one.
    """
    span = _span(cfg, scheme)
    psi0 = _check_state(psi0, d, "psi0")
    _check_mask(mask, d)

    def apply_op(v: State) -> State:
        return penalty * v + obs_weight * gramian_apply(v, cfg, d, mask, scheme)

    left = evolve(psi0, cfg.tau, d, scheme)
    b = evolve(left, span, d, scheme)
    f, residuals, functionals, iterations, converged, g0_norm = _run_cg(
        b, apply_op, d, cfg.tol, cfg.max_iter or 10 * d.grid.nx
    )
    control = obs_weight * control_op(evolve(f, span, d, scheme), mask)
    final = evolve(left + control_op(control, mask), span, d, scheme)
    true_residual = norm(penalty * f + final, d) / g0_norm if g0_norm else 0.0
    return HumSolution(
        minimizer=f,
        control=control,
        final_state=final,
        iterations=iterations,
        residual_history=residuals,
        functional_history=functionals,
        control_norm=subdomain_norm(control, mask, d),
        final_norm=norm(final, d),
        initial_norm=norm(psi0, d),
        epsilon=cfg.epsilon,
        tol=cfg.tol,
        converged=converged and true_residual <= cfg.tol,
        kappa=kappa,
        true_residual=true_residual,
    )


def cg_solve(
    psi0: State,
    cfg: HumConfig,
    d: Discretization,
    mask: SubdomainMask,
    scheme: TimeScheme,
) -> HumSolution:
    """Minimal-norm impulse control via CG on (Lambda + eps I) f = -E(T) psi0.

    The control is the masked propagation of the minimizer, and the final
    state the flow after it jumps ``evolve(psi0, cfg.tau, d, scheme)``.  If
    CG stops at the iteration cap or at a curvature that is not positive,
    the last iterate is returned with ``converged`` False, so partial sweeps
    stay reproducible.
    """
    return _solve(psi0, cfg, d, mask, scheme, obs_weight=1.0, penalty=cfg.epsilon, kappa=None)


def solve_cost_weighted(
    psi0: State,
    cfg: HumConfig,
    d: Discretization,
    mask: SubdomainMask,
    scheme: TimeScheme,
    kappa: float,
) -> HumSolution:
    """Cost-weighted variant: CG on (kappa^2 Lambda + eps^2 I) f = -E(T) psi0
    with control kappa^2 B E(T-tau) f, for a finite ``kappa`` > 0 (checked
    before any step).

    At the exact minimizer the controlled final state equals -eps^2 times the
    minimizer, which makes the explicit cost bound checkable; see
    :func:`cost_bound_check`.  The bound holds for every ``psi0`` once kappa
    is at least the observability constant, the smallest kappa with
    kappa^2 Lambda + eps^2 I >= E(T)^2 (~3.09e4 at nx = 25, eps = 1e-2).
    Below it the bound can fail: at kappa = 1/eps = 100 there the sine datum
    exceeds it 1.59-fold.
    """
    if not 0.0 < kappa < np.inf:
        raise ValueError(f"kappa must be positive and finite, got {kappa}")
    return _solve(psi0, cfg, d, mask, scheme, obs_weight=kappa**2,
                  penalty=cfg.epsilon**2, kappa=kappa)


@dataclass(frozen=True)
class CostBoundReport:
    """Terms of the explicit control-cost inequality."""

    control_term: float
    final_term: float
    total: float
    initial_sq: float
    slack: float
    ok: bool


def cost_bound_check(solution: HumSolution) -> CostBoundReport:
    """Check (1/kappa^2) |h|_omega^2 + (1/eps^2) |Psi(T)|^2 <= |Psi0|^2.

    Only meaningful for solutions of :func:`solve_cost_weighted`; kappa, eps
    and the CG stopping tolerance are the solution's own.  The slack is
    allowed a small negative margin proportional to that tolerance.
    """
    if solution.kappa is None:
        raise ValueError("cost_bound_check needs a solution from solve_cost_weighted")
    control_term = solution.control_norm**2 / solution.kappa**2
    final_term = solution.final_norm**2 / solution.epsilon**2
    total = control_term + final_term
    initial_sq = solution.initial_norm**2
    slack = initial_sq - total
    ok = slack >= -10.0 * solution.tol * initial_sq
    return CostBoundReport(
        control_term=control_term,
        final_term=final_term,
        total=total,
        initial_sq=initial_sq,
        slack=slack,
        ok=ok,
    )


def solution_to_dict(sol: HumSolution) -> dict:
    return {
        "epsilon": sol.epsilon,
        "tol": sol.tol,
        "kappa": sol.kappa,
        "iterations": sol.iterations,
        "converged": sol.converged,
        "control_norm": sol.control_norm,
        "final_norm": sol.final_norm,
        "initial_norm": sol.initial_norm,
        "residual_history": [float(r) for r in sol.residual_history],
        "functional_history": [float(v) for v in sol.functional_history],
    }


def _write_json(obj: dict, path) -> None:
    """Every JSON artifact's format; ``scenarios`` binds it as ``write_json``."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_solution_json(sol: HumSolution, path) -> None:
    _write_json(solution_to_dict(sol), path)


def write_state_csv(x: np.ndarray, values: np.ndarray, path) -> None:
    """Two-column CSV (x, value) for control profiles and final states."""
    _write_csv(path, "x,value", np.column_stack([x, values]))
