"""Penalized HUM machinery: control operator, Gramian, CG solver, duality checks.

The minimal-norm impulse control is obtained by minimizing a penalized
quadratic functional over adjoint initial data, which is equivalent to the
operator equation

    (Lambda + eps I) f = -E(T) psi0,      Lambda = E(T-tau) B E(T-tau),

where E(t) is the discrete semigroup, B the interior restriction to the
control region, and all inner products the weighted one (Lambda + eps I is
self-adjoint positive definite only in that geometry).  The conjugate
gradient iteration below works matrix-free: one application of Lambda (two
propagations) per iteration.  The functional it records is read off the
residual it already holds, so it costs no further propagation.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from math import isclose
from typing import Optional

import numpy as np

from .evolution import TimeScheme, _evolve_to, _write_csv, evolve, solve_impulsive, steps_for
from .mesh import ConfigError, Discretization, State, SubdomainMask, inner, norm, subdomain_norm


class CgBreakdownError(RuntimeError):
    """Raised when the CG curvature term loses positive definiteness."""


@dataclass(frozen=True)
class HumConfig:
    """Penalty, stopping rule and timing of one solve.

    ``kappa`` switches on the cost-weighted variant: the observation term is
    weighted by kappa^2 and the penalty becomes epsilon^2.  When left unset
    the solvers that need it default to kappa = 1/epsilon, a practical scale
    standing in for the non-constructive theoretical constant.  That default
    carries no guarantee of the cost bound (at nx = 25, epsilon = 1e-2 the
    sine datum exceeds it 1.59-fold); the bound holds for every initial
    state once kappa reaches the system's observability constant (~3.09e4
    there).
    """

    epsilon: float
    tau: float
    t_final: float
    tol: float = 1e-3
    max_iter: Optional[int] = None
    kappa: Optional[float] = None

    def __post_init__(self) -> None:
        if not self.epsilon > 0:
            raise ConfigError("epsilons", f"entries must be positive, got {self.epsilon}")
        # tau == t_final is tolerated so the degenerate Gramian (identity
        # semigroup) stays testable; the impulse solvers require tau < t_final.
        if not 0.0 < self.tau <= self.t_final:
            raise ConfigError(
                "tau", f"need 0 < tau <= t_final, got tau={self.tau}, t_final={self.t_final}"
            )
        if not 0.0 < self.tol < 1.0:
            raise ConfigError("tol", f"must lie in (0, 1), got {self.tol}")
        if self.max_iter is not None and self.max_iter < 1:
            raise ConfigError("max_iter", f"must be at least 1, got {self.max_iter}")
        if self.kappa is not None and not self.kappa > 0:
            raise ConfigError("kappa", f"must be positive, got {self.kappa}")


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
    kappa: Optional[float] = None
    true_residual: float = 0.0


def control_op(v: State, mask: SubdomainMask) -> State:
    """Restrict to the control region: interior nodes of omega keep their
    value, everything else (including both boundary entries) is zeroed."""
    return mask.mask * np.asarray(v, dtype=float)


def gramian_apply(
    rho: State,
    cfg: HumConfig,
    d: Discretization,
    mask: SubdomainMask,
    scheme: TimeScheme,
) -> State:
    """Apply Lambda = E(T-tau) B E(T-tau) to ``rho``."""
    span = cfg.t_final - cfg.tau
    return evolve(control_op(evolve(rho, span, d, scheme), mask), span, d, scheme)


def penalized_objective(
    theta0: State,
    psi0: State,
    cfg: HumConfig,
    d: Discretization,
    mask: SubdomainMask,
    scheme: TimeScheme,
) -> float:
    """Penalized HUM objective: half the observed energy at T - tau, plus
    (eps/2) times the squared weighted norm of the adjoint datum, plus the
    coupling with the datum to be controlled (two propagations).

    This is the reference definition; :func:`cg_solve` records the same value
    without propagating, see ``_run_cg``."""
    span = cfg.t_final - cfg.tau
    mid = evolve(theta0, span, d, scheme)
    end = evolve(mid, cfg.tau, d, scheme)
    return (
        0.5 * subdomain_norm(mid, mask, d) ** 2
        + 0.5 * cfg.epsilon * inner(theta0, theta0, d)
        + inner(psi0, end, d)
    )


def _run_cg(
    psi0: State,
    cfg: HumConfig,
    d: Discretization,
    mask: SubdomainMask,
    scheme: TimeScheme,
    obs_weight: float,
    penalty: float,
    f0: Optional[State],
):
    """CG on (obs_weight * Lambda + penalty I) f = -E(T) psi0.

    Returns the iterate, the residual and functional histories, the
    iteration count, whether the recursive residual met the tolerance, and
    |g_0|.

    Follows the printed iteration: g_0 = penalty f_0 + obs_weight Lambda f_0
    + E(T) psi0, descent directions w_k, step rho_k = |g_{k-1}|^2 /
    <gbar_k, w_{k-1}>, restart-free, stop on |g_k| / |g_0| <= tol.

    The functional J(f) = 1/2 <A f, f> + <b, f>, with A the operator and
    b = E(T) psi0, is recorded as 1/2 <g + b, f> from the residual
    g = A f + b that CG already holds.  This is the penalized objective
    because E(T) is self-adjoint, so <psi0, E(T) f> = <b, f>.
    """

    def apply_op(v: State) -> State:
        return penalty * v + obs_weight * gramian_apply(v, cfg, d, mask, scheme)

    def objective(v: State, g: State) -> float:
        return 0.5 * inner(g + b, v, d)

    b = evolve(psi0, cfg.t_final, d, scheme)
    if f0 is None:
        f = np.zeros(d.grid.n_dof)
        g = b.copy()
    else:
        f = np.asarray(f0, dtype=float).copy()
        g = apply_op(f) + b

    g0_norm = norm(g, d)
    if g0_norm == 0.0:
        return f, np.array([0.0]), np.array([objective(f, g)]), 0, True, g0_norm

    max_iter = cfg.max_iter if cfg.max_iter is not None else 10 * d.grid.nx
    residuals = [1.0]
    functionals = [objective(f, g)]
    w = g.copy()
    g_norm = g0_norm
    converged = False
    iterations = 0
    for k in range(1, max_iter + 1):
        gbar = apply_op(w)
        denom = inner(gbar, w, d)
        if denom <= 0.0:
            raise CgBreakdownError(
                f"curvature <gbar, w> = {denom} is not positive at iteration {k}; "
                "the regularized Gramian lost positive definiteness"
            )
        rho = g_norm**2 / denom
        f = f - rho * w
        g = g - rho * gbar
        new_norm = norm(g, d)
        residuals.append(new_norm / g0_norm)
        functionals.append(objective(f, g))
        iterations = k
        if new_norm / g0_norm <= cfg.tol:
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
    f0: Optional[State],
    kappa: Optional[float],
) -> HumSolution:
    """Run CG, then build the control obs_weight B E(T-tau) f and replay the
    impulsive solve once for the final state Psi(T).

    Since the control carries the operator's observation weight,
    Psi(T) = E(T) psi0 + obs_weight Lambda f up to roundoff, so
    penalty f + Psi(T) is the true residual of the CG system at f.  ``converged`` also requires it
    (relative to |g_0|) to meet the tolerance, because CG's recursive
    residual can drift below the true one near roundoff.
    """
    f, residuals, functionals, iterations, converged, g0_norm = _run_cg(
        psi0, cfg, d, mask, scheme, obs_weight, penalty, f0
    )
    span = cfg.t_final - cfg.tau
    control = obs_weight * control_op(evolve(f, span, d, scheme), mask)
    # Only the final state is read, so keep no snapshots between the ends.
    traj = solve_impulsive(psi0, control, cfg.tau, d, mask, scheme, stride=scheme.n_steps)
    final = traj.final_state
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


def _check_horizon(cfg: HumConfig, scheme: TimeScheme, caller: str) -> None:
    """The impulse solvers need tau < t_final, and the scheme must span the
    same horizon: the forward replays take ``scheme.n_steps`` steps."""
    if not cfg.tau < cfg.t_final:
        raise ValueError(f"{caller} needs tau < t_final")
    if not isclose(cfg.t_final, scheme.t_final, rel_tol=1e-9):
        raise ValueError(
            f"{caller} needs the scheme's horizon: HumConfig.t_final={cfg.t_final}, "
            f"TimeScheme.t_final={scheme.t_final}"
        )


def cg_solve(
    psi0: State,
    cfg: HumConfig,
    d: Discretization,
    mask: SubdomainMask,
    scheme: TimeScheme,
    f0: Optional[State] = None,
) -> HumSolution:
    """Minimal-norm impulse control via CG on (Lambda + eps I) f = -E(T) psi0.

    On convergence the control is the masked propagation of the minimizer and
    the reported final state comes from one impulsive forward solve.  If the
    iteration cap is hit the best iterate is returned with ``converged``
    False rather than raising, so partial sweeps stay reproducible.
    """
    _check_horizon(cfg, scheme, "cg_solve")
    return _solve(psi0, cfg, d, mask, scheme, obs_weight=1.0, penalty=cfg.epsilon,
                  f0=f0, kappa=None)


def solve_cost_weighted(
    psi0: State,
    cfg: HumConfig,
    d: Discretization,
    mask: SubdomainMask,
    scheme: TimeScheme,
    f0: Optional[State] = None,
) -> HumSolution:
    """Cost-weighted variant: CG on (kappa^2 Lambda + eps^2 I) f = -E(T) psi0
    with control kappa^2 B E(T-tau) f.

    At the exact minimizer the controlled final state equals -eps^2 times the
    minimizer, which makes the explicit cost bound checkable; see
    :func:`cost_bound_check`.  The bound holds for every ``psi0`` once kappa
    is at least the observability constant, the smallest kappa with
    kappa^2 Lambda + eps^2 I >= E(T)^2.  The default kappa = 1/eps carries no
    such guarantee: at nx = 25, eps = 1e-2 it exceeds the bound 1.59-fold
    for the sine datum, while the constant is ~3.09e4.
    """
    _check_horizon(cfg, scheme, "solve_cost_weighted")
    kappa = cfg.kappa if cfg.kappa is not None else 1.0 / cfg.epsilon
    return _solve(psi0, cfg, d, mask, scheme, obs_weight=kappa**2,
                  penalty=cfg.epsilon**2, f0=f0, kappa=kappa)


def duality_residual(
    psi0: State,
    h: State,
    zeta0: State,
    cfg: HumConfig,
    d: Discretization,
    mask: SubdomainMask,
    scheme: TimeScheme,
) -> float:
    """Absolute residual of the transposition identity.

    For any control h and auxiliary datum zeta0 the impulsive solution
    satisfies <B h, Z(T-tau)> + <psi0, Z(T)> - <Psi(T), zeta0> = 0 where Z is
    the free flow started from zeta0; the discrete residual is pure roundoff
    because the discrete semigroup is self-adjoint.
    """
    _check_horizon(cfg, scheme, "duality_residual")
    z_end, z_mid = _evolve_to(
        zeta0, [steps_for(t, scheme) for t in (cfg.t_final, cfg.t_final - cfg.tau)],
        d, scheme.theta,
    )
    traj = solve_impulsive(psi0, h, cfg.tau, d, mask, scheme, stride=scheme.n_steps)
    term_control = inner(control_op(h, mask), z_mid, d)
    return abs(term_control + inner(psi0, z_end, d) - inner(traj.final_state, zeta0, d))


@dataclass(frozen=True)
class CostBoundReport:
    """Terms of the explicit control-cost inequality."""

    control_term: float
    final_term: float
    total: float
    initial_sq: float
    slack: float
    ok: bool


def cost_bound_check(solution: HumSolution, cfg: HumConfig) -> CostBoundReport:
    """Check (1/kappa^2) |h|_omega^2 + (1/eps^2) |Psi(T)|^2 <= |Psi0|^2.

    Only meaningful for solutions of :func:`solve_cost_weighted`; the slack
    is allowed a small negative margin proportional to the CG stopping
    tolerance.
    """
    if solution.kappa is None:
        raise ValueError("cost_bound_check needs a solution from solve_cost_weighted")
    control_term = solution.control_norm**2 / solution.kappa**2
    final_term = solution.final_norm**2 / cfg.epsilon**2
    total = control_term + final_term
    initial_sq = solution.initial_norm**2
    slack = initial_sq - total
    ok = slack >= -10.0 * cfg.tol * initial_sq
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


def write_solution_json(sol: HumSolution, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(solution_to_dict(sol), fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_state_csv(x: np.ndarray, values: np.ndarray, path) -> None:
    """Two-column CSV (x, value) for control profiles and final states."""
    _write_csv(path, "x,value", np.column_stack([x, values]))
