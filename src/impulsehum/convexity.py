"""Logarithmic-convexity machinery: weight function, frequency function,
explicit constants, three-point inequality, and observability fits.

Everything here probes the free (uncontrolled) flow.  The central object is
the frequency function, a Rayleigh-type quotient of the exponentially
weighted state F = U exp(Phi/2); its near-monotone growth is what turns the
energy decay into a single-time observability estimate, and the checks below
verify the numerically visible consequences of that chain.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import NamedTuple, Sequence

import numpy as np
from scipy.optimize import lsq_linear

from .evolution import TimeScheme, Trajectory, _write_csv
from .mesh import (
    ConfigError, Discretization, Grid, State, SubdomainMask, inner, subdomain_norm,
)


@dataclass(frozen=True)
class WeightParams:
    """Space-time weight Phi(x, t) = -s (x - x0)^2 / (4 (T - t + hbar)).

    ``s = 0`` is allowed as a degenerate test mode (Phi vanishes identically,
    F = U), which gives analytically known frequency values; the convexity
    constants themselves require s > 0.
    """

    x0: float
    s: float
    hbar: float
    t_final: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.s <= 1.0:
            raise ConfigError("s", f"must lie in [0, 1], got {self.s}")
        if not 0.0 < self.hbar <= 1.0:
            raise ConfigError("hbar", f"must lie in (0, 1], got {self.hbar}")
        if not 0 < self.t_final < np.inf:
            raise ConfigError("t_final", f"must be positive and finite, got {self.t_final}")

    def upsilon(self, t):
        return self.t_final - t + self.hbar

    def value(self, x, t):
        return -self.s * (x - self.x0) ** 2 / (4.0 * self.upsilon(t))

    def grad_x(self, x, t):
        return -self.s * (x - self.x0) / (2.0 * self.upsilon(t))

    def time_deriv(self, x, t):
        return -self.s * (x - self.x0) ** 2 / (4.0 * self.upsilon(t) ** 2)

    def eta(self, x, t):
        """Zeroth-order coefficient of the symmetric part,
        eta = (dPhi/dt + |dPhi/dx|^2 / 2) / 2."""
        return 0.5 * (self.time_deriv(x, t) + 0.5 * self.grad_x(x, t) ** 2)


def admissible_s_bound(x0: float, a: float, b: float) -> float:
    """Largest admissible weight slope for a bump centred at ``x0``."""
    return min(2.0 / np.sqrt(x0 - a), 2.0 / np.sqrt(b - x0), 1.0)


def check_admissible(wp: WeightParams, grid: Grid) -> None:
    """Reject weight parameters outside the admissible range."""
    if not grid.a < wp.x0 < grid.b:
        raise ConfigError("x0", f"{wp.x0} must lie inside ({grid.a}, {grid.b})")
    bound = admissible_s_bound(wp.x0, grid.a, grid.b)
    if wp.s > bound:
        raise ConfigError(
            "s",
            f"{wp.s} exceeds the admissible bound "
            f"min(2/sqrt(x0-a), 2/sqrt(b-x0), 1) = {bound}"
        )


@dataclass(frozen=True)
class ConvexityConstants:
    """Explicit constants of the convexity chain for one parameter choice,
    together with the calibrated three-point times t1, t2, t3 they hold at."""

    c_const: float
    c0: float
    ell: float
    d_ell: float
    m_three_point: float
    d_three_point: float
    t1: float
    t2: float
    t3: float


def _boundary_constants(wp: WeightParams, a: float, b: float) -> tuple[float, float]:
    phi_x_a = (wp.x0 - a) / 2.0
    phi_x_b = -(b - wp.x0) / 2.0
    c_const = max(
        (phi_x_b - 1.0) ** 2 / (4.0 * (b - wp.x0)),
        (phi_x_a + 1.0) ** 2 / (4.0 * (wp.x0 - a)),
    )
    c0 = 1.0 - min(
        wp.s,
        wp.s**2 * (wp.x0 - a) / 4.0,
        wp.s**2 * (b - wp.x0) / 4.0,
    )
    if not 0.0 < c0 < 1.0:
        raise ConfigError("s", f"c0={c0} falls outside (0, 1); s={wp.s} is inadmissible")
    return c_const, c0


def convexity_constants(wp: WeightParams, grid: Grid, ell: float) -> ConvexityConstants:
    """All explicit constants: the boundary pair (C, C0), the calibrated
    three-point times t1 = T - 2*ell*hbar, t2 = T - ell*hbar, t3 = T, and
    the three-point pair (M, D) at them.  The calibrated D_ell =
    2 C ell^2 (1 + M) is D / 4; the three-point check uses D."""
    check_admissible(wp, grid)
    if wp.s == 0.0:
        raise ConfigError("s", "constants need s > 0 (s = 0 is a test-only weight mode)")
    if not ell > 1.0:
        raise ConfigError("ell", f"must exceed 1, got {ell}")
    t1, t2, t3 = wp.t_final - 2.0 * ell * wp.hbar, wp.t_final - ell * wp.hbar, wp.t_final
    # 2*ell*hbar < T alone lets a tiny hbar collapse the calibrated times.
    if not 0.0 < t1 < t2 < t3:
        raise ConfigError("hbar", f"need 0 < T - 2*ell*hbar < T - ell*hbar < T, got "
                                  f"T={wp.t_final}, ell={ell}, hbar={wp.hbar}")
    c_const, c0 = _boundary_constants(wp, grid.a, grid.b)
    # M is the ratio of the integrals of (T - t + hbar)^(-1-c0) over [t2, t3]
    # and [t1, t2]; the antiderivative is (T - t + hbar)^(-c0) / c0.
    w1, w2, w3 = (wp.upsilon(t) ** (-c0) for t in (t1, t2, t3))
    m = ((w3 - w2) / c0) / ((w2 - w1) / c0)
    return ConvexityConstants(
        c_const=c_const,
        c0=c0,
        ell=ell,
        d_ell=2.0 * c_const * ell**2 * (1.0 + m),
        m_three_point=m,
        d_three_point=2.0 * (1.0 + m) * (t3 - t1) ** 2 * c_const / wp.hbar**2,
        t1=t1,
        t2=t2,
        t3=t3,
    )


@dataclass(frozen=True)
class ConvexityReport:
    """Frequency samples along one trajectory."""

    times: np.ndarray
    norm_f: np.ndarray
    freq_direct: np.ndarray
    freq_oracle: np.ndarray


def weighted_state(
    u: State, t: float | np.ndarray, wp: WeightParams, d: Discretization
) -> State:
    """F = U exp(Phi(., t) / 2) evaluated nodewise (traces use x = a, b).

    ``u`` is one state at time ``t``, or one state per row with ``t`` the
    matching array of times."""
    t = np.asarray(t, dtype=float)[..., None]
    return np.asarray(u, dtype=float) * np.exp(0.5 * wp.value(d.grid.nodes, t))


def _frequency_direct(
    f: np.ndarray, times: np.ndarray, nf2: np.ndarray, wp: WeightParams, d: Discretization
) -> np.ndarray:
    """Direct frequency of each row of ``f`` (weighted states at ``times``,
    with squared norms ``nf2``).  The reductions run row by row, so each
    value equals the one computed from that row alone."""
    x = d.grid.nodes
    dx = d.grid.dx
    interior = ((f[:, 2:] - 2.0 * f[:, 1:-1] + f[:, :-2]) / dx**2
                + wp.eta(x[1:-1], times[:, None]) * f[:, 1:-1])
    # Second-order one-sided first derivatives at the two boundary rows.
    dfa = (-3.0 * f[:, 0] + 4.0 * f[:, 1] - f[:, 2]) / (2.0 * dx)
    dfb = (3.0 * f[:, -1] - 4.0 * f[:, -2] + f[:, -3]) / (2.0 * dx)
    row_a = dfa + 0.5 * wp.time_deriv(x[0], times) * f[:, 0]
    row_b = -dfb + 0.5 * wp.time_deriv(x[-1], times) * f[:, -1]
    dots = np.array([np.dot(r, g) for r, g in zip(interior, f[:, 1:-1])])
    num = -(dx * dots + row_a * f[:, 0] + row_b * f[:, -1])
    return num / nf2


def frequency(traj: Trajectory, wp: WeightParams, d: Discretization) -> ConvexityReport:
    """Frequency function along an uncontrolled trajectory, two ways.

    ``freq_direct`` discretizes the symmetric part of the weighted evolution
    (interior second-difference stencil, one-sided boundary derivatives);
    ``freq_oracle`` is -d/dt log |F| obtained by differencing the stored
    norms, i.e. the decay rate the trajectory actually exhibits.  The two
    agree up to discretization error for smooth data.

    Raises ValueError unless there are at least two snapshots at strictly
    increasing times, or where |F| first vanishes: a ConfigError naming
    ``hbar`` if the state there is nonzero.
    """
    if len(traj.times) < 2:
        raise ValueError(f"frequency needs at least two snapshots, got {len(traj.times)}")
    if not np.all(np.diff(traj.times) > 0):
        raise ValueError("frequency expects strictly increasing times")
    f = weighted_state(traj.states, traj.times, wp, d)
    # |F|^2 per snapshot, each the weighted inner product of its own row.
    nf2 = np.array([np.dot(r, d.w) for r in f * f])
    vanished = np.flatnonzero(nf2 <= 0.0)
    if vanished.size:
        j = vanished[0]
        message = f"frequency undefined: |F| vanishes at t={traj.times[j]}"
        if inner(traj.states[j], traj.states[j], d) > 0.0:
            raise ConfigError("hbar", f"{message} although |U| > 0: exp(Phi/2) underflows")
        raise ValueError(message)
    norm_f = np.sqrt(nf2)
    direct = _frequency_direct(f, traj.times, nf2, wp, d)
    oracle = -0.5 * np.gradient(np.log(norm_f**2), traj.times)
    return ConvexityReport(
        times=traj.times.copy(), norm_f=norm_f, freq_direct=direct, freq_oracle=oracle
    )


@dataclass(frozen=True)
class ThreePointCheck:
    """Log-form slack of the three-point convexity inequality."""

    slack: float
    tolerance: float
    passed: bool


def three_point_check(
    states: Sequence[State],
    wp: WeightParams,
    d: Discretization,
    scheme: TimeScheme,
    constants: ConvexityConstants,
) -> ThreePointCheck:
    """Evaluate M log|F(t1)|^2 + log|F(t3)|^2 + D - (1+M) log|F(t2)|^2.

    ``states`` are one free flow's states at ``constants``' calibrated times
    t1, t2, t3, e.g. ``[evolve(u0, t, d, scheme) for t in (c.t1, c.t2,
    c.t3)]``.  The inequality holds in the continuum, so the pass threshold
    allows a discretization margin of 5 (dx + dt) times the magnitude of the
    logs on top of a 1e-6 floor.  M and D are ``constants``' three-point
    pair, from :func:`convexity_constants`, which checks the weight's
    admissibility.  The weight ``wp`` only forms F, so the s = 0 test mode,
    which has no constants of its own, can borrow those of an admissible
    weight, and with them their times.
    """
    if not len(states) == 3:
        raise ValueError(f"need three states at three times t1, t2, t3, got {len(states)}")
    times = (constants.t1, constants.t2, constants.t3)
    m, d_const = constants.m_three_point, constants.d_three_point
    logs = []
    for u, t in zip(states, times):
        f = weighted_state(u, t, wp, d)
        nf2 = inner(f, f, d)
        if nf2 <= 0.0:
            raise ValueError(f"|F({t})| vanishes; three-point check undefined")
        logs.append(np.log(nf2))
    l1, l2, l3 = logs
    slack = m * l1 + l3 + d_const - (1.0 + m) * l2
    tolerance = 1e-6 + 5.0 * (d.grid.dx + scheme.dt) * max(abs(v) for v in logs)
    return ThreePointCheck(
        slack=float(slack),
        tolerance=float(tolerance),
        passed=bool(slack >= -tolerance),
    )


class ObservabilitySample(NamedTuple):
    """Norm triple of one uncontrolled run: |U(0)|, |u(T)| over the
    observation region, |U(T)|, together with the horizon T."""

    t_final: float
    initial: float
    observed: float
    final: float


@dataclass(frozen=True)
class ObservabilityFit:
    """Fitted (mu, K, beta) of the single-time interpolation bound
    |U(T)| <= (mu e^{K/T} |u(T)|_omega)^beta |U(0)|^(1-beta)."""

    mu: float
    k_const: float
    beta: float
    satisfied_fraction: float
    n_samples: int


def bound_satisfied(fit: ObservabilityFit, sample: ObservabilitySample) -> bool:
    lhs = np.log(sample.final)
    rhs = fit.beta * (
        np.log(fit.mu) + fit.k_const / sample.t_final + np.log(sample.observed)
    ) + (1.0 - fit.beta) * np.log(sample.initial)
    return bool(lhs <= rhs)


def fit_observability(samples: Sequence[ObservabilitySample]) -> ObservabilityFit:
    """One-sided least-squares fit of (mu, K, beta) over an ensemble.

    A constrained linear fit in log variables (beta clipped to [0.01, 0.99],
    K nonnegative) is followed by an upward shift of the offset so the bound
    becomes a true envelope of every sample; the inequality only asserts
    existence of such constants, not their values.  Raises ValueError for
    fewer than 10 samples, or for a sample whose horizon or norms are not
    finite and positive.
    """
    if len(samples) < 10:
        raise ValueError(f"need at least 10 samples, got {len(samples)}")
    arr = np.array(samples, dtype=float)
    t, n0, nw, nt = arr.T
    if not np.all(np.isfinite(t) & (t > 0)):
        raise ValueError("degenerate sample: every t_final must be finite and positive")
    if not np.all(np.isfinite(arr[:, 1:]) & (arr[:, 1:] > 0)):
        raise ValueError("degenerate sample: all three norms must be finite and positive")
    y = np.log(nt) - np.log(n0)
    design = np.column_stack([np.log(nw) - np.log(n0), 1.0 / t, np.ones(len(t))])
    res = lsq_linear(
        design, y, bounds=([0.01, 0.0, -np.inf], [0.99, np.inf, np.inf])
    )
    beta, bk, bc = res.x
    residuals = y - design @ res.x
    bc += max(0.0, residuals.max()) + 1e-9 * max(1.0, float(np.abs(y).max()))
    # mu >= 1 keeps the envelope valid and makes the epsilon-split form a
    # strict consequence of this bound (the split prefactor is not raised
    # to beta, so it needs mu e^{K/T} >= 1).
    bc = max(bc, 0.0)
    with np.errstate(over="ignore"):
        mu = float(np.exp(bc / beta))
    fit = ObservabilityFit(
        mu=mu,
        k_const=max(bk / beta, 1e-12),
        beta=float(beta),
        satisfied_fraction=0.0,
        n_samples=len(samples),
    )
    frac = float(np.mean([bound_satisfied(fit, s) for s in samples]))
    return replace(fit, satisfied_fraction=frac)


def split_constants(fit: ObservabilityFit) -> tuple[float, float, float]:
    """Constants (M1, M2, delta) of the epsilon-split form of the bound,
    obtained from (mu, K, beta) by Young's inequality."""
    beta = fit.beta
    if not 0.0 < beta < 1.0:
        raise ValueError(f"beta must lie in (0, 1), got {beta}")
    with np.errstate(over="ignore"):
        m1 = float(
            fit.mu ** (1.0 / beta)
            * (1.0 - beta) ** ((1.0 - beta) / (2.0 * beta))
            * np.sqrt(beta)
        )
    m2 = fit.k_const / beta
    delta = (1.0 - beta) / beta
    return m1, m2, delta


def epsilon_split_slack(
    theta0: State,
    final: State,
    epsilon: float,
    fit: ObservabilityFit,
    d: Discretization,
    mask: SubdomainMask,
    t_final: float,
) -> float:
    """Slack of |Th(T)|^2 <= (M1 e^{M2/T} / eps^delta)^2 |th(T)|_omega^2
    + eps^2 |Th(0)|^2 for the free flow started at ``theta0``, whose state
    at ``T = t_final`` is ``final`` (e.g. ``evolve(theta0, T, d, scheme)``).

    Nonnegative slack is implied by the fitted interpolation bound holding on
    the same data; for eps >= 1 it already follows from the contraction.
    """
    if not epsilon > 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    m1, m2, delta = split_constants(fit)
    with np.errstate(over="ignore"):
        coef = (m1 * np.exp(m2 / t_final) / epsilon**delta) ** 2
    observed = subdomain_norm(final, mask, d) ** 2
    return float(coef * observed + epsilon**2 * inner(theta0, theta0, d)
                 - inner(final, final, d))


def write_frequency_csv(report: ConvexityReport, path) -> None:
    table = np.column_stack(
        [report.times, report.norm_f, report.freq_direct, report.freq_oracle]
    )
    _write_csv(path, "t,norm_f,freq_direct,freq_oracle", table)
