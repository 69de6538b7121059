"""Time integration of W du/dt = K u and the impulsive mild solution.

One step of the theta scheme solves the symmetric positive definite
tridiagonal system (W - theta dt K) u_next = (W + (1-theta) dt K) u, with
theta = 1/2 (Crank-Nicolson) or theta = 1 (backward Euler).  Both choices are
unconditionally stable here and never increase the weighted norm, mirroring
the contraction property of the continuous flow.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import ceil, isclose
from typing import Callable, Optional

import numpy as np
from scipy.linalg import cho_solve_banded, cholesky_banded

from .mesh import Discretization, State, SubdomainMask, _check_length

_THETA = {"crank_nicolson": 0.5, "backward_euler": 1.0}


@dataclass(frozen=True)
class TimeScheme:
    """Step-size policy: target dt = t_final / n_steps and the step family."""

    t_final: float
    n_steps: int
    method: str = "crank_nicolson"

    def __post_init__(self) -> None:
        if not self.t_final > 0:
            raise ValueError(f"t_final must be positive, got {self.t_final}")
        if self.n_steps < 1:
            raise ValueError(f"n_steps must be at least 1, got {self.n_steps}")
        if self.method not in _THETA:
            raise ValueError(
                f"method must be one of {sorted(_THETA)}, got {self.method!r}"
            )

    @property
    def dt(self) -> float:
        return self.t_final / self.n_steps

    @property
    def theta(self) -> float:
        return _THETA[self.method]

    def with_impulse_alignment(self, tau: float) -> "TimeScheme":
        """Smallest refinement of n_steps that places ``tau`` on the time grid.

        The impulse is applied as a state replacement between steps, so tau
        must be an exact step multiple.  tau / t_final is snapped to a nearby
        rational and n_steps is rounded up to a multiple of its denominator.
        """
        if not 0.0 < tau < self.t_final:
            raise ValueError(f"tau must lie in (0, {self.t_final}), got {tau}")
        frac = Fraction(tau / self.t_final).limit_denominator(10**6)
        q = frac.denominator
        n = ceil(self.n_steps / q) * q
        scheme = TimeScheme(self.t_final, n, self.method)
        k = round(tau / scheme.dt)
        if not isclose(k * scheme.dt, tau, rel_tol=1e-9, abs_tol=1e-12):
            raise ValueError(f"tau={tau} cannot be aligned to the time grid")
        return scheme


def _make_step(d: Discretization, dt: float, theta: float) -> Callable[[State], State]:
    """Factor (W - theta dt K) once and return the one-step map."""
    n = d.grid.n_dof
    ab = np.zeros((2, n))
    ab[0, 1:] = -theta * dt * d.k_off
    ab[1, :] = d.w - theta * dt * d.k_main
    factor = cholesky_banded(ab, lower=False)
    c = (1.0 - theta) * dt

    def step(u: State) -> State:
        rhs = (d.w + c * d.k_main) * u
        if c != 0.0:
            rhs[:-1] += c * d.k_off * u[1:]
            rhs[1:] += c * d.k_off * u[:-1]
        return cho_solve_banded((factor, False), rhs)

    return step


def steps_for(t: float, scheme: TimeScheme) -> tuple[int, float]:
    """Number of steps and actual dt used to reach time ``t``.

    When t is not an exact multiple of the target dt the count is rounded up
    and the step slightly shrunk, so the final time is always hit exactly.
    """
    if t < 0:
        raise ValueError(f"t must be nonnegative, got {t}")
    if t == 0:
        return 0, scheme.dt
    ratio = t / scheme.dt
    n = round(ratio)
    if n < 1 or not isclose(ratio, n, rel_tol=1e-9, abs_tol=1e-12):
        n = max(1, ceil(ratio))
    return int(n), t / int(n)


@dataclass(frozen=True)
class Trajectory:
    """Stored snapshots of one run; ``states[impulse_index]`` is post-jump.

    The left limit at the impulse time is kept separately so that both sides
    of the jump survive in exports.
    """

    times: np.ndarray
    states: np.ndarray
    impulse_index: Optional[int] = None
    pre_impulse_state: Optional[np.ndarray] = None

    @property
    def final_state(self) -> State:
        return self.states[-1]

    def to_csv(self, path) -> None:
        """Write rows t, x_0..x_nx; the impulse time appears twice (left
        limit first, then the post-jump state)."""
        n = self.states.shape[1]
        table = np.column_stack([self.times, self.states])
        j = self.impulse_index
        if j is not None:
            table = np.insert(table, j, np.r_[self.times[j], self.pre_impulse_state], axis=0)
        _write_csv(path, "t," + ",".join(f"x_{i}" for i in range(n)), table)


def _write_csv(path, header: str, table) -> None:
    """Write ``header`` and one line per row of ``table``, each entry as the
    repr of its float value."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        for row in np.asarray(table, dtype=float):
            fh.write(",".join(map(repr, row.tolist())) + "\n")


def _march(
    u: State,
    d: Discretization,
    n: int,
    dt: float,
    theta: float,
    stride: int,
    k: Optional[int] = None,
    jump: Optional[State] = None,
) -> Trajectory:
    """Take ``n`` theta-steps of size ``dt`` from ``u``.

    Records step 0, every ``stride``-th step and step ``n``.  With ``k`` set,
    ``jump`` is added right after step k and both sides of it are recorded.
    """
    step = _make_step(d, dt, theta)
    times = [0.0]
    states = [u.copy()]
    impulse_index = pre = None
    for j in range(1, n + 1):
        u = step(u)
        if j == k:
            pre = u.copy()
            u = u + jump
            impulse_index = len(times)
        if j % stride == 0 or j == n or j == k:
            times.append(j * dt)
            states.append(u.copy())
    return Trajectory(
        times=np.array(times),
        states=np.array(states),
        impulse_index=impulse_index,
        pre_impulse_state=pre,
    )


def evolve(u0: State, t: float, d: Discretization, scheme: TimeScheme) -> State:
    """Propagate ``u0`` over a time span ``t`` (the discrete semigroup)."""
    u = _check_length(u0, d, "u0").copy()
    if not np.all(np.isfinite(u)):
        raise ValueError("initial state contains non-finite entries")
    n, dt = steps_for(t, scheme)
    if n == 0:
        return u
    return _march(u, d, n, dt, scheme.theta, stride=n).final_state


def evolve_trajectory(
    u0: State, d: Discretization, scheme: TimeScheme, stride: int = 1
) -> Trajectory:
    """Run over [0, t_final] recording every ``stride``-th step (and the ends)."""
    if stride < 1:
        raise ValueError(f"stride must be at least 1, got {stride}")
    u = _check_length(u0, d, "u0")
    if not np.all(np.isfinite(u)):
        raise ValueError("initial state contains non-finite entries")
    return _march(u, d, scheme.n_steps, scheme.dt, scheme.theta, stride)


def solve_impulsive(
    psi0: State,
    h: State,
    tau: float,
    d: Discretization,
    mask: SubdomainMask,
    scheme: TimeScheme,
    stride: int = 1,
) -> Trajectory:
    """Mild solution with a single interior impulse at time ``tau``.

    The state evolves freely on [0, tau), jumps by the masked control
    (boundary entries are left untouched), then evolves freely to t_final.
    By linearity the final state equals evolve(psi0, t_final) +
    evolve(mask * h, t_final - tau).
    """
    if stride < 1:
        raise ValueError(f"stride must be at least 1, got {stride}")
    if not 0.0 < tau < scheme.t_final:
        raise ValueError(f"tau must lie in (0, {scheme.t_final}), got {tau}")
    dt = scheme.dt
    k = round(tau / dt)
    if k < 1 or not isclose(k * dt, tau, rel_tol=1e-9, abs_tol=1e-12):
        raise ValueError(
            f"tau={tau} is off the time grid (dt={dt}); "
            "use TimeScheme.with_impulse_alignment"
        )
    u = _check_length(psi0, d, "psi0")
    h = _check_length(h, d, "h")
    if not (np.all(np.isfinite(u)) and np.all(np.isfinite(h))):
        raise ValueError("initial state or control contains non-finite entries")
    return _march(u, d, scheme.n_steps, dt, scheme.theta, stride, k, mask.mask * h)
