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
from typing import Callable, Collection, Optional, Sequence

import numpy as np
from scipy.linalg import cholesky_banded, get_lapack_funcs
# No longer called here, but the benchmark's tracer (bench/tracer.py) looks up
# ``evolution.cholesky_banded`` and ``evolution.cho_solve_banded`` by name and
# fails if either is unbound.
from scipy.linalg import cho_solve_banded  # noqa: F401

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


def _step_factor(d: Discretization, dt: float, theta: float) -> np.ndarray:
    """Banded Cholesky factor of W - theta dt K, computed once per
    (dt, theta) and kept in ``d.step_cache``."""
    factor = d.step_cache.get((dt, theta))
    if factor is None:
        ab = np.zeros((2, d.grid.n_dof))
        ab[0, 1:] = -theta * dt * d.k_off
        ab[1, :] = d.w - theta * dt * d.k_main
        factor = d.step_cache[(dt, theta)] = cholesky_banded(ab, lower=False)
    return factor


def _make_step(
    d: Discretization, dt: float, theta: float, ndim: int
) -> Callable[[State], State]:
    """The one-step map on states of ``ndim`` dimensions (a block holds one
    state per column).

    The right-hand side is formed with the same operations in the same order
    for every column, and LAPACK's pbtrs solves a block column by column, so
    each column is bit-identical to stepping it alone.
    """
    factor = _step_factor(d, dt, theta)
    (pbtrs,) = get_lapack_funcs(("pbtrs",), (factor,))
    c = (1.0 - theta) * dt
    col = (-1,) + (1,) * (ndim - 1)
    diag = (d.w + c * d.k_main).reshape(col)
    off = (c * d.k_off).reshape(col)

    def step(u: State) -> State:
        rhs = diag * u
        if c != 0.0:
            rhs[:-1] += off * u[1:]
            rhs[1:] += off * u[:-1]
        x, info = pbtrs(factor, rhs, overwrite_b=True)
        if info != 0:
            raise ValueError(f"illegal value in argument {-info} of LAPACK pbtrs")
        return x

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
    keep: Collection[int],
    k: Optional[int] = None,
    jump: Optional[State] = None,
) -> Trajectory:
    """Take ``n`` theta-steps of size ``dt`` from ``u``.

    Records the states after the step counts in ``keep`` (0 is ``u``
    itself), and nothing else.  With ``k`` set, ``jump`` is added right
    after step k and both sides of it are recorded.
    """
    step = _make_step(d, dt, theta, u.ndim)
    times, states = [], []
    if 0 in keep:
        times.append(0.0)
        states.append(u.copy())
    impulse_index = pre = None
    for j in range(1, n + 1):
        u = step(u)
        if j == k:
            pre = u.copy()
            u = u + jump
            impulse_index = len(times)
        if j in keep or j == k:
            times.append(j * dt)
            states.append(u.copy())
    # The step is linear with finite coefficients, so a non-finite entry
    # (overflow) persists to the last state once it appears.
    if not np.all(np.isfinite(u)):
        raise ValueError("state became non-finite while stepping")
    return Trajectory(
        times=np.array(times),
        states=np.array(states),
        impulse_index=impulse_index,
        pre_impulse_state=pre,
    )


def _strided(n: int, stride: int) -> frozenset:
    """Step counts 0, stride, 2 stride, ... and n."""
    return frozenset(range(0, n + 1, stride)) | {n}


def _evolve_to(
    u0: State, targets: Sequence[tuple[int, float]], d: Discretization, theta: float
) -> list[State]:
    """``u0`` after each ``(n, dt)`` target (as :func:`steps_for` gives
    them), in target order.

    ``u0`` is one state or a block of shape (n_dof, m), one state per
    column.  Targets whose dt agree bitwise share one march, which records
    only their step counts, so each result equals evolving to that target
    alone, bit for bit.
    """
    u = np.array(u0, dtype=float)
    if u.ndim != 2 or u.shape[0] != d.grid.n_dof:
        u = _check_length(u, d, "u0")
    if not np.all(np.isfinite(u)):
        raise ValueError("initial state contains non-finite entries")
    counts: dict[float, set] = {}
    for n, dt in targets:
        if n > 0:
            counts.setdefault(dt, set()).add(n)
    at = {}
    for dt, keep in counts.items():
        traj = _march(u, d, max(keep), dt, theta, keep)
        at.update(((n, dt), state) for n, state in zip(sorted(keep), traj.states))
    return [at[n, dt] if n > 0 else u.copy() for n, dt in targets]


def evolve(u0: State, t: float, d: Discretization, scheme: TimeScheme) -> State:
    """Propagate ``u0`` over a time span ``t`` (the discrete semigroup).

    ``u0`` is one state or a block of shape (n_dof, m) holding one state per
    column; each column of the result equals evolving that column alone.
    """
    return _evolve_to(u0, [steps_for(t, scheme)], d, scheme.theta)[0]


def evolve_trajectory(
    u0: State, d: Discretization, scheme: TimeScheme, stride: int = 1
) -> Trajectory:
    """Run over [0, t_final] recording every ``stride``-th step (and the ends)."""
    if stride < 1:
        raise ValueError(f"stride must be at least 1, got {stride}")
    u = _check_length(u0, d, "u0")
    if not np.all(np.isfinite(u)):
        raise ValueError("initial state contains non-finite entries")
    n = scheme.n_steps
    return _march(u, d, n, scheme.dt, scheme.theta, _strided(n, stride))


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
    n = scheme.n_steps
    return _march(u, d, n, dt, scheme.theta, _strided(n, stride), k, mask.mask * h)
