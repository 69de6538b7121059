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
from functools import cached_property
from math import ceil, inf
from typing import Callable, Collection, Iterable, Iterator, Optional, Sequence

import numpy as np
from scipy.linalg import cholesky_banded, get_lapack_funcs
# No longer called here, but the benchmark's tracer (bench/tracer.py) looks up
# ``evolution.cholesky_banded`` and ``evolution.cho_solve_banded`` by name and
# fails if either is unbound.
from scipy.linalg import cho_solve_banded  # noqa: F401

from .mesh import ConfigError, Discretization, State, SubdomainMask, _check_length

_THETA = {"crank_nicolson": 0.5, "backward_euler": 1.0}


@dataclass(frozen=True)
class TimeScheme:
    """Step-size policy: target dt = t_final / n_steps and the step family."""

    t_final: float
    n_steps: int
    method: str = "crank_nicolson"

    def __post_init__(self) -> None:
        if not self.t_final > 0:
            raise ConfigError("t_final", f"must be positive, got {self.t_final}")
        if self.n_steps < 1:
            raise ConfigError("n_steps", f"must be at least 1, got {self.n_steps}")
        if self.method not in _THETA:
            raise ConfigError("method", f"must be one of {sorted(_THETA)}, got {self.method!r}")

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
        rational and n_steps is rounded up to a multiple of its denominator;
        a refinement past twice n_steps is refused rather than silently
        multiplying the work, and so is a tau the refined grid reads as its
        final step (:func:`_impulse_step`).
        """
        if not 0.0 < tau < self.t_final:
            raise ConfigError("tau", f"must lie in (0, {self.t_final}), got {tau}")
        frac = Fraction(tau / self.t_final).limit_denominator(10**6)
        q = frac.denominator
        n = ceil(self.n_steps / q) * q
        if n > 2 * self.n_steps:
            raise ConfigError(
                "tau", f"{tau} sits on the time grid only with {n} steps, more than twice "
                f"n_steps={self.n_steps} (grid spacing t_final/n_steps={self.dt})"
            )
        scheme = TimeScheme(self.t_final, n, self.method)
        _impulse_step(tau, scheme)
        return scheme


def _grid_step(t: float, dt: float) -> Optional[int]:
    """The step count k >= 1 with |t / dt - k| <= 1e-9 k, else None."""
    k = round(t / dt)
    return k if k >= 1 and abs(t / dt - k) <= 1e-9 * k else None


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
    d: Discretization, dt: float, theta: float, shape: tuple[int, ...]
) -> Callable[[State], State]:
    """The one-step map on states of ``shape``: one state, or a block of
    shape (n_dof, m) holding one state per column.

    The columns are copied into one buffer with a zero after each (and one
    before the first), and entry i of each column is formed as
    (diag_i u_i + off_i u_{i+1}) + off_{i-1} u_{i-1}: one product of the
    coefficients with a strided view of the neighbours, then two adds.  A
    coefficient that faces a padding zero is -0.0, so its term is -0.0,
    which leaves every float bitwise unchanged (+0.0 would turn a -0.0 entry
    into +0.0).  Backward Euler (c = 0) skips the neighbour terms: their
    coefficients are zeros, whose products are +0.0 for some u.  One pbtrs
    call solves all columns, so each column is bit-identical to stepping it
    alone, signed zeros included.  The result is the step's own buffer,
    overwritten by its next call.
    """
    factor = _step_factor(d, dt, theta)
    (pbtrs,) = get_lapack_funcs(("pbtrs",), (factor,))
    c = (1.0 - theta) * dt
    n, m = d.grid.n_dof, (shape[1] if len(shape) == 2 else 1)
    coef = np.full((3, 1, n), -0.0)
    coef[0, :, 1:] = coef[2, :, :-1] = c * d.k_off
    coef[1] = d.w + c * d.k_main
    # window[k, j, i] = padded[j (n + 1) + i + k] is the lower (k = 0), own
    # and upper neighbour of entry i of column j.
    padded = np.zeros(1 + m * (n + 1))
    cols = padded[1:].reshape(m, n + 1)[:, :n].T.reshape(shape)
    s = padded.itemsize
    window = np.ndarray((3, m, n), buffer=padded, strides=(s, (n + 1) * s, s))
    terms = np.empty((3, m, n))
    lower, own, upper = terms
    rhs = own.T.reshape(shape)

    def step(u: State) -> State:
        cols[...] = u
        if c != 0.0:
            np.multiply(coef, window, terms)
            np.add(own, upper, own)
            np.add(own, lower, own)
        else:
            np.multiply(coef[1], window[1], own)
        x, info = pbtrs(factor, rhs, overwrite_b=True)
        if info != 0:
            raise ValueError(f"illegal value in argument {-info} of LAPACK pbtrs")
        return x

    return step


def steps_for(t: float, scheme: TimeScheme) -> tuple[int, float]:
    """Number of steps and actual dt used to reach time ``t``.

    A t on the time grid (:func:`_grid_step`) takes k steps of the scheme's
    dt and is reached as k dt, within 1e-9 relative.  Off the grid the count
    is rounded up and the step slightly shrunk, so t is hit exactly.
    """
    if not 0 <= t < inf:
        raise ValueError(f"t must be finite and nonnegative, got {t}")
    if t == 0:
        return 0, scheme.dt
    if t / scheme.dt == inf:
        raise ValueError(f"t={t} is more steps of dt={scheme.dt} than a float can count")
    k = _grid_step(t, scheme.dt)
    if k is not None:
        return k, scheme.dt
    n = max(1, ceil(t / scheme.dt))
    return n, t / n


@dataclass(frozen=True)
class Trajectory:
    """Stored snapshots of one run, one row per snapshot in time order.

    An impulsive run holds its impulse time twice: the left limit first,
    then the post-jump state.
    """

    times: np.ndarray
    states: np.ndarray

    @property
    def final_state(self) -> State:
        return self.states[-1]

    @cached_property
    def _csv_rows(self) -> tuple[str, ...]:
        """The lines :meth:`to_csv` writes below the header, formatted on
        first use and kept: a trajectory passed as the ``head`` of several
        files is formatted once."""
        return tuple(_csv_lines(self._table()))

    def _table(self) -> np.ndarray:
        return np.column_stack([self.times, self.states])

    def to_csv(self, path, head: Optional["Trajectory"] = None) -> None:
        """Write rows t, x_0..x_nx, one per snapshot.

        With ``head``, its rows (:attr:`_csv_rows`) come first, so
        ``post_impulse_flow(pre, ...).to_csv(path, head=pre)`` writes the
        bytes of the matching ``solve_impulsive(...).to_csv(path)``.
        """
        n = self.states.shape[1]
        _write_csv(path, "t," + ",".join(f"x_{i}" for i in range(n)), self._table(),
                   head._csv_rows if head is not None else ())


def _csv_lines(table) -> Iterator[str]:
    """One line per row of ``table``, each entry as the repr of its float
    value."""
    for row in np.asarray(table, dtype=float):
        yield ",".join(map(repr, row.tolist())) + "\n"


def _write_csv(path, header: str, table, head: Iterable[str] = ()) -> None:
    """Write ``header``, the lines in ``head``, then the lines of ``table``
    one row at a time."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        fh.writelines(head)
        fh.writelines(_csv_lines(table))


def _march(
    u: State,
    d: Discretization,
    n: int,
    dt: float,
    theta: float,
    keep: Collection[int],
    start: int = 0,
) -> Trajectory:
    """Step ``u``, the state at step count ``start``, with theta-steps of
    size ``dt`` up to step count ``n``.

    Records the state at each step count j in ``keep`` (``start`` is ``u``
    itself) at time j dt, and nothing else.
    """
    step = _make_step(d, dt, theta, u.shape)
    times, states = [], []
    if start in keep:
        times.append(start * dt)
        states.append(u.copy())
    for j in range(start + 1, n + 1):
        u = step(u)
        if j in keep:
            times.append(j * dt)
            states.append(u.copy())
    # The step is linear with finite coefficients, so a non-finite entry
    # (overflow) persists to the last state once it appears.
    if not np.all(np.isfinite(u)):
        raise ValueError("state became non-finite while stepping")
    return Trajectory(times=np.array(times), states=np.array(states))


def _strided(n: int, stride: int) -> frozenset:
    """Step counts 0, stride, 2 stride, ... and n."""
    if stride < 1:
        raise ValueError(f"stride must be at least 1, got {stride}")
    return frozenset(range(0, n + 1, stride)) | {n}


def _check_state(u: State, d: Discretization, name: str, block: bool = False) -> np.ndarray:
    """``u`` as a float array, which must hold one state of shape (n_dof,)
    or, with ``block``, also (n_dof, m) with m >= 1, one state per column;
    every entry must be finite."""
    u = np.asarray(u, dtype=float)
    if not (block and u.ndim == 2 and u.shape[0] == d.grid.n_dof and u.shape[1] > 0):
        u = _check_length(u, d, name)
    if not np.all(np.isfinite(u)):
        raise ValueError(f"{name} contains non-finite entries")
    return u


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
    u = _check_state(u0, d, "u0", block=True)
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
    u = _check_state(u0, d, "u0")
    n = scheme.n_steps
    return _march(u, d, n, scheme.dt, scheme.theta, _strided(n, stride))


def _impulse_step(tau: float, scheme: TimeScheme) -> int:
    """The impulse's step count k, 1 <= k <= n_steps - 1, with tau = k dt
    as :func:`_grid_step` reads it; any other tau, one read as the final
    step included, is a ConfigError on tau."""
    if not 0.0 < tau < scheme.t_final:
        raise ConfigError("tau", f"tau must lie in (0, {scheme.t_final}), got {tau}")
    k = _grid_step(tau, scheme.dt)
    if k is None or k >= scheme.n_steps:
        raise ConfigError(
            "tau", f"{tau} is off the time grid or at its final step; it must be k dt with "
            f"0 < k < {scheme.n_steps} (dt={scheme.dt}, see TimeScheme.with_impulse_alignment)"
        )
    return k


def pre_impulse_flow(
    psi0: State, tau: float, d: Discretization, scheme: TimeScheme, stride: int = 1
) -> Trajectory:
    """Free flow of ``psi0`` up to the impulse at ``tau`` = k dt: every
    ``stride``-th step of 0..k, and step k, the impulse's left limit,
    always.

    It does not depend on the control, so one run serves every control
    given to :func:`post_impulse_flow`.
    """
    k = _impulse_step(tau, scheme)
    u = _check_state(psi0, d, "psi0")
    keep = _strided(scheme.n_steps, stride) | {k}
    return _march(u, d, k, scheme.dt, scheme.theta, keep)


def post_impulse_flow(
    pre: Trajectory,
    h: State,
    d: Discretization,
    mask: SubdomainMask,
    scheme: TimeScheme,
    stride: int = 1,
) -> Trajectory:
    """Flow on [tau, t_final] after the masked control ``h`` jumps the last
    state of ``pre`` (from :func:`pre_impulse_flow`): the post-jump state
    at step k, then every ``stride``-th step and the last, at the times
    j dt of the whole run.
    """
    k = _impulse_step(pre.times[-1], scheme)
    h = _check_state(h, d, "h")
    n = scheme.n_steps
    keep = _strided(n, stride) | {k}
    return _march(pre.final_state + mask.mask * h, d, n, scheme.dt, scheme.theta, keep,
                  start=k)


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
    evolve(mask * h, t_final - tau).  Its rows are those of
    :func:`pre_impulse_flow` then :func:`post_impulse_flow`, so tau appears
    twice, left limit first; several controls for one ``psi0`` can share
    the first.
    """
    pre = pre_impulse_flow(psi0, tau, d, scheme, stride)
    post = post_impulse_flow(pre, h, d, mask, scheme, stride)
    return Trajectory(times=np.concatenate([pre.times, post.times]),
                      states=np.concatenate([pre.states, post.states]))
