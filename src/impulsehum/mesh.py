"""Uniform grid, weighted state space, semi-discrete heat operator and control region.

The continuous state couples an interior temperature profile on (a, b) with
two boundary temperatures that evolve by their own flux-driven ODEs.  A state
vector holds one value per grid node; entries 0 and nx are the boundary
unknowns, entries 1..nx-1 sample the interior profile.  The natural inner
product is the interior L2 product plus unit weights on the two traces, which
discretizes to a single diagonal weight vector ``w``.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

# States are plain arrays of length nx + 1.
State = np.ndarray


class ConfigError(ValueError):
    """Invalid parameter; ``field`` names the ``ExperimentConfig`` entry it
    comes from.  Raised by the library constructors and by config validation."""

    def __init__(self, field_name: str, message: str):
        self.field = field_name
        super().__init__(f"config field '{field_name}': {message}")


def _check_count(field_name: str, value) -> None:
    """A count is a Python or NumPy integer; a float or a bool is refused."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ConfigError(field_name, f"must be an integer, got {value!r}")


@dataclass(frozen=True)
class Grid:
    """Uniform mesh of [a, b] with ``nx`` cells and ``nx + 1`` nodes."""

    a: float
    b: float
    nx: int

    def __post_init__(self) -> None:
        _check_count("nx", self.nx)
        if self.nx < 2:
            raise ConfigError("nx", f"must be at least 2, got {self.nx}")
        if not -np.inf < self.a < np.inf:
            raise ConfigError("a", f"must be finite, got {self.a}")
        if not self.a < self.b:
            raise ConfigError("b", f"need a < b, got a={self.a}, b={self.b}")
        # Python floats: a NumPy float's overflowing subtraction would warn.
        if not float(self.b) - float(self.a) < np.inf:
            raise ConfigError("b", f"need a finite b - a, got a={self.a}, b={self.b}")

    @property
    def dx(self) -> float:
        return (self.b - self.a) / self.nx

    @cached_property
    def nodes(self) -> np.ndarray:
        # linspace pins both endpoint nodes to a and b exactly.
        return np.linspace(self.a, self.b, self.nx + 1)

    @property
    def n_dof(self) -> int:
        return self.nx + 1


@dataclass(frozen=True)
class Discretization:
    """Weighted-symmetric pair (W, K): trajectories solve W du/dt = K u.

    K is symmetric tridiagonal and negative semidefinite with the constant
    vector spanning its kernel; the generator A = W^{-1} K is therefore
    self-adjoint and dissipative in the w-weighted inner product.  The two
    off-diagonals share one storage array, so K is symmetric bit-exactly.
    ``step_cache`` holds the factored theta-steps of the last few
    (dt, theta); it belongs to this pair and is filled by the time stepper.
    """

    grid: Grid
    w: np.ndarray
    k_main: np.ndarray
    k_off: np.ndarray
    step_cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)


def build_discretization(grid: Grid) -> Discretization:
    """Assemble the weight vector and stiffness matrix on ``grid``.

    Interior rows reproduce the standard second difference scaled by the cell
    width, so row i of W du/dt = K u reads du_i/dt = (u_{i+1} - 2 u_i +
    u_{i-1}) / dx^2.  Boundary rows come from a half-cell finite-volume
    lumping of the dynamic conditions:

        (1 + dx/2) u_0'  = (u_1 - u_0) / dx
        (1 + dx/2) u_nx' = -(u_nx - u_{nx-1}) / dx

    which keeps K symmetric, hence A self-adjoint in the discrete product.
    """
    nx, dx = grid.nx, grid.dx
    w = np.full(nx + 1, dx)
    w[0] = w[-1] = 1.0 + dx / 2.0
    k_main = np.full(nx + 1, -2.0 / dx)
    k_main[0] = k_main[-1] = -1.0 / dx
    k_off = np.full(nx, 1.0 / dx)
    return Discretization(grid=grid, w=w, k_main=k_main, k_off=k_off)


def _check_length(u: np.ndarray, d: Discretization, name: str) -> np.ndarray:
    u = np.asarray(u, dtype=float)
    if u.shape != (d.grid.n_dof,):
        raise ValueError(
            f"{name} has shape {u.shape}, expected ({d.grid.n_dof},) for nx={d.grid.nx}"
        )
    return u


def inner(u: State, v: State, d: Discretization) -> float:
    """Weighted inner product sum_i w_i u_i v_i (interior L2 plus traces)."""
    u = _check_length(u, d, "u")
    v = _check_length(v, d, "v")
    # u * v before weighting keeps the bilinear form symmetric bit-exactly.
    return float(np.dot(u * v, d.w))


def norm(u: State, d: Discretization) -> float:
    return float(np.sqrt(inner(u, u, d)))


@dataclass(frozen=True)
class SubdomainMask:
    """0/1 node mask of a closed observation interval strictly inside (a, b)."""

    mask: np.ndarray


def subdomain_mask(grid: Grid, omega_lo: float, omega_hi: float) -> SubdomainMask:
    if not (grid.a < omega_lo < omega_hi < grid.b):
        # omega_hi is at fault only when it alone lies outside (a, b).
        hi_alone = grid.a < omega_lo < grid.b and not grid.a < omega_hi < grid.b
        raise ConfigError(
            "omega_hi" if hi_alone else "omega_lo",
            f"need a < omega_lo < omega_hi < b, got ({omega_lo}, {omega_hi}) "
            f"inside ({grid.a}, {grid.b})"
        )
    x = grid.nodes
    # Closed-interval membership with a roundoff guard on the comparisons;
    # the endpoint nodes are boundary unknowns and never belong to omega.
    pad = 1e-12 * (grid.b - grid.a)
    m = ((x >= omega_lo - pad) & (x <= omega_hi + pad)).astype(float)
    m[0] = m[-1] = 0.0
    if not m.any():
        raise ConfigError(
            "omega_lo",
            f"omega=({omega_lo}, {omega_hi}) contains no interior grid node at nx={grid.nx}"
        )
    return SubdomainMask(m)


def _check_mask(mask: SubdomainMask, d: Discretization) -> None:
    """Refuse a mask whose grid is not ``d``'s."""
    if mask.mask.shape != (d.grid.n_dof,):
        raise ValueError("mask was built on a different grid")


def control_op(v: State, mask: SubdomainMask) -> State:
    """Restrict to the control region: interior nodes of omega keep their
    value, everything else (including both boundary entries) is zeroed."""
    return mask.mask * np.asarray(v, dtype=float)


def subdomain_norm(u: State, mask: SubdomainMask, d: Discretization) -> float:
    """Interior L2 norm over the masked nodes, sqrt(sum_i mask_i dx u_i^2)."""
    u = _check_length(u, d, "u")
    _check_mask(mask, d)
    return float(np.sqrt(d.grid.dx * np.sum(mask.mask * u * u)))
