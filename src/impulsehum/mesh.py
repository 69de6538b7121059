"""Uniform grid, weighted state space, and the semi-discrete heat operator.

The continuous state couples an interior temperature profile on (a, b) with
two boundary temperatures that evolve by their own flux-driven ODEs.  A state
vector holds one value per grid node; entries 0 and nx are the boundary
unknowns, entries 1..nx-1 sample the interior profile.  The natural inner
product is the interior L2 product plus unit weights on the two traces, which
discretizes to a single diagonal weight vector ``w``.
"""

from __future__ import annotations

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


@dataclass(frozen=True)
class Grid:
    """Uniform mesh of [a, b] with ``nx`` cells and ``nx + 1`` nodes."""

    a: float
    b: float
    nx: int

    def __post_init__(self) -> None:
        if self.nx < 2:
            raise ConfigError("nx", f"must be at least 2, got {self.nx}")
        if not self.a < self.b:
            raise ConfigError("b", f"need a < b, got a={self.a}, b={self.b}")

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
    ``step_cache`` holds the factored theta-step per (dt, theta); it belongs
    to this pair and is filled by the time stepper.
    """

    grid: Grid
    w: np.ndarray
    k_main: np.ndarray
    k_off: np.ndarray
    step_cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @cached_property
    def k_matrix(self) -> np.ndarray:
        """Dense copy of K (small grids / oracle comparisons)."""
        n = self.grid.n_dof
        k = np.zeros((n, n))
        i = np.arange(n)
        k[i, i] = self.k_main
        j = np.arange(n - 1)
        k[j, j + 1] = self.k_off
        k[j + 1, j] = self.k_off
        return k

    def apply_k(self, u: State) -> State:
        out = self.k_main * u
        out[:-1] += self.k_off * u[1:]
        out[1:] += self.k_off * u[:-1]
        return out

    def apply_a(self, u: State) -> State:
        """Action of the generator A = W^{-1} K."""
        return self.apply_k(u) / self.w


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

    omega_lo: float
    omega_hi: float
    mask: np.ndarray


def subdomain_mask(grid: Grid, omega_lo: float, omega_hi: float) -> SubdomainMask:
    if not (grid.a < omega_lo < omega_hi < grid.b):
        raise ConfigError(
            "omega_lo",
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
    return SubdomainMask(omega_lo=omega_lo, omega_hi=omega_hi, mask=m)


def subdomain_norm(u: State, mask: SubdomainMask, d: Discretization) -> float:
    """Interior L2 norm over the masked nodes, sqrt(sum_i mask_i dx u_i^2)."""
    u = _check_length(u, d, "u")
    if mask.mask.shape != u.shape:
        raise ValueError("mask was built on a different grid")
    return float(np.sqrt(d.grid.dx * np.sum(mask.mask * u * u)))
