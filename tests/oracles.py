"""Independent dense oracles for the test suite.

These deliberately avoid the library's time steppers: the semigroup and the
theta-scheme propagators are built from a dense symmetric eigendecomposition,
quadrature uses scipy, and derivatives come from central differences, so each
check pits two separate routes against each other.  The exceptions are
``reference_march``, a plain stepping loop through scipy's public banded
Cholesky routines, and ``reference_frequency``, a plain per-snapshot loop
of the frequency quotient; the library must reproduce both bit for bit.
"""

from math import isclose

import numpy as np
from scipy.integrate import quad
from scipy.linalg import cho_solve_banded, cholesky_banded

_THETA = {"crank_nicolson": 0.5, "backward_euler": 1.0}


def reference_march(u, d, n, dt, theta, k=None, jump=None):
    """Every state of ``n`` theta-steps of size ``dt`` from ``u``.

    Each step forms (W + (1 - theta) dt K) u and solves with the banded
    Cholesky factor of W - theta dt K through ``cho_solve_banded``.  With
    ``k`` set, ``jump`` is added right after step k.  Returns the (n + 1)
    states as rows (row k post-jump) and the state just before the jump.
    """
    ab = np.zeros((2, d.grid.n_dof))
    ab[0, 1:] = -theta * dt * d.k_off
    ab[1, :] = d.w - theta * dt * d.k_main
    factor = cholesky_banded(ab, lower=False)
    c = (1.0 - theta) * dt
    u = np.array(u, dtype=float)
    states, pre = [u], None
    for j in range(1, n + 1):
        rhs = (d.w + c * d.k_main) * u
        if c != 0.0:
            rhs[:-1] += c * d.k_off * u[1:]
            rhs[1:] += c * d.k_off * u[:-1]
        u = cho_solve_banded((factor, False), rhs)
        if j == k:
            pre = u
            u = u + jump
        states.append(u)
    return np.array(states), pre


def reference_frequency(traj, wp, d):
    """|F|, the direct frequency and the norm-decay frequency along ``traj``,
    one snapshot at a time.

    Each snapshot is weighted, F = U exp(Phi / 2), and its quotient is formed
    from the interior stencil and one-sided boundary derivatives over the
    weighted product sum_i w_i F_i^2.  Raises ValueError when |F| vanishes.
    """
    x, dx = d.grid.nodes, d.grid.dx
    n_t = len(traj.times)
    norm_f, direct = np.empty(n_t), np.empty(n_t)
    for j, t in enumerate(traj.times):
        f = traj.states[j] * np.exp(0.5 * wp.value(x, t))
        nf2 = float(np.dot(f * f, d.w))
        if nf2 <= 0.0:
            raise ValueError(f"frequency undefined: |F| vanishes at t={t}")
        norm_f[j] = np.sqrt(nf2)
        interior = (f[2:] - 2.0 * f[1:-1] + f[:-2]) / dx**2 + wp.eta(x[1:-1], t) * f[1:-1]
        dfa = (-3.0 * f[0] + 4.0 * f[1] - f[2]) / (2.0 * dx)
        dfb = (3.0 * f[-1] - 4.0 * f[-2] + f[-3]) / (2.0 * dx)
        row_a = dfa + 0.5 * wp.time_deriv(x[0], t) * f[0]
        row_b = -dfb + 0.5 * wp.time_deriv(x[-1], t) * f[-1]
        num = -(dx * np.dot(interior, f[1:-1]) + row_a * f[0] + row_b * f[-1])
        direct[j] = num / nf2
    oracle = -0.5 * np.gradient(np.log(norm_f**2), traj.times)
    return norm_f, direct, oracle


def dense_generator(d):
    """A = W^{-1} K as a dense matrix."""
    return d.k_matrix / d.w[:, None]


def _symmetric_eigen(d):
    """W^{-1/2} K W^{-1/2} = V diag(lam) V^T, plus W^{1/2} as a vector.

    In the coordinates y = V^T W^{1/2} u the weighted inner product is the
    Euclidean one and every propagator of A = W^{-1} K is diagonal."""
    sqw = np.sqrt(d.w)
    s = d.k_matrix / sqw[:, None] / sqw[None, :]
    lam, v = np.linalg.eigh((s + s.T) / 2.0)
    return lam, v, sqw


def dense_semigroup(d, t):
    """exp(t A) for A = W^{-1} K via eigendecomposition of the symmetrized
    operator W^{1/2} A W^{-1/2}."""
    lam, v, sqw = _symmetric_eigen(d)
    core = (v * np.exp(lam * t)) @ v.T
    return core / sqw[:, None] * sqw[None, :]


def dense_gramian(d, mask, span):
    """exp(span A) diag(mask) exp(span A) from the eigendecomposition route."""
    e = dense_semigroup(d, span)
    return e @ np.diag(mask.mask) @ e


class ThetaOracle:
    """Dense theta-scheme propagators of W du/dt = K u for one time scheme.

    One step of the scheme multiplies the modal coefficients by
    r(lam dt) = (1 + (1 - theta) lam dt) / (1 - theta lam dt), so n steps are
    diag(r(lam dt)^n) in the symmetric coordinates ``to_modal`` maps to.  No
    linear system is solved and no step is taken, so this route shares
    nothing with the library's stepping beyond the (W, K) pair.
    """

    def __init__(self, d, scheme):
        self.lam, self.v, self.sqw = _symmetric_eigen(d)
        self.dt = scheme.t_final / scheme.n_steps
        self.theta = _THETA[scheme.method]

    def gain(self, t):
        """Diagonal of the propagator over a span ``t`` (a whole number of
        steps) in modal coordinates."""
        n = round(t / self.dt)
        if not isclose(n * self.dt, t, rel_tol=1e-9, abs_tol=1e-12):
            raise ValueError(f"span {t} is not a whole number of steps of {self.dt}")
        z = self.lam * self.dt
        return ((1.0 + (1.0 - self.theta) * z) / (1.0 - self.theta * z)) ** n

    def to_modal(self, u):
        return self.v.T @ (self.sqw * np.asarray(u, dtype=float))

    def propagator(self, t):
        """The propagator over ``t`` as a dense matrix on nodal states."""
        core = (self.v * self.gain(t)) @ self.v.T
        return core / self.sqw[:, None] * self.sqw[None, :]

    def gramian(self, mask, span):
        """Lambda = E(span) B E(span) in modal coordinates; B keeps the nodes
        of ``mask`` and commutes with W, so it becomes V^T diag(mask) V."""
        g = self.gain(span)
        m = (self.v.T * mask.mask) @ self.v
        return g[:, None] * m * g[None, :]


def oracle_cg_iterations(a, b, tol):
    """Iterations the printed CG recurrence takes on the dense SPD system
    a f = -b from f = 0, stopping on |g_k| / |g_0| <= tol."""
    g = np.array(b, dtype=float)
    w = g.copy()
    g0 = g_norm = np.linalg.norm(g)
    for k in range(1, 10 * len(g) + 1):
        gbar = a @ w
        rho = g_norm**2 / (gbar @ w)
        g = g - rho * gbar
        new_norm = np.linalg.norm(g)
        if new_norm / g0 <= tol:
            return k
        w = g + (new_norm / g_norm) ** 2 * w
        g_norm = new_norm
    raise RuntimeError(f"dense CG did not reach tol={tol} in {k} iterations")


def observability_constant(oracle, mask, tau, t_final, eps):
    """Smallest kappa for which the cost bound holds for every datum.

    The cost-weighted minimizer costs <b, (kappa^2 G + eps^2)^{-1} b> with
    b = E(T) psi0 and G = E(T - tau) B E(T - tau), so the bound
    |h|^2 / kappa^2 + |Psi(T)|^2 / eps^2 <= |psi0|^2 holds for all psi0 iff
    kappa^2 G - (E(T)^2 - eps^2 I) is positive semidefinite.  That is
    monotone in kappa; bisection on the sign of its smallest eigenvalue
    returns the feasible end of a bracket of relative width 1e-9.  The
    bracket [1, 1e5] keeps the roundoff in kappa^2 |G| below eps^2 for the
    penalties the tests use, so the sign can be trusted.
    """
    gram = oracle.gramian(mask, t_final - tau)
    lhs = np.diag(oracle.gain(t_final) ** 2 - eps**2)

    def feasible(kappa):
        return np.linalg.eigvalsh(kappa**2 * gram - lhs)[0] >= 0.0

    lo, hi = 1.0, 1e5
    if feasible(lo) or not feasible(hi):
        raise ValueError(f"observability constant not bracketed by [{lo}, {hi}]")
    while hi / lo - 1.0 > 1e-9:
        mid = np.sqrt(lo * hi)
        lo, hi = (lo, mid) if feasible(mid) else (mid, hi)
    return hi


def assemble_operator(apply_fn, n):
    """Dense matrix of a linear map by probing the basis vectors."""
    m = np.zeros((n, n))
    for i in range(n):
        e = np.zeros(n)
        e[i] = 1.0
        m[:, i] = apply_fn(e)
    return m


def time_weight_quadrature(t_final, hbar, c0, lo, hi):
    """scipy quadrature of the weight integral, the oracle for the closed form."""
    val, _ = quad(lambda t: (t_final - t + hbar) ** (-1.0 - c0), lo, hi,
                  epsabs=1e-14, epsrel=1e-12)
    return val


def central_difference(fun, x0, direction, h):
    """Directional derivative of a scalar function by central differences."""
    return (fun(x0 + h * direction) - fun(x0 - h * direction)) / (2.0 * h)
