"""The library against the continuous control problem it discretizes.

Every other oracle solves the same discrete system as the library; these
pose the problem on the closed-form modes of the continuous bar
(``oracles.continuum_modes``), so the distance between the two is a checked
fact.  At the default config the continuum's numbers are the same to the
digits pinned here with 61 to 121 modes.
"""

import numpy as np
import pytest

from impulsehum import (ExperimentConfig, Grid, HumConfig, TimeScheme, build_discretization,
                        cg_solve, initial_state, subdomain_mask)

from oracles import (ThetaOracle, continuum_hum, continuum_modes, gauss_legendre,
                     observability_constant, oracle_cg_iterations)

CFG = ExperimentConfig()


def _default_continuum():
    """G, the gains of E(T) and the sine datum's coefficients at the default
    config."""
    return continuum_hum(
        CFG.a, CFG.b, (CFG.omega_lo, CFG.omega_hi), CFG.tau, CFG.t_final,
        lambda x: CFG.psi0_amplitude * np.sin(np.pi * (x - CFG.a) / (CFG.b - CFG.a)),
    )


def test_continuum_modes_are_orthonormal():
    # Orthonormal in L2(a, b) x R^2 by quadrature (the closed-form norms
    # make no use of it); the slowest non-constant rate is 1.70705.
    lam, modes = continuum_modes(0.0, 1.0, 81)
    x, w = gauss_legendre(0.0, 1.0, 600)
    inside, ends = modes(x), modes([0.0, 1.0])
    gram = (inside * w) @ inside.T + ends @ ends.T
    assert np.abs(gram - np.eye(81)).max() <= 1e-11
    assert lam[0] == 0.0 and np.all(np.diff(lam) > 0.0)
    assert lam[1] == pytest.approx(1.70705, abs=5e-6)


def test_continuum_control_of_the_sine_datum():
    # |h| and |Psi(T)| of the penalized solve at eps = 1e-2, 1e-3, 1e-4.  CG
    # on the modal system takes the library's 4 / 4 / 5 iterations, so the
    # printed reference counts (6, 10, 25) are not a discretisation artifact.
    gram, gain, coef = _default_continuum()
    rhs = gain * coef
    controls, finals, iterations = [], [], []
    for eps in CFG.epsilons:
        op = gram + eps * np.eye(len(rhs))
        f = np.linalg.solve(op, -rhs)
        controls.append(np.sqrt(f @ gram @ f))
        finals.append(eps * np.linalg.norm(f))
        iterations.append(oracle_cg_iterations(op, rhs, CFG.tol))
    assert controls == pytest.approx([1.015484, 1.369702, 2.647131], rel=1e-5)
    assert finals == pytest.approx([0.088659, 0.074157, 0.065234], rel=1e-5)
    assert iterations == [4, 4, 5]


def test_library_control_norm_error_is_first_order():
    # The library's |h| against the continuum's (Crank-Nicolson, 2000 steps,
    # tol 1e-12, eps = 1e-2): relative error 7.5e-3 at nx = 100 and 3.8e-3
    # at nx = 200.  Halving dx halves it, the first order of the node mask
    # for omega; a second-order B must change this pin deliberately.
    gram, gain, coef = _default_continuum()
    eps = CFG.epsilons[0]
    f = np.linalg.solve(gram + eps * np.eye(len(coef)), -gain * coef)
    exact = np.sqrt(f @ gram @ f)
    errors = []
    for nx in (100, 200):
        grid = Grid(CFG.a, CFG.b, nx)
        sol = cg_solve(initial_state(CFG, grid),
                       HumConfig(epsilon=eps, tau=CFG.tau, t_final=CFG.t_final, tol=1e-12),
                       build_discretization(grid), subdomain_mask(grid, CFG.omega_lo, CFG.omega_hi),
                       TimeScheme(CFG.t_final, 2000, CFG.method))
        assert sol.converged
        errors.append(abs(sol.control_norm - exact) / exact)
    assert 1.8 <= errors[0] / errors[1] <= 2.2, errors


def test_observability_constant_of_the_continuum():
    # kappa_obs at eps = 1e-2 is 9170.844 on the continuum; backward Euler
    # at nx = 400 and the default 200 steps reads it within 5 % (9530).  The
    # discrete one keeps its 81 slowest modes, as the continuum does: the
    # others decay by 1e-84 or more over T - tau, and all 401 modes give the
    # same value to the bisection's 1e-9.
    gram, gain, _ = _default_continuum()
    eps = CFG.epsilons[0]
    kappa = observability_constant(gram, gain, eps)
    assert kappa == pytest.approx(9170.844, rel=1e-6)
    grid = Grid(CFG.a, CFG.b, 400)
    oracle = ThetaOracle(build_discretization(grid),
                         TimeScheme(CFG.t_final, CFG.n_steps, "backward_euler"))
    slow = slice(-81, None)
    discrete = observability_constant(
        oracle.gramian(subdomain_mask(grid, CFG.omega_lo, CFG.omega_hi),
                       CFG.t_final - CFG.tau)[slow, slow],
        oracle.gain(CFG.t_final)[slow], eps)
    assert discrete == pytest.approx(kappa, rel=0.05)
