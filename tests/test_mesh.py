import math

import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal

from impulsehum import (
    Grid,
    build_discretization,
    inner,
    norm,
    subdomain_mask,
    subdomain_norm,
)

from oracles import continuum_modes, dense_generator, dense_k


def test_grid_validation():
    with pytest.raises(ValueError) as err:
        Grid(0.0, 1.0, 1)
    assert err.value.field == "nx"
    with pytest.raises(ValueError):
        Grid(1.0, 0.0, 10)
    g = Grid(0.0, 1.0, 25)
    assert g.nodes[0] == 0.0 and g.nodes[-1] == 1.0
    assert g.dx == pytest.approx(0.04)
    # non-finite ends, and finite ends whose width b - a overflows
    for a, b, field in ((math.nan, 1.0, "a"), (-math.inf, 0.0, "a"), (0.0, math.inf, "b"),
                        (0.0, math.nan, "b"), (-1e308, 1e308, "b")):
        with pytest.raises(ValueError) as err:
            Grid(a, b, 25)
        assert err.value.field == field


def test_nx2_instantiation():
    d = build_discretization(Grid(0.0, 1.0, 2))
    np.testing.assert_allclose(d.w, [1.25, 0.5, 1.25])
    k = dense_k(d)
    np.testing.assert_allclose(k[0], [-2.0, 2.0, 0.0])
    np.testing.assert_allclose(k[1], [2.0, -4.0, 2.0])
    np.testing.assert_allclose(k[2], [0.0, 2.0, -2.0])
    assert np.max(np.abs(k - k.T)) == 0.0
    np.testing.assert_array_equal(k @ np.ones(3), np.zeros(3))


@pytest.mark.parametrize("a,b,nx", [(0.0, 1.0, 7), (-1.5, 2.25, 13), (0.0, 10.0, 50)])
def test_k_symmetric_bitexact(a, b, nx):
    d = build_discretization(Grid(a, b, nx))
    k = dense_k(d)
    assert np.max(np.abs(k - k.T)) == 0.0
    # constants span the kernel
    assert np.max(np.abs(k @ np.full(nx + 1, 3.7))) < 1e-12


def test_nx4_spectrum_nonpositive_one_zero():
    d = build_discretization(Grid(0.0, 1.0, 4))
    sqw = np.sqrt(d.w)
    s = dense_k(d) / sqw[:, None] / sqw[None, :]
    ev = np.linalg.eigvalsh((s + s.T) / 2)
    assert np.all(ev <= 1e-12)
    assert np.sum(np.abs(ev) < 1e-10) == 1


@pytest.mark.parametrize("a,b", [(0.0, 1.0), (0.5, 2.0)])
def test_spectrum_converges_at_second_order(a, b):
    # Eigenvalues 1-4 of the pencil (-K, W), from the symmetric tridiagonal
    # W^{-1/2} (-K) W^{-1/2}, against the continuum eigenvalues.
    exact = continuum_modes(a, b, 5)[0][1:]
    errors = []
    for nx in (25, 50, 100, 200, 400, 800, 1600):
        d = build_discretization(Grid(a, b, nx))
        sqw = np.sqrt(d.w)
        ev = eigh_tridiagonal(-d.k_main / d.w, -d.k_off / (sqw[:-1] * sqw[1:]),
                              eigvals_only=True, select="i", select_range=(1, 4))
        errors.append(np.abs(ev - exact) / exact)
    orders = np.log2(np.array(errors[:-1]) / np.array(errors[1:]))
    assert orders.min() >= 1.9, orders


def test_inner_constant_weight_sum():
    d = build_discretization(Grid(0.0, 1.0, 10))
    one = np.ones(11)
    # weights add up to (b - a) + 2
    assert inner(one, one, d) == pytest.approx(3.0, abs=1e-12)


def test_inner_symmetric_bitexact():
    d = build_discretization(Grid(0.0, 1.0, 16))
    rng = np.random.default_rng(0)
    for _ in range(10):
        u = rng.standard_normal(17)
        v = rng.standard_normal(17)
        assert inner(u, v, d) == inner(v, u, d)


def test_inner_length_mismatch():
    d = build_discretization(Grid(0.0, 1.0, 8))
    with pytest.raises(ValueError):
        inner(np.ones(9), np.ones(8), d)


def test_reference_initial_state_normalized():
    # sqrt(2) sin(pi x) with zero traces has unit weighted norm up to
    # quadrature error at 25 cells
    grid = Grid(0.0, 1.0, 25)
    d = build_discretization(grid)
    u = np.sqrt(2.0) * np.sin(np.pi * grid.nodes)
    u[0] = u[-1] = 0.0
    assert abs(norm(u, d) - 1.0) <= 1e-2


def test_subdomain_mask_membership():
    grid = Grid(0.0, 1.0, 25)
    m = subdomain_mask(grid, 0.2, 0.8)
    assert m.mask[0] == 0.0 and m.mask[-1] == 0.0
    x = grid.nodes
    inside = (x >= 0.2 - 1e-12) & (x <= 0.8 + 1e-12)
    inside[0] = inside[-1] = False
    np.testing.assert_array_equal(m.mask.astype(bool), inside)


def test_subdomain_mask_validation():
    # omega_hi is named only when it alone lies outside (a, b); an inverted
    # pair is omega_lo's fault
    grid = Grid(0.0, 1.0, 25)
    for lo, hi, field in ((0.0, 0.8, "omega_lo"), (0.8, 0.2, "omega_lo"), (1.2, 1.5, "omega_lo"),
                          (0.2, 1.5, "omega_hi"), (0.2, 1.0, "omega_hi")):
        with pytest.raises(ValueError) as err:
            subdomain_mask(grid, lo, hi)
        assert err.value.field == field


def test_subdomain_norm_cases():
    grid = Grid(0.0, 1.0, 25)
    d = build_discretization(grid)
    m = subdomain_mask(grid, 0.2, 0.8)
    assert subdomain_norm(np.zeros(26), m, d) == 0.0
    # indicator measure within one cell width
    v = subdomain_norm(np.ones(26), m, d)
    assert abs(v - np.sqrt(0.6)) <= grid.dx
    rng = np.random.default_rng(3)
    for _ in range(10):
        u = rng.standard_normal(26)
        assert subdomain_norm(u, m, d) <= norm(u, d) + 1e-14


def test_dissipativity():
    d = build_discretization(Grid(0.0, 1.0, 20))
    a = dense_generator(d)
    rng = np.random.default_rng(1)
    for _ in range(20):
        u = rng.standard_normal(21)
        quad = inner(a @ u, u, d)
        assert quad <= 0.0
        assert quad < -1e-8  # random vectors are nowhere near constant
    c = np.full(21, 2.5)
    assert inner(a @ c, c, d) == 0.0


def test_generator_self_adjoint():
    d = build_discretization(Grid(0.0, 1.0, 30))
    a = dense_generator(d)
    rng = np.random.default_rng(2)
    for _ in range(20):
        u = rng.standard_normal(31)
        v = rng.standard_normal(31)
        lhs = inner(a @ u, v, d)
        rhs = inner(u, a @ v, d)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


def test_generator_consistency_orders():
    # interior rows are second order, boundary rows at least first order
    def errors(nx):
        grid = Grid(0.0, 1.0, nx)
        d = build_discretization(grid)
        x = grid.nodes
        u = np.cos(np.pi * x) + x**3
        au = dense_generator(d) @ u
        e_int = np.max(np.abs(au[1:-1] - (-np.pi**2 * np.cos(np.pi * x[1:-1]) + 6 * x[1:-1])))
        ux = -np.pi * np.sin(np.pi * x) + 3 * x**2
        e_bdry = max(abs(au[0] - ux[0]), abs(au[-1] - (-ux[-1])))
        return e_int, e_bdry

    e1_int, e1_b = errors(40)
    e2_int, e2_b = errors(80)
    assert np.log2(e1_int / e2_int) >= 1.8
    assert np.log2(e1_b / e2_b) >= 0.9

