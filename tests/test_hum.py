import numpy as np
import pytest

from impulsehum import (
    CgBreakdownError,
    Grid,
    HumConfig,
    TimeScheme,
    build_discretization,
    cg_solve,
    control_op,
    cost_bound_check,
    duality_residual,
    evolve,
    gramian_apply,
    inner,
    norm,
    penalized_objective,
    solve_cost_weighted,
    solve_impulsive,
    solution_to_dict,
    subdomain_mask,
    subdomain_norm,
    write_solution_json,
    write_state_csv,
)

from oracles import assemble_operator, central_difference, dense_gramian


def _cfg(eps, **kw):
    return HumConfig(epsilon=eps, tau=0.01, t_final=0.02, **kw)


def test_config_validation():
    with pytest.raises(ValueError) as err:
        HumConfig(epsilon=0.0, tau=0.01, t_final=0.02)
    assert err.value.field == "epsilons"
    with pytest.raises(ValueError):
        HumConfig(epsilon=1.0, tau=0.03, t_final=0.02)
    with pytest.raises(ValueError):
        HumConfig(epsilon=1.0, tau=0.01, t_final=0.02, tol=1.5)
    with pytest.raises(ValueError) as err:
        HumConfig(epsilon=1.0, tau=0.01, t_final=0.02, tol=2)
    assert err.value.field == "tol"
    with pytest.raises(ValueError):
        HumConfig(epsilon=1.0, tau=0.01, t_final=0.02, kappa=-1.0)
    # tau == t_final stays constructible (degenerate Gramian checks)
    HumConfig(epsilon=1.0, tau=0.02, t_final=0.02)


def test_control_op(setup25):
    grid, d, mask, _, _ = setup25
    v = np.ones(26)
    out = control_op(v, mask)
    assert out[0] == 0.0 and out[-1] == 0.0
    np.testing.assert_array_equal(out, mask.mask)
    rng = np.random.default_rng(0)
    u = rng.standard_normal(26)
    w = rng.standard_normal(26)
    np.testing.assert_array_equal(control_op(control_op(u, mask), mask), control_op(u, mask))
    assert abs(inner(control_op(u, mask), w, d) - inner(u, control_op(w, mask), d)) <= 1e-15


def test_gramian_zero_and_degenerate(setup25):
    _, d, mask, scheme, _ = setup25
    out = gramian_apply(np.zeros(26), _cfg(1e-2), d, mask, scheme)
    assert np.all(out == 0.0)
    # tau == t_final collapses both propagations to the identity
    rho = np.linspace(-1.0, 1.0, 26)
    cfg = HumConfig(epsilon=1e-2, tau=0.02, t_final=0.02)
    np.testing.assert_array_equal(gramian_apply(rho, cfg, d, mask, scheme), mask.mask * rho)


def test_gramian_dense_matches_exponential_oracle(setup4):
    _, d, mask, _ = setup4
    scheme = TimeScheme(0.02, 10_000, "crank_nicolson")
    cfg = _cfg(1e-2)
    assembled = assemble_operator(lambda v: gramian_apply(v, cfg, d, mask, scheme), 5)
    exact = dense_gramian(d, mask, 0.01)
    assert np.max(np.abs(assembled - exact)) <= 1e-8


def test_gramian_symmetric_psd(setup25):
    _, d, mask, scheme, _ = setup25
    cfg = _cfg(1e-3)
    rng = np.random.default_rng(1)
    for _ in range(20):
        x = rng.standard_normal(26)
        y = rng.standard_normal(26)
        lx = gramian_apply(x, cfg, d, mask, scheme)
        ly = gramian_apply(y, cfg, d, mask, scheme)
        sym = abs(inner(lx, y, d) - inner(x, ly, d))
        assert sym <= 1e-10 * norm(x, d) * norm(y, d)
        assert inner(lx, x, d) >= -1e-12 * inner(x, x, d)


def test_objective_trivial_cases(setup25):
    _, d, mask, scheme, psi0 = setup25
    cfg = _cfg(1e-2)
    assert penalized_objective(np.zeros(26), psi0, cfg, d, mask, scheme) == 0.0
    rng = np.random.default_rng(2)
    for _ in range(5):
        theta = rng.standard_normal(26)
        assert penalized_objective(theta, np.zeros(26), cfg, d, mask, scheme) >= 0.0


def test_objective_gradient_matches_finite_differences(setup25):
    _, d, mask, scheme, psi0 = setup25
    cfg = _cfg(1e-2)
    rng = np.random.default_rng(3)
    theta = rng.standard_normal(26)
    b = evolve(psi0, cfg.t_final, d, scheme)
    grad = cfg.epsilon * theta + gramian_apply(theta, cfg, d, mask, scheme) + b
    for _ in range(3):
        zeta = rng.standard_normal(26)
        fd = central_difference(
            lambda v: penalized_objective(v, psi0, cfg, d, mask, scheme), theta, zeta, 1e-4
        )
        analytic = inner(grad, zeta, d)
        assert abs(fd - analytic) <= 1e-5 * max(1.0, abs(analytic))


def test_cg_zero_rhs(setup25):
    _, d, mask, scheme, _ = setup25
    sol = cg_solve(np.zeros(26), _cfg(1e-2), d, mask, scheme)
    assert sol.iterations == 0 and sol.converged
    assert np.all(sol.control == 0.0)
    assert sol.final_norm == 0.0


def test_cg_matches_dense_factorization_nx4(setup4):
    grid, d, mask, scheme = setup4
    cfg = _cfg(1e-2, tol=1e-10)
    psi0 = np.sqrt(2.0) * np.sin(np.pi * grid.nodes)
    psi0[0] = psi0[-1] = 0.0
    lam = assemble_operator(lambda v: gramian_apply(v, cfg, d, mask, scheme), 5)
    b = evolve(psi0, cfg.t_final, d, scheme)
    direct = np.linalg.solve(lam + cfg.epsilon * np.eye(5), -b)
    sol = cg_solve(psi0, cfg, d, mask, scheme)
    assert norm(sol.minimizer - direct, d) <= 1e-6 * norm(direct, d)


def test_cg_functional_descent_and_residuals(setup25):
    _, d, mask, scheme, psi0 = setup25
    sol = cg_solve(psi0, _cfg(1e-4), d, mask, scheme)
    f = sol.functional_history
    tol_mag = 1e-12 * abs(f[0])
    assert all(f2 <= f1 + tol_mag for f1, f2 in zip(f, f[1:]))
    r = sol.residual_history
    assert r[0] == 1.0
    assert all(v > 0 for v in r[:-1])
    assert r[-1] <= sol.tol


@pytest.mark.parametrize("eps", [1e-2, 1e-4])
def test_cg_functional_history_equals_objective(eps, setup25):
    # the recorded functional comes from CG's residual, not from propagating
    _, d, mask, scheme, psi0 = setup25
    cfg = _cfg(eps)
    sol = cg_solve(psi0, cfg, d, mask, scheme)
    ref = penalized_objective(sol.minimizer, psi0, cfg, d, mask, scheme)
    assert sol.functional_history[-1] == pytest.approx(ref, rel=1e-12, abs=0.0)
    f0 = np.random.default_rng(6).standard_normal(26)
    warm = cg_solve(psi0, cfg, d, mask, scheme, f0=f0)
    ref0 = penalized_objective(f0, psi0, cfg, d, mask, scheme)
    assert warm.functional_history[0] == pytest.approx(ref0, rel=1e-12, abs=0.0)


def test_cg_final_gradient_small(setup25):
    _, d, mask, scheme, psi0 = setup25
    cfg = _cfg(1e-3)
    sol = cg_solve(psi0, cfg, d, mask, scheme)
    b = evolve(psi0, cfg.t_final, d, scheme)
    ghat = cfg.epsilon * sol.minimizer + gramian_apply(sol.minimizer, cfg, d, mask, scheme) + b
    g0 = norm(b, d)
    rng = np.random.default_rng(4)
    for _ in range(10):
        zeta = rng.standard_normal(26)
        assert abs(inner(ghat, zeta, d)) <= cfg.tol * g0 * norm(zeta, d)


def test_cg_max_iter_flagged(setup25):
    _, d, mask, scheme, psi0 = setup25
    sol = cg_solve(psi0, _cfg(1e-4, max_iter=2), d, mask, scheme)
    assert not sol.converged
    assert sol.iterations == 2


def test_false_convergence_flagged(setup25):
    # Near roundoff CG's recursive residual drifts below the true one: here
    # it reads 6.95e-10 <= tol while the true residual is 1.41e-9.
    _, d, mask, scheme, psi0 = setup25
    cfg = _cfg(1e-10, tol=1e-9)
    sol = cg_solve(psi0, cfg, d, mask, scheme)
    assert sol.residual_history[-1] <= cfg.tol < sol.true_residual
    assert not sol.converged
    assert "true_residual" not in solution_to_dict(sol)


@pytest.mark.parametrize("solver", [cg_solve, solve_cost_weighted])
def test_true_residual_and_final_state(solver, setup25):
    _, d, mask, scheme, psi0 = setup25
    cfg = _cfg(1e-3)
    sol = solver(psi0, cfg, d, mask, scheme)
    # the solution's true residual against one built from gramian_apply
    weight, penalty = (sol.kappa**2, cfg.epsilon**2) if sol.kappa else (1.0, cfg.epsilon)
    b = evolve(psi0, cfg.t_final, d, scheme)
    g = weight * gramian_apply(sol.minimizer, cfg, d, mask, scheme) + penalty * sol.minimizer + b
    assert sol.true_residual == pytest.approx(norm(g, d) / norm(b, d), rel=1e-8)
    assert sol.converged and sol.true_residual <= cfg.tol
    # the final state is the last state of a stride-1 replay, bit for bit
    replay = solve_impulsive(psi0, sol.control, cfg.tau, d, mask, scheme)
    assert np.array_equal(sol.final_state, replay.final_state)


def test_cg_linearity_in_initial_state(setup25):
    _, d, mask, scheme, psi0 = setup25
    one = cg_solve(psi0, _cfg(1e-3), d, mask, scheme)
    two = cg_solve(2.0 * psi0, _cfg(1e-3), d, mask, scheme)
    assert norm(two.control - 2.0 * one.control, d) <= 1e-12 * norm(one.control, d)
    assert norm(two.final_state - 2.0 * one.final_state, d) <= 1e-12 * norm(one.final_state, d)


def test_monotone_trends_across_penalties(setup25):
    _, d, mask, scheme, psi0 = setup25
    final_norms, control_norms = [], []
    for eps in (1e-2, 1e-3, 1e-4):
        sol = cg_solve(psi0, _cfg(eps), d, mask, scheme)
        final_norms.append(sol.final_norm)
        control_norms.append(sol.control_norm)
    assert final_norms[0] > final_norms[1] > final_norms[2]
    assert control_norms[0] < control_norms[1] < control_norms[2]


def test_cost_weighted_trivial(setup25):
    _, d, mask, scheme, _ = setup25
    sol = solve_cost_weighted(np.zeros(26), _cfg(1e-2, kappa=10.0), d, mask, scheme)
    assert np.all(sol.minimizer == 0.0) and np.all(sol.control == 0.0)
    assert sol.final_norm == 0.0


def test_cost_weighted_terminal_identity(setup25):
    _, d, mask, scheme, psi0 = setup25
    cfg = _cfg(1e-2, kappa=1e3)
    sol = solve_cost_weighted(psi0, cfg, d, mask, scheme)
    assert sol.converged
    resid = norm(sol.final_state + cfg.epsilon**2 * sol.minimizer, d)
    assert resid <= 10.0 * cfg.tol * sol.initial_norm


def test_cost_weighted_matches_dense_factorization_nx4(setup4):
    grid, d, mask, scheme = setup4
    psi0 = np.sqrt(2.0) * np.sin(np.pi * grid.nodes)
    psi0[0] = psi0[-1] = 0.0
    cfg = _cfg(1e-2, kappa=10.0, tol=1e-10)
    lam = assemble_operator(
        lambda v: gramian_apply(v, _cfg(1e-2), d, mask, scheme), 5
    )
    b = evolve(psi0, cfg.t_final, d, scheme)
    direct = np.linalg.solve(cfg.kappa**2 * lam + cfg.epsilon**2 * np.eye(5), -b)
    sol = solve_cost_weighted(psi0, cfg, d, mask, scheme)
    assert norm(sol.minimizer - direct, d) <= 1e-6 * norm(direct, d)


def test_cost_weighted_scaling_homogeneity(setup25):
    _, d, mask, scheme, psi0 = setup25
    cfg = _cfg(1e-2, kappa=1e3)
    one = solve_cost_weighted(psi0, cfg, d, mask, scheme)
    two = solve_cost_weighted(2.0 * psi0, cfg, d, mask, scheme)
    assert norm(two.control - 2.0 * one.control, d) <= 1e-12 * max(1.0, norm(one.control, d))
    rep1 = cost_bound_check(one, cfg)
    rep2 = cost_bound_check(two, cfg)
    assert rep2.total == pytest.approx(4.0 * rep1.total, rel=1e-10)


def test_cost_bound_zero_state(setup25):
    _, d, mask, scheme, _ = setup25
    cfg = _cfg(1e-2, kappa=10.0)
    sol = solve_cost_weighted(np.zeros(26), cfg, d, mask, scheme)
    rep = cost_bound_check(sol, cfg)
    assert rep.total == 0.0 and rep.initial_sq == 0.0 and rep.ok


def test_cost_bound_large_kappa_resolved(setup25):
    # with a resolved integrator and a large weight the explicit bound holds
    # and the final state meets the target fraction of the initial norm
    _, d, mask, scheme, psi0 = setup25
    cfg = _cfg(1e-2, kappa=1e3)
    sol = solve_cost_weighted(psi0, cfg, d, mask, scheme)
    rep = cost_bound_check(sol, cfg)
    assert rep.ok and rep.total <= rep.initial_sq * (1.0 + 1e-6)
    assert sol.final_norm <= cfg.epsilon * sol.initial_norm


def test_cost_bound_requires_kappa(setup25):
    _, d, mask, scheme, psi0 = setup25
    sol = cg_solve(psi0, _cfg(1e-2), d, mask, scheme)
    with pytest.raises(ValueError):
        cost_bound_check(sol, _cfg(1e-2))


def test_duality_trivial_zero(setup25):
    _, d, mask, scheme, _ = setup25
    r = duality_residual(np.zeros(26), np.zeros(26), np.zeros(26), _cfg(1e-2), d, mask, scheme)
    assert r == 0.0


def test_duality_semigroup_self_adjointness(setup25):
    _, d, mask, scheme, _ = setup25
    rng = np.random.default_rng(5)
    for _ in range(10):
        psi0 = rng.standard_normal(26)
        zeta0 = rng.standard_normal(26)
        r = duality_residual(psi0, np.zeros(26), zeta0, _cfg(1e-2), d, mask, scheme)
        assert r <= 1e-10 * norm(psi0, d) * norm(zeta0, d)


def test_duality_random_triples(setup25):
    _, d, mask, scheme, _ = setup25
    rng = np.random.default_rng(6)
    for _ in range(20):
        psi0 = rng.standard_normal(26)
        h = rng.standard_normal(26)
        zeta0 = rng.standard_normal(26)
        scale = (norm(psi0, d) + norm(h, d)) * norm(zeta0, d)
        r = duality_residual(psi0, h, zeta0, _cfg(1e-2), d, mask, scheme)
        assert r <= 1e-10 * scale


def test_solution_export(tmp_path, setup25):
    grid, d, mask, scheme, psi0 = setup25
    sol = cg_solve(psi0, _cfg(1e-2), d, mask, scheme)
    data = solution_to_dict(sol)
    assert data["iterations"] == sol.iterations
    assert len(data["residual_history"]) == len(sol.residual_history)
    jpath = tmp_path / "sol.json"
    write_solution_json(sol, jpath)
    assert jpath.read_text().startswith("{")
    cpath = tmp_path / "control.csv"
    write_state_csv(grid.nodes, sol.control, cpath)
    lines = cpath.read_text().strip().split("\n")
    assert lines[0] == "x,value" and len(lines) == 27
    rows = [[float(v) for v in l.split(",")] for l in lines[1:]]
    assert rows == [[x, h] for x, h in zip(grid.nodes, sol.control)]


def test_horizon_mismatch_rejected(setup25):
    # the scheme spans 0.02; a solve for 0.04 would replay over the wrong horizon
    _, d, mask, scheme, psi0 = setup25
    cfg = HumConfig(epsilon=1e-2, tau=0.01, t_final=0.04)
    with pytest.raises(ValueError, match="horizon"):
        cg_solve(psi0, cfg, d, mask, scheme)
    with pytest.raises(ValueError, match="horizon"):
        solve_cost_weighted(psi0, cfg, d, mask, scheme)
    with pytest.raises(ValueError, match="horizon"):
        duality_residual(psi0, np.zeros(26), psi0, cfg, d, mask, scheme)
