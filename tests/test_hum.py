import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from dataclasses import fields, replace

from impulsehum import (
    ConfigError,
    ExperimentConfig,
    Grid,
    HumConfig,
    TimeScheme,
    build_discretization,
    cg_solve,
    control_op,
    cost_bound_check,
    evolve,
    gramian_apply,
    initial_state,
    inner,
    norm,
    solve_cost_weighted,
    solve_impulsive,
    solution_to_dict,
    steps_for,
    subdomain_mask,
    subdomain_norm,
    validate,
    write_solution_json,
    write_state_csv,
)

from impulsehum.evolution import _impulse_step

from oracles import (assemble_operator, central_difference, dense_gramian, dense_k,
                     duality_residual, reference_objective)


def _cfg(eps, **kw):
    return HumConfig(epsilon=eps, tau=0.01, t_final=0.02, **kw)


def _cost_weighted(psi0, cfg, d, mask, scheme):
    """:func:`solve_cost_weighted` at kappa = 1 / eps."""
    return solve_cost_weighted(psi0, cfg, d, mask, scheme, 1.0 / cfg.epsilon)


SOLVERS = [pytest.param(cg_solve, id="cg_solve"),
           pytest.param(_cost_weighted, id="solve_cost_weighted")]


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
    # an impulse at the final time controls nothing
    with pytest.raises(ValueError) as err:
        HumConfig(epsilon=1.0, tau=0.02, t_final=0.02)
    assert err.value.field == "tau"


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
    # a zero span is the identity, bit for bit
    rho = np.linspace(-1.0, 1.0, 26)
    np.testing.assert_array_equal(evolve(rho, 0.0, d, scheme), rho)


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
    assert reference_objective(np.zeros(26), psi0, cfg, d, mask, scheme) == 0.0
    rng = np.random.default_rng(2)
    for _ in range(5):
        theta = rng.standard_normal(26)
        assert reference_objective(theta, np.zeros(26), cfg, d, mask, scheme) >= 0.0


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
            lambda v: reference_objective(v, psi0, cfg, d, mask, scheme), theta, zeta, 1e-4
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


@pytest.mark.parametrize("method", ["crank_nicolson", "backward_euler"])
@pytest.mark.parametrize("tau", [0.01, 0.0150000000135, 0.013])
@pytest.mark.parametrize("eps", [1e-2, 1e-4])
def test_cg_functional_history_equals_objective(eps, tau, method, setup25):
    # the recorded functional comes from CG's residual, not from propagating;
    # 0.0150000000135 is 1.35e-7 steps off step 150, which the solve reads
    # as step 150
    _, d, mask, _, psi0 = setup25
    cfg = HumConfig(epsilon=eps, tau=tau, t_final=0.02)
    scheme = TimeScheme(0.02, 200, method)
    sol = cg_solve(psi0, cfg, d, mask, scheme)
    ref = reference_objective(sol.minimizer, psi0, cfg, d, mask, scheme)
    assert sol.functional_history[-1] == pytest.approx(ref, rel=1e-12, abs=0.0)


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


@pytest.mark.parametrize("fake", [lambda rho: -1e3 * rho, lambda rho: np.full_like(rho, np.nan)],
                         ids=["negative", "nan"])
@pytest.mark.parametrize("solver", SOLVERS)
@pytest.mark.parametrize("k", [2, 5])
def test_breakdown_returns_the_capped_solve(k, solver, fake, force_breakdown, setup25):
    # A curvature that is not positive at iteration k stops CG with the
    # iterate of iteration k - 1, unconverged: bit for bit a cap of k - 1.
    # Uncapped, cg_solve converges at iteration 5, solve_cost_weighted at 20.
    _, d, mask, scheme, psi0 = setup25
    capped = solver(psi0, _cfg(1e-4, max_iter=k - 1), d, mask, scheme)
    force_breakdown(k, 1e-4, fake)
    broken = solver(psi0, _cfg(1e-4), d, mask, scheme)
    assert not broken.converged and broken.iterations == k - 1
    for field in fields(broken):
        assert np.array_equal(getattr(broken, field.name), getattr(capped, field.name)), field.name


def test_false_convergence_flagged(setup25):
    # Near roundoff CG's recursive residual drifts below the true one: here
    # it reads 6.95e-10 <= tol while the true residual is 1.41e-9.
    _, d, mask, scheme, psi0 = setup25
    cfg = _cfg(1e-10, tol=1e-9)
    sol = cg_solve(psi0, cfg, d, mask, scheme)
    assert sol.residual_history[-1] <= cfg.tol < sol.true_residual
    assert not sol.converged
    assert "true_residual" not in solution_to_dict(sol)


@pytest.mark.parametrize("solver", SOLVERS)
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


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    nx=st.integers(2, 40),
    method=st.sampled_from(["crank_nicolson", "backward_euler"]),
    n_steps=st.integers(2, 40),
    k_frac=st.floats(0.0, 1.0, exclude_max=True),
    log_eps=st.floats(-3.0, 0.0),
    seed=st.integers(0, 2**32 - 1),
    t_final=st.just(0.02),
)
# A horizon one ulp past the scheme's passes the horizon check, and its
# t_final / n_steps differs from the scheme's step (exactly so for a
# power-of-two step count).  It still lies on the scheme's grid, so it and
# every span of the solve march at the scheme's own step.
@example(nx=7, method="crank_nicolson", n_steps=16, k_frac=0.5, log_eps=-2.0, seed=3,
         t_final=float(np.nextafter(0.02, np.inf)))
def test_solvers_off_the_reference_grid(nx, method, n_steps, k_frac, log_eps, seed, t_final):
    grid = Grid(0.0, 1.0, nx)
    d = build_discretization(grid)
    mask = subdomain_mask(grid, 0.2, 0.8)
    scheme = TimeScheme(0.02, n_steps, method)
    tau = (1 + int(k_frac * (n_steps - 1))) * scheme.dt
    cfg = HumConfig(epsilon=10.0**log_eps, tau=tau, t_final=t_final)
    assert steps_for(t_final, scheme) == (n_steps, scheme.dt)
    psi0 = np.random.default_rng(seed).standard_normal(nx + 1)
    b = evolve(psi0, t_final, d, scheme)
    for solver in (cg_solve, _cost_weighted):
        sol = solver(psi0, cfg, d, mask, scheme)
        replay = solve_impulsive(psi0, sol.control, tau, d, mask, scheme)
        assert np.array_equal(sol.final_state, replay.final_state)
        weight, penalty = (sol.kappa**2, cfg.epsilon**2) if sol.kappa else (1.0, cfg.epsilon)
        lam_f = gramian_apply(sol.minimizer, cfg, d, mask, scheme)
        g = weight * lam_f + penalty * sol.minimizer + b
        # The floor is roundoff relative to |b|, for solves that end far
        # below the tolerance.
        assert sol.true_residual == pytest.approx(norm(g, d) / norm(b, d), rel=1e-8, abs=1e-12)
        # CG descends the functional from a unit relative residual, as at
        # the reference grid (test_cg_functional_descent_and_residuals).
        f = sol.functional_history
        assert all(f2 <= f1 + 1e-12 * abs(f[0]) for f1, f2 in zip(f, f[1:]))
        assert sol.residual_history[0] == 1.0
    # b, both sides of Lambda, the control and Psi(T) share one factor
    assert len(d.step_cache) == 1


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    t_final=st.floats(1e-3, 1e3),
    n_steps=st.integers(1, 300),
    q=st.integers(1, 400),
    p_frac=st.floats(0.0, 1.0),
    rel=st.sampled_from([0.0, -1e-12, 1e-12, -1e-10, 1e-10, -1e-9, 1e-9, -1e-8, 1e-8])
    | st.floats(-1e-8, 1e-8),
)
@example(t_final=0.02, n_steps=200, q=1, p_frac=1.0, rel=-1e-12)
def test_validated_tau_is_an_interior_step(t_final, n_steps, q, p_frac, rel):
    # tau within a relative 1e-8 of p/q t_final, 0 <= p <= q, so taus near
    # both ends of the horizon and just off the grid are drawn.  Whatever
    # validate accepts is an interior step of the aligned grid, and the
    # impulse's time k dt, as pre_impulse_flow stores it, reads back as k.
    tau = t_final * round(p_frac * q) / q * (1 + rel)
    try:
        cfg = validate(replace(ExperimentConfig(), t_final=t_final, n_steps=n_steps, tau=tau))
    except ConfigError as err:
        assert err.field == "tau"
        return
    scheme = TimeScheme(cfg.t_final, cfg.n_steps, cfg.method)
    k = _impulse_step(cfg.tau, scheme)
    assert 1 <= k < scheme.n_steps
    assert _impulse_step(k * scheme.dt, scheme) == k


def test_one_factor_per_solve_off_the_default_horizon():
    # tau = 1.1 and T - tau lie on the grid of dt = 0.01, though T - tau
    # (0.8999999999999999) / 90 is not 0.01 in floating point.  Every span
    # marches at dt, so one factor serves the solve and Psi(T) = b + Lambda f
    # to roundoff in |b| (3.2e-16 here; with a second step size for the
    # spans, 5.2e-14).
    grid = Grid(0.0, 1.0, 25)
    d = build_discretization(grid)
    mask = subdomain_mask(grid, 0.2, 0.8)
    scheme = TimeScheme(2.0, 200)
    cfg = HumConfig(epsilon=1e-3, tau=1.1, t_final=2.0)
    psi0 = np.sqrt(2.0) * np.sin(np.pi * grid.nodes)
    psi0[0] = psi0[-1] = 0.0
    sol = cg_solve(psi0, cfg, d, mask, scheme)
    assert len(d.step_cache) == 1
    b = evolve(psi0, cfg.t_final, d, scheme)
    lam_f = gramian_apply(sol.minimizer, cfg, d, mask, scheme)
    assert norm(sol.final_state - (b + lam_f), d) <= 1e-14 * norm(b, d)
    duality_residual(psi0, sol.control, psi0, cfg, d, mask, scheme)
    assert len(d.step_cache) == 1


@pytest.mark.parametrize("tau, t_final", [(0.0150000000135, 0.02), (0.01, 0.02 * (1 + 5e-10))])
def test_tau_and_horizon_read_as_their_grid_steps(tau, t_final, setup25):
    # tau 1.35e-7 steps past step 150, or a horizon 1e-7 steps past step
    # 200, is accepted as that step.  Each span of the solve is then the
    # n - k steps of dt after the impulse, the steps Psi(T) is marched over,
    # so the solve is bit for bit the one at the exact tau and horizon, with
    # one factor and Psi(T) = b + Lambda f to roundoff.  T - tau subtracted
    # in floating point lies off the grid in both cases, and marching it
    # would leave two factors, |Psi(T) - (b + Lambda f)| of 1.0e-7 |b|
    # (horizon) and a duality residual of 1.1e-10 (tau).
    _, d, mask, scheme, psi0 = setup25
    cfg = HumConfig(epsilon=1e-3, tau=tau, t_final=t_final)
    sol = cg_solve(psi0, cfg, d, mask, scheme)
    assert duality_residual(psi0, sol.control, psi0, cfg, d, mask, scheme) <= 1e-14
    assert len(d.step_cache) == 1
    b = evolve(psi0, 0.02, d, scheme)
    lam_f = gramian_apply(sol.minimizer, cfg, d, mask, scheme)
    assert norm(sol.final_state - (b + lam_f), d) <= 1e-14 * norm(b, d)
    exact = cg_solve(psi0, HumConfig(epsilon=1e-3, tau=round(tau, 6), t_final=0.02),
                     d, mask, scheme)
    assert sol.iterations == exact.iterations
    for field in ("minimizer", "control", "final_state"):
        assert np.array_equal(getattr(sol, field), getattr(exact, field))


def test_one_free_march_per_solve(step_count, setup25):
    # psi0 is marched to step k = tau / dt, the impulse's left limit, and b
    # from there over the n - k steps after it; each CG iteration, the
    # control and the final state take n - k steps per propagation.
    _, d, mask, scheme, psi0 = setup25
    sol = cg_solve(psi0, _cfg(1e-2), d, mask, scheme)
    n, k = scheme.n_steps, 100
    assert step_count[0] == k + (n - k) + 2 * (n - k) * sol.iterations + 2 * (n - k) == 1200


def test_off_grid_tau_rejected_before_marching(step_count, setup25):
    _, d, mask, scheme, psi0 = setup25
    cfg = HumConfig(epsilon=1e-2, tau=0.010003, t_final=0.02)
    solves = [lambda: cg_solve(psi0, cfg, d, mask, scheme),
              lambda: _cost_weighted(psi0, cfg, d, mask, scheme),
              lambda: gramian_apply(psi0, cfg, d, mask, scheme)]
    for solve in solves:
        with pytest.raises(ValueError, match="off the time grid"):
            solve()
    assert step_count[0] == 0


def test_tau_read_as_final_step_rejected_before_marching(final_step_tau, step_count, setup25):
    tau, t_final, n_steps = final_step_tau
    _, d, mask, _, psi0 = setup25
    scheme = TimeScheme(t_final, n_steps)
    cfg = HumConfig(epsilon=1e-2, tau=tau, t_final=t_final)
    h = np.zeros_like(psi0)
    solves = [lambda: cg_solve(psi0, cfg, d, mask, scheme),
              lambda: _cost_weighted(psi0, cfg, d, mask, scheme),
              lambda: gramian_apply(psi0, cfg, d, mask, scheme),
              lambda: solve_impulsive(psi0, h, tau, d, mask, scheme)]
    for solve in solves:
        with pytest.raises(ConfigError, match="0 < k <") as err:
            solve()
        assert err.value.field == "tau"
    assert step_count[0] == 0


def test_horizon_mismatch_rejected_before_marching(step_count, setup25):
    _, d, mask, scheme, psi0 = setup25
    cfg = HumConfig(epsilon=1e-2, tau=0.01, t_final=0.03)
    solves = [lambda: cg_solve(psi0, cfg, d, mask, scheme),
              lambda: _cost_weighted(psi0, cfg, d, mask, scheme),
              lambda: gramian_apply(psi0, cfg, d, mask, scheme)]
    for solve in solves:
        with pytest.raises(ValueError, match="needs the scheme's horizon"):
            solve()
    assert step_count[0] == 0


_BAD = {"non-finite": lambda n: np.full(n, np.nan), "wrong-shape": lambda n: np.zeros(n + 1),
        "matrix": lambda n: np.eye(n), "block": lambda n: np.zeros((n, 3))}


@pytest.mark.parametrize("kind", sorted(_BAD))
@pytest.mark.parametrize("name", ["psi0", "rho"])
def test_bad_inputs_named_before_marching(name, kind, step_count, setup25):
    # psi0 of a solve and rho of the Gramian are one state each: a block of
    # states, one per column, is refused like a wrong length.
    _, d, mask, scheme, _ = setup25
    solve = cg_solve if name == "psi0" else gramian_apply
    with pytest.raises(ValueError, match=f"{name} (contains non-finite|has shape)"):
        solve(_BAD[kind](d.grid.n_dof), _cfg(1e-2), d, mask, scheme)
    assert step_count[0] == 0


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
    sol = solve_cost_weighted(np.zeros(26), _cfg(1e-2), d, mask, scheme, 10.0)
    assert np.all(sol.minimizer == 0.0) and np.all(sol.control == 0.0)
    assert sol.final_norm == 0.0


def test_cost_weighted_terminal_identity(setup25):
    _, d, mask, scheme, psi0 = setup25
    cfg = _cfg(1e-2)
    sol = solve_cost_weighted(psi0, cfg, d, mask, scheme, 1e3)
    assert sol.converged
    resid = norm(sol.final_state + cfg.epsilon**2 * sol.minimizer, d)
    assert resid <= 10.0 * cfg.tol * sol.initial_norm


def test_cost_weighted_matches_dense_factorization_nx4(setup4):
    grid, d, mask, scheme = setup4
    psi0 = np.sqrt(2.0) * np.sin(np.pi * grid.nodes)
    psi0[0] = psi0[-1] = 0.0
    cfg, kappa = _cfg(1e-2, tol=1e-10), 10.0
    lam = assemble_operator(
        lambda v: gramian_apply(v, _cfg(1e-2), d, mask, scheme), 5
    )
    b = evolve(psi0, cfg.t_final, d, scheme)
    direct = np.linalg.solve(kappa**2 * lam + cfg.epsilon**2 * np.eye(5), -b)
    sol = solve_cost_weighted(psi0, cfg, d, mask, scheme, kappa)
    assert norm(sol.minimizer - direct, d) <= 1e-6 * norm(direct, d)


def test_cost_weighted_scaling_homogeneity(setup25):
    _, d, mask, scheme, psi0 = setup25
    cfg = _cfg(1e-2)
    one = solve_cost_weighted(psi0, cfg, d, mask, scheme, 1e3)
    two = solve_cost_weighted(2.0 * psi0, cfg, d, mask, scheme, 1e3)
    assert norm(two.control - 2.0 * one.control, d) <= 1e-12 * max(1.0, norm(one.control, d))
    rep1 = cost_bound_check(one)
    rep2 = cost_bound_check(two)
    assert rep2.total == pytest.approx(4.0 * rep1.total, rel=1e-10)


def test_cost_bound_zero_state(setup25):
    _, d, mask, scheme, _ = setup25
    sol = solve_cost_weighted(np.zeros(26), _cfg(1e-2), d, mask, scheme, 10.0)
    rep = cost_bound_check(sol)
    assert rep.total == 0.0 and rep.initial_sq == 0.0 and rep.ok


def test_cost_bound_large_kappa_resolved(setup25):
    # with a resolved integrator and a large weight the explicit bound holds
    # and the final state meets the target fraction of the initial norm
    _, d, mask, scheme, psi0 = setup25
    cfg = _cfg(1e-2)
    sol = solve_cost_weighted(psi0, cfg, d, mask, scheme, 1e3)
    rep = cost_bound_check(sol)
    assert rep.ok and rep.total <= rep.initial_sq * (1.0 + 1e-6)
    assert sol.final_norm <= cfg.epsilon * sol.initial_norm


def test_cost_bound_uses_the_solutions_penalty(setup25):
    # The final term divides by the solution's own eps^2; at kappa = 100 the
    # sine datum breaks the bound.
    _, d, mask, scheme, psi0 = setup25
    sol = solve_cost_weighted(psi0, _cfg(1e-2), d, mask, scheme, 100.0)
    rep = cost_bound_check(sol)
    assert rep.final_term == sol.final_norm**2 / sol.epsilon**2
    assert rep.final_term == pytest.approx(1.076, abs=1e-3) and not rep.ok


@pytest.mark.parametrize("kappa", [0.0, -1.0, np.inf, np.nan])
def test_cost_weighted_rejects_kappa_before_marching(kappa, step_count, setup25):
    _, d, mask, scheme, psi0 = setup25
    with pytest.raises(ValueError, match="kappa"):
        solve_cost_weighted(psi0, _cfg(1e-2), d, mask, scheme, kappa)
    assert step_count[0] == 0


def test_cost_bound_requires_kappa(setup25):
    _, d, mask, scheme, psi0 = setup25
    sol = cg_solve(psi0, _cfg(1e-2), d, mask, scheme)
    with pytest.raises(ValueError):
        cost_bound_check(sol)


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


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    a=st.floats(-2.0, 2.0),
    length=st.floats(0.1, 5.0),
    nx=st.integers(2, 200),
    method=st.sampled_from(["crank_nicolson", "backward_euler"]),
    n_steps=st.integers(2, 60),
    t_final=st.floats(1e-3, 0.1),
    data=st.data(),
    seed=st.integers(0, 2**32 - 1),
)
def test_structural_invariants_on_random_grids(a, length, nx, method, n_steps, t_final, data,
                                               seed):
    # K symmetry, semigroup adjointness and contraction, the duality
    # identity and Gramian symmetry / PSD, each to roundoff relative to the
    # norms involved, on a random bar, window omega and impulse step k.
    grid = Grid(a, a + length, nx)
    d = build_discretization(grid)
    lo = data.draw(st.integers(1, nx - 1), label="omega_lo node")
    hi = data.draw(st.integers(lo, nx - 1), label="omega_hi node")
    x, dx = grid.nodes, grid.dx
    mask = subdomain_mask(grid, x[lo] - 0.3 * dx, x[hi] + 0.3 * dx)
    scheme = TimeScheme(t_final, n_steps, method)
    k = data.draw(st.integers(1, n_steps - 1), label="k")
    cfg = HumConfig(epsilon=1e-2, tau=k * scheme.dt, t_final=t_final)
    u, v, psi0, h, zeta0 = np.random.default_rng(seed).standard_normal((5, nx + 1))
    tol = 1e-12

    k = dense_k(d)
    assert np.array_equal(k, k.T)
    for t in (cfg.tau, t_final):
        eu, ev = evolve(np.column_stack([u, v]), t, d, scheme).T
        assert abs(inner(eu, v, d) - inner(u, ev, d)) <= tol * norm(u, d) * norm(v, d)
        assert norm(eu, d) <= (1.0 + tol) * norm(u, d)
    residual = duality_residual(psi0, h, zeta0, cfg, d, mask, scheme)
    assert residual <= tol * norm(zeta0, d) * (norm(psi0, d) + norm(h, d))
    lu, lv = (gramian_apply(w, cfg, d, mask, scheme) for w in (u, v))
    assert abs(inner(lu, v, d) - inner(u, lv, d)) <= tol * norm(u, d) * norm(v, d)
    assert inner(lu, u, d) >= -tol * norm(u, d) ** 2


def test_control_norm_converges_at_first_order():
    # |h| of the default sine datum under grid refinement (backward Euler,
    # tol 1e-10, eps = 1e-2): the observed order over each triple of
    # successive grids approaches 1 from below (0.865, 0.921, 0.959, 0.979),
    # while the spectrum converges at second order (test_mesh).
    norms = []
    for nx in (25, 50, 100, 200, 400, 800):
        cfg = validate(ExperimentConfig(nx=nx, method="backward_euler", tol=1e-10))
        grid = Grid(cfg.a, cfg.b, nx)
        d = build_discretization(grid)
        mask = subdomain_mask(grid, cfg.omega_lo, cfg.omega_hi)
        scheme = TimeScheme(cfg.t_final, cfg.n_steps, cfg.method)
        hum = HumConfig(epsilon=1e-2, tau=cfg.tau, t_final=cfg.t_final, tol=cfg.tol)
        sol = cg_solve(initial_state(cfg, grid), hum, d, mask, scheme)
        assert sol.converged
        norms.append(sol.control_norm)
    diffs = np.diff(norms)
    orders = np.log2(diffs[:-1] / diffs[1:])
    assert orders.min() >= 0.85, orders
    assert np.all(np.diff(orders) > 0.0), orders
