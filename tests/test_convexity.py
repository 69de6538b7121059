import numpy as np
import pytest

from impulsehum import (
    Grid,
    ObservabilityFit,
    ObservabilitySample,
    SplitMix64,
    TimeScheme,
    Trajectory,
    WeightParams,
    admissible_s_bound,
    bound_satisfied,
    build_discretization,
    check_admissible,
    convexity_constants,
    epsilon_split_slack,
    evolve,
    evolve_trajectory,
    fit_observability,
    frequency,
    norm,
    random_smooth_state,
    solve_impulsive,
    split_constants,
    subdomain_mask,
    subdomain_norm,
    three_point_check,
    write_frequency_csv,
)

from oracles import reference_frequency, time_weight_quadrature

WP = WeightParams(x0=0.5, s=0.9, hbar=0.01, t_final=0.02)


def test_weight_validation():
    with pytest.raises(ValueError):
        WeightParams(x0=0.5, s=1.2, hbar=0.01, t_final=0.02)
    with pytest.raises(ValueError):
        WeightParams(x0=0.5, s=0.5, hbar=0.0, t_final=0.02)
    WeightParams(x0=0.5, s=0.0, hbar=0.01, t_final=0.02)  # degenerate test mode


def test_weight_values():
    # vanishes along the centre line for all times
    for t in (0.0, 0.01, 0.02):
        assert WP.value(0.5, t) == 0.0
    # closed form at the left endpoint at final time
    assert WP.value(0.0, 0.02) == pytest.approx(-5.625, rel=1e-14)


def test_weight_spatial_identity():
    # phi + |phi_x|^2 = 0 nodewise for phi = -(x-x0)^2/4
    x = np.linspace(0.0, 1.0, 41)
    phi = -((x - WP.x0) ** 2) / 4.0
    phi_x = -(x - WP.x0) / 2.0
    np.testing.assert_array_equal(phi + phi_x**2, np.zeros_like(x))


def test_weight_derivatives_match_finite_differences():
    x, t = 0.3, 0.007
    h = 1e-6
    fd_x = (WP.value(x + h, t) - WP.value(x - h, t)) / (2 * h)
    fd_t = (WP.value(x, t + h) - WP.value(x, t - h)) / (2 * h)
    assert fd_x == pytest.approx(WP.grad_x(x, t), rel=1e-8)
    assert fd_t == pytest.approx(WP.time_deriv(x, t), rel=1e-8)
    assert WP.eta(x, t) == pytest.approx(
        0.5 * (WP.time_deriv(x, t) + 0.5 * WP.grad_x(x, t) ** 2), rel=1e-14
    )


def test_admissibility_bound():
    grid = Grid(0.0, 10.0, 50)
    bound = admissible_s_bound(5.0, 0.0, 10.0)
    assert bound == pytest.approx(2.0 / np.sqrt(5.0))
    wp = WeightParams(x0=5.0, s=1.0, hbar=0.01, t_final=0.02)
    with pytest.raises(ValueError, match="admissible"):
        check_admissible(wp, grid)
    check_admissible(WP, Grid(0.0, 1.0, 25))


def test_constants_instantiation():
    grid = Grid(0.0, 1.0, 25)
    wp = WeightParams(x0=0.5, s=0.9, hbar=0.004, t_final=0.02)
    c = convexity_constants(wp, grid, ell=2.0, t1=0.004, t2=0.012, t3=0.02)
    assert c.c0 == pytest.approx(0.89875, abs=1e-12)
    assert c.c_const == pytest.approx(0.78125, abs=1e-12)
    assert c.m_three_point > 0 and c.d_three_point > 0
    assert c.m_ell > 0 and c.d_ell > 0
    assert c.d_ell == pytest.approx(2.0 * c.c_const * 4.0 * (1.0 + c.m_ell), rel=1e-14)


def test_constants_time_ratio_matches_quadrature():
    grid = Grid(0.0, 1.0, 25)
    wp = WeightParams(x0=0.5, s=0.9, hbar=0.004, t_final=0.02)
    t1, t2, t3 = 0.004, 0.012, 0.02
    c = convexity_constants(wp, grid, ell=2.0, t1=t1, t2=t2, t3=t3)
    num = time_weight_quadrature(wp.t_final, wp.hbar, c.c0, t2, t3)
    den = time_weight_quadrature(wp.t_final, wp.hbar, c.c0, t1, t2)
    assert c.m_three_point == pytest.approx(num / den, rel=1e-8)


def test_constants_calibrated_pair_consistent():
    # the calibrated pair is the general three-point pair at the triple
    # (T - 2 ell hbar, T - ell hbar, T)
    grid = Grid(0.0, 1.0, 25)
    wp = WeightParams(x0=0.5, s=0.9, hbar=0.004, t_final=0.02)
    ell = 2.0
    t1, t2, t3 = 0.02 - 2 * ell * wp.hbar, 0.02 - ell * wp.hbar, 0.02
    c = convexity_constants(wp, grid, ell=ell, t1=t1, t2=t2, t3=t3)
    assert c.m_ell == pytest.approx(c.m_three_point, rel=1e-10)


def test_constants_reject_degenerate():
    grid = Grid(0.0, 1.0, 25)
    szero = WeightParams(x0=0.5, s=0.0, hbar=0.01, t_final=0.02)
    with pytest.raises(ValueError) as err:
        convexity_constants(szero, grid, ell=2.0, t1=0.004, t2=0.012, t3=0.02)
    assert err.value.field == "s"
    with pytest.raises(ValueError) as err:
        convexity_constants(WP, grid, ell=1.0, t1=0.004, t2=0.012, t3=0.02)
    assert err.value.field == "ell"
    with pytest.raises(ValueError) as err:
        # 2 ell hbar must stay below the horizon for the calibrated pair
        convexity_constants(WP, grid, ell=2.0, t1=0.004, t2=0.012, t3=0.02)
    assert err.value.field == "hbar"


@pytest.mark.parametrize("seed", range(5))
def test_constants_positive_for_admissible_params(seed):
    rng = SplitMix64(seed)
    grid = Grid(0.0, 1.0, 25)
    x0 = rng.uniform(0.25, 0.75)
    s = rng.uniform(0.1, 1.0)
    hbar = rng.uniform(0.001, 0.004)
    wp = WeightParams(x0=x0, s=s, hbar=hbar, t_final=0.02)
    c = convexity_constants(wp, grid, ell=2.0, t1=0.02 - 4 * hbar, t2=0.02 - 2 * hbar, t3=0.02)
    assert c.c_const > 0 and 0 < c.c0 < 1
    assert c.m_ell > 0 and c.d_ell > 0


def test_frequency_degenerate_constant_zero():
    grid = Grid(0.0, 1.0, 25)
    d = build_discretization(grid)
    scheme = TimeScheme(0.02, 20, "crank_nicolson")
    wp = WeightParams(x0=0.5, s=0.0, hbar=0.01, t_final=0.02)
    traj = evolve_trajectory(np.full(26, 2.0), d, scheme)
    rep = frequency(traj, wp, d)
    np.testing.assert_allclose(rep.freq_direct, 0.0, atol=1e-12)


def test_frequency_degenerate_dirichlet_quotient():
    # with the weight switched off the quotient approximates the Dirichlet
    # form of the profile and is nonnegative for smooth states
    grid = Grid(0.0, 1.0, 50)
    d = build_discretization(grid)
    scheme = TimeScheme(0.002, 10, "crank_nicolson")
    wp = WeightParams(x0=0.5, s=0.0, hbar=0.01, t_final=0.002)
    x = grid.nodes
    u0 = np.sin(np.pi * x) + 0.4 * np.cos(2 * np.pi * x) + 0.3
    traj = evolve_trajectory(u0, d, scheme)
    rep = frequency(traj, wp, d)
    mid = len(rep.times) // 2
    u = traj.states[mid]
    dirichlet = np.sum((u[1:] - u[:-1]) ** 2) / grid.dx
    quotient = dirichlet / (norm(u, d) ** 2)
    assert rep.freq_direct[mid] >= -1e-8
    assert rep.freq_direct[mid] == pytest.approx(quotient, rel=0.15)


def test_frequency_cross_check_halves_under_refinement():
    def rel_err(nx, nsteps):
        grid = Grid(0.0, 1.0, nx)
        d = build_discretization(grid)
        scheme = TimeScheme(0.02, nsteps, "crank_nicolson")
        x = grid.nodes
        u0 = np.cos(np.pi * x) + 0.5 * np.cos(2 * np.pi * x) + 0.2 * x
        rep = frequency(evolve_trajectory(u0, d, scheme), WP, d)
        mid = len(rep.times) // 2
        return abs(rep.freq_direct[mid] - rep.freq_oracle[mid]) / abs(rep.freq_oracle[mid])

    e50 = rel_err(50, 200)
    e100 = rel_err(100, 400)
    assert e50 <= 0.10
    assert e100 <= 0.55 * e50


def test_frequency_rejects_bad_input(setup25):
    _, d, mask, scheme, psi0 = setup25
    traj = solve_impulsive(psi0, np.ones(26), 0.01, d, mask, scheme)
    with pytest.raises(ValueError):
        frequency(traj, WP, d)
    zero_traj = evolve_trajectory(np.zeros(26), d, scheme)
    with pytest.raises(ValueError, match=r"\|F\| vanishes at t=0.0"):
        frequency(zero_traj, WP, d)


@pytest.mark.parametrize("method", ["crank_nicolson", "backward_euler"])
@pytest.mark.parametrize("nx", [2, 25, 400])
def test_frequency_matches_reference_loop(nx, method):
    d = build_discretization(Grid(0.0, 1.0, nx))
    scheme = TimeScheme(0.02, 200, method)
    u0 = random_smooth_state(d.grid, SplitMix64(nx))
    for s in (0.0, 0.9):
        wp = WeightParams(x0=0.5, s=s, hbar=0.004, t_final=0.02)
        for stride in (1, 7):
            traj = evolve_trajectory(u0, d, scheme, stride=stride)
            rep = frequency(traj, wp, d)
            norm_f, direct, oracle = reference_frequency(traj, wp, d)
            assert np.array_equal(rep.norm_f, norm_f)
            assert np.array_equal(rep.freq_direct, direct)
            assert np.array_equal(rep.freq_oracle, oracle)


def test_frequency_names_first_vanishing_snapshot(setup25):
    _, d, _, scheme, psi0 = setup25
    traj = evolve_trajectory(psi0, d, scheme, stride=20)
    states = traj.states.copy()
    states[3:5] = 0.0
    vanishing = Trajectory(times=traj.times, states=states)
    with pytest.raises(ValueError, match="vanishes") as ours:
        frequency(vanishing, WP, d)
    with pytest.raises(ValueError) as ref:
        reference_frequency(vanishing, WP, d)
    assert str(ours.value) == str(ref.value)
    assert f"t={traj.times[3]}" in str(ours.value)


def test_frequency_csv_round_trip(tmp_path, setup25):
    _, d, _, scheme, psi0 = setup25
    rep = frequency(evolve_trajectory(psi0, d, scheme, stride=10), WP, d)
    path = tmp_path / "frequency.csv"
    write_frequency_csv(rep, path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "t,norm_f,freq_direct,freq_oracle"
    rows = [[float(v) for v in l.split(",")] for l in lines[1:]]
    assert rows == [list(r) for r in zip(rep.times, rep.norm_f, rep.freq_direct,
                                         rep.freq_oracle)]


def test_three_point_constant_state_slack_is_offset():
    grid = Grid(0.0, 1.0, 25)
    d = build_discretization(grid)
    scheme = TimeScheme(0.02, 40, "crank_nicolson")
    wp_flat = WeightParams(x0=0.5, s=0.0, hbar=0.004, t_final=0.02)
    wp_ref = WeightParams(x0=0.5, s=0.9, hbar=0.004, t_final=0.02)
    constants = convexity_constants(wp_ref, grid, 2.0, 0.004, 0.012, 0.02)
    chk = three_point_check(
        np.full(26, 1.7), wp_flat, 0.004, 0.012, 0.02, d, scheme, constants=constants
    )
    # equal norms at the three times leave exactly the additive constant
    assert chk.slack == pytest.approx(constants.d_three_point, rel=1e-10)
    assert chk.passed


def test_three_point_rejects_degenerate_triple(setup25):
    _, d, _, scheme, psi0 = setup25
    with pytest.raises(ValueError):
        three_point_check(psi0, WP, 0.01, 0.01, 0.02, d, scheme)


def test_three_point_ensemble_nonnegative():
    grid = Grid(0.0, 1.0, 50)
    d = build_discretization(grid)
    scheme = TimeScheme(0.02, 200, "crank_nicolson")
    wp = WeightParams(x0=0.5, s=0.9, hbar=0.004, t_final=0.02)
    t1, t2, t3 = 0.004, 0.012, 0.02
    constants = convexity_constants(wp, grid, 2.0, t1, t2, t3)
    for seed in range(20):
        u0 = random_smooth_state(grid, SplitMix64(seed))
        chk = three_point_check(u0, wp, t1, t2, t3, d, scheme, constants=constants)
        assert chk.slack >= -chk.tolerance


def _ensemble_samples(grid, d, mask, n_seeds=20):
    samples, states = [], []
    for seed in range(n_seeds):
        u0 = random_smooth_state(grid, SplitMix64(seed))
        states.append(u0)
        for mult in (1.0, 2.5, 5.0):
            horizon = 0.02 * mult
            scheme = TimeScheme(horizon, int(200 * mult), "crank_nicolson")
            fin = evolve(u0, horizon, d, scheme)
            samples.append(
                ObservabilitySample(horizon, norm(u0, d), subdomain_norm(fin, mask, d), norm(fin, d))
            )
    return samples, states


def test_fit_observability_envelope():
    grid = Grid(0.0, 1.0, 50)
    d = build_discretization(grid)
    mask = subdomain_mask(grid, 0.2, 0.8)
    samples, _ = _ensemble_samples(grid, d, mask)
    fit = fit_observability(samples)
    assert 0.0 < fit.beta < 1.0
    assert fit.mu >= 1.0 and fit.k_const > 0.0
    assert fit.satisfied_fraction == 1.0


def test_fit_observability_validation():
    with pytest.raises(ValueError):
        fit_observability([ObservabilitySample(0.02, 1.0, 0.5, 0.8)] * 5)
    bad = [ObservabilitySample(0.02, 1.0, 0.0, 0.8)] * 12
    with pytest.raises(ValueError):
        fit_observability(bad)


def test_bound_satisfaction_scale_invariant():
    fit = ObservabilityFit(mu=3.0, k_const=1e-4, beta=0.6, satisfied_fraction=1.0, n_samples=10)
    base = ObservabilitySample(0.02, 1.3, 0.4, 0.9)
    for lam in (0.25, 1.0, 7.5):
        scaled = ObservabilitySample(0.02, lam * 1.3, lam * 0.4, lam * 0.9)
        assert bound_satisfied(fit, scaled) == bound_satisfied(fit, base)


def test_split_constants_formulas():
    fit = ObservabilityFit(mu=2.0, k_const=3e-4, beta=0.5, satisfied_fraction=1.0, n_samples=10)
    m1, m2, delta = split_constants(fit)
    assert m1 == pytest.approx(2.0**2 * 0.5**0.5 * 0.5**0.5, rel=1e-12)
    assert m2 == pytest.approx(6e-4, rel=1e-12)
    assert delta == pytest.approx(1.0, rel=1e-12)


def test_split_slack_trivial_and_contractive():
    grid = Grid(0.0, 1.0, 50)
    d = build_discretization(grid)
    mask = subdomain_mask(grid, 0.2, 0.8)
    scheme = TimeScheme(0.02, 200, "crank_nicolson")
    fit = ObservabilityFit(mu=3.0, k_const=1e-4, beta=0.6, satisfied_fraction=1.0, n_samples=10)
    assert epsilon_split_slack(np.zeros(51), 0.5, fit, d, mask, scheme) == 0.0
    # for penalties >= 1 the slack follows from the contraction alone
    for seed in range(5):
        u0 = random_smooth_state(grid, SplitMix64(seed))
        assert epsilon_split_slack(u0, 1.0, fit, d, mask, scheme) >= 0.0


def test_split_slack_implied_by_fitted_bound():
    grid = Grid(0.0, 1.0, 50)
    d = build_discretization(grid)
    mask = subdomain_mask(grid, 0.2, 0.8)
    scheme = TimeScheme(0.02, 200, "crank_nicolson")
    samples, states = _ensemble_samples(grid, d, mask)
    fit = fit_observability(samples)
    base = [s for s in samples if s.t_final == 0.02]
    for u0, sample in zip(states, base):
        assert bound_satisfied(fit, sample)
        for eps in (1.0, 0.1, 0.01):
            slack = epsilon_split_slack(u0, eps, fit, d, mask, scheme)
            assert slack >= -1e-9 * norm(u0, d) ** 2
