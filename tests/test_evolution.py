import numpy as np
import pytest

from impulsehum import (
    Grid,
    TimeScheme,
    build_discretization,
    evolve,
    evolve_trajectory,
    norm,
    solve_impulsive,
    steps_for,
    subdomain_mask,
)

from oracles import dense_semigroup


def test_scheme_validation():
    with pytest.raises(ValueError):
        TimeScheme(0.0, 10)
    with pytest.raises(ValueError):
        TimeScheme(1.0, 0)
    with pytest.raises(ValueError):
        TimeScheme(1.0, 10, "forward_euler")


def test_steps_for_rounding():
    scheme = TimeScheme(0.02, 200)
    assert steps_for(0.01, scheme) == (100, pytest.approx(1e-4))
    assert steps_for(0.0, scheme)[0] == 0
    # off-grid spans round the count up and shrink the step
    n, dt = steps_for(0.01005, scheme)
    assert n == 101 and n * dt == pytest.approx(0.01005)


def test_impulse_alignment():
    scheme = TimeScheme(0.03, 7)
    aligned = scheme.with_impulse_alignment(0.01)
    assert aligned.n_steps == 9
    assert round(0.01 / aligned.dt) * aligned.dt == pytest.approx(0.01, rel=1e-12)
    with pytest.raises(ValueError):
        scheme.with_impulse_alignment(0.05)


@pytest.mark.parametrize("method", ["crank_nicolson", "backward_euler"])
def test_constant_steady_state(method, setup4):
    _, d, _, _ = setup4
    scheme = TimeScheme(0.02, 50, method)
    u = np.full(5, 3.25)
    out = evolve(u, 0.02, d, scheme)
    np.testing.assert_allclose(out, u, rtol=1e-13)


def test_zero_state_exact(setup4):
    _, d, _, scheme = setup4
    out = evolve(np.zeros(5), 0.02, d, scheme)
    assert np.all(out == 0.0)


def test_nonfinite_rejected(setup4):
    _, d, _, scheme = setup4
    bad = np.zeros(5)
    bad[2] = np.nan
    with pytest.raises(ValueError):
        evolve(bad, 0.01, d, scheme)
    with pytest.raises(ValueError):
        evolve(np.zeros(5), -1.0, d, scheme)
    with pytest.raises(ValueError, match="has shape"):
        evolve_trajectory(np.zeros(4), d, scheme)


def test_evolve_matches_dense_exponential_nx4(setup4):
    _, d, _, _ = setup4
    scheme = TimeScheme(0.02, 10_000, "crank_nicolson")
    rng = np.random.default_rng(5)
    u = rng.standard_normal(5)
    exact = dense_semigroup(d, 0.02) @ u
    approx = evolve(u, 0.02, d, scheme)
    assert np.linalg.norm(approx - exact) <= 1e-4 * np.linalg.norm(exact)


@pytest.mark.parametrize("method,min_order", [("crank_nicolson", 1.8), ("backward_euler", 0.9)])
def test_convergence_order_in_dt(method, min_order, setup4):
    _, d, _, _ = setup4
    rng = np.random.default_rng(6)
    u = rng.standard_normal(5)
    exact = dense_semigroup(d, 0.02) @ u
    errs = []
    for n in (200, 400):
        out = evolve(u, 0.02, d, TimeScheme(0.02, n, method))
        errs.append(np.linalg.norm(out - exact))
    assert np.log2(errs[0] / errs[1]) >= min_order


def test_contraction_every_step(setup25):
    _, d, _, _, _ = setup25
    scheme = TimeScheme(0.02, 20, "crank_nicolson")
    rng = np.random.default_rng(7)
    for _ in range(10):
        traj = evolve_trajectory(rng.standard_normal(26), d, scheme)
        norms = [norm(s, d) for s in traj.states]
        assert all(n2 <= n1 + 1e-13 for n1, n2 in zip(norms, norms[1:]))
        assert norms[-1] < norms[0]


def test_semigroup_property_aligned(setup25):
    _, d, _, scheme, psi0 = setup25
    full = evolve(psi0, 0.01, d, scheme)
    split = evolve(evolve(psi0, 0.004, d, scheme), 0.006, d, scheme)
    assert norm(full - split, d) <= 1e-12 * norm(full, d)


def test_impulsive_superposition(setup25):
    _, d, mask, scheme, _ = setup25
    rng = np.random.default_rng(8)
    psi0 = rng.standard_normal(26)
    h = rng.standard_normal(26)
    traj = solve_impulsive(psi0, h, 0.01, d, mask, scheme)
    direct = evolve(psi0, 0.02, d, scheme) + evolve(mask.mask * h, 0.01, d, scheme)
    assert norm(traj.final_state - direct, d) <= 1e-12 * norm(direct, d)


def test_impulsive_zero_control_matches_free(setup25):
    _, d, mask, scheme, psi0 = setup25
    traj = solve_impulsive(psi0, np.zeros(26), 0.01, d, mask, scheme)
    free = evolve_trajectory(psi0, d, scheme)
    np.testing.assert_allclose(traj.states[-1], free.states[-1], rtol=1e-13, atol=1e-15)
    np.testing.assert_array_equal(traj.states[traj.impulse_index], traj.pre_impulse_state)


def test_impulsive_stride_keeps_impulse_off_stride(setup25):
    # k = 100 is not a multiple of the stride: both sides of the jump are kept
    _, d, mask, scheme, psi0 = setup25
    traj = solve_impulsive(psi0, np.zeros(26), 0.01, d, mask, scheme, stride=7)
    kept = [*range(0, 100, 7), 100, *range(105, 200, 7), 200]
    np.testing.assert_array_equal(traj.times, np.array(kept) * scheme.dt)
    assert traj.impulse_index == kept.index(100)
    np.testing.assert_array_equal(traj.pre_impulse_state, traj.states[traj.impulse_index])
    assert np.array_equal(traj.final_state, evolve(psi0, 0.02, d, scheme))


def test_impulsive_zero_initial_state(setup25):
    _, d, mask, scheme, _ = setup25
    rng = np.random.default_rng(9)
    h = rng.standard_normal(26)
    traj = solve_impulsive(np.zeros(26), h, 0.01, d, mask, scheme)
    expected = evolve(mask.mask * h, 0.01, d, scheme)
    np.testing.assert_allclose(traj.final_state, expected, rtol=1e-12, atol=1e-15)


def test_impulse_time_validation(setup25):
    _, d, mask, scheme, psi0 = setup25
    with pytest.raises(ValueError):
        solve_impulsive(psi0, np.zeros(26), 0.010003, d, mask, scheme)
    with pytest.raises(ValueError):
        solve_impulsive(psi0, np.zeros(26), 0.03, d, mask, scheme)
    with pytest.raises(ValueError):
        solve_impulsive(psi0, np.zeros(26), 0.0, d, mask, scheme)
    # a length-1 control must not broadcast into a uniform impulse
    with pytest.raises(ValueError, match="has shape"):
        solve_impulsive(psi0, np.ones(1), 0.01, d, mask, scheme)
    with pytest.raises(ValueError, match="has shape"):
        solve_impulsive(psi0[:-1], np.zeros(26), 0.01, d, mask, scheme)


def test_trajectory_csv(tmp_path, setup25):
    _, d, mask, scheme, psi0 = setup25
    traj = solve_impulsive(psi0, np.ones(26), 0.01, d, mask, scheme, stride=10)
    path = tmp_path / "traj.csv"
    traj.to_csv(path)
    lines = path.read_text().strip().split("\n")
    assert lines[0].split(",")[:2] == ["t", "x_0"]
    # one row per stored time plus the duplicated impulse row
    assert len(lines) == 1 + len(traj.times) + 1
    times = [float(l.split(",")[0]) for l in lines[1:]]
    assert sum(abs(t - 0.01) < 1e-12 for t in times) == 2
    # every value reads back exactly; the left limit precedes the jump
    j = traj.impulse_index
    expected = [[t, *s] for t, s in zip(traj.times, traj.states)]
    expected.insert(j, [traj.times[j], *traj.pre_impulse_state])
    assert [[float(v) for v in l.split(",")] for l in lines[1:]] == expected


def test_trajectory_stride_records_endpoints(setup25):
    _, d, _, scheme, psi0 = setup25
    traj = evolve_trajectory(psi0, d, scheme, stride=37)
    assert traj.times[0] == 0.0
    assert traj.times[-1] == pytest.approx(0.02)
