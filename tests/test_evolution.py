import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from impulsehum import (
    Grid,
    TimeScheme,
    build_discretization,
    evolve,
    evolve_trajectory,
    norm,
    post_impulse_flow,
    pre_impulse_flow,
    solve_impulsive,
    steps_for,
    subdomain_mask,
)

from impulsehum import evolution
from impulsehum.evolution import (_MAX_FACTORS, MAX_STEPS, _evolve_to, _march,
                                  _write_trajectory_csvs)
from impulsehum.mesh import ConfigError

from oracles import dense_semigroup, reference_march


def test_span_past_max_steps_is_refused(setup4, step_count):
    # 1e300 on the reference scheme is ~1e304 steps: refused before any step
    _, d, _, scheme = setup4
    with pytest.raises(ValueError, match=r"t=1e\+300 .* dt=0.0001"):
        steps_for(1e300, scheme)
    with pytest.raises(ValueError, match=r"t=1e\+300 .* dt=0.0001"):
        evolve(np.zeros(5), 1e300, d, scheme)
    assert step_count[0] == 0
    # A scheme of MAX_STEPS steps reaches its own t_final, even where
    # t / dt rounds above MAX_STEPS (878.81...); two steps past it are refused.
    for t in (0.02, 878.8129214426814):
        big = TimeScheme(t, MAX_STEPS)
        assert steps_for(t, big) == (MAX_STEPS, big.dt)
        assert steps_for(t * (1 - 1e-6), big)[0] <= MAX_STEPS
        with pytest.raises(ValueError, match="MAX_STEPS"):
            steps_for(t + 2 * big.dt, big)
    with pytest.raises(ConfigError, match="n_steps"):
        TimeScheme(0.02, MAX_STEPS + 1)


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
    assert (n, dt) == (101, 0.01005 / 101)
    # an aligned span marches at the scheme's step, bit for bit, though
    # (0.02 - 0.013) / 70 is not 1e-4 in floating point
    assert steps_for(0.02 - 0.013, scheme) == (70, 1e-4)


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
    for t in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match=f"got {t}"):
            evolve(np.zeros(5), t, d, scheme)
    with pytest.raises(ValueError, match="has shape"):
        evolve_trajectory(np.zeros(4), d, scheme)
    # a finite span whose step count overflows a float
    tiny = TimeScheme(1e-10, 1)
    with pytest.raises(ValueError, match=r"t=1e\+300 .* dt=1e-10"):
        steps_for(1e300, tiny)
    with pytest.raises(ValueError, match=r"t=1e\+300 .* dt=1e-10"):
        evolve(np.zeros(5), 1e300, d, tiny)
    # blocks: one state per column, rows must match the grid
    with pytest.raises(ValueError, match="has shape"):
        evolve(np.zeros((6, 3)), 0.01, d, scheme)
    with pytest.raises(ValueError, match="has shape"):
        evolve(np.zeros((5, 3, 2)), 0.01, d, scheme)
    # a block needs at least one column, whatever the span
    for t in (0.0, 0.01):
        with pytest.raises(ValueError, match="has shape"):
            evolve(np.zeros((5, 0)), t, d, scheme)
    bad_block = np.zeros((5, 3))
    bad_block[2, 1] = np.nan
    with pytest.raises(ValueError):
        evolve(bad_block, 0.01, d, scheme)
    with pytest.raises(ValueError, match="non-finite"):
        evolve_trajectory(bad, d, scheme)
    with pytest.raises(ValueError, match="stride"):
        evolve_trajectory(np.zeros(5), d, scheme, stride=0)
    # a finite state whose CN right-hand side overflows while stepping
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ValueError):
        evolve(np.full(5, 1e308), 10.0, d, TimeScheme(10.0, 1))


@pytest.mark.parametrize("method", ["crank_nicolson", "backward_euler"])
@pytest.mark.parametrize("nx", [4, 25, 400])
def test_stepping_matches_reference_loop(nx, method):
    grid = Grid(0.0, 1.0, nx)
    d = build_discretization(grid)
    mask = subdomain_mask(grid, 0.2, 0.8)
    u, h = np.random.default_rng(nx).standard_normal((2, nx + 1))
    # Two step sizes interleaved on one discretization (plus the spans'
    # own dt), so a stale or wrongly keyed factor cache shows.
    for n_steps in (200, 70, 200):
        scheme = TimeScheme(0.02, n_steps, method)
        for span in (0.01, 0.02):
            n, dt = steps_for(span, scheme)
            assert np.array_equal(evolve(u, span, d, scheme),
                                  reference_march(u, d, n, dt, scheme.theta)[0][-1])
        ref, _ = reference_march(u, d, n_steps, scheme.dt, scheme.theta)
        traj = evolve_trajectory(u, d, scheme, stride=9)
        assert np.array_equal(traj.states, ref[[*range(0, n_steps, 9), n_steps]])
        k = round(0.01 / scheme.dt)
        ref, pre = reference_march(u, d, n_steps, scheme.dt, scheme.theta, k, mask.mask * h)
        imp = solve_impulsive(u, h, 0.01, d, mask, scheme)
        # tau is stored twice: the left limit (row k), then the jump
        assert np.array_equal(imp.times, np.insert(np.arange(n_steps + 1), k, k) * scheme.dt)
        assert np.array_equal(imp.states, np.insert(ref, k, pre, axis=0))
        assert np.array_equal(imp.states[k], pre)


def test_factor_cache_is_bounded(setup25):
    # Each off-grid span gets its own step size, hence its own factor; the
    # cache keeps the last _MAX_FACTORS of them, and a dropped one is
    # factored again to the same bytes.
    grid, d, _, scheme, psi0 = setup25
    spans = [(k + 0.37) * scheme.dt for k in range(1, 101)]
    for span in spans + spans[:3]:
        got = evolve(psi0, span, d, scheme)
        assert len(d.step_cache) <= _MAX_FACTORS
        fresh = evolve(psi0, span, build_discretization(grid), scheme)
        assert got.tobytes() == fresh.tobytes(), span
    assert len(d.step_cache) == _MAX_FACTORS


@pytest.mark.parametrize("nx", [2, 5, 25, 100])
def test_signed_zeros_match_reference_march(nx):
    # Masked states whose zeros carry signs.  Backward Euler's neighbour
    # coefficients are zeros, and adding their products would flip some
    # -0.0 right-hand side entries to +0.0 (caught at nx = 5); so would a
    # +0.0 term at either end of the stencil (caught at nx = 2).
    grid = Grid(0.0, 1.0, nx)
    d = build_discretization(grid)
    mask = subdomain_mask(grid, 0.2, 0.8).mask
    rng = np.random.default_rng(nx)
    for trial in range(200):
        u = mask * rng.standard_normal(nx + 1)
        u[rng.random(nx + 1) < 0.3] *= 0.0
        for method in ("backward_euler", "crank_nicolson"):
            scheme = TimeScheme(0.02, 7, method)
            ref = reference_march(u, d, 7, scheme.dt, scheme.theta)[0][-1]
            assert evolve(u, 0.02, d, scheme).tobytes() == ref.tobytes(), (trial, method)


def test_march_outputs_own_their_memory(setup25):
    # The stepper reuses its buffers from step to step; no result may share
    # them, or be changed by a later march on the same (d, dt).
    _, d, _, scheme, psi0 = setup25
    rng = np.random.default_rng(25)
    block = rng.standard_normal((26, 3))
    dt = scheme.dt
    results = [*evolve_trajectory(psi0, d, scheme, stride=50).states,
               evolve(psi0, 0.01, d, scheme), evolve(-psi0, 0.01, d, scheme),
               evolve(block, 0.0, d, scheme), evolve(block, 0.01, d, scheme),
               evolve(block, 0.02, d, scheme),
               *_evolve_to(block, [(50, dt), (100, dt)], d, scheme.theta)]
    before = [r.tobytes() for r in results]
    later = [*evolve_trajectory(2.0 * psi0, d, scheme, stride=50).states,
             evolve(3.0 * psi0, 0.01, d, scheme), evolve(-block, 0.02, d, scheme)]
    assert [r.tobytes() for r in results] == before
    arrays = [psi0, block, *results, *later]
    for i, a in enumerate(arrays):
        for b in arrays[i + 1:]:
            assert not np.shares_memory(a, b)


@pytest.mark.parametrize("method", ["crank_nicolson", "backward_euler"])
def test_block_columns_match_single_evolve(method, setup25):
    _, d, _, _, _ = setup25
    scheme = TimeScheme(0.02, 200, method)
    block = np.random.default_rng(10).standard_normal((26, 5))
    for t in (0.0, 0.013, 0.02):
        out = evolve(block, t, d, scheme)
        assert out.shape == block.shape
        for j in range(block.shape[1]):
            assert np.array_equal(out[:, j], evolve(block[:, j], t, d, scheme))
    assert not np.shares_memory(evolve(block, 0.0, d, scheme), block)


def _column(kind, grid, rng):
    """One block column: random, +0.0, -0.0, or random outside a subdomain
    mask (so its zeros carry the signs of the masked-out values)."""
    n = grid.n_dof
    if kind == "zero":
        return np.zeros(n)
    if kind == "negative_zero":
        return np.full(n, -0.0)
    u = rng.standard_normal(n)
    return subdomain_mask(grid, 0.2, 0.8).mask * u if kind == "masked" else u


def _assert_columns_bytes_equal(block, spans, d, scheme):
    for t in spans:
        out = evolve(block, t, d, scheme)
        for j in range(block.shape[1]):
            alone = evolve(block[:, j].copy(), t, d, scheme)
            assert out[:, j].tobytes() == alone.tobytes(), (t, j)


_KINDS = ("random", "zero", "negative_zero", "masked")


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    nx=st.integers(2, 200),
    kinds=st.lists(st.sampled_from(_KINDS), min_size=1, max_size=8),
    method=st.sampled_from(["crank_nicolson", "backward_euler"]),
    n_steps=st.integers(1, 40),
    fractions=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=4),
    seed=st.integers(0, 2**32 - 1),
)
def test_block_columns_bytes_equal_single_columns(nx, kinds, method, n_steps, fractions, seed):
    # Off-grid spans shrink the step, so the spans fall into several step
    # sizes; signed zeros must survive the block step exactly.
    grid = Grid(0.0, 1.0, nx)
    rng = np.random.default_rng(seed)
    block = np.column_stack([_column(k, grid, rng) for k in kinds])
    scheme = TimeScheme(0.02, n_steps, method)
    _assert_columns_bytes_equal(block, [f * 0.02 for f in fractions],
                                build_discretization(grid), scheme)


def test_block_columns_bytes_equal_negative_cn_diagonal():
    # At nx = 400 the CN right-hand side has a negative diagonal, so
    # diag * (+0.0) is -0.0 and a zero column's signs depend on every add;
    # a sign flipped at a column's end shows after one step.
    grid = Grid(0.0, 1.0, 400)
    d = build_discretization(grid)
    scheme = TimeScheme(0.02, 200, "crank_nicolson")
    assert np.min(d.w + 0.5 * scheme.dt * d.k_main) < 0.0
    rng = np.random.default_rng(400)
    kinds = ("random", "negative_zero", "zero", "masked", "negative_zero", "random")
    block = np.column_stack([_column(k, grid, rng) for k in kinds])
    _assert_columns_bytes_equal(block, (scheme.dt, 0.001, 0.01005, 0.02), d, scheme)


@pytest.mark.parametrize("method", ["crank_nicolson", "backward_euler"])
@pytest.mark.parametrize("nx", [4, 25, 400])
def test_evolve_to_matches_separate_evolves(nx, method):
    d = build_discretization(Grid(0.0, 1.0, nx))
    scheme = TimeScheme(0.02, 200, method)
    # Each result must equal its own evolve, which the reference-loop test
    # above pins.  Two (span, scheme) plans: in the first every dt equals
    # 0.02 / 200 bit for bit (the 5x horizon on its own scheme included), so
    # it is one march; the second repeats a target, holds t = 0 and mixes
    # four step sizes.
    one_group = [(0.004, scheme), (0.012, scheme), (0.02, scheme),
                 (0.1, TimeScheme(0.1, 1000, method))]
    several = [(0.0, scheme), (0.01005, scheme), (0.004, scheme), (0.02, scheme),
               (0.004, scheme), (0.05, TimeScheme(0.05, 501, method)),
               (0.013, TimeScheme(0.02, 201, method))]
    rng = np.random.default_rng(nx)
    for u in (rng.standard_normal(nx + 1), rng.standard_normal((nx + 1, 1)),
              rng.standard_normal((nx + 1, 20))):
        for plan, groups in ((one_group, 1), (several, 4)):
            targets = [steps_for(t, s) for t, s in plan]
            assert len({dt for n, dt in targets if n > 0}) == groups
            got = _evolve_to(u, targets, d, scheme.theta)
            assert len(got) == len(plan)
            for out, (t, s) in zip(got, plan):
                assert np.array_equal(out, evolve(u, t, d, s))
        # t = 0 gives a copy
        assert not np.shares_memory(got[0], u)


def test_march_keeps_only_requested_steps(setup25):
    _, d, mask, scheme, psi0 = setup25
    block = np.column_stack([psi0, -psi0, 2.0 * psi0])
    traj = _march(block, d, 1000, scheme.dt, scheme.theta, {40, 120, 1000})
    np.testing.assert_array_equal(traj.times, np.array([40, 120, 1000]) * scheme.dt)
    assert traj.states.shape == (3, 26, 3)
    # a replay that reads only the final state keeps the ends and the jump
    imp = solve_impulsive(psi0, np.ones(26), 0.01, d, mask, scheme, stride=200)
    np.testing.assert_array_equal(imp.times, np.array([0, 100, 100, 200]) * scheme.dt)
    traj = evolve_trajectory(psi0, d, scheme, stride=37)
    assert len(traj.times) == len(range(0, 201, 37)) + 1


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
    # a zero control leaves both rows at tau (step 100) equal
    np.testing.assert_array_equal(traj.times[100:102], [0.01, 0.01])
    np.testing.assert_array_equal(traj.states[100], traj.states[101])


def test_impulsive_stride_keeps_impulse_off_stride(setup25):
    # k = 100 is not a multiple of the stride: both sides of the jump are kept
    _, d, mask, scheme, psi0 = setup25
    traj = solve_impulsive(psi0, np.zeros(26), 0.01, d, mask, scheme, stride=7)
    kept = [*range(0, 100, 7), 100, 100, *range(105, 200, 7), 200]
    np.testing.assert_array_equal(traj.times, np.array(kept) * scheme.dt)
    j = kept.index(100)
    np.testing.assert_array_equal(traj.states[j], traj.states[j + 1])
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
    bad = np.zeros(26)
    bad[3] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        solve_impulsive(bad, np.zeros(26), 0.01, d, mask, scheme)
    with pytest.raises(ValueError, match="non-finite"):
        solve_impulsive(psi0, bad, 0.01, d, mask, scheme)
    with pytest.raises(ValueError, match="stride"):
        solve_impulsive(psi0, np.zeros(26), 0.01, d, mask, scheme, stride=0)


def test_trajectory_csv(tmp_path, setup25):
    _, d, mask, scheme, psi0 = setup25
    traj = solve_impulsive(psi0, np.ones(26), 0.01, d, mask, scheme, stride=10)
    path = tmp_path / "traj.csv"
    traj.to_csv(path)
    lines = path.read_text().strip().split("\n")
    assert lines[0].split(",")[:2] == ["t", "x_0"]
    # one row per stored snapshot; tau is stored twice
    assert len(lines) == 1 + len(traj.times)
    times = [float(l.split(",")[0]) for l in lines[1:]]
    assert sum(abs(t - 0.01) < 1e-12 for t in times) == 2
    # every value reads back exactly, the left limit first
    expected = [[t, *s] for t, s in zip(traj.times, traj.states)]
    assert [[float(v) for v in l.split(",")] for l in lines[1:]] == expected
    j = times.index(0.01)
    assert expected[j][1:] == [*pre_impulse_flow(psi0, 0.01, d, scheme).final_state]


def test_to_csv_refuses_a_head_that_does_not_fit(tmp_path, setup25):
    _, d, mask, scheme, psi0 = setup25
    pre = pre_impulse_flow(psi0, 0.01, d, scheme)
    post = post_impulse_flow(pre, np.ones(26), d, mask, scheme)
    grid10 = Grid(0.0, 1.0, 10)
    d10 = build_discretization(grid10)
    pre10 = pre_impulse_flow(np.sin(np.pi * grid10.nodes), 0.01, d10, scheme)
    post10 = post_impulse_flow(pre10, np.ones(11), d10, subdomain_mask(grid10, 0.2, 0.8),
                               scheme)
    path = tmp_path / "traj.csv"
    # head rows of 27 columns under a header of 12
    with pytest.raises(ValueError, match=r"head has states of shape \(26,\), not \(11,\)"):
        post10.to_csv(path, head=pre)
    # a head that runs past the start would put the rows out of time order
    with pytest.raises(ValueError, match="head ends at t=0.02, after t=0.01"):
        post.to_csv(path, head=evolve_trajectory(psi0, d, scheme))
    assert not path.exists()
    # the impulse time may repeat: the head ends where the trajectory starts
    post.to_csv(path, head=pre)
    assert path.read_bytes() == _csv_bytes(solve_impulsive(psi0, np.ones(26), 0.01, d, mask,
                                                           scheme), tmp_path / "whole.csv")


def _csv_bytes(traj, path):
    traj.to_csv(path)
    return path.read_bytes()


@pytest.mark.parametrize("max_open", [1, 2, 64])
def test_trajectory_csvs_share_the_head(tmp_path, setup25, monkeypatch, max_open):
    # Three files written in groups of max_open each keep the bytes of the
    # whole run, and each tail is freed before the next is marched.
    monkeypatch.setattr(evolution, "_MAX_OPEN", max_open)
    _, d, mask, scheme, psi0 = setup25
    pre = pre_impulse_flow(psi0, 0.01, d, scheme, stride=3)
    controls = np.random.default_rng(5).standard_normal((3, 26))
    paths = [tmp_path / f"cell{i}.csv" for i in range(3)]
    refs, held = [], []

    def tails():
        for h in controls:
            held.append(sum(ref() is not None for ref in refs))
            tail = post_impulse_flow(pre, h, d, mask, scheme, stride=3)
            refs.append(weakref.ref(tail))
            yield tail
            del tail

    _write_trajectory_csvs(paths, pre, tails())
    assert held == [0, 0, 0]
    for i, (path, h) in enumerate(zip(paths, controls)):
        whole = solve_impulsive(psi0, h, 0.01, d, mask, scheme, stride=3)
        assert path.read_bytes() == _csv_bytes(whole, tmp_path / f"whole{i}.csv")


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    nx=st.integers(2, 40),
    method=st.sampled_from(["crank_nicolson", "backward_euler"]),
    n_steps=st.integers(2, 60),
    data=st.data(),
    seed=st.integers(0, 2**32 - 1),
)
def test_split_write_bytes_equal_solve_impulsive(tmp_path_factory, nx, method, n_steps, data,
                                                 seed):
    # The impulse at step k and the stride are drawn independently, so most
    # strides do not divide k; the free part is written as the head of two
    # files, the second from its kept rows.
    k = data.draw(st.integers(1, n_steps - 1), label="k")
    stride = data.draw(st.integers(1, n_steps), label="stride")
    grid = Grid(0.0, 1.0, nx)
    d = build_discretization(grid)
    mask = subdomain_mask(grid, 0.2, 0.8)
    scheme = TimeScheme(0.02, n_steps, method)
    tau = k * scheme.dt
    psi0, *controls = np.random.default_rng(seed).standard_normal((3, nx + 1))
    out = tmp_path_factory.mktemp("split")
    pre = pre_impulse_flow(psi0, tau, d, scheme, stride)
    kept = sorted({*range(0, n_steps + 1, stride), k, n_steps})
    j = kept.index(k)
    for i, h in enumerate(controls):
        whole = solve_impulsive(psi0, h, tau, d, mask, scheme, stride)
        ref, left = reference_march(psi0, d, n_steps, scheme.dt, scheme.theta, k, mask.mask * h)
        # step k is stored twice, the left limit first
        assert np.array_equal(whole.times, np.insert(kept, j, k) * scheme.dt)
        assert np.array_equal(whole.states, np.insert(ref[kept], j, left, axis=0))
        assert np.array_equal(whole.states[j], left)
        whole.to_csv(out / f"whole{i}.csv")
        post_impulse_flow(pre, h, d, mask, scheme, stride).to_csv(out / f"split{i}.csv",
                                                                  head=pre)
        assert (out / f"split{i}.csv").read_bytes() == (out / f"whole{i}.csv").read_bytes()


def test_post_impulse_flow_starts_inside_the_horizon(setup25):
    _, d, mask, scheme, psi0 = setup25
    free = evolve_trajectory(psi0, d, scheme)
    with pytest.raises(ValueError, match="tau must lie"):
        post_impulse_flow(free, np.zeros(26), d, mask, scheme)
    pre = pre_impulse_flow(psi0, 0.01, d, scheme)
    with pytest.raises(ValueError, match="has shape"):
        post_impulse_flow(pre, np.zeros(25), d, mask, scheme)


def test_trajectory_stride_records_endpoints(setup25):
    _, d, _, scheme, psi0 = setup25
    traj = evolve_trajectory(psi0, d, scheme, stride=37)
    assert traj.times[0] == 0.0
    assert traj.times[-1] == pytest.approx(0.02)
