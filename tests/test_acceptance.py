"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Criteria 1 and 6 take their reference values from the dense theta-scheme
oracle in ``oracles.py``, which models the same discrete system as the
library (checked next to criterion 4) but shares none of its stepping or CG
code:

* criterion 1 keeps the Table-1 norm windows and the time limit, and checks
  each CG iteration count against the printed recurrence run on the dense
  modal system.  The reference counts (6, 10, 25) are of unknown provenance
  and are only printed: the library, the dense oracle and the
  exact-propagator system all take 4/4/5 iterations at the default config.
* criterion 6 checks the cost bound where the theorem promises it, at the
  observability constant the oracle computes (~3.09e4 here), and checks that
  at kappa = 1e2, below that constant, the library reports the violation,
  at the oracle's cost of 1.59 |psi0|^2 within the CG error bound.
"""

import json
import time
from dataclasses import replace

import numpy as np
import pytest

from impulsehum import (
    ExperimentConfig,
    Grid,
    HumConfig,
    SplitMix64,
    TimeScheme,
    WeightParams,
    build_discretization,
    cg_solve,
    control_op,
    convexity_constants,
    cost_bound_check,
    evolve,
    evolve_trajectory,
    fit_observability,
    frequency,
    gramian_apply,
    inner,
    norm,
    random_smooth_state,
    run_table1,
    solve_cost_weighted,
    solve_impulsive,
    subdomain_mask,
    subdomain_norm,
    three_point_check,
    validate,
    ObservabilitySample,
)

from oracles import (
    ThetaOracle,
    assemble_operator,
    dense_k,
    dense_semigroup,
    observability_constant,
    oracle_cg_iterations,
    time_weight_quadrature,
)

REF_ITERS = (6, 10, 25)
REF_FINAL = (8.54e-2, 7.27e-2, 6.47e-2)
REF_CONTROL = (0.9478, 1.1325, 2.2109)


def _report(name, ok, detail):
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} -- {detail}")
    return ok


def _default_setup():
    cfg = validate(ExperimentConfig())
    grid = Grid(cfg.a, cfg.b, cfg.nx)
    d = build_discretization(grid)
    mask = subdomain_mask(grid, cfg.omega_lo, cfg.omega_hi)
    scheme = TimeScheme(cfg.t_final, cfg.n_steps, cfg.method)
    psi0 = cfg.psi0_amplitude * np.sin(np.pi * grid.nodes)
    psi0[0] = cfg.boundary_c
    psi0[-1] = cfg.boundary_d
    return cfg, grid, d, mask, scheme, psi0


def _sweep_solutions():
    cfg, grid, d, mask, scheme, psi0 = _default_setup()
    sols = []
    for eps in (1e-2, 1e-3, 1e-4):
        hum = HumConfig(epsilon=eps, tau=cfg.tau, t_final=cfg.t_final, tol=cfg.tol)
        sols.append(cg_solve(psi0, hum, d, mask, scheme))
    return cfg, d, mask, scheme, psi0, sols


def test_criterion_1_table1_reproduction():
    # NOTE: the iteration counts are checked against the printed CG
    # recurrence run on the dense modal system, not against the reference
    # counts (6, 10, 25), whose provenance is unknown.  No variant of this
    # discretization reaches them: nx in {25, 50, 100}, Crank-Nicolson or
    # backward Euler, take 4-5 iterations per penalty, and tol = 1e-6 at most
    # 5/5/8, with the library and the dense oracle agreeing in every case.
    # The residual at exit is the true one (9.911e-4 <= 1e-3 at eps = 1e-3).
    # Nor is a non-symmetric Gramian the explanation: CG in the Euclidean
    # product on the nodal Lambda takes 18 iterations at eps = 1e-2 and
    # diverges at eps <= 1e-3.
    t0 = time.perf_counter()
    cfg, d, mask, scheme, psi0, sols = _sweep_solutions()
    elapsed = time.perf_counter() - t0
    oracle = ThetaOracle(d, scheme)
    gram = oracle.gramian(mask, cfg.t_final - cfg.tau)
    b = oracle.gain(cfg.t_final) * oracle.to_modal(psi0)
    checks = []
    details = []
    for sol, ri, rf, rc in zip(sols, REF_ITERS, REF_FINAL, REF_CONTROL):
        oracle_it = oracle_cg_iterations(gram + sol.epsilon * np.eye(len(b)), b, cfg.tol)
        it_ok = sol.iterations == oracle_it and sol.converged
        fn_ok = 0.7 * rf <= sol.final_norm <= 1.3 * rf
        cn_ok = 0.7 * rc <= sol.control_norm <= 1.3 * rc
        checks += [it_ok, fn_ok, cn_ok]
        details.append(
            f"eps={sol.epsilon:g}: it={sol.iterations}/{oracle_it}{'+' if it_ok else '!'} "
            f"(ref {ri}) "
            f"|Psi(T)|={sol.final_norm:.3e}/{rf:.2e}{'+' if fn_ok else '!'} "
            f"|h|={sol.control_norm:.4f}/{rc}{'+' if cn_ok else '!'}"
        )
    iters = [sol.iterations for sol in sols]
    monotone_ok = all(lo <= hi for lo, hi in zip(iters, iters[1:]))
    time_ok = elapsed < 10.0
    ok = all(checks) and monotone_ok and time_ok
    _report(
        "1 table1-reproduction",
        ok,
        "; ".join(details) + f"; non-decreasing:{monotone_ok}; {elapsed:.2f}s",
    )
    assert time_ok
    assert ok


def test_criterion_2_trends():
    _, _, _, _, _, sols = _sweep_solutions()
    finals = [s.final_norm for s in sols]
    controls = [s.control_norm for s in sols]
    ok = finals[0] > finals[1] > finals[2] and controls[0] < controls[1] < controls[2]
    _report("2 trends", ok, f"|Psi(T)| {finals}, |h| {controls}")
    assert ok


def test_criterion_3_structure():
    _, grid, d, mask, scheme, _ = _default_setup()
    k = dense_k(d)
    k_ok = np.max(np.abs(k - k.T)) == 0.0

    rng = np.random.default_rng(2024)
    adj_worst = 0.0
    for _ in range(100):
        u = rng.standard_normal(26)
        v = rng.standard_normal(26)
        eu = evolve(u, 0.01, d, scheme)
        ev_ = evolve(v, 0.01, d, scheme)
        adj_worst = max(adj_worst, abs(inner(eu, v, d) - inner(u, ev_, d)))
    adj_ok = adj_worst <= 1e-10

    hum = HumConfig(epsilon=1e-3, tau=0.01, t_final=0.02)
    gram_worst, psd_worst = 0.0, 0.0
    for _ in range(20):
        x = rng.standard_normal(26)
        y = rng.standard_normal(26)
        lx = gramian_apply(x, hum, d, mask, scheme)
        ly = gramian_apply(y, hum, d, mask, scheme)
        gram_worst = max(
            gram_worst, abs(inner(lx, y, d) - inner(x, ly, d)) / (norm(x, d) * norm(y, d))
        )
        psd_worst = min(psd_worst, inner(lx, x, d) / inner(x, x, d))
    gram_ok = gram_worst <= 1e-10 and psd_worst >= -1e-10

    contraction_ok = True
    short = TimeScheme(0.02, 20, "crank_nicolson")
    for _ in range(100):
        traj = evolve_trajectory(rng.standard_normal(26), d, short)
        norms = [norm(s, d) for s in traj.states]
        contraction_ok &= all(b <= a + 1e-13 for a, b in zip(norms, norms[1:]))

    ok = k_ok and adj_ok and gram_ok and contraction_ok
    _report(
        "3 structure",
        ok,
        f"K sym diff=0:{k_ok}, semigroup adj worst={adj_worst:.2e}, "
        f"gramian sym worst={gram_worst:.2e} psd floor={psd_worst:.2e}, "
        f"contraction:{contraction_ok}",
    )
    assert ok


def test_criterion_4_oracle_equivalence_nx4():
    t0 = time.perf_counter()
    grid = Grid(0.0, 1.0, 4)
    d = build_discretization(grid)
    mask = subdomain_mask(grid, 0.2, 0.8)
    scheme = TimeScheme(0.02, 200, "crank_nicolson")
    psi0 = np.sqrt(2.0) * np.sin(np.pi * grid.nodes)
    psi0[0] = psi0[-1] = 0.0

    hum = HumConfig(epsilon=1e-2, tau=0.01, t_final=0.02, tol=1e-10)
    lam = assemble_operator(lambda v: gramian_apply(v, hum, d, mask, scheme), 5)
    b = evolve(psi0, 0.02, d, scheme)
    direct = np.linalg.solve(lam + hum.epsilon * np.eye(5), -b)
    sol = cg_solve(psi0, hum, d, mask, scheme)
    cg_err = norm(sol.minimizer - direct, d) / norm(direct, d)

    fine = TimeScheme(0.02, 10_000, "crank_nicolson")
    rng = np.random.default_rng(11)
    u = rng.standard_normal(5)
    exact = dense_semigroup(d, 0.02) @ u
    ev_err = np.linalg.norm(evolve(u, 0.02, d, fine) - exact) / np.linalg.norm(exact)

    elapsed = time.perf_counter() - t0
    ok = cg_err <= 1e-6 and ev_err <= 1e-4 and elapsed < 1.0
    _report(
        "4 oracle-equivalence-nx4",
        ok,
        f"cg vs dense={cg_err:.2e}, evolve vs expm={ev_err:.2e}, {elapsed:.3f}s",
    )
    assert ok


@pytest.mark.parametrize("method", ["crank_nicolson", "backward_euler"])
def test_theta_oracle_matches_evolve(method):
    """The dense theta-scheme oracle behind criteria 1 and 6 models the same
    discrete system as the library: propagators and Gramian agree to
    roundoff."""
    cfg, grid, d, mask, _, _ = _default_setup()
    scheme = TimeScheme(cfg.t_final, cfg.n_steps, method)
    oracle = ThetaOracle(d, scheme)
    n = grid.n_dof
    worst = 0.0
    for span in (cfg.t_final - cfg.tau, cfg.t_final):
        lib = assemble_operator(lambda v: evolve(v, span, d, scheme), n)
        ref = oracle.propagator(span)
        worst = max(worst, np.linalg.norm(lib - ref) / np.linalg.norm(ref))
    hum = HumConfig(epsilon=cfg.epsilons[0], tau=cfg.tau, t_final=cfg.t_final)
    lam = assemble_operator(lambda v: gramian_apply(v, hum, d, mask, scheme), n)
    # Nodal to modal coordinates: y = V^T W^{1/2} u.
    to_modal = oracle.v.T * oracle.sqw[None, :]
    lam_modal = to_modal @ lam @ np.linalg.inv(to_modal)
    ref = oracle.gramian(mask, cfg.t_final - cfg.tau)
    worst = max(worst, np.linalg.norm(lam_modal - ref) / np.linalg.norm(ref))
    ok = worst <= 1e-12
    _report(f"4 theta-oracle-vs-evolve ({method})", ok, f"worst relative={worst:.2e}")
    assert ok


def test_criterion_5_duality_identity():
    _, grid, d, mask, scheme, _ = _default_setup()
    hum = HumConfig(epsilon=1e-2, tau=0.01, t_final=0.02)
    rng = np.random.default_rng(77)
    worst = 0.0
    for _ in range(100):
        psi0 = rng.standard_normal(26)
        h = rng.standard_normal(26)
        zeta0 = rng.standard_normal(26)
        z_end = evolve(zeta0, 0.02, d, scheme)
        z_mid = evolve(zeta0, 0.01, d, scheme)
        traj = solve_impulsive(psi0, h, 0.01, d, mask, scheme)
        t1 = inner(control_op(h, mask), z_mid, d)
        t2 = inner(psi0, z_end, d)
        t3 = inner(traj.final_state, zeta0, d)
        mag = max(abs(t1), abs(t2), abs(t3))
        worst = max(worst, abs(t1 + t2 - t3) / mag)
    ok = worst <= 1e-9
    _report("5 duality-identity", ok, f"worst relative residual={worst:.2e} over 100 triples")
    assert ok


def test_criterion_6_cost_weighted_construction():
    # NOTE: the bound |h|^2/kappa^2 + |Psi(T)|^2/eps^2 <= |psi0|^2 is promised
    # only once kappa reaches the observability constant, which the oracle
    # puts at ~3.09e4 for this system (CN, nx = 25, eps = 1e-2).
    # kappa = 1/eps = 1e2 lies far below it, and there the exact cost of the
    # sine datum is 1.59 |psi0|^2 (1.587 for CN, 1.592 with the exact
    # propagator).  That is not a grid artefact that refinement removes: the
    # exact-propagator ratio is 0.89-1.06 at nx = 50-400, 1.11 at nx = 1600
    # and 11.5 at nx = 21, swinging with how omega's ends fall on nodes.  So
    # the bound is checked at kappa_obs, and at kappa = 1e2 the reported
    # violation must be the oracle's.
    cfg, grid, d, mask, scheme, psi0 = _default_setup()
    eps = cfg.epsilons[0]
    oracle = ThetaOracle(d, scheme)
    gram = oracle.gramian(mask, cfg.t_final - cfg.tau)
    kappa_obs = observability_constant(gram, oracle.gain(cfg.t_final), eps)

    def check(u0, kappa):
        hum = HumConfig(epsilon=eps, tau=cfg.tau, t_final=cfg.t_final, tol=cfg.tol,
                        max_iter=3000)
        sol = solve_cost_weighted(u0, hum, d, mask, scheme, kappa)
        rep = cost_bound_check(sol)
        # Terminal identity: Psi(T) + eps^2 f is the CG residual g.
        el = norm(sol.final_state + eps**2 * sol.minimizer, d)
        el_ok = sol.converged and el <= 10.0 * cfg.tol * sol.initial_norm
        # The exact cost is <b, A^{-1} b> with A = kappa^2 Lambda + eps^2 and
        # b = E(T) u0.  An iterate f with residual g = A f + b costs that plus
        # |g|^2/eps^2 - <g, A^{-1} g>, which lies in [0, |g|^2/eps^2].  The
        # floor absorbs the roundoff of the dense solve, whose condition
        # number reaches ~1e13 at kappa_obs.
        a = kappa**2 * gram + eps**2 * np.eye(len(gram))
        b = oracle.gain(cfg.t_final) * oracle.to_modal(u0)
        g = a @ oracle.to_modal(sol.minimizer) + b
        exact = b @ np.linalg.solve(a, b)
        floor = 1e-7 * rep.initial_sq
        cost_ok = exact - floor <= rep.total <= exact + g @ g / eps**2 + floor
        return rep, el, el_ok and cost_ok, exact

    results = [(kappa, *check(psi0, kappa)) for kappa in (1e2, 1e3)]
    low_ok = not results[0][1].ok

    data = [psi0] + [random_smooth_state(grid, SplitMix64(s)) for s in range(20)]
    at_obs = [check(u0, kappa_obs) for u0 in data]
    results.append((kappa_obs, *at_obs[0]))
    seeds_ok = all(
        el_ok and rep.total <= rep.initial_sq * (1.0 + 1e-6) for rep, _, el_ok, _ in at_obs
    )
    min_slack = min(rep.slack / rep.initial_sq for rep, _, _, _ in at_obs)

    ok = all(r[3] for r in results) and low_ok and seeds_ok
    detail = "; ".join(
        f"kappa={k:.4g}: EL={el:.1e} bound={rep.total / rep.initial_sq:.3f}"
        f"/oracle {exact / rep.initial_sq:.3f}{'+' if eo else '!'}"
        for k, rep, el, eo, exact in results
    )
    _report(
        "6 cost-weighted-construction",
        ok,
        detail + f"; kappa=1e2 flagged:{low_ok}; bound at kappa_obs for sine + 20 seeds:"
        f"{seeds_ok} (min relative slack {min_slack:.3f})",
    )
    assert ok


def test_criterion_7_convexity_suite():
    wp = WeightParams(x0=0.5, s=0.9, hbar=0.01, t_final=0.02)

    def rel_err(nx, nsteps):
        grid = Grid(0.0, 1.0, nx)
        d = build_discretization(grid)
        scheme = TimeScheme(0.02, nsteps, "crank_nicolson")
        x = grid.nodes
        u0 = np.cos(np.pi * x) + 0.5 * np.cos(2 * np.pi * x) + 0.2 * x
        rep = frequency(evolve_trajectory(u0, d, scheme), wp, d)
        mid = len(rep.times) // 2
        return abs(rep.freq_direct[mid] - rep.freq_oracle[mid]) / abs(rep.freq_oracle[mid])

    e50 = rel_err(50, 200)
    e100 = rel_err(100, 400)
    freq_ok = e50 <= 0.10 and e100 <= 0.55 * e50

    grid = Grid(0.0, 1.0, 50)
    d = build_discretization(grid)
    mask = subdomain_mask(grid, 0.2, 0.8)
    scheme = TimeScheme(0.02, 200, "crank_nicolson")
    wp_tp = WeightParams(x0=0.5, s=0.9, hbar=0.004, t_final=0.02)
    constants = convexity_constants(wp_tp, grid, 2.0)
    t1, t2, t3 = constants.t1, constants.t2, constants.t3
    min_slack = np.inf
    tp_ok = True
    for seed in range(20):
        u0 = random_smooth_state(grid, SplitMix64(seed))
        states = [evolve(u0, t, d, scheme) for t in (t1, t2, t3)]
        chk = three_point_check(states, wp_tp, d, scheme, constants=constants)
        min_slack = min(min_slack, chk.slack)
        tp_ok &= chk.slack >= -chk.tolerance

    samples = []
    for seed in range(20):
        u0 = random_smooth_state(grid, SplitMix64(seed))
        for mult in (1.0, 2.5, 5.0):
            horizon = 0.02 * mult
            sch = TimeScheme(horizon, int(200 * mult), "crank_nicolson")
            fin = evolve(u0, horizon, d, sch)
            samples.append(
                ObservabilitySample(horizon, norm(u0, d), subdomain_norm(fin, mask, d),
                                    norm(fin, d))
            )
    fit = fit_observability(samples)
    fit_ok = 0.0 < fit.beta < 1.0 and fit.satisfied_fraction == 1.0

    num = time_weight_quadrature(wp_tp.t_final, wp_tp.hbar, constants.c0, t2, t3)
    den = time_weight_quadrature(wp_tp.t_final, wp_tp.hbar, constants.c0, t1, t2)
    quad_ok = abs(constants.m_three_point - num / den) <= 1e-8 * (num / den)

    ok = freq_ok and tp_ok and fit_ok and quad_ok
    _report(
        "7 convexity-suite",
        ok,
        f"freq err 50={e50:.3e} 100={e100:.3e} (ratio {e100/e50:.2f}), "
        f"three-point min slack={min_slack:.3f}, beta={fit.beta:.3f} "
        f"fraction={fit.satisfied_fraction}, constants-vs-quadrature:{quad_ok}",
    )
    assert ok


def test_criterion_8_determinism(tmp_path):
    cfg = validate(replace(ExperimentConfig(), out_dir=str(tmp_path / "runs"), seed=9))
    run_table1(cfg)
    first = (tmp_path / "runs" / "table1" / "summary.json").read_bytes()
    run_table1(cfg)
    second = (tmp_path / "runs" / "table1" / "summary.json").read_bytes()
    ok = first == second
    _report("8 determinism", ok, f"summary.json byte-identical: {ok} ({len(first)} bytes)")
    assert ok
