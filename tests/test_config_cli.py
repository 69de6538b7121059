import json
import math
import tracemalloc

import numpy as np
import pytest

from impulsehum import (
    ConfigError,
    ExperimentConfig,
    SplitMix64,
    build_discretization,
    initial_state,
    load_config,
    norm,
    pre_impulse_flow,
    run_controlled,
    run_convexity,
    run_sweep,
    run_table1,
    run_uncontrolled,
    steps_for,
    validate,
)
from impulsehum import evolution, scenarios
from impulsehum.cli import EXIT_CONFIG, EXIT_OK, EXIT_SOLVER, main
from impulsehum.config import MAX_DATUM, make_grid, make_scheme
from impulsehum.scenarios import _row

from dataclasses import replace

SCENARIOS = ("uncontrolled", "controlled", "table1", "sweep", "convexity")


def _strict_json(path):
    """Parse ``path`` as strict JSON: NaN and Infinity are errors."""
    def reject(constant):
        raise ValueError(f"{path}: {constant} is not JSON")

    return json.loads(path.read_text(), parse_constant=reject)


def test_defaults_validate():
    cfg = validate(ExperimentConfig())
    assert cfg.nx == 25 and cfg.t_final == 0.02 and cfg.tau == 0.01
    assert cfg.epsilons == (1e-2, 1e-3, 1e-4)
    assert cfg.psi0_amplitude == pytest.approx(np.sqrt(2.0))


FIELD_CASES = [
    ("nx", 1, "nx"),
    ("tau", 0.05, "tau"),
    ("omega_lo", -0.1, "omega_lo"),
    ("tol", 2.0, "tol"),
    ("epsilons", (), "epsilons"),
    ("snapshot_stride", 0, "snapshot_stride"),
    ("psi0_kind", "noise", "psi0_kind"),
    ("ell", 0.5, "ell"),
    ("method", "leapfrog", "method"),
    ("b", 0.0, "b"),
    ("t_final", 0.0, "t_final"),
    ("tau", 1e-13, "tau"),  # rounds to step 0, which the impulse solver rejects
    ("n_steps", 0, "n_steps"),
    ("max_iter", 0, "max_iter"),
    ("s", 5.0, "s"),
    ("epsilons", (1e-2, -1e-3), "epsilons"),
    ("x0", 1.5, "x0"),
    ("hbar", 0.0, "hbar"),
    ("seed", -1, "seed"),
    ("psi0_kind", "nodes-from-file", "psi0_path"),
    ("psi0_width", 0.0, "psi0_width"),
    # non-finite numbers, which JSON spells NaN and Infinity
    ("a", float("nan"), "a"),
    ("t_final", float("inf"), "t_final"),
    ("ell", float("inf"), "ell"),
    ("psi0_center", float("inf"), "psi0_center"),
    ("psi0_amplitude", float("inf"), "psi0_amplitude"),
    ("boundary_c", float("inf"), "boundary_c"),
    ("boundary_d", float("-inf"), "boundary_d"),
    ("epsilons", (1e-2, float("nan")), "epsilons"),
    # a repeated penalty would be solved twice and keep one report entry
    ("epsilons", (1e-2, 1e-2, 1e-3), "epsilons"),
    ("psi0_width", float("inf"), "psi0_width"),
    # SplitMix64 keeps 64 bits, so 2**64 would run seed 0's ensemble
    ("seed", 2**64, "seed"),
    # kappa is an argument of solve_cost_weighted, not a field: whatever its
    # value, a config that sets it is refused as an unknown field
    ("kappa", -1.0, "kappa"),
    ("kappa", float("inf"), "kappa"),
    # an interval past b is omega_hi's fault when omega_lo lies inside (a, b)
    ("omega_hi", 1.5, "omega_hi"),
]


# Test ids name the (field, value) that is set, as pytest would for two arguments.
@pytest.mark.parametrize(
    "field,value,expected_field",
    FIELD_CASES,
    ids=[f"{f}-{v}" if np.isscalar(v) else f"{f}-value{i}"
         for i, (f, v, _) in enumerate(FIELD_CASES)],
)
def test_validation_names_offending_field(field, value, expected_field):
    # Every value is set both on a config built in Python and through the
    # JSON loader.
    if field in ExperimentConfig.__dataclass_fields__:
        with pytest.raises(ConfigError) as err:
            validate(replace(ExperimentConfig(), **{field: value}))
        assert err.value.field == expected_field
    else:
        with pytest.raises(TypeError, match=field):
            replace(ExperimentConfig(), **{field: value})
    with pytest.raises(ConfigError) as err:
        load_config(None, {field: value})
    assert err.value.field == expected_field


def test_kappa_is_an_unknown_field(tmp_path, capsys):
    # kappa is an argument of solve_cost_weighted, not a config field
    with pytest.raises(ConfigError) as err:
        load_config(None, {"kappa": 1e3})
    assert err.value.field == "kappa" and "unknown field" in str(err.value)
    path = tmp_path / "kappa.json"
    path.write_text(json.dumps({"kappa": 1e3}))
    assert main(["controlled", "--config", str(path), "--out", str(tmp_path)]) == EXIT_CONFIG
    assert "config field 'kappa'" in capsys.readouterr().err


def test_validation_aligns_impulse_steps():
    cfg = validate(replace(ExperimentConfig(), n_steps=7, t_final=0.03, tau=0.01))
    assert cfg.n_steps == 9


def test_unplaceable_impulse_is_config_error(tmp_path):
    # tau / t_final = 100001 / 200000 would need 200 000 steps, 1 000 times
    # the 200 asked for.
    with pytest.raises(ConfigError) as err:
        validate(replace(ExperimentConfig(), tau=0.0100001))
    assert err.value.field == "tau"
    assert "200000 steps" in str(err.value) and "t_final/n_steps=0.0001" in str(err.value)
    path = tmp_path / "tau.json"
    path.write_text(json.dumps({"tau": 0.0100001}))
    assert main(["controlled", "--config", str(path), "--out", str(tmp_path)]) == EXIT_CONFIG


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_tau_read_as_final_step_exits_2_before_any_step(scenario, final_step_tau, step_count,
                                                         tmp_path, capsys):
    # Such a tau leaves no step for the control to act over; validation
    # rejects it, so no scenario takes a step.
    tau, t_final, n_steps = final_step_tau
    path = tmp_path / "tau.json"
    path.write_text(json.dumps({"tau": tau, "t_final": t_final, "n_steps": n_steps}))
    assert main([scenario, "--config", str(path), "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    assert "config field 'tau'" in capsys.readouterr().err
    assert step_count[0] == 0


def test_inadmissible_weight_slope_is_config_error(tmp_path):
    cfg = replace(ExperimentConfig(), a=0.0, b=10.0, omega_lo=2.0, omega_hi=8.0,
                  x0=5.0, s=1.0, tau=0.01)
    with pytest.raises(ConfigError) as err:
        validate(cfg)
    assert err.value.field == "s"
    # valid on their own, but the convexity constants reject them
    for field, value in (("s", 0.0), ("hbar", 0.006), ("hbar", 1e-300)):
        cfg = validate(replace(ExperimentConfig(), out_dir=str(tmp_path), **{field: value}))
        with pytest.raises(ConfigError) as err:
            run_convexity(cfg, n_seeds=2)
        assert err.value.field == field


def test_omega_without_grid_node_is_config_error(tmp_path):
    cfg = replace(ExperimentConfig(), omega_lo=0.41, omega_hi=0.42)
    with pytest.raises(ConfigError) as err:
        validate(cfg)
    assert err.value.field == "omega_lo"
    path = tmp_path / "narrow.json"
    path.write_text(json.dumps({"omega_lo": 0.41, "omega_hi": 0.42}))
    for scenario in ("uncontrolled", "controlled", "table1", "sweep", "convexity"):
        argv = [scenario, "--config", str(path), "--out", str(tmp_path / "out")]
        assert main(argv) == EXIT_CONFIG


def test_initial_state_kinds(tmp_path):
    cfg = validate(ExperimentConfig())
    grid = make_grid(cfg)
    u = initial_state(cfg, grid)
    assert u[0] == 0.0 and u[-1] == 0.0
    assert u[13] == pytest.approx(np.sqrt(2.0) * np.sin(np.pi * grid.nodes[13]))

    gauss = validate(replace(cfg, psi0_kind="gaussian", psi0_center=0.4, psi0_width=0.05))
    ug = initial_state(gauss, grid)
    assert ug[10] == pytest.approx(np.sqrt(2.0) * np.exp(-((grid.nodes[10] - 0.4) ** 2) / (2 * 0.05**2)))

    path = tmp_path / "nodes.txt"
    np.savetxt(path, np.linspace(0.0, 1.0, 26))
    filecfg = validate(replace(cfg, psi0_kind="nodes-from-file", psi0_path=str(path),
                               boundary_c=5.0, boundary_d=-2.0))
    uf = initial_state(filecfg, grid)
    assert uf[0] == 5.0 and uf[-1] == -2.0

    short = tmp_path / "short.txt"
    np.savetxt(short, np.ones(10))
    with pytest.raises(ConfigError):
        initial_state(validate(replace(cfg, psi0_kind="nodes-from-file", psi0_path=str(short))), grid)


@pytest.mark.parametrize("text", ["", "\n  \n", "# no values\n"], ids=["empty", "blank", "comment"])
def test_node_file_without_values_is_config_error(text, tmp_path, capsys):
    # numpy warns on a file without values; with warnings as errors (as
    # here) only the ConfigError may come out, and the CLI exits 2
    nodes = tmp_path / "nodes.txt"
    nodes.write_text(text)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"psi0_kind": "nodes-from-file", "psi0_path": str(nodes)}))
    cfg = load_config(path)
    with pytest.raises(ConfigError) as err:
        initial_state(cfg, make_grid(cfg))
    assert err.value.field == "psi0_path"
    assert main(["uncontrolled", "--config", str(path), "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    assert "'psi0_path'" in capsys.readouterr().err


def test_load_config_json_and_overrides(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"nx": 10, "epsilons": [0.1, 0.01]}))
    cfg = load_config(path, {"nx": 12, "seed": 3})
    assert cfg.nx == 12 and cfg.seed == 3 and cfg.epsilons == (0.1, 0.01)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"mystery_field": 1}))
    with pytest.raises(ConfigError):
        load_config(bad)


def test_run_uncontrolled_zero_state(tmp_path):
    cfg = validate(replace(ExperimentConfig(), psi0_amplitude=0.0, out_dir=str(tmp_path)))
    run_uncontrolled(cfg)
    summary = json.loads((tmp_path / "uncontrolled" / "summary.json").read_text())
    assert summary["initial_norm"] == 0.0 and summary["final_norm"] == 0.0
    rows = (tmp_path / "uncontrolled" / "trajectory.csv").read_text().strip().split("\n")
    assert all(float(v) == 0.0 for v in rows[1].split(",")[1:])


def test_run_uncontrolled_constant_is_steady(tmp_path):
    values = tmp_path / "const.txt"
    np.savetxt(values, np.full(26, 1.5))
    cfg = validate(replace(
        ExperimentConfig(), psi0_kind="nodes-from-file", psi0_path=str(values),
        boundary_c=1.5, boundary_d=1.5, out_dir=str(tmp_path),
    ))
    run_uncontrolled(cfg)
    summary = json.loads((tmp_path / "uncontrolled" / "summary.json").read_text())
    assert summary["final_norm"] == pytest.approx(summary["initial_norm"], rel=1e-12)


def test_run_uncontrolled_default_decays(tmp_path):
    cfg = validate(replace(ExperimentConfig(), out_dir=str(tmp_path)))
    run_uncontrolled(cfg)
    summary = json.loads((tmp_path / "uncontrolled" / "summary.json").read_text())
    assert summary["final_norm"] < summary["initial_norm"]


def test_run_controlled_reduces_final_norm(tmp_path):
    # At tau 0.013 the impulse step 0.013 / dt and the span T - tau are grid
    # multiples only up to roundoff.
    for tau in (0.01, 0.013):
        out = tmp_path / str(tau)
        cfg = validate(replace(ExperimentConfig(), tau=tau, out_dir=str(out)))
        run_uncontrolled(cfg)
        (sol,) = run_controlled(cfg, 1e-2).rows
        unc = _strict_json(out / "uncontrolled" / "summary.json")
        assert sol.converged and sol.final_norm < unc["final_norm"]
        for name in ("summary.json", "report.json"):
            _strict_json(out / "controlled" / name)
        for name in ("trajectory.csv", "control.csv"):
            assert (out / "controlled" / name).exists()


def test_run_table1_rows_sorted_and_deterministic(tmp_path):
    cfg = validate(replace(ExperimentConfig(), epsilons=(1e-3, 1e-2, 1e-4),
                           out_dir=str(tmp_path)))
    summary = run_table1(cfg)
    eps = [r.epsilon for r in summary.rows]
    assert eps == [1e-2, 1e-3, 1e-4]
    # a rerun reproduces every row, and the report holds one entry per row
    assert [_row(r) for r in run_table1(cfg).rows] == [_row(r) for r in summary.rows]
    report = _strict_json(tmp_path / "table1" / "report.json")
    assert sorted(map(float, report["per_epsilon"]), reverse=True) == eps
    # A tau accepted 1.35e-7 steps off step 150 is read as step 150 by every
    # leg of the solve, so its rows equal the exact tau's.
    rows = []
    for tau in (0.015, 0.0150000000135):
        run_table1(replace(cfg, tau=tau, out_dir=str(tmp_path / str(tau))))
        rows.append(_strict_json(tmp_path / str(tau) / "table1" / "summary.json")["rows"])
    assert rows[0] == rows[1]


def test_run_table1_nx4_matches_dense_oracle_pipeline(tmp_path):
    # the whole table pipeline, replayed with dense linear algebra on the
    # tiny grid: eigendecomposition semigroup, dense solve, same norms
    import oracles
    from impulsehum import Grid, build_discretization, norm, subdomain_mask

    cfg = validate(replace(ExperimentConfig(), nx=4, n_steps=2000, tol=1e-8,
                           out_dir=str(tmp_path)))
    summary = run_table1(cfg)

    grid = Grid(0.0, 1.0, 4)
    d = build_discretization(grid)
    mask = subdomain_mask(grid, 0.2, 0.8)
    e = oracles.dense_semigroup(d, 0.01)
    lam = e @ np.diag(mask.mask) @ e
    psi0 = initial_state(cfg, grid)
    b = e @ (e @ psi0)
    for row in summary.rows:
        theta = np.linalg.solve(lam + row.epsilon * np.eye(5), -b)
        h = mask.mask * (e @ theta)
        final = b + e @ h
        h_norm = np.sqrt(grid.dx * np.sum(mask.mask * h * h))
        f_norm = norm(final, d)
        assert row.control_norm == pytest.approx(h_norm, rel=1e-6)
        assert row.final_norm == pytest.approx(f_norm, rel=1e-6)


def test_run_sweep_emits_cells(tmp_path):
    for tau in (0.01, 0.013):
        out = tmp_path / str(tau) / "sweep"
        cfg = validate(replace(ExperimentConfig(), tau=tau, epsilons=(1e-2, 1e-3),
                               out_dir=str(out.parent)))
        assert all(row.converged for row in run_sweep(cfg).rows)
        _strict_json(out / "summary.json")
        cells = sorted(p.name for p in out.iterdir() if p.is_dir())
        assert cells == ["cell00_eps_0.01", "cell01_eps_0.001"]
        for cell in cells:
            assert (out / cell / "control.csv").exists()
            _strict_json(out / cell / "report.json")


def test_sweep_cells_share_the_free_rows(tmp_path):
    # The impulse sits at step 100; stride 3 keeps 0, 3, ..., 99 and 100.
    cfg = validate(replace(ExperimentConfig(), snapshot_stride=3, out_dir=str(tmp_path)))
    run_sweep(cfg)
    cells = sorted(p for p in (tmp_path / "sweep").iterdir() if p.is_dir())
    files = [(cell / "trajectory.csv").read_text().splitlines() for cell in cells]
    assert len(files) == 3
    n_free = 1 + len(range(0, 100, 3)) + 1
    for lines in files:
        assert lines[0].startswith("t,x_0,")
        assert lines[:n_free] == files[0][:n_free]
    assert [float(lines[n_free - 1].split(",")[0]) for lines in files] == [0.01] * 3
    assert [float(lines[n_free].split(",")[0]) for lines in files] == [0.01] * 3
    # the post-jump rows carry each cell's own control
    assert len({lines[n_free] for lines in files}) == 3


def test_breakdown_is_an_unconverged_row(tmp_path, force_breakdown):
    # A curvature that is not positive at iteration 3 of the 1e-3 solve (4
    # iterations when unbroken) leaves its row unconverged at 2 iterations;
    # the other penalties and every artifact are written as usual.
    force_breakdown(3, 1e-3)
    cfg = validate(replace(ExperimentConfig(), out_dir=str(tmp_path)))
    for run in (run_table1, run_sweep):
        rows = run(cfg).rows
        assert [(r.epsilon, r.converged) for r in rows] == [(1e-2, True), (1e-3, False),
                                                            (1e-4, True)]
        assert rows[1].iterations == 2 and rows[1].final_norm > 0.0
        summary = _strict_json(tmp_path / run.__name__.removeprefix("run_") / "summary.json")
        assert summary["rows"] == [_row(r) for r in rows]
    report = _strict_json(tmp_path / "table1" / "report.json")
    assert sorted(report["per_epsilon"]) == ["0.0001", "0.001", "0.01"]
    assert report["per_epsilon"]["0.001"]["converged"] is False
    cells = sorted(p for p in (tmp_path / "sweep").iterdir() if p.is_dir())
    assert [c.name for c in cells] == ["cell00_eps_0.01", "cell01_eps_0.001", "cell02_eps_0.0001"]
    for cell in cells:
        assert sorted(p.name for p in cell.iterdir()) == ["control.csv", "report.json",
                                                          "trajectory.csv"]
        _strict_json(cell / "report.json")


def test_cli_breakdown_exits_as_solver_failure(tmp_path, capsys, force_breakdown):
    force_breakdown(3, 1e-3)
    for scenario in ("controlled", "table1", "sweep"):
        capsys.readouterr()
        assert main([scenario, "--out", str(tmp_path), "--epsilon", "1e-3,1e-2"]) == EXIT_SOLVER
        err = capsys.readouterr().err
        assert "eps=0.001" in err and "eps=0.01" not in err
    summary = _strict_json(tmp_path / "controlled" / "summary.json")
    assert summary["epsilon"] == 1e-3 and summary["converged"] is False


def test_default_scenario_step_counts(tmp_path, step_count):
    # With n = 200 steps and the impulse at k = 100, every solve marches psi0
    # to the impulse (k steps) and b, each CG propagation, the control and
    # the final state over the n - k steps after it; the CSV scenarios march
    # psi0 to the impulse once more for the rows they share.
    cfg = validate(replace(ExperimentConfig(), out_dir=str(tmp_path)))
    for call, steps in ((lambda: run_controlled(cfg, 1e-2), 1400), (lambda: run_table1(cfg), 3800),
                        (lambda: run_sweep(cfg), 4200)):
        step_count[0] = 0
        call()
        assert step_count[0] == steps


def test_sweep_holds_one_trajectory_at_a_time(tmp_path):
    # At the benchmark's sweep-nx400 config the free flow to the impulse and
    # each cell's flow after it hold 101 snapshots of 401 entries (325 KB).
    # A sweep op holds the free flow and one other.  The slack of 100
    # states (320 KB) covers one formatted row, the solves' vectors, the
    # step's buffers and the open files: about 160 KB in all.
    cfg = validate(replace(ExperimentConfig(), nx=400, n_steps=200, snapshot_stride=1,
                           epsilons=(1e-2, 1e-3, 1e-4), tol=1e-3, out_dir=str(tmp_path)))
    run_sweep(cfg)  # first-call caches are not the op's
    tracemalloc.start()
    try:
        run_sweep(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    grid = make_grid(cfg)
    free = pre_impulse_flow(initial_state(cfg, grid), cfg.tau, build_discretization(grid),
                            make_scheme(cfg))
    assert free.states.shape == (101, 401)
    assert peak < 2 * (free.times.nbytes + free.states.nbytes) + 100 * free.states[0].nbytes


def test_run_convexity_reports_constants(tmp_path):
    # The report echoes the calibrated times T - 2 ell hbar, T - ell hbar, T;
    # at ell 3 and hbar 0.002 they are 0.008, 0.014, 0.02 exactly.
    for data, times in (({}, (0.004, 0.012, 0.02)),
                        ({"ell": 3.0, "hbar": 0.002}, (0.008, 0.014, 0.02))):
        out = tmp_path / str(len(data)) / "convexity"
        cfg = validate(replace(ExperimentConfig(), out_dir=str(out.parent), **data))
        run_convexity(cfg, n_seeds=5)
        report = _strict_json(out / "report.json")
        constants = report["constants"]
        assert constants["c0"] == pytest.approx(0.89875, abs=1e-12)
        assert (constants["t1"], constants["t2"], constants["t3"]) == times
        assert report["three_point"]["violations"] == 0
        assert (out / "frequency.csv").exists()
        summary = _strict_json(out / "summary.json")
        assert 0.0 < summary["fitted_beta"] < 1.0


def test_run_convexity_takes_each_seed_norm_once(tmp_path, monkeypatch):
    # per seed, its initial norm once and its final norm at each of the
    # three fit horizons
    calls = [0]

    def counting(u, d):
        calls[0] += 1
        return norm(u, d)

    monkeypatch.setattr(scenarios, "norm", counting)
    run_convexity(validate(replace(ExperimentConfig(), out_dir=str(tmp_path))), n_seeds=5)
    assert calls[0] == 5 * (1 + 3)


# The default plan, and one whose 2.5x horizon (512.5 steps of 0.02 / 205)
# is off the time grid.
ODD_PLAN = {"tau": 0.004, "n_steps": 205}


@pytest.mark.parametrize("data, steps", [
    ({}, [40, 120, 200, 500, 1000]),
    (ODD_PLAN, [41, 123, 205, 513, 1025]),
], ids=["default", "tau0.004-n205"])
def test_run_convexity_plans_every_target_with_steps_for(tmp_path, monkeypatch, data, steps):
    # t1, t2, t3 = T and the 2.5x and 5x horizons all come from steps_for on
    # the configured scheme; only an off-grid time gets its own step size.
    cfg = validate(replace(ExperimentConfig(), out_dir=str(tmp_path), **data))
    scheme = make_scheme(cfg)
    t = cfg.t_final
    expected = [steps_for(x, scheme) for x in (t - 2 * cfg.ell * cfg.hbar,
                                               t - cfg.ell * cfg.hbar, t, 2.5 * t, 5.0 * t)]
    assert [n for n, _ in expected] == steps
    assert [dt == scheme.dt for _, dt in expected] == [True, True, True, data != ODD_PLAN, True]
    plans = []
    evolve_to = scenarios._evolve_to

    def recording(u0, targets, d, theta):
        plans.append(list(targets))
        return evolve_to(u0, targets, d, theta)

    monkeypatch.setattr(scenarios, "_evolve_to", recording)
    run_convexity(cfg, n_seeds=5)
    assert plans == [expected]


@pytest.mark.parametrize("data, steps, marches", [({}, 20_200, 2), (ODD_PLAN, 30_965, 3)],
                         ids=["default", "tau0.004-n205"])
def test_run_convexity_step_counts(tmp_path, step_count, data, steps, marches):
    # The frequency trajectory takes n steps; the 20-state ensemble takes
    # 5n at the scheme's dt in one march, plus one more march for a 2.5x
    # horizon off the grid.
    cfg = validate(replace(ExperimentConfig(), out_dir=str(tmp_path), **data))
    run_convexity(cfg)
    assert step_count == [steps, marches]


def test_convexity_horizon_past_max_steps_is_config_error(tmp_path, capsys, monkeypatch):
    # 20 000 002 steps pass validate, but the 5x horizon would take
    # 100 000 010 > MAX_STEPS; the plan refuses it before any step.
    def refuse(*args, **kwargs):
        raise AssertionError("marched")

    monkeypatch.setattr(evolution, "_march", refuse)
    cfg = validate(replace(ExperimentConfig(), out_dir=str(tmp_path), n_steps=20_000_002))
    with pytest.raises(ConfigError) as err:
        run_convexity(cfg)
    assert err.value.field == "n_steps"
    capsys.readouterr()
    assert main(["convexity", "--nsteps", "20000002", "--out", str(tmp_path)]) == EXIT_CONFIG
    assert "config field 'n_steps'" in capsys.readouterr().err


def test_cli_exit_codes(tmp_path, capsys, step_count):
    assert main(["uncontrolled", "--out", str(tmp_path / "a")]) == EXIT_OK
    assert main(["table1", "--out", str(tmp_path / "b"), "--epsilon", "1e-2"]) == EXIT_OK
    # malformed penalty list and invalid fields are config errors
    assert main(["table1", "--epsilon", "zero"]) == EXIT_CONFIG
    cfg = tmp_path / "bad.json"
    for bad in ({"omega_lo": 0.9}, {"nx": "25"}, {"nx": 25.5}, {"seed": "a"},
                {"epsilons": 0.01}, {"epsilons": ["x"]}, {"boundary_c": math.inf},
                {"psi0_amplitude": math.inf}, {"a": math.nan}, {"t_final": math.inf},
                {"epsilons": [1e-2, -math.inf]}, {"epsilons": [0.01, 0.01, 0.001]}):
        cfg.write_text(json.dumps(bad))
        assert main(["uncontrolled", "--config", str(cfg)]) == EXIT_CONFIG
        with pytest.raises(ConfigError) as err:
            load_config(cfg)
        assert err.value.field == next(iter(bad))
    # non-finite node values are the node file's fault, a non-finite trace
    # (set in Python, past validate) its own field's
    nodes = tmp_path / "nodes.txt"
    nodes.write_text("0.0\n" * 13 + "nan\n" + "0.0\n" * 12)
    cfg.write_text(json.dumps({"psi0_kind": "nodes-from-file", "psi0_path": str(nodes)}))
    assert main(["uncontrolled", "--config", str(cfg), "--out", str(tmp_path / "e")]) == EXIT_CONFIG
    filecfg = load_config(cfg)
    grid = make_grid(filecfg)
    with pytest.raises(ConfigError) as err:
        initial_state(filecfg, grid)
    assert err.value.field == "psi0_path"
    for name in ("boundary_c", "boundary_d"):
        with pytest.raises(ConfigError) as err:
            initial_state(replace(ExperimentConfig(), **{name: math.nan}), grid)
        assert err.value.field == name
    # an iteration cap of 1 cannot converge: solver failure
    capped = tmp_path / "capped.json"
    capped.write_text(json.dumps({"max_iter": 1, "epsilons": [1e-4]}))
    # in every scenario that solves, and the message names the penalty
    for scenario in ("controlled", "table1", "sweep"):
        capsys.readouterr()
        assert main([scenario, "--config", str(capped),
                     "--out", str(tmp_path / "c")]) == EXIT_SOLVER
        err = capsys.readouterr().err
        assert "eps=0.0001" in err and "sweep cell" not in err
    # an output path that names a file is the out_dir field's fault, found
    # before any step is taken: the scenario's directory or a sweep cell's,
    # and then no cell is written
    runs = [(scenario, cfg) for scenario in SCENARIOS]
    for cell in ("cell00_eps_0.1", "cell01_eps_0.01"):
        (tmp_path / cell / "sweep").mkdir(parents=True)
        (tmp_path / cell / "sweep" / cell).write_text("")
        runs.append(("sweep", tmp_path / cell))
    for scenario, out in runs:
        capsys.readouterr()
        step_count[0] = 0
        assert main([scenario, "--out", str(out), "--epsilon", "1e-1,1e-2"]) == EXIT_CONFIG
        assert "'out_dir'" in capsys.readouterr().err
        assert step_count[0] == 0
    assert not list((tmp_path / "cell01_eps_0.01" / "sweep" / "cell00_eps_0.1").iterdir())


def test_datum_beyond_the_bound_is_config_error(tmp_path, capsys, step_count):
    # Past MAX_DATUM the weighted products overflow; the field that set the
    # entry is named before any step is taken, in every scenario.  On a
    # domain of length 1e10 entries of 1e150 are past the bound on the
    # weighted norm, and the field with its largest share is named.  Ends of
    # +-1e308 are finite, but their width b - a overflows: b is named.
    nodes = tmp_path / "nodes.txt"
    nodes.write_text("0.0\n" * 13 + "1e200\n" + "0.0\n" * 12)
    cfg = tmp_path / "huge.json"
    wide = {"b": 1e10, "omega_lo": 2e9, "omega_hi": 8e9, "x0": 5e9, "s": 1e-5,
            "t_final": 1e17, "tau": 5e16, "hbar": 1}
    for data in ({"psi0_amplitude": 1e154},
                 {"psi0_kind": "nodes-from-file", "psi0_path": str(nodes)},
                 {"boundary_c": 1e154}, {"boundary_d": -1e200},
                 {**wide, "psi0_amplitude": 1e150}, {**wide, "boundary_c": 1e150},
                 {"a": -1e308, "b": 1e308}):
        cfg.write_text(json.dumps(data))
        field = next(reversed(data))
        for scenario in SCENARIOS:
            capsys.readouterr()
            step_count[0] = 0
            argv = [scenario, "--config", str(cfg), "--out", str(tmp_path / "out")]
            assert main(argv) == EXIT_CONFIG
            assert f"'{field}'" in capsys.readouterr().err
            assert step_count[0] == 0


def test_datum_at_the_bound_writes_strict_json(tmp_path):
    cfg = tmp_path / "bound.json"
    cfg.write_text(json.dumps({"psi0_amplitude": MAX_DATUM, "boundary_c": MAX_DATUM,
                               "boundary_d": -MAX_DATUM}))
    out = tmp_path / "out"
    for scenario in SCENARIOS:
        assert main([scenario, "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    written = sorted(out.rglob("*.json"))
    # summary.json of each scenario, the report.json of controlled, table1,
    # convexity and each of the three sweep cells
    assert len(written) == 5 + 3 + 3
    for path in written:
        _strict_json(path)


def test_cli_convexity_zero_state_is_config_error(tmp_path, capsys):
    cfg = tmp_path / "zero.json"
    cfg.write_text(json.dumps({"psi0_amplitude": 0.0}))
    assert main(["convexity", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_CONFIG
    assert "psi0_kind" in capsys.readouterr().err
    zero = validate(replace(ExperimentConfig(), psi0_amplitude=0.0, out_dir=str(tmp_path)))
    with pytest.raises(ConfigError, match="vanishes") as err:
        run_convexity(zero, n_seeds=10)
    assert err.value.field == "psi0_kind"


def test_cli_convexity_underflowing_weight_names_hbar(tmp_path, capsys):
    # With hbar = 1e-7, exp(Phi/2) underflows at t = T on every node of the
    # default grid while the sine datum's state there is nonzero.
    cfg = tmp_path / "hbar.json"
    cfg.write_text(json.dumps({"hbar": 1e-7}))
    assert main(["convexity", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "'hbar'" in err and "vanishes at t=0.02" in err and "psi0_kind" not in err


def test_cli_summary_byte_identical(tmp_path):
    out = tmp_path / "runs"
    argv = ["table1", "--out", str(out), "--epsilon", "1e-2,1e-3", "--seed", "5"]
    assert main(argv) == EXIT_OK
    first = (out / "table1" / "summary.json").read_bytes()
    assert main(argv) == EXIT_OK
    second = (out / "table1" / "summary.json").read_bytes()
    assert first == second


def test_splitmix64_reference_vector():
    # published outputs of the splitmix64 update rule for seed 0
    r = SplitMix64(0)
    assert [r.next_u64() for _ in range(3)] == [
        0xE220A8397B1DCDAF,
        0x6E789E6AA1B965F4,
        0x06C45D188009454F,
    ]
    f = SplitMix64(123).next_float()
    assert 0.0 <= f < 1.0
