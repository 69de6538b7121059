import json
import math

import numpy as np
import pytest

from impulsehum import (
    ConfigError,
    ExperimentConfig,
    SplitMix64,
    initial_state,
    load_config,
    norm,
    run_controlled,
    run_convexity,
    run_sweep,
    run_table1,
    run_uncontrolled,
    validate,
)
from impulsehum import scenarios
from impulsehum.cli import EXIT_CONFIG, EXIT_OK, EXIT_SOLVER, main
from impulsehum.hum import CgBreakdownError
from impulsehum.config import make_grid

from dataclasses import replace


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
    ("kappa", -1.0, "kappa"),
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
    ("kappa", float("inf"), "kappa"),
    ("psi0_amplitude", float("inf"), "psi0_amplitude"),
    ("boundary_c", float("inf"), "boundary_c"),
    ("boundary_d", float("-inf"), "boundary_d"),
    ("epsilons", (1e-2, float("nan")), "epsilons"),
]


# Test ids name the (field, value) that is set, as pytest would for two arguments.
@pytest.mark.parametrize(
    "field,value,expected_field",
    FIELD_CASES,
    ids=[f"{f}-{v}" if np.isscalar(v) else f"{f}-value{i}"
         for i, (f, v, _) in enumerate(FIELD_CASES)],
)
def test_validation_names_offending_field(field, value, expected_field):
    # validate takes a config built in Python; non-finite numbers are the
    # loader's to reject, and every value goes through the loader as well.
    if all(math.isfinite(v) for v in np.ravel(value) if isinstance(v, float)):
        cfg = replace(ExperimentConfig(), **{field: value})
        with pytest.raises(ConfigError) as err:
            validate(cfg)
        assert err.value.field == expected_field
    with pytest.raises(ConfigError) as err:
        load_config(None, {field: value})
    assert err.value.field == expected_field


def test_validation_aligns_impulse_steps():
    cfg = validate(replace(ExperimentConfig(), n_steps=7, t_final=0.03, tau=0.01))
    assert cfg.n_steps == 9


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
    cfg = validate(replace(ExperimentConfig(), out_dir=str(tmp_path)))
    run_uncontrolled(cfg)
    _, sol = run_controlled(cfg, 1e-2)
    unc = json.loads((tmp_path / "uncontrolled" / "summary.json").read_text())
    assert sol.final_norm < unc["final_norm"]
    for name in ("summary.json", "trajectory.csv", "control.csv", "report.json"):
        assert (tmp_path / "controlled" / name).exists()


def test_run_table1_rows_sorted_and_deterministic(tmp_path):
    cfg = validate(replace(ExperimentConfig(), epsilons=(1e-3, 1e-2, 1e-3),
                           out_dir=str(tmp_path)))
    summary = run_table1(cfg)
    eps = [r.epsilon for r in summary.rows]
    assert eps == sorted(eps, reverse=True)
    dup = [r for r in summary.rows if r.epsilon == 1e-3]
    assert dup[0] == dup[1]


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
    cfg = validate(replace(ExperimentConfig(), epsilons=(1e-2, 1e-3), out_dir=str(tmp_path)))
    run_sweep(cfg)
    cells = sorted(p.name for p in (tmp_path / "sweep").iterdir() if p.is_dir())
    assert cells == ["cell00_eps_0.01", "cell01_eps_0.001"]
    for cell in cells:
        assert (tmp_path / "sweep" / cell / "control.csv").exists()


def test_breakdown_keeps_partial_rows(tmp_path, monkeypatch):
    real = scenarios.cg_solve

    def flaky(psi0, cfg, d, mask, scheme):
        if cfg.epsilon == 1e-3:
            raise CgBreakdownError("forced")
        return real(psi0, cfg, d, mask, scheme)

    monkeypatch.setattr(scenarios, "cg_solve", flaky)
    cfg = validate(replace(ExperimentConfig(), out_dir=str(tmp_path)))
    for run in (run_table1, run_sweep):
        rows = run(cfg).rows
        assert [r.epsilon for r in rows] == [1e-2, 1e-3, 1e-4]
        assert [r.error for r in rows] == [None, "forced", None]
        assert rows[1].iterations == 0 and np.isnan(rows[1].final_norm)
    report = json.loads((tmp_path / "table1" / "report.json").read_text())
    assert sorted(report["per_epsilon"]) == ["0.0001", "0.01"]
    cell = json.loads((tmp_path / "sweep" / "cell01_eps_0.001" / "summary.json").read_text())
    assert cell == {"epsilon": 1e-3, "error": "forced"}
    assert (tmp_path / "sweep" / "cell02_eps_0.0001" / "control.csv").exists()


def test_run_convexity_reports_constants(tmp_path):
    cfg = validate(replace(ExperimentConfig(), out_dir=str(tmp_path)))
    run_convexity(cfg, n_seeds=5)
    report = json.loads((tmp_path / "convexity" / "report.json").read_text())
    assert report["constants"]["c0"] == pytest.approx(0.89875, abs=1e-12)
    assert report["three_point"]["violations"] == 0
    assert (tmp_path / "convexity" / "frequency.csv").exists()
    summary = json.loads((tmp_path / "convexity" / "summary.json").read_text())
    assert 0.0 < summary["fitted_beta"] < 1.0


def test_cli_exit_codes(tmp_path):
    assert main(["uncontrolled", "--out", str(tmp_path / "a")]) == EXIT_OK
    assert main(["table1", "--out", str(tmp_path / "b"), "--epsilon", "1e-2"]) == EXIT_OK
    # malformed penalty list and invalid fields are config errors
    assert main(["table1", "--epsilon", "zero"]) == EXIT_CONFIG
    cfg = tmp_path / "bad.json"
    for bad in ({"omega_lo": 0.9}, {"nx": "25"}, {"nx": 25.5}, {"seed": "a"},
                {"epsilons": 0.01}, {"epsilons": ["x"]}, {"boundary_c": math.inf},
                {"psi0_amplitude": math.inf}, {"a": math.nan}, {"t_final": math.inf},
                {"epsilons": [1e-2, -math.inf]}):
        cfg.write_text(json.dumps(bad))
        assert main(["uncontrolled", "--config", str(cfg)]) == EXIT_CONFIG
        with pytest.raises(ConfigError) as err:
            load_config(cfg)
        assert err.value.field == next(iter(bad))
    # non-finite node values are the node file's fault, a non-finite trace
    # (set in Python, past the loader) its own field's
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
            initial_state(validate(replace(ExperimentConfig(), **{name: math.nan})), grid)
        assert err.value.field == name
    # an iteration cap of 1 cannot converge: solver failure
    capped = tmp_path / "capped.json"
    capped.write_text(json.dumps({"max_iter": 1, "epsilons": [1e-4]}))
    assert main(["controlled", "--config", str(capped), "--out", str(tmp_path / "c")]) == EXIT_SOLVER
    assert main(["sweep", "--config", str(capped), "--out", str(tmp_path / "d")]) == EXIT_SOLVER


def test_cli_convexity_zero_state_is_config_error(tmp_path, capsys):
    cfg = tmp_path / "zero.json"
    cfg.write_text(json.dumps({"psi0_amplitude": 0.0}))
    assert main(["convexity", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_CONFIG
    assert "psi0_kind" in capsys.readouterr().err
    zero = validate(replace(ExperimentConfig(), psi0_amplitude=0.0, out_dir=str(tmp_path)))
    with pytest.raises(ConfigError, match="vanishes") as err:
        run_convexity(zero, n_seeds=10)
    assert err.value.field == "psi0_kind"


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
