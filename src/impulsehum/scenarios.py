"""Scenario orchestration: named experiment runs with flat-file outputs.

Every scenario writes into ``<out>/<scenario>/``: a deterministic
``summary.json`` (byte-identical across reruns with the same config and
seed), plus CSV/JSON artifacts.  Wall-clock timings are returned to the
caller and printed by the CLI but deliberately kept out of summary.json so
reruns stay byte-identical.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from . import convexity as cvx
from .config import (
    ConfigError,
    ExperimentConfig,
    initial_state,
    make_grid,
    make_mask,
    make_scheme,
)
from .evolution import TimeScheme, _evolve_to, evolve_trajectory, solve_impulsive, steps_for
from .hum import (
    CgBreakdownError,
    HumConfig,
    HumSolution,
    cg_solve,
    solution_to_dict,
    write_solution_json,
    write_state_csv,
)
from .mesh import build_discretization, norm
from .rng import SplitMix64, random_smooth_state


@dataclass(frozen=True)
class Table1Row:
    epsilon: float
    iterations: int
    final_norm: float
    control_norm: float
    converged: bool
    error: Optional[str] = None

    def to_dict(self) -> dict:
        """Field dict for JSON output; ``error`` only when set."""
        data = asdict(self)
        if self.error is None:
            del data["error"]
        return data


@dataclass(frozen=True)
class RunSummary:
    scenario: str
    rows: tuple
    wall_time: float


def _jsonify(obj):
    if isinstance(obj, dict):
        return {k: _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return [_jsonify(v) for v in obj]
    if isinstance(obj, np.bool_):
        return bool(obj)
    return obj


def write_json(obj: dict, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(_jsonify(obj), fh, indent=2, sort_keys=True)
        fh.write("\n")


def _scenario_dir(cfg: ExperimentConfig, scenario: str) -> Path:
    out = Path(cfg.out_dir) / scenario
    out.mkdir(parents=True, exist_ok=True)
    return out


def _setup(cfg: ExperimentConfig):
    grid = make_grid(cfg)
    d = build_discretization(grid)
    mask = make_mask(cfg, grid)
    scheme = make_scheme(cfg)
    psi0 = initial_state(cfg, grid)
    return grid, d, mask, scheme, psi0


def _hum_config(cfg: ExperimentConfig, epsilon: float) -> HumConfig:
    return HumConfig(
        epsilon=epsilon,
        tau=cfg.tau,
        t_final=cfg.t_final,
        tol=cfg.tol,
        max_iter=cfg.max_iter,
        kappa=cfg.kappa,
    )


def _row(sol: HumSolution) -> Table1Row:
    return Table1Row(sol.epsilon, sol.iterations, sol.final_norm, sol.control_norm,
                     sol.converged)


def _write_summary(cfg: ExperimentConfig, scenario: str, t0: float, fields: dict,
                   rows=()) -> RunSummary:
    """Write ``summary.json`` (``fields`` plus the scenario name and the
    config echo) and return the run's summary, timed from ``t0``."""
    summary = {"scenario": scenario, "config": cfg.to_dict(), **fields}
    write_json(summary, Path(cfg.out_dir) / scenario / "summary.json")
    return RunSummary(scenario, tuple(rows), time.perf_counter() - t0)


def _write_cell(out: Path, cfg: ExperimentConfig, d, mask, scheme, psi0,
                sol: HumSolution) -> None:
    """Write one solve's ``trajectory.csv`` (replayed at the configured
    snapshot stride), ``control.csv`` and ``report.json`` into ``out``."""
    traj = solve_impulsive(psi0, sol.control, cfg.tau, d, mask, scheme,
                           stride=cfg.snapshot_stride)
    traj.to_csv(out / "trajectory.csv")
    write_state_csv(d.grid.nodes, sol.control, out / "control.csv")
    write_solution_json(sol, out / "report.json")


def run_uncontrolled(cfg: ExperimentConfig) -> RunSummary:
    """Free evolution from the configured initial state."""
    t0 = time.perf_counter()
    grid, d, mask, scheme, psi0 = _setup(cfg)
    traj = evolve_trajectory(psi0, d, scheme, stride=cfg.snapshot_stride)
    traj.to_csv(_scenario_dir(cfg, "uncontrolled") / "trajectory.csv")
    fields = {"initial_norm": norm(psi0, d), "final_norm": norm(traj.final_state, d)}
    return _write_summary(cfg, "uncontrolled", t0, fields)


def run_controlled(cfg: ExperimentConfig, epsilon: float) -> tuple[RunSummary, HumSolution]:
    """One impulse-controlled solve at the given penalty."""
    t0 = time.perf_counter()
    grid, d, mask, scheme, psi0 = _setup(cfg)
    sol = cg_solve(psi0, _hum_config(cfg, epsilon), d, mask, scheme)
    _write_cell(_scenario_dir(cfg, "controlled"), cfg, d, mask, scheme, psi0, sol)
    row = _row(sol)
    fields = {**row.to_dict(), "initial_norm": sol.initial_norm}
    return _write_summary(cfg, "controlled", t0, fields, (row,)), sol


def _penalty_solves(cfg: ExperimentConfig, d, mask, scheme, psi0):
    """One CG solve per penalty, largest first, yielding (row, solution).

    A CG breakdown yields a partial row carrying the error and no solution.
    """
    for eps in sorted(cfg.epsilons, reverse=True):
        try:
            sol = cg_solve(psi0, _hum_config(cfg, eps), d, mask, scheme)
        except CgBreakdownError as exc:
            yield Table1Row(eps, 0, float("nan"), float("nan"), False, str(exc)), None
            continue
        yield _row(sol), sol


def run_table1(cfg: ExperimentConfig) -> RunSummary:
    """Penalty sweep reported as one compact table."""
    t0 = time.perf_counter()
    grid, d, mask, scheme, psi0 = _setup(cfg)
    solves = list(_penalty_solves(cfg, d, mask, scheme, psi0))
    rows = [row for row, _ in solves]
    report = {repr(row.epsilon): solution_to_dict(sol)
              for row, sol in solves if sol is not None}
    write_json({"per_epsilon": report}, _scenario_dir(cfg, "table1") / "report.json")
    return _write_summary(cfg, "table1", t0, {"rows": [r.to_dict() for r in rows]}, rows)


def run_sweep(cfg: ExperimentConfig) -> RunSummary:
    """Like table1, but each penalty cell keeps its full artifacts."""
    t0 = time.perf_counter()
    grid, d, mask, scheme, psi0 = _setup(cfg)
    out = _scenario_dir(cfg, "sweep")
    rows = []
    for i, (row, sol) in enumerate(_penalty_solves(cfg, d, mask, scheme, psi0)):
        rows.append(row)
        cell = out / f"cell{i:02d}_eps_{row.epsilon:g}"
        cell.mkdir(parents=True, exist_ok=True)
        if sol is None:
            write_json({"epsilon": row.epsilon, "error": row.error}, cell / "summary.json")
        else:
            _write_cell(cell, cfg, d, mask, scheme, psi0, sol)
    return _write_summary(cfg, "sweep", t0, {"rows": [r.to_dict() for r in rows]}, rows)


def run_convexity(cfg: ExperimentConfig, n_seeds: int = 20) -> RunSummary:
    """Frequency cross-check, three-point ensemble, and observability fit."""
    t0 = time.perf_counter()
    grid, d, mask, scheme, psi0 = _setup(cfg)
    wp = cvx.WeightParams(x0=cfg.x0, s=cfg.s, hbar=cfg.hbar, t_final=cfg.t_final)
    t3 = cfg.t_final
    t2 = cfg.t_final - cfg.ell * cfg.hbar
    t1 = cfg.t_final - 2.0 * cfg.ell * cfg.hbar
    constants = cvx.convexity_constants(wp, grid, cfg.ell, t1, t2, t3)

    traj = evolve_trajectory(psi0, d, scheme, stride=cfg.snapshot_stride)
    try:
        freq = cvx.frequency(traj, wp, d)
    except ValueError as exc:
        raise ConfigError("psi0_kind", str(exc)) from exc
    mid = len(freq.times) // 2
    freq_rel_err = abs(freq.freq_direct[mid] - freq.freq_oracle[mid]) / abs(
        freq.freq_oracle[mid]
    )

    states = [random_smooth_state(grid, SplitMix64(cfg.seed + i)) for i in range(n_seeds)]
    # One plan for the whole ensemble, one state per column: t1, t2, t3 on
    # the configured scheme and the 1x/2.5x/5x observability horizons on
    # their own schemes.  Targets that share a step size share one march.
    times = (t1, t2, t3)
    horizons = [(mult * cfg.t_final, int(round(cfg.n_steps * mult)))
                for mult in (1.0, 2.5, 5.0)]
    targets = [steps_for(t, scheme) for t in times] + [
        steps_for(h, TimeScheme(h, n, cfg.method)) for h, n in horizons
    ]
    at = _evolve_to(np.column_stack(states), targets, d, scheme.theta)
    checks = [cvx._three_point([block[:, i] for block in at[:3]], times,
                               constants.m_three_point, constants.d_three_point, wp, d, scheme)
              for i in range(n_seeds)]
    finals = [(h, block) for (h, _), block in zip(horizons, at[3:])]
    samples = [
        cvx.ObservabilitySample(
            t_final=horizon,
            initial=norm(u0, d),
            observed=cvx.subdomain_norm(final[:, i], mask, d),
            final=norm(final[:, i], d),
        )
        for i, u0 in enumerate(states)
        for horizon, final in finals
    ]
    fit = cvx.fit_observability(samples)
    # The 1x horizon runs the configured scheme, so its block already holds
    # each state at t_final.
    at_t_final = at[3]
    split_slacks = [cvx._split_slack(u0, at_t_final[:, i], eps, fit, d, mask, cfg.t_final)
                    for eps in (1.0, 0.1, 0.01) for i, u0 in enumerate(states[:5])]

    out = _scenario_dir(cfg, "convexity")
    cvx.write_frequency_csv(freq, out / "frequency.csv")
    violations = sum(1 for c in checks if not c.passed)
    report = {
        "constants": {**asdict(constants), "t1": t1, "t2": t2, "t3": t3},
        "three_point": {
            "n_seeds": n_seeds,
            "violations": violations,
            "slacks": [c.slack for c in checks],
            "tolerances": [c.tolerance for c in checks],
        },
        "fit": asdict(fit),
        "split_slacks": split_slacks,
        "frequency_mid_rel_error": freq_rel_err,
    }
    write_json(report, out / "report.json")
    return _write_summary(cfg, "convexity", t0, {
        "c0": constants.c0,
        "c_const": constants.c_const,
        "three_point_violations": violations,
        "fitted_beta": fit.beta,
        "fitted_mu": fit.mu,
        "fitted_k": fit.k_const,
        "satisfied_fraction": fit.satisfied_fraction,
        "frequency_mid_rel_error": freq_rel_err,
    })
