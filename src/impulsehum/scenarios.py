"""Scenario orchestration: named experiment runs with flat-file outputs.

Every scenario writes into ``<out>/<scenario>/``: a deterministic
``summary.json`` (byte-identical across reruns with the same config and
seed), plus CSV/JSON artifacts.  Only the CLI times a run; no timing enters
summary.json, so reruns stay byte-identical.
"""

from __future__ import annotations

import numbers
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import convexity as cvx
from .config import (
    ConfigError,
    ExperimentConfig,
    initial_state,
    make_grid,
    make_hum_config,
    make_mask,
    make_scheme,
    make_weight,
)
from .evolution import (
    _evolve_to,
    _write_trajectory_csvs,
    evolve_trajectory,
    post_impulse_flow,
    pre_impulse_flow,
    steps_for,
)
from .hum import (
    HumSolution,
    _write_json as write_json,  # one JSON format; traced under this name
    cg_solve,
    solution_to_dict,
    write_solution_json,
    write_state_csv,
)
from .mesh import build_discretization, norm
from .rng import SplitMix64, random_smooth_state


@dataclass(frozen=True)
class RunSummary:
    """One scenario run: its name and its HUM solves in penalty order (empty
    for the free-flow scenarios)."""

    scenario: str
    rows: tuple[HumSolution, ...]


# The files of one penalty cell: the controlled scenario's and each sweep cell's.
_CELL_FILES = ("trajectory.csv", "control.csv", "report.json")


def _setup(cfg: ExperimentConfig, scenario: str, files):
    """Create ``<out>/<scenario>/`` and the directories of ``files``, the
    paths the scenario writes below it besides ``summary.json``, before any
    computation, so an unusable ``out_dir`` fails at once (a file path that
    is a directory included), then build the configured problem."""
    out = Path(cfg.out_dir) / scenario
    paths = [out / name for name in ("summary.json", *files)]
    for path in dict.fromkeys(path.parent for path in paths):
        try:
            path.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError("out_dir", f"cannot create {path}: {exc.strerror}") from exc
    for path in paths:
        if path.is_dir():
            raise ConfigError("out_dir", f"cannot write {path}: it is a directory")
    grid = make_grid(cfg)
    d = build_discretization(grid)
    mask = make_mask(cfg, grid)
    scheme = make_scheme(cfg)
    psi0 = initial_state(cfg, grid)
    return out, d, mask, scheme, psi0


def _row(sol: HumSolution) -> dict:
    """The solve's ``summary.json`` row."""
    return {"epsilon": sol.epsilon, "iterations": sol.iterations,
            "final_norm": sol.final_norm, "control_norm": sol.control_norm,
            "converged": sol.converged}


def _write_summary(cfg: ExperimentConfig, out: Path, fields: dict, rows=()) -> RunSummary:
    """Write ``summary.json`` (``fields`` plus the scenario name and the
    config echo) into the scenario directory ``out`` from :func:`_setup`
    and return the run's summary."""
    summary = {"scenario": out.name, "config": cfg.to_dict(), **fields}
    write_json(summary, out / "summary.json")
    return RunSummary(out.name, tuple(rows))


def _write_cells(dirs, solves, cfg: ExperimentConfig, d, mask, scheme, psi0) -> None:
    """Write the :data:`_CELL_FILES` of each solve into its directory of
    ``dirs``.  The free rows are marched and formatted once for every cell;
    each cell's later flow is marched when its file is reached, so one is
    held at a time."""
    free = pre_impulse_flow(psi0, cfg.tau, d, scheme, stride=cfg.snapshot_stride)
    posts = (post_impulse_flow(free, sol.control, d, mask, scheme, stride=cfg.snapshot_stride)
             for sol in solves)
    trajectory, control, report = _CELL_FILES
    _write_trajectory_csvs([cell / trajectory for cell in dirs], free, posts)
    for cell, sol in zip(dirs, solves):
        write_state_csv(d.grid.nodes, sol.control, cell / control)
        write_solution_json(sol, cell / report)


def run_uncontrolled(cfg: ExperimentConfig) -> RunSummary:
    """Free evolution from the configured initial state."""
    out, d, mask, scheme, psi0 = _setup(cfg, "uncontrolled", ["trajectory.csv"])
    traj = evolve_trajectory(psi0, d, scheme, stride=cfg.snapshot_stride)
    traj.to_csv(out / "trajectory.csv")
    fields = {"initial_norm": norm(psi0, d), "final_norm": norm(traj.final_state, d)}
    return _write_summary(cfg, out, fields)


def run_controlled(cfg: ExperimentConfig, epsilon: float) -> RunSummary:
    """One impulse-controlled solve at the given penalty."""
    out, d, mask, scheme, psi0 = _setup(cfg, "controlled", _CELL_FILES)
    sol = cg_solve(psi0, make_hum_config(cfg, epsilon), d, mask, scheme)
    _write_cells([out], [sol], cfg, d, mask, scheme, psi0)
    fields = {**_row(sol), "initial_norm": sol.initial_norm}
    return _write_summary(cfg, out, fields, (sol,))


def _penalty_solves(cfg: ExperimentConfig, d, mask, scheme, psi0):
    """One CG solve per penalty, largest first, yielding each solution."""
    for eps in sorted(cfg.epsilons, reverse=True):
        yield cg_solve(psi0, make_hum_config(cfg, eps), d, mask, scheme)


def run_table1(cfg: ExperimentConfig) -> RunSummary:
    """Penalty sweep reported as one compact table."""
    out, d, mask, scheme, psi0 = _setup(cfg, "table1", ["report.json"])
    solves = list(_penalty_solves(cfg, d, mask, scheme, psi0))
    report = {repr(sol.epsilon): solution_to_dict(sol) for sol in solves}
    write_json({"per_epsilon": report}, out / "report.json")
    return _write_summary(cfg, out, {"rows": [_row(sol) for sol in solves]}, solves)


def run_sweep(cfg: ExperimentConfig) -> RunSummary:
    """Like table1, but each penalty cell, made before any solve, keeps the
    controlled scenario's artifacts."""
    names = [f"cell{i:02d}_eps_{eps:g}"
             for i, eps in enumerate(sorted(cfg.epsilons, reverse=True))]
    out, d, mask, scheme, psi0 = _setup(
        cfg, "sweep", [f"{name}/{file}" for name in names for file in _CELL_FILES])
    solves = list(_penalty_solves(cfg, d, mask, scheme, psi0))
    _write_cells([out / name for name in names], solves, cfg, d, mask, scheme, psi0)
    return _write_summary(cfg, out, {"rows": [_row(sol) for sol in solves]}, solves)


def run_convexity(cfg: ExperimentConfig, n_seeds: int = 20) -> RunSummary:
    """Frequency cross-check, three-point ensemble, and observability fit."""
    out, d, mask, scheme, psi0 = _setup(cfg, "convexity", ["frequency.csv", "report.json"])
    wp = make_weight(cfg)
    constants = cvx.convexity_constants(wp, d.grid, cfg.ell)
    # One plan for the ensemble, made before any step: t1, t2, t3 = T (the 1x
    # horizon) and the 2.5x and 5x horizons, all on the configured time grid.
    # Targets that share a step size share one march.
    times = (constants.t1, constants.t2, constants.t3, 2.5 * cfg.t_final, 5.0 * cfg.t_final)
    try:
        targets = [steps_for(t, scheme) for t in times]
    except ValueError as exc:
        raise ConfigError("n_steps", str(exc)) from exc
    if not isinstance(n_seeds, numbers.Integral) or n_seeds < 4:
        raise ValueError(f"n_seeds must be an integer >= 4 (the fit needs 10 samples, one per "
                         f"seed at each of 3 horizons), got {n_seeds!r}")

    traj = evolve_trajectory(psi0, d, scheme, stride=cfg.snapshot_stride)
    try:
        freq = cvx.frequency(traj, wp, d)
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError("psi0_kind", str(exc)) from exc
    mid = len(freq.times) // 2
    freq_rel_err = abs(freq.freq_direct[mid] - freq.freq_oracle[mid]) / abs(
        freq.freq_oracle[mid]
    )

    states = [random_smooth_state(d.grid, SplitMix64(cfg.seed + i)) for i in range(n_seeds)]
    at = _evolve_to(np.column_stack(states), targets, d, scheme.theta)
    checks = [cvx.three_point_check([block[:, i] for block in at[:3]], wp, d, scheme, constants)
              for i in range(n_seeds)]
    samples = [
        cvx.ObservabilitySample(
            t_final=horizon,
            initial=initial,
            observed=cvx.subdomain_norm(final[:, i], mask, d),
            final=norm(final[:, i], d),
        )
        for i, initial in enumerate(norm(u0, d) for u0 in states)
        for horizon, final in zip(times[2:], at[2:])
    ]
    fit = cvx.fit_observability(samples)
    split_slacks = [cvx.epsilon_split_slack(u0, at[2][:, i], eps, fit, d, mask, cfg.t_final)
                    for eps in (1.0, 0.1, 0.01) for i, u0 in enumerate(states[:5])]

    cvx.write_frequency_csv(freq, out / "frequency.csv")
    violations = sum(1 for c in checks if not c.passed)
    report = {
        "constants": asdict(constants),
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
    return _write_summary(cfg, out, {
        "c0": constants.c0,
        "c_const": constants.c_const,
        "three_point_violations": violations,
        "fitted_beta": fit.beta,
        "fitted_mu": fit.mu,
        "fitted_k": fit.k_const,
        "satisfied_fraction": fit.satisfied_fraction,
        "frequency_mid_rel_error": freq_rel_err,
    })
