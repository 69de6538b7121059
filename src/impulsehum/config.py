"""Experiment configuration: JSON-loadable, fully validated, echoed to outputs."""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Optional

import numpy as np

from .convexity import WeightParams, check_admissible
from .evolution import TimeScheme
from .mesh import Grid, SubdomainMask, subdomain_mask


class ConfigError(ValueError):
    """Invalid configuration; ``field`` names the offending entry."""

    def __init__(self, field_name: str, message: str):
        self.field = field_name
        super().__init__(f"config field '{field_name}': {message}")


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment's full parameter set.

    The defaults reproduce the reference setup: unit interval with 25 cells,
    horizon 0.02 with the impulse at 0.01, observation region (0.2, 0.8),
    initial profile sqrt(2) sin(pi x) with zero boundary temperatures, and
    the penalty sweep 1e-2, 1e-3, 1e-4 at stopping tolerance 1e-3.
    """

    a: float = 0.0
    b: float = 1.0
    nx: int = 25
    t_final: float = 0.02
    n_steps: int = 200
    method: str = "crank_nicolson"
    tau: float = 0.01
    omega_lo: float = 0.2
    omega_hi: float = 0.8
    psi0_kind: str = "sine"
    psi0_amplitude: float = math.sqrt(2.0)
    psi0_center: Optional[float] = None
    psi0_width: Optional[float] = None
    psi0_path: Optional[str] = None
    boundary_c: float = 0.0
    boundary_d: float = 0.0
    epsilons: tuple = (1e-2, 1e-3, 1e-4)
    tol: float = 1e-3
    max_iter: Optional[int] = None
    kappa: Optional[float] = None
    x0: float = 0.5
    s: float = 0.9
    hbar: float = 0.004
    ell: float = 2.0
    out_dir: str = "runs"
    snapshot_stride: int = 1
    seed: int = 0

    def to_dict(self) -> dict:
        data = asdict(self)
        data["epsilons"] = list(self.epsilons)
        return data


_PSI0_KINDS = ("sine", "gaussian", "nodes-from-file")


def validate(cfg: ExperimentConfig) -> ExperimentConfig:
    """Validate every field; returns a copy with the step count aligned so
    the impulse time sits exactly on the time grid."""
    if not cfg.a < cfg.b:
        raise ConfigError("b", f"need a < b, got a={cfg.a}, b={cfg.b}")
    if cfg.nx < 2:
        raise ConfigError("nx", f"must be at least 2, got {cfg.nx}")
    if not cfg.t_final > 0:
        raise ConfigError("t_final", f"must be positive, got {cfg.t_final}")
    if cfg.n_steps < 1:
        raise ConfigError("n_steps", f"must be at least 1, got {cfg.n_steps}")
    if cfg.method not in ("crank_nicolson", "backward_euler"):
        raise ConfigError("method", f"unknown method {cfg.method!r}")
    if not 0.0 < cfg.tau < cfg.t_final:
        raise ConfigError("tau", f"must lie in (0, {cfg.t_final}), got {cfg.tau}")
    try:
        make_mask(cfg, make_grid(cfg))
    except ValueError as exc:
        raise ConfigError("omega_lo", str(exc)) from exc
    if cfg.psi0_kind not in _PSI0_KINDS:
        raise ConfigError("psi0_kind", f"must be one of {_PSI0_KINDS}, got {cfg.psi0_kind!r}")
    if cfg.psi0_kind == "nodes-from-file" and not cfg.psi0_path:
        raise ConfigError("psi0_path", "required when psi0_kind is 'nodes-from-file'")
    if cfg.psi0_width is not None and not cfg.psi0_width > 0:
        raise ConfigError("psi0_width", f"must be positive, got {cfg.psi0_width}")
    if not cfg.epsilons:
        raise ConfigError("epsilons", "must not be empty")
    for eps in cfg.epsilons:
        if not eps > 0:
            raise ConfigError("epsilons", f"entries must be positive, got {eps}")
    if not 0.0 < cfg.tol < 1.0:
        raise ConfigError("tol", f"must lie in (0, 1), got {cfg.tol}")
    if cfg.max_iter is not None and cfg.max_iter < 1:
        raise ConfigError("max_iter", f"must be at least 1, got {cfg.max_iter}")
    if cfg.kappa is not None and not cfg.kappa > 0:
        raise ConfigError("kappa", f"must be positive, got {cfg.kappa}")
    if not cfg.a < cfg.x0 < cfg.b:
        raise ConfigError("x0", f"must lie inside ({cfg.a}, {cfg.b}), got {cfg.x0}")
    try:
        wp = WeightParams(x0=cfg.x0, s=cfg.s, hbar=cfg.hbar, t_final=cfg.t_final)
        check_admissible(wp, Grid(cfg.a, cfg.b, cfg.nx))
    except ValueError as exc:
        raise ConfigError("s", str(exc)) from exc
    if not cfg.ell > 1.0:
        raise ConfigError("ell", f"must exceed 1, got {cfg.ell}")
    if cfg.snapshot_stride < 1:
        raise ConfigError("snapshot_stride", f"must be at least 1, got {cfg.snapshot_stride}")
    if cfg.seed < 0:
        raise ConfigError("seed", f"must be nonnegative, got {cfg.seed}")
    try:
        scheme = TimeScheme(cfg.t_final, cfg.n_steps, cfg.method)
        aligned = scheme.with_impulse_alignment(cfg.tau)
    except ValueError as exc:
        raise ConfigError("tau", str(exc)) from exc
    if aligned.n_steps != cfg.n_steps:
        cfg = replace(cfg, n_steps=aligned.n_steps)
    return cfg


def load_config(path, overrides: Optional[dict] = None) -> ExperimentConfig:
    """Read a JSON config file and apply CLI overrides (overrides win)."""
    data = {}
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError("config", f"cannot read {path}: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError("config", f"{path} must hold a JSON object")
    if overrides:
        data.update({k: v for k, v in overrides.items() if v is not None})
    known = set(ExperimentConfig.__dataclass_fields__)
    unknown = set(data) - known
    if unknown:
        raise ConfigError(sorted(unknown)[0], "unknown field")
    if "epsilons" in data:
        data["epsilons"] = tuple(float(e) for e in data["epsilons"])
    try:
        cfg = ExperimentConfig(**data)
    except TypeError as exc:
        raise ConfigError("config", str(exc)) from exc
    return validate(cfg)


def make_grid(cfg: ExperimentConfig) -> Grid:
    return Grid(cfg.a, cfg.b, cfg.nx)


def make_mask(cfg: ExperimentConfig, grid: Grid) -> SubdomainMask:
    return subdomain_mask(grid, cfg.omega_lo, cfg.omega_hi)


def make_scheme(cfg: ExperimentConfig) -> TimeScheme:
    return TimeScheme(cfg.t_final, cfg.n_steps, cfg.method)


def initial_state(cfg: ExperimentConfig, grid: Grid) -> np.ndarray:
    """Initial datum: interior profile per ``psi0_kind``, traces from
    ``boundary_c`` / ``boundary_d``."""
    x = grid.nodes
    if cfg.psi0_kind == "sine":
        xi = (x - cfg.a) / (cfg.b - cfg.a)
        u = cfg.psi0_amplitude * np.sin(np.pi * xi)
    elif cfg.psi0_kind == "gaussian":
        center = cfg.psi0_center if cfg.psi0_center is not None else 0.5 * (cfg.a + cfg.b)
        width = cfg.psi0_width if cfg.psi0_width is not None else 0.1 * (cfg.b - cfg.a)
        if not width > 0:
            raise ConfigError("psi0_width", f"must be positive, got {width}")
        u = cfg.psi0_amplitude * np.exp(-((x - center) ** 2) / (2.0 * width**2))
    else:
        path = Path(cfg.psi0_path)
        try:
            u = np.loadtxt(path, dtype=float, ndmin=1)
        except (OSError, ValueError) as exc:
            raise ConfigError("psi0_path", f"cannot read node values: {exc}") from exc
        if u.shape != (grid.n_dof,):
            raise ConfigError(
                "psi0_path",
                f"file holds {u.shape[0] if u.ndim == 1 else 'malformed'} values, "
                f"expected {grid.n_dof} (one per node)",
            )
    u = np.asarray(u, dtype=float).copy()
    u[0] = cfg.boundary_c
    u[-1] = cfg.boundary_d
    if not np.all(np.isfinite(u)):
        raise ConfigError("psi0_kind", "initial state contains non-finite entries")
    return u
