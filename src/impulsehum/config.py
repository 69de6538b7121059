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
from .hum import HumConfig
from .mesh import ConfigError, Grid, SubdomainMask, subdomain_mask


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


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _is_finite(v) -> bool:
    # JSON's NaN and Infinity parse to floats; every float field needs a
    # finite value.
    return _is_number(v) and -math.inf < v < math.inf


# What a JSON value must be to fill a field, keyed by the field's annotation.
_ACCEPTS = {
    "float": ("a finite number", _is_finite),
    "int": ("an integer", lambda v: _is_number(v) and isinstance(v, int)),
    "str": ("a string", lambda v: isinstance(v, str)),
    "tuple": ("a list of finite numbers",
              lambda v: isinstance(v, (list, tuple)) and all(map(_is_finite, v))),
}


def validate(cfg: ExperimentConfig) -> ExperimentConfig:
    """Validate every field; returns a copy with the step count aligned so
    the impulse time sits exactly on the time grid.  A field is checked by
    the object that uses it; only fields no object takes are checked here."""
    grid = make_grid(cfg)
    make_mask(cfg, grid)
    aligned = make_scheme(cfg).with_impulse_alignment(cfg.tau)
    if cfg.psi0_kind not in _PSI0_KINDS:
        raise ConfigError("psi0_kind", f"must be one of {_PSI0_KINDS}, got {cfg.psi0_kind!r}")
    if cfg.psi0_kind == "nodes-from-file" and not cfg.psi0_path:
        raise ConfigError("psi0_path", "required when psi0_kind is 'nodes-from-file'")
    if cfg.psi0_width is not None and not cfg.psi0_width > 0:
        raise ConfigError("psi0_width", f"must be positive, got {cfg.psi0_width}")
    if not cfg.epsilons:
        raise ConfigError("epsilons", "must not be empty")
    for eps in cfg.epsilons:
        HumConfig(eps, cfg.tau, cfg.t_final, cfg.tol, cfg.max_iter, cfg.kappa)
    check_admissible(WeightParams(x0=cfg.x0, s=cfg.s, hbar=cfg.hbar, t_final=cfg.t_final), grid)
    if not cfg.ell > 1.0:
        raise ConfigError("ell", f"must exceed 1, got {cfg.ell}")
    if cfg.snapshot_stride < 1:
        raise ConfigError("snapshot_stride", f"must be at least 1, got {cfg.snapshot_stride}")
    if cfg.seed < 0:
        raise ConfigError("seed", f"must be nonnegative, got {cfg.seed}")
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
    fields = ExperimentConfig.__dataclass_fields__
    unknown = sorted(set(data) - set(fields))
    if unknown:
        raise ConfigError(unknown[0], "unknown field")
    for name, value in data.items():
        hint = fields[name].type
        kind = hint.removeprefix("Optional[").removesuffix("]")
        what, accepts = _ACCEPTS[kind]
        if not (value is None and kind != hint) and not accepts(value):
            raise ConfigError(name, f"expected {what}, got {value!r}")
    if "epsilons" in data:
        data["epsilons"] = tuple(float(e) for e in data["epsilons"])
    return validate(ExperimentConfig(**data))


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
        if not np.all(np.isfinite(u)):
            raise ConfigError("psi0_path", "node values must be finite")
    for name, value in (("boundary_c", cfg.boundary_c), ("boundary_d", cfg.boundary_d)):
        if not math.isfinite(value):
            raise ConfigError(name, f"must be finite, got {value}")
    u = np.asarray(u, dtype=float).copy()
    u[0] = cfg.boundary_c
    u[-1] = cfg.boundary_d
    if not np.all(np.isfinite(u)):
        raise ConfigError("psi0_kind", "initial state contains non-finite entries")
    return u
