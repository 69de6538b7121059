"""Workload definitions and seeded input generation.

Each workload is one scenario call of the library, driven through the public
config file.  The program receives only what ``write_inputs`` generates from
the seed: a JSON config and, for the HUM workloads, a node file holding the
initial state.
"""

from __future__ import annotations

import json
from pathlib import Path

WORKLOADS = {
    "sweep-nx400": {
        "scenario": "run_sweep",
        "config": {"nx": 400, "n_steps": 200, "epsilons": [1e-2, 1e-3, 1e-4],
                   "snapshot_stride": 1, "tol": 1e-3},
        "seeded_psi0": True,
        "why": "write-heavy: cheap CG (dt/dx^2 = 16) so trajectory/control/report "
               "artifacts and forward replays are about half the op",
    },
    "stiff-nx1600": {
        "scenario": "run_table1",
        "config": {"nx": 1600, "n_steps": 200, "epsilons": [1e-2, 1e-3], "tol": 1e-3},
        "seeded_psi0": True,
        "why": "stiff regime (dt/dx^2 = 256): ~90 CG iterations per op and almost all "
               "time in evolve; only summary.json and report.json are written",
    },
    "convexity-nx25": {
        "scenario": "run_convexity",
        "config": {},
        "seeded_psi0": False,
        "why": "no CG: 135 short free-flow evolves plus frequency, three-point and "
               "lsq_linear fit work; the only workload measuring convexity and rng",
    },
}

# Grid sizes for the benchmark's own smoke test: same code paths, tiny cost.
TINY_NX = {"sweep-nx400": 20, "stiff-nx1600": 40, "convexity-nx25": 25}


def write_inputs(name: str, seed: int, workdir: Path, out_dir: Path,
                 tiny: bool = False) -> Path:
    """Write the workload's config (and node file) into ``workdir``.

    The HUM workloads start from ``random_smooth_state(grid, SplitMix64(seed))``.
    Its endpoint values become ``boundary_c`` / ``boundary_d`` so that the
    program starts from exactly the generated state, traces included.
    """
    from impulsehum.mesh import Grid
    from impulsehum.rng import SplitMix64, random_smooth_state

    spec = WORKLOADS[name]
    cfg = dict(spec["config"], out_dir=str(out_dir), seed=seed)
    if tiny:
        cfg["nx"] = TINY_NX[name]
    if spec["seeded_psi0"]:
        psi0 = random_smooth_state(Grid(0.0, 1.0, cfg["nx"]), SplitMix64(seed))
        node_file = workdir / "psi0.txt"
        node_file.write_text("".join(f"{float(v)!r}\n" for v in psi0), encoding="utf-8")
        cfg.update(psi0_kind="nodes-from-file", psi0_path=str(node_file),
                   boundary_c=float(psi0[0]), boundary_d=float(psi0[-1]))
    path = workdir / "config.json"
    path.write_text(json.dumps(cfg, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return path
