"""Command line front end.

Exit codes: 0 success, 2 configuration error, 3 solver failure.
"""

from __future__ import annotations

import argparse
import sys
import time

from .config import ConfigError, load_config
from .scenarios import (
    run_controlled,
    run_convexity,
    run_sweep,
    run_table1,
    run_uncontrolled,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="impulsehum",
        description=(
            "Minimal-norm impulse control of the 1-D heat equation with "
            "dynamic boundary conditions, plus convexity verification runs."
        ),
    )
    sub = parser.add_subparsers(dest="scenario", required=True)
    # name -> (help, runner), in the order --help lists them.
    for name, (help_text, run) in {
        "uncontrolled": ("free evolution of the configured initial state", run_uncontrolled),
        "controlled": ("single impulse-controlled solve (first penalty of the list)",
                       lambda cfg: run_controlled(cfg, cfg.epsilons[0])),
        "table1": ("penalty sweep summarized as one table", run_table1),
        "convexity": ("frequency, three-point and observability-fit checks", run_convexity),
        "sweep": ("penalty sweep with full per-cell artifacts", run_sweep),
    }.items():
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(run=run)
        p.add_argument("--config", default=None, help="JSON config file")
        p.add_argument("--out", default=None, help="output directory root")
        p.add_argument(
            "--epsilon",
            default=None,
            help="comma-separated penalty list, e.g. 1e-2,1e-3,1e-4",
        )
        p.add_argument("--nx", type=int, default=None, help="number of grid cells")
        p.add_argument("--nsteps", type=int, default=None, help="number of time steps")
        p.add_argument("--seed", type=int, default=None, help="ensemble seed")
    return parser


def _overrides(args: argparse.Namespace) -> dict:
    ov = {
        "out_dir": args.out,
        "nx": args.nx,
        "n_steps": args.nsteps,
        "seed": args.seed,
    }
    if args.epsilon is not None:
        try:
            ov["epsilons"] = tuple(float(v) for v in args.epsilon.split(","))
        except ValueError as exc:
            raise ConfigError("epsilons", f"cannot parse {args.epsilon!r}: {exc}") from exc
    return ov


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config, _overrides(args))
        t0 = time.perf_counter()
        summary = args.run(cfg)
        wall_time = time.perf_counter() - t0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    failed = [f"CG did not converge at eps={row.epsilon:g}"
              for row in summary.rows if not row.converged]
    if failed:
        print(f"solver failure: {'; '.join(failed)} (partial results kept)", file=sys.stderr)
        return EXIT_SOLVER
    print(f"{summary.scenario}: done in {wall_time:.3f} s "
          f"-> {cfg.out_dir}/{summary.scenario}/")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
