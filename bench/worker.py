"""Closed-loop op runner: one caller, each scenario call starts after the
previous one returned.

Run as ``python3 worker.py SPEC_JSON`` by ``run.py`` in a fresh interpreter,
so that the peak resident memory it reports belongs to the workload alone.
Every op is checked after it returns, outside the timed region.  With
tracing on, untraced and traced ops alternate; the untraced ones give the
overhead baseline and the traced ones the per-layer numbers.
"""

from __future__ import annotations

import json
import math
import os
import platform
import resource
import statistics
import sys
import traceback
from collections import Counter
from dataclasses import replace
from pathlib import Path
from time import perf_counter

import numpy as np
import scipy

from tracer import Tracer

from impulsehum import scenarios
from impulsehum.config import initial_state, load_config, make_grid, make_mask, make_scheme
from impulsehum.evolution import evolve
from impulsehum.hum import HumConfig, gramian_apply
from impulsehum.mesh import build_discretization, norm

# Recorded values must match to this relative tolerance and iteration counts
# exactly: a correct change of propagator or solver keeps CG's iterates to
# roundoff, while a wrong answer moves the norms by far more.
RECORDED_RTOL = 1e-6
CONVEXITY_SEEDS = 20  # run_convexity's ensemble size
GRAMIAN_CALLS = 7
WRITERS = ("hum.write_solution_json", "hum.write_state_csv")


class Checker:
    """Algorithm-independent checks on one op's outputs."""

    def __init__(self, spec: dict, cfg):
        self.spec = spec
        self.cfg = cfg
        self.summary_bytes = None

    def check(self, summary, residuals: list[tuple[float, bool]]) -> list[str]:
        out = Path(self.cfg.out_dir) / summary.scenario
        raw = (out / "summary.json").read_bytes()
        if self.summary_bytes is None:
            self.summary_bytes = raw
        problems = [] if raw == self.summary_bytes else ["summary.json differs from the first op"]
        data = json.loads(raw)
        if summary.scenario == "convexity":
            problems += self._convexity(data)
        else:
            problems += self._hum(data)
        problems += [f"converged solve has true residual {r:.3g} > tol"
                     for r, conv in residuals if conv and r > self.cfg.tol]
        return problems

    def _hum(self, data: dict) -> list[str]:
        problems = []
        expect, recorded = self.spec["expect"], self.spec["recorded"]
        for i, row in enumerate(data["rows"]):
            eps = row["epsilon"]
            if "error" in row or not row["converged"]:
                problems.append(f"eps={eps}: not converged or error {row.get('error')!r}")
                continue
            if not row["final_norm"] < expect["initial_norm"]:
                problems.append(f"eps={eps}: final_norm {row['final_norm']} >= initial norm")
            exact = expect["rows"][repr(float(eps))]
            for key, bound in zip(("final_norm", "control_norm"), exact["bounds"]):
                if not abs(row[key] - exact[key]) <= bound:
                    problems.append(f"eps={eps}: {key} {row[key]} is off the exact "
                                    f"{exact[key]} by more than {bound:.3g}")
            if recorded is not None:
                ref = recorded["rows"][i]
                if row["iterations"] != ref["iterations"]:
                    problems.append(f"eps={eps}: {row['iterations']} iterations, "
                                    f"recorded {ref['iterations']}")
                for key in ("final_norm", "control_norm"):
                    if not math.isclose(row[key], ref[key], rel_tol=RECORDED_RTOL):
                        problems.append(f"eps={eps}: {key} {row[key]}, recorded {ref[key]}")
        return problems

    def _convexity(self, data: dict) -> list[str]:
        problems = []
        if data["three_point_violations"] != 0:
            problems.append(f"{data['three_point_violations']} three-point violations")
        if data["satisfied_fraction"] != 1.0:
            problems.append(f"satisfied_fraction {data['satisfied_fraction']}")
        recorded = self.spec["recorded"]
        for key, ref in (recorded or {}).items():
            if not math.isclose(data[key], ref, rel_tol=RECORDED_RTOL):
                problems.append(f"{key} {data[key]}, recorded {ref}")
        return problems


def true_residuals(tracer) -> list[tuple[float, bool]]:
    """|(Lambda + eps I) f + E(T) psi0| / |E(T) psi0| for each captured solve,
    through the public (untraced) evolve and gramian_apply."""
    out = []
    for (psi0, cfg, d, mask, scheme, *_), sol in tracer.captured:
        b = evolve(psi0, cfg.t_final, d, scheme)
        r = gramian_apply(sol.minimizer, cfg, d, mask, scheme) + cfg.epsilon * sol.minimizer + b
        out.append((norm(r, d) / norm(b, d), bool(sol.converged)))
    return out


def op_stats(tr: Tracer, residuals: list[tuple[float, bool]]) -> dict:
    """Reduce one traced call's spans to per-op numbers and per-call samples."""
    own = tr.self_times()
    names = [s[0] for s in tr.spans]
    dur = [end - start for _, start, end, _ in tr.spans]
    calls = Counter(names)
    layer_self = Counter()
    samples: dict[str, list[float]] = {}
    for name, o, d in zip(names, own, dur):
        layer_self[name.split(".")[0]] += o
        samples.setdefault(name, []).append(d)
    cg = [i for i, n in enumerate(names) if n == "hum.cg_solve"]
    iters = [sol.iterations for _, sol in tr.captured]
    evolve_idx = [i for i, n in enumerate(names) if n == "evolution.evolve"]
    evolve_in_cg = sum(1 for i in evolve_idx if tr.under(i, "hum.cg_solve"))
    root = next(i for i, s in enumerate(tr.spans) if s[3] == -1)
    propagations = sum(calls[n] for n in ("evolution.evolve", "evolution.evolve_trajectory",
                                          "evolution.solve_impulsive"))
    return {
        "calls": calls,
        "counts": tr.counts,
        "layer_self": layer_self,
        "samples": samples,
        "evolve_self": [own[i] for i in evolve_idx],
        "cg_self": [own[i] for i in cg],
        "cg_per_iteration": [dur[i] / k for i, k in zip(cg, iters) if k],
        "iterations": sum(iters),
        "evolve_in_cg": evolve_in_cg,
        "propagations": propagations,
        "op_s": dur[root],
        "residuals": [r for r, _ in residuals],
    }


def per_layer(stats: list[dict], probes: list[dict], scenario: str, cfg, psi0,
              bytes_written: list[int], untraced: list[float], traced: list[float]) -> dict:
    def med(values):
        return float(statistics.median(values)) if values else 0.0

    def per_op(fn):
        return med([fn(s) for s in stats])

    def pooled(key_fn):
        # One call's time: from the ops' own calls, else from the probe
        # scenario run on this workload's config.
        for source in (stats, probes):
            values = [v for s in source for v in key_fn(s)]
            if values:
                return med(values)
        return 0.0

    def sample(*names):
        return lambda s: [v for n in names for v in s["samples"].get(n, [])]

    d = build_discretization(make_grid(cfg))
    hcfg = HumConfig(epsilon=cfg.epsilons[0], tau=cfg.tau, t_final=cfg.t_final, tol=cfg.tol)
    mask, scheme = make_mask(cfg, d.grid), make_scheme(cfg)
    gram = []
    for _ in range(GRAMIAN_CALLS):
        t0 = perf_counter()
        gramian_apply(psi0, hcfg, d, mask, scheme)
        gram.append(perf_counter() - t0)

    residual_source = stats if any(s["residuals"] for s in stats) else probes
    return {
        "evolution.propagations": per_op(lambda s: s["calls"]["evolution.evolve"]),
        "evolution.steps": per_op(lambda s: s["counts"]["evolution.steps"]),
        "evolution.factorizations": per_op(lambda s: s["counts"]["evolution.factorizations"]),
        "evolution.factorizations_per_propagation": per_op(
            lambda s: s["counts"]["evolution.factorizations"] / max(s["propagations"], 1)),
        "evolution.propagate_s": pooled(lambda s: s["evolve_self"]),
        "evolution.self_s": per_op(lambda s: s["layer_self"]["evolution"]),
        "evolution.to_csv_s": pooled(sample("evolution.to_csv")),
        "hum.cg_iterations": per_op(lambda s: s["iterations"]),
        "hum.propagations_per_iteration": per_op(
            lambda s: s["evolve_in_cg"] / s["iterations"] if s["iterations"] else 0.0),
        "hum.cg_solve_s": pooled(lambda s: s["cg_self"]),
        "hum.iteration_s": pooled(lambda s: s["cg_per_iteration"]),
        "hum.gramian_apply_s": med(gram),
        "hum.write_s": pooled(sample(*WRITERS)),
        "hum.true_residual_rel": max((r for s in residual_source for r in s["residuals"]),
                                     default=0.0),
        "scenarios.self_s": per_op(lambda s: s["layer_self"]["scenarios"]),
        "scenarios.bytes_written": med(bytes_written),
        "scenarios.replays_per_solve": per_op(
            lambda s: s["calls"]["evolution.solve_impulsive"] / s["calls"]["hum.cg_solve"]
            if s["calls"]["hum.cg_solve"] else 0.0),
        "mesh.inner_calls": per_op(lambda s: s["counts"]["mesh.inner_calls"]),
        "convexity.three_point_s": pooled(sample("convexity.three_point_check")),
        "convexity.frequency_s": pooled(sample("convexity.frequency")),
        "convexity.fit_s": pooled(sample("convexity.fit_observability")),
        "convexity.split_s": pooled(sample("convexity.epsilon_split_slack")),
        "convexity.propagations_per_seed": per_op(
            lambda s: s["calls"]["evolution.evolve"] / CONVEXITY_SEEDS)
        if scenario == "run_convexity" else 0.0,
        "rng.state_s": pooled(sample("rng.random_smooth_state")),
        "trace.overhead_frac": (med(traced) - med(untraced)) / med(untraced),
    }


def shares(stats: list[dict]) -> dict:
    """Where the traced ops' time went, for checking the sizing notes."""
    def share(*names):
        return statistics.median(
            sum(sum(s["samples"].get(n, [])) for n in names) / s["op_s"] for s in stats)
    return {
        "evolve_share": share("evolution.evolve"),
        "to_csv_share": share("evolution.to_csv"),
        "evolve_calls_per_op": statistics.median(s["calls"]["evolution.evolve"] for s in stats),
    }


def dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    cfg = load_config(spec["config_path"])
    checker = Checker(spec, cfg)
    scenario = spec["scenario"]
    attempted, failures = 0, []
    untraced, traced, stats, bytes_written = [], [], [], []

    def one_op(trace: bool):
        nonlocal attempted
        attempted += 1
        tracer = Tracer() if trace else None
        if tracer is not None:
            tracer.install()
        t0 = perf_counter()
        try:
            summary = getattr(scenarios, scenario)(cfg)
        except Exception:  # a raising op is a failed op; the loop keeps going
            summary = None
            failures.append(traceback.format_exc(limit=3))
        elapsed = perf_counter() - t0
        if tracer is not None:
            tracer.uninstall()
        if summary is None:
            return None, None
        residuals = true_residuals(tracer) if tracer is not None else []
        problems = checker.check(summary, residuals)
        if problems:
            failures.append("; ".join(problems))
            return None, None
        return elapsed, op_stats(tracer, residuals) if tracer is not None else None

    one_op(False)  # warm-up: first-op file creation and lazy set-up, checked, not timed
    start = perf_counter()
    i = 0
    while perf_counter() - start < spec["seconds"] or i < 2:
        trace = spec["trace"] and i % 2 == 1
        elapsed, op = one_op(trace)
        i += 1
        if elapsed is None:
            continue
        if trace:
            traced.append(elapsed)
            stats.append(op)
            bytes_written.append(dir_bytes(Path(cfg.out_dir)))
        else:
            untraced.append(elapsed)

    result = {
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:5],
        "durations": untraced,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "environment": {"python": platform.python_version(), "numpy": np.__version__,
                        "scipy": scipy.__version__, "nproc": len(os.sched_getaffinity(0)),
                        "machine": platform.machine()},
    }
    if spec["trace"] and stats and untraced:
        probes = []
        probe_cfg = replace(cfg, out_dir=spec["probe_dir"])
        seen = set().union(*(s["calls"] for s in stats))
        if not {"evolution.to_csv", "hum.cg_solve", *WRITERS} <= seen:
            with Tracer() as tr:
                scenarios.run_controlled(probe_cfg, probe_cfg.epsilons[0])
            probes.append(op_stats(tr, true_residuals(tr)))
        if "convexity.three_point_check" not in seen:
            with Tracer() as tr:
                scenarios.run_convexity(probe_cfg, n_seeds=4)
            probes.append(op_stats(tr, []))
        psi0 = initial_state(cfg, make_grid(cfg))
        result["per_layer"] = per_layer(stats, probes, scenario, cfg, psi0,
                                        bytes_written, untraced, traced)
        result["shares"] = shares(stats)
        result["traced_durations"] = traced
    Path(spec["result_path"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
