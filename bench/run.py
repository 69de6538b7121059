"""impulsehum benchmark: one closed-loop caller per workload.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the workload's inputs from the seed, measures cold-start set-up in
fresh interpreters, then runs scenario calls back to back for ``--seconds``
in a fresh worker interpreter and checks every output.  Human-readable lines
go to stdout first; the last line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics`` (end-to-end metrics with
``--trace 0``, per-layer metrics with ``--trace 1``).  A fuller record of the
run is written to ``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import monotonic

from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
# Child interpreters run single-threaded: a 2-core host is shared with the
# parent and with neighbours, and BLAS threads would only add noise.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_ENV)

SETUP_REPEATS = 5
IMPORTTIME_REPEATS = 3
CHILD_TIMEOUT_S = 150
TAIL_BEYOND = 10  # samples that must lie beyond the reported tail percentile


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), str(BENCH),
                                                       env.get("PYTHONPATH")]))
    return env


def run_child(args: list[str], timeout: float = CHILD_TIMEOUT_S) -> subprocess.CompletedProcess:
    """Run one child interpreter to completion (killed and reaped on timeout)."""
    proc = subprocess.run([sys.executable, *args], env=child_env(), cwd=ROOT,
                          capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"child {args[0]} exited {proc.returncode}:\n{proc.stderr}")
    return proc


def measure_setup(config_path: Path) -> list[dict]:
    samples = []
    for _ in range(SETUP_REPEATS):
        spawned = monotonic()
        out = json.loads(run_child([str(BENCH / "setup_child.py"), str(config_path)])
                         .stdout.strip().splitlines()[-1])
        out["setup_s"] = out.pop("ready") - spawned
        samples.append(out)
    return samples


def import_optimize_s() -> float:
    """Cumulative import time of scipy.optimize under ``-X importtime``."""
    values = []
    for _ in range(IMPORTTIME_REPEATS):
        err = run_child(["-X", "importtime", "-c", "import impulsehum.cli"]).stderr
        for line in err.splitlines():
            fields = line.split("|")
            if len(fields) == 3 and fields[2].strip() == "scipy.optimize":
                values.append(int(fields[1]) / 1e6)
    return statistics.median(values)


def tail(durations: list[float]) -> tuple[float, float]:
    """Highest percentile with at least TAIL_BEYOND samples beyond it, and
    its percentile; the median when there are too few samples for that."""
    n = len(durations)
    if n <= 2 * TAIL_BEYOND:
        return statistics.median(durations), 50.0
    return sorted(durations)[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def run(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> dict:
    out_root = ROOT / ".bench_out"
    work = out_root / f"work-{name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        run_child([str(BENCH / "prepare.py"), name, str(seed), str(work), str(int(tiny))])
        spec_path = work / "spec.json"
        spec = json.loads(spec_path.read_text(encoding="utf-8"))
        spec.update(seconds=seconds, trace=trace)
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        setup = measure_setup(Path(spec["config_path"]))
        run_child([str(BENCH / "worker.py"), str(spec_path)], timeout=seconds + CHILD_TIMEOUT_S)
        result = json.loads(Path(spec["result_path"]).read_text(encoding="utf-8"))
        opt_s = import_optimize_s() if trace else None
    finally:
        shutil.rmtree(work, ignore_errors=True)

    durations = result["durations"]
    if not durations or (trace and "per_layer" not in result):
        raise RuntimeError("no op passed its checks; failures:\n" + "\n".join(result["failures"]))
    tail_s, tail_pct = tail(durations)
    median = statistics.median
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "parameters": WORKLOADS[name]["config"], "why": WORKLOADS[name]["why"],
        "loop": "closed, one in-process caller", "environment": result["environment"],
        "attempted": result["attempted"], "failed": result["failed"],
        "failures": result["failures"], "durations_s": durations,
        "tail_percentile": tail_pct, "setup_samples": setup,
        "end_to_end": {
            "setup_s": median(s["setup_s"] for s in setup),
            "scenario_p50_s": median(durations),
            "scenario_tail_s": tail_s,
            "peak_rss_mb": result["peak_rss_mb"],
        },
    }
    if trace:
        record["per_layer"] = {
            "cli.import_s": median(s["import_s"] for s in setup),
            "cli.import_optimize_s": opt_s,
            "config.load_s": median(s["load_s"] for s in setup),
            "mesh.build_s": median(s["build_s"] for s in setup),
            **result["per_layer"],
        }
        record["shares"] = result["shares"]
        record["traced_durations_s"] = result["traced_durations"]
    out_root.mkdir(exist_ok=True)
    (out_root / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=2) + "\n", encoding="utf-8")
    return record


def report(record: dict) -> dict:
    """Print the human-readable lines and return the final JSON object."""
    e2e = record["end_to_end"]
    n, attempted, failed = len(record["durations_s"]), record["attempted"], record["failed"]
    print(f"{record['workload']} seed {record['seed']}: {attempted} ops "
          f"(1 warm-up, {n} timed untraced), closed loop, 1 caller")
    print(f"  setup_s          {e2e['setup_s']:.4f} s   median of {SETUP_REPEATS} fresh interpreters")
    print(f"  scenario_p50_s   {e2e['scenario_p50_s']:.4f} s   {n} samples")
    print(f"  scenario_tail_s  {e2e['scenario_tail_s']:.4f} s   "
          f"p{record['tail_percentile']:.1f} of {n} samples")
    print(f"  peak_rss_mb      {e2e['peak_rss_mb']:.1f} MB")
    print(f"  failed_ops_frac  {failed / attempted:.4f}   {failed} of {attempted} ops")
    for msg in record["failures"]:
        print(f"  FAILED: {msg.strip()}")
    if record["trace"]:
        metrics = {k: {"value": v, "unit": PER_LAYER_UNITS[k]}
                   for k, v in record["per_layer"].items()}
        for k, m in metrics.items():
            print(f"  {k:40s} {m['value']:.6g} {m['unit']}")
    else:
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in e2e.items()}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


END_TO_END_UNITS = {"setup_s": "s", "scenario_p50_s": "s", "scenario_tail_s": "s",
                    "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    "cli.import_s": "s", "cli.import_optimize_s": "s", "config.load_s": "s",
    "mesh.build_s": "s", "evolution.propagations": "count", "evolution.steps": "count",
    "evolution.factorizations": "count", "evolution.factorizations_per_propagation": "ratio",
    "evolution.propagate_s": "s", "evolution.self_s": "s", "evolution.to_csv_s": "s",
    "hum.cg_iterations": "count", "hum.propagations_per_iteration": "ratio",
    "hum.cg_solve_s": "s", "hum.iteration_s": "s", "hum.gramian_apply_s": "s",
    "hum.write_s": "s", "hum.true_residual_rel": "ratio", "scenarios.self_s": "s",
    "scenarios.bytes_written": "bytes", "scenarios.replays_per_solve": "ratio",
    "mesh.inner_calls": "count", "convexity.three_point_s": "s",
    "convexity.frequency_s": "s", "convexity.fit_s": "s", "convexity.split_s": "s",
    "convexity.propagations_per_seed": "ratio", "rng.state_s": "s",
    "trace.overhead_frac": "ratio",
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "impulsehum" / "__init__.py").is_file():
        print(f"error: no impulsehum sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    if args.seed < 0 or not args.seconds > 0:
        print("error: need --seed >= 0 and --seconds > 0", file=sys.stderr)
        return 2
    result = report(run(args.workload, args.seed, args.seconds, bool(args.trace)))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
