"""Record the values the benchmark's correctness gate compares against.

    python3 bench/record_reference.py [N_SEEDS]

Runs each workload's scenario once per seed 0..N_SEEDS-1 (default 100) and
writes ``bench/reference.json``.  Run it only on a commit whose answers are
trusted; the gate then holds every later commit to those answers.
"""

import json
import os
import shutil
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]
os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")

from workloads import WORKLOADS, write_inputs  # noqa: E402

from impulsehum import scenarios  # noqa: E402
from impulsehum.config import load_config  # noqa: E402


def recorded_values(summary: dict) -> dict:
    if summary["scenario"] == "convexity":
        return {k: v for k, v in summary.items() if k not in ("scenario", "config")}
    return {"rows": [{k: row[k] for k in ("epsilon", "iterations", "final_norm", "control_norm")}
                     for row in summary["rows"]]}


def main(n_seeds: int) -> None:
    work = BENCH.parent / ".bench_out" / "record"
    table = {}
    for name, spec in WORKLOADS.items():
        table[name] = {}
        for seed in range(n_seeds):
            shutil.rmtree(work, ignore_errors=True)
            work.mkdir(parents=True)
            cfg = load_config(write_inputs(name, seed, work, work / "out"))
            result = getattr(scenarios, spec["scenario"])(cfg)
            summary = json.loads((work / "out" / result.scenario / "summary.json").read_text())
            table[name][str(seed)] = recorded_values(summary)
        print(f"{name}: {n_seeds} seeds recorded", flush=True)
    shutil.rmtree(work, ignore_errors=True)
    (BENCH / "reference.json").write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 100)
