"""Build one run's inputs and expectations in a child interpreter.

    python3 prepare.py WORKLOAD SEED WORKDIR TINY

Writes ``WORKDIR/spec.json`` for ``worker.py``: the generated config, the
exact reference norms (HUM workloads) and the values ``reference.json``
holds for this seed, if any.  It runs in its own process because the dense
reference solve is large, and a worker forked from a large parent would
report the parent's peak memory as its own.
"""

import json
import sys
from pathlib import Path

from exact import exact_rows, norm_bounds
from workloads import WORKLOADS, write_inputs

from impulsehum.config import initial_state, load_config, make_grid


def main(name: str, seed: int, work: Path, tiny: bool) -> None:
    config_path = write_inputs(name, seed, work, work / "out", tiny=tiny)
    cfg = load_config(config_path)
    expect = None
    if WORKLOADS[name]["scenario"] != "run_convexity":
        expect = exact_rows(cfg.to_dict(), initial_state(cfg, make_grid(cfg)))
        for eps, row in expect["rows"].items():
            row["bounds"] = norm_bounds(float(eps), cfg.tol, expect["b_norm"])
    recorded = None
    if not tiny:
        table = json.loads((Path(__file__).parent / "reference.json").read_text(encoding="utf-8"))
        recorded = table.get(name, {}).get(str(seed))
    spec = {"config_path": str(config_path), "scenario": WORKLOADS[name]["scenario"],
            "expect": expect, "recorded": recorded, "probe_dir": str(work / "probe"),
            "result_path": str(work / "result.json")}
    (work / "spec.json").write_text(json.dumps(spec), encoding="utf-8")


if __name__ == "__main__":
    main(sys.argv[1], int(sys.argv[2]), Path(sys.argv[3]), sys.argv[4] == "1")
