"""Self-test of the benchmark itself (not part of the library's test suite).

    python3 bench/selftest.py

1. A tiny-size smoke run of every workload, untraced and traced, must pass
   its checks and print every metric named in BENCHMARK.json with its unit.
2. A deliberately corrupted expected value must be counted as a failed op.
"""

import json
import shutil

import run

SEED = 7


def smoke() -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for name in run.WORKLOADS:
        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            result = run.report(run.run(name, SEED, 1.0, trace, tiny=True))
            assert result["correct"] and result["failed"] == 0, (name, trace, result)
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: m["unit"] for k, m in result["metrics"].items()}
            assert got == want, (name, trace, set(got) ^ set(want))
            print(f"ok: {name} trace={int(trace)}: {len(got)} metrics")


def corrupted(name: str, corrupt) -> dict:
    """Run the worker on a spec whose expectations ``corrupt`` altered."""
    work = run.ROOT / ".bench_out" / f"selftest-{name}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        run.run_child([str(run.BENCH / "prepare.py"), name, str(SEED), str(work), "1"])
        spec_path = work / "spec.json"
        spec = json.loads(spec_path.read_text(encoding="utf-8"))
        corrupt(spec)
        spec.update(seconds=0.5, trace=False)
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        run.run_child([str(run.BENCH / "worker.py"), str(spec_path)])
        return json.loads((work / "result.json").read_text(encoding="utf-8"))
    finally:
        shutil.rmtree(work, ignore_errors=True)


def corrupt_exact(spec: dict) -> None:
    row = next(iter(spec["expect"]["rows"].values()))
    row["final_norm"] *= 1.01


def corrupt_recorded(spec: dict) -> None:
    spec["recorded"] = {"fitted_beta": 0.5}


def negative() -> None:
    for name, corrupt in (("stiff-nx1600", corrupt_exact), ("convexity-nx25", corrupt_recorded)):
        result = corrupted(name, corrupt)
        assert result["failed"] == result["attempted"] >= 2, result
        print(f"ok: {name}: corrupted expectation fails {result['failed']} of "
              f"{result['attempted']} ops: {result['failures'][0].strip()}")


if __name__ == "__main__":
    smoke()
    negative()
