"""Default-config summaries and reports match the recorded ones.

``data/golden_summaries.json`` holds the ``summary.json`` of each CLI
scenario at the default config, with ``config.out_dir`` dropped.
``data/golden_reports.json`` holds the default-config ``report.json`` of
``controlled``, ``table1``, ``convexity`` and the first ``sweep`` cell, keyed
by path below the output directory.  ``data/golden_convexity_nsteps201.json``
holds the convexity ``report.json`` at ``--nsteps 201``.  Floats must agree to 1e-12 relative;
ints, bools, strings, nulls and the config echo must match exactly.
``data/golden_csv_sha256.json`` holds the sha256 of every CSV that
``uncontrolled``, ``controlled``, ``sweep`` and ``convexity`` write at the
default config, for each (method, snapshot stride) in ``CSV_RUNS``: these
files must keep their bytes.  Refresh a file only for a change meant to alter results.
"""

import hashlib
import json
import math
from dataclasses import replace
from pathlib import Path

import pytest

from impulsehum import (ExperimentConfig, run_controlled, run_convexity, run_sweep,
                        run_uncontrolled, validate)
from impulsehum.cli import EXIT_OK, main

DATA = Path(__file__).parent / "data"
GOLDEN = json.loads((DATA / "golden_summaries.json").read_text(encoding="utf-8"))
GOLDEN_REPORTS = json.loads((DATA / "golden_reports.json").read_text(encoding="utf-8"))
GOLDEN_NSTEPS201 = json.loads(
    (DATA / "golden_convexity_nsteps201.json").read_text(encoding="utf-8"))
GOLDEN_CSV = json.loads((DATA / "golden_csv_sha256.json").read_text(encoding="utf-8"))
# The impulse sits at step 100 of 200: stride 3 does not divide it, and
# stride 200 keeps only the ends and both sides of the jump.
CSV_RUNS = [("crank_nicolson", 1), ("crank_nicolson", 3), ("crank_nicolson", 200),
            ("backward_euler", 7)]


def _assert_close(got, want, where):
    assert type(got) is type(want), where
    if isinstance(want, dict):
        assert sorted(got) == sorted(want), where
        for key in want:
            _assert_close(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_close(g, w, f"{where}[{i}]")
    elif isinstance(want, float):
        assert math.isclose(got, want, rel_tol=1e-12, abs_tol=0.0), (where, got, want)
    else:
        assert got == want, where


@pytest.mark.parametrize("scenario", sorted(GOLDEN))
def test_default_summary_matches_golden(scenario, tmp_path):
    assert main([scenario, "--out", str(tmp_path)]) == EXIT_OK
    got = json.loads((tmp_path / scenario / "summary.json").read_text(encoding="utf-8"))
    assert got["config"].pop("out_dir") == str(tmp_path)
    want = GOLDEN[scenario]
    assert got["config"] == want["config"]
    _assert_close(got, want, scenario)


@pytest.mark.parametrize("path", sorted(GOLDEN_REPORTS))
def test_default_report_matches_golden(path, tmp_path):
    assert main([path.split("/")[0], "--out", str(tmp_path)]) == EXIT_OK
    got = json.loads((tmp_path / path).read_text(encoding="utf-8"))
    _assert_close(got, GOLDEN_REPORTS[path], path)


def test_convexity_report_with_several_step_sizes_matches_golden(tmp_path):
    # 201 steps align to 202, so t1 (41 steps) and t2 (122 steps) are off
    # the time grid and each get their own dt, while t3 = T and the 2.5x and
    # 5x horizons (202, 505 and 1010 steps) take the scheme's: the ensemble
    # marches in three groups.
    assert main(["convexity", "--nsteps", "201", "--out", str(tmp_path)]) == EXIT_OK
    got = json.loads((tmp_path / "convexity" / "report.json").read_text(encoding="utf-8"))
    _assert_close(got, GOLDEN_NSTEPS201, "convexity --nsteps 201")


def csv_digests(method: str, stride: int, out: Path) -> dict:
    """sha256 of each CSV that ``uncontrolled``, ``controlled`` (at the first
    penalty), ``sweep`` and ``convexity`` write at the default config with
    ``method`` and ``stride``, keyed by path below ``out``."""
    cfg = validate(replace(ExperimentConfig(), method=method, snapshot_stride=stride,
                           out_dir=str(out)))
    run_uncontrolled(cfg)
    run_controlled(cfg, cfg.epsilons[0])
    run_sweep(cfg)
    run_convexity(cfg)
    return {path.relative_to(out).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(out.rglob("*.csv"))}


@pytest.mark.parametrize("method, stride", CSV_RUNS)
def test_controlled_and_sweep_csv_bytes_match_golden(method, stride, tmp_path):
    assert csv_digests(method, stride, tmp_path) == GOLDEN_CSV[f"{method}/stride{stride}"]
