"""The package root's names, the README's library quickstart and its
configuration block."""

import json
import math
import os
import re
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import impulsehum
from impulsehum import (ConfigError, ExperimentConfig, Grid, HumConfig, TimeScheme, WeightParams,
                        build_discretization, evolve_trajectory)

ROOT = Path(__file__).resolve().parent.parent


def test_all_is_the_root_surface():
    names = impulsehum.__all__
    assert names == sorted(set(names))
    for name in names:
        getattr(impulsehum, name)
    public = {name for name, value in vars(impulsehum).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert set(names) == public


def test_readme_quickstart_runs():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library quickstart", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run([sys.executable, "-W", "error", "-c", code], env=env,
                         capture_output=True, text=True, check=True).stdout
    iterations, control_norm, final_norm = out.split()
    assert int(iterations) == 4
    assert float(control_norm) == pytest.approx(1.2594044935990836, rel=1e-9)
    assert float(final_norm) == pytest.approx(0.06884603168178839, rel=1e-9)


def test_readme_configuration_block_is_the_defaults():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Configuration", 1)[1]
    block = re.search(r"```json\n(.*?)```", section, re.S).group(1)
    assert json.loads(block) == ExperimentConfig().to_dict()


@pytest.mark.parametrize("t_final", [math.inf, math.nan])
@pytest.mark.parametrize("build", [
    lambda t: TimeScheme(t, 200),
    lambda t: HumConfig(epsilon=1e-2, tau=0.01, t_final=t),
    lambda t: WeightParams(0.5, 0.9, 0.004, t),
], ids=["TimeScheme", "HumConfig", "WeightParams"])
def test_non_finite_horizon_is_a_config_error(build, t_final):
    with pytest.raises(ConfigError) as info:
        build(t_final)
    assert info.value.field == "t_final"


@pytest.mark.parametrize("build, field", [
    (lambda n: Grid(0.0, 1.0, n), "nx"),
    (lambda n: TimeScheme(0.02, n), "n_steps"),
    (lambda n: HumConfig(epsilon=1e-2, tau=0.01, t_final=0.02, max_iter=n), "max_iter"),
    (lambda n: evolve_trajectory(np.zeros(26), build_discretization(Grid(0.0, 1.0, 25)),
                                 TimeScheme(0.02, 200), stride=n), "snapshot_stride"),
], ids=["Grid", "TimeScheme", "HumConfig", "stride"])
def test_counts_are_integers(build, field, step_count):
    # A Python or NumPy integer is a count; a float, even an integral one,
    # a bool or a string is a ConfigError before anything is built or
    # marched.
    for count in (25.5, 25.0, True, "25"):
        with pytest.raises(ConfigError) as info:
            build(count)
        assert info.value.field == field
    assert step_count[0] == 0
    for count in (25, np.int64(25), np.int32(25)):
        build(count)
