"""Cold start of one CLI-style call: import, load the config, build the problem.

Run as ``python3 setup_child.py CONFIG_JSON`` in a fresh interpreter.  It
prints one JSON line whose ``ready`` is ``time.monotonic()`` once the problem
is built; the parent subtracts its own spawn time to get the set-up time.
"""

import json
import sys
import time

t0 = time.monotonic()
import impulsehum.cli  # noqa: E402,F401  (what the console script imports)

t1 = time.monotonic()
from impulsehum.config import initial_state, load_config  # noqa: E402
from impulsehum.mesh import Grid, build_discretization, subdomain_mask  # noqa: E402

cfg = load_config(sys.argv[1])
t2 = time.monotonic()
grid = Grid(cfg.a, cfg.b, cfg.nx)
build_discretization(grid)
subdomain_mask(grid, cfg.omega_lo, cfg.omega_hi)
t3 = time.monotonic()
initial_state(cfg, grid)
t4 = time.monotonic()
print(json.dumps({"ready": t4, "import_s": t1 - t0, "load_s": (t2 - t1) + (t4 - t3),
                  "build_s": t3 - t2}))
