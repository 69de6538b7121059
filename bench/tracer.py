"""Spans and counters around the library's public functions.

Every traced function is wrapped wherever it is bound: the defining module
and each ``impulsehum`` module that imported it by name (``hum`` imports
``evolve``, ``scenarios`` imports ``cg_solve``, ...).  ``uninstall`` puts the
original objects back.  Spans are kept in memory and reduced after the op;
per-step ``scipy.linalg`` calls and the tiny inner-product helpers only bump
counters, which keeps the tracing overhead low.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter
from time import perf_counter

# (module, attribute) -> span name.  The span name's prefix is the layer.
SPANNED = {
    ("mesh", "build_discretization"): "mesh.build_discretization",
    ("mesh", "subdomain_mask"): "mesh.subdomain_mask",
    ("evolution", "evolve"): "evolution.evolve",
    ("evolution", "evolve_trajectory"): "evolution.evolve_trajectory",
    ("evolution", "solve_impulsive"): "evolution.solve_impulsive",
    ("hum", "cg_solve"): "hum.cg_solve",
    ("hum", "solve_cost_weighted"): "hum.solve_cost_weighted",
    ("hum", "gramian_apply"): "hum.gramian_apply",
    ("hum", "solution_to_dict"): "hum.solution_to_dict",
    ("hum", "write_solution_json"): "hum.write_solution_json",
    ("hum", "write_state_csv"): "hum.write_state_csv",
    ("convexity", "convexity_constants"): "convexity.convexity_constants",
    ("convexity", "frequency"): "convexity.frequency",
    ("convexity", "three_point_check"): "convexity.three_point_check",
    ("convexity", "fit_observability"): "convexity.fit_observability",
    ("convexity", "epsilon_split_slack"): "convexity.epsilon_split_slack",
    ("convexity", "write_frequency_csv"): "convexity.write_frequency_csv",
    ("config", "load_config"): "config.load_config",
    ("config", "initial_state"): "config.initial_state",
    ("rng", "random_smooth_state"): "rng.random_smooth_state",
    ("scenarios", "run_controlled"): "scenarios.run_controlled",
    ("scenarios", "run_table1"): "scenarios.run_table1",
    ("scenarios", "run_sweep"): "scenarios.run_sweep",
    ("scenarios", "run_convexity"): "scenarios.run_convexity",
    ("scenarios", "write_json"): "scenarios.write_json",
}
COUNTED = {
    ("mesh", "inner"): "mesh.inner_calls",
    ("mesh", "norm"): "mesh.inner_calls",
    ("mesh", "subdomain_norm"): "mesh.inner_calls",
    ("evolution", "cholesky_banded"): "evolution.factorizations",
    ("evolution", "cho_solve_banded"): "evolution.steps",
}
# Methods are patched on their class, which every importer shares.
SPANNED_METHODS = {("evolution", "Trajectory", "to_csv"): "evolution.to_csv"}
CAPTURED = {"hum.cg_solve"}


class Tracer:
    """One traced op: spans as [name, start, end, parent] plus counters."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.captured: list[tuple] = []
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def _span(self, name, fn):
        spans, stack = self.spans, self._stack
        capture = name in CAPTURED

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, perf_counter(), None, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = perf_counter()
            if capture:
                self.captured.append((args, result))
            return result

        return wrapper

    def _count(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if n == "impulsehum" or n.startswith("impulsehum.")]
        for table, make in ((SPANNED, self._span), (COUNTED, self._count)):
            for (mod, attr), name in table.items():
                original = getattr(sys.modules[f"impulsehum.{mod}"], attr)
                wrapped = make(name, original)
                for m in modules:
                    if getattr(m, attr, None) is original:
                        self._undo.append((m, attr, original))
                        setattr(m, attr, wrapped)
        for (mod, cls, attr), name in SPANNED_METHODS.items():
            owner = getattr(sys.modules[f"impulsehum.{mod}"], cls)
            original = owner.__dict__[attr]
            self._undo.append((owner, attr, original))
            setattr(owner, attr, self._span(name, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def self_times(self) -> list[float]:
        """Per-span duration minus the time its child spans cover."""
        own = [end - start for _, start, end, _ in self.spans]
        for _, start, end, parent in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def under(self, idx: int, ancestor_name: str) -> bool:
        parent = self.spans[idx][3]
        while parent >= 0:
            if self.spans[parent][0] == ancestor_name:
                return True
            parent = self.spans[parent][3]
        return False
