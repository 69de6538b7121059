"""Tour of the impulse-control solver on the reference setup.

The bar occupies [0, 1] with its two end temperatures evolving by their own
flux-driven equations.  Starting from a sine profile we (1) let the heat
spread freely, (2) compute the minimal-norm impulse control acting on the
interior window (0.2, 0.8) at the mid-horizon instant, and (3) sweep the
penalty to show the classic trade-off: lowering the penalty buys a smaller
final state at the price of a larger control.
"""

import numpy as np

from impulsehum import (
    Grid,
    HumConfig,
    TimeScheme,
    build_discretization,
    cg_solve,
    evolve,
    norm,
    solve_impulsive,
    subdomain_mask,
)

a, b, nx = 0.0, 1.0, 25
t_final, tau = 0.02, 0.01

grid = Grid(a, b, nx)
disc = build_discretization(grid)
mask = subdomain_mask(grid, 0.2, 0.8)
scheme = TimeScheme(t_final, 200, "crank_nicolson")

x = grid.nodes
psi0 = np.sqrt(2.0) * np.sin(np.pi * x)
psi0[0] = psi0[-1] = 0.0
print(f"initial state: sqrt(2) sin(pi x), |Psi(0)| = {norm(psi0, disc):.6f}")

# 1. free evolution
free_final = evolve(psi0, t_final, disc, scheme)
print(f"uncontrolled |Psi(T)| = {norm(free_final, disc):.6f}")

# 2. one controlled solve
cfg = HumConfig(epsilon=1e-3, tau=tau, t_final=t_final, tol=1e-3)
sol = cg_solve(psi0, cfg, disc, mask, scheme)
print(
    f"\npenalty {cfg.epsilon:g}: converged in {sol.iterations} CG iterations, "
    f"|h| = {sol.control_norm:.4f}, controlled |Psi(T)| = {sol.final_norm:.6f}"
)

# the jump is visible in the trajectory: tau is stored twice, left limit first
traj = solve_impulsive(psi0, sol.control, tau, disc, mask, scheme, stride=20)
(j,) = np.flatnonzero(np.diff(traj.times) == 0.0)
print(f"norm just before the impulse: {norm(traj.states[j], disc):.6f}")
print(f"norm just after the impulse:  {norm(traj.states[j + 1], disc):.6f}")

# 3. penalty sweep
print("\npenalty sweep:")
print("  eps      iters  |Psi(T)|    |h|")
for eps in (1e-2, 1e-3, 1e-4):
    s = cg_solve(psi0, HumConfig(epsilon=eps, tau=tau, t_final=t_final), disc, mask, scheme)
    print(f"  {eps:<8g} {s.iterations:<6d} {s.final_norm:<11.4e} {s.control_norm:.4f}")
print("\nthe final norm decreases and the control norm grows as the penalty shrinks")
