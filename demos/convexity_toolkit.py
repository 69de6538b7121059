"""Walk through the logarithmic-convexity verification toolkit.

Along any free trajectory the exponentially weighted state F = U exp(Phi/2)
decays at a rate measured by a Rayleigh-type frequency quotient.  The
toolkit exposes that quotient two ways (operator form vs the decay the
trajectory actually exhibits), the explicit constants of the convexity
chain, the three-point inequality they certify, and a data-driven fit of the
single-time observability bound

    |U(T)| <= (mu e^{K/T} |u(T)|_omega)^beta |U(0)|^(1-beta).
"""

import numpy as np

from impulsehum import (
    Grid,
    ObservabilitySample,
    SplitMix64,
    TimeScheme,
    WeightParams,
    build_discretization,
    convexity_constants,
    epsilon_split_slack,
    evolve,
    evolve_trajectory,
    fit_observability,
    frequency,
    norm,
    random_smooth_state,
    subdomain_mask,
    subdomain_norm,
    three_point_check,
)

grid = Grid(0.0, 1.0, 50)
disc = build_discretization(grid)
mask = subdomain_mask(grid, 0.2, 0.8)
scheme = TimeScheme(0.02, 200, "crank_nicolson")

# frequency quotient, two ways
wp = WeightParams(x0=0.5, s=0.9, hbar=0.01, t_final=0.02)
x = grid.nodes
u0 = np.cos(np.pi * x) + 0.5 * np.cos(2 * np.pi * x) + 0.2 * x
rep = frequency(evolve_trajectory(u0, disc, scheme), wp, disc)
mid = len(rep.times) // 2
print(f"frequency at t = {rep.times[mid]:.3f}:")
print(f"  operator quotient : {rep.freq_direct[mid]:.4f}")
print(f"  trajectory decay  : {rep.freq_oracle[mid]:.4f}")

# explicit constants and the three-point inequality
wp3 = WeightParams(x0=0.5, s=0.9, hbar=0.004, t_final=0.02)
c = convexity_constants(wp3, grid, ell=2.0)
print(f"\nconstants: C = {c.c_const}, C0 = {c.c0}")
print(f"three-point pair: M = {c.m_three_point:.4f}, D = {c.d_three_point:.2f}")
print(f"calibrated D_ell = {c.d_ell:.2f}")

slacks = []
for seed in range(20):
    w0 = random_smooth_state(grid, SplitMix64(seed))
    flow = [evolve(w0, t, disc, scheme) for t in (c.t1, c.t2, c.t3)]
    chk = three_point_check(flow, wp3, disc, scheme, constants=c)
    slacks.append(chk.slack)
print(f"three-point slack over 20 random smooth states: min = {min(slacks):.2f} (>= 0)")

# observability fit over seeds and horizons
samples, states = [], []
for seed in range(20):
    w0 = random_smooth_state(grid, SplitMix64(seed))
    states.append(w0)
    for mult in (1.0, 2.5, 5.0):
        horizon = 0.02 * mult
        sch = TimeScheme(horizon, int(200 * mult), "crank_nicolson")
        fin = evolve(w0, horizon, disc, sch)
        samples.append(ObservabilitySample(horizon, norm(w0, disc),
                                           subdomain_norm(fin, mask, disc),
                                           norm(fin, disc)))
fit = fit_observability(samples)
print(
    f"\nfitted envelope: mu = {fit.mu:.3f}, K = {fit.k_const:.2e}, "
    f"beta = {fit.beta:.3f}, satisfied on {fit.satisfied_fraction:.0%} of samples"
)

# the split form the fit implies, for a few penalties
finals = [evolve(w0, scheme.t_final, disc, scheme) for w0 in states[:5]]
worst = min(
    epsilon_split_slack(w0, fin, eps, fit, disc, mask, scheme.t_final)
    for w0, fin in zip(states[:5], finals)
    for eps in (1.0, 0.1, 0.01)
)
print(f"split-form slack (should be >= 0): worst = {worst:.3e}")
