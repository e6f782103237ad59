"""Rank summary statistics: who is high, who is volatile, who mixes.

rho is a subject's average rank, nu its rank variance, zeta the net rank
change over the window, eta the integrated squared rank derivative.  At
the population level gamma(t) tracks where crossings happen, M = int gamma
measures total mixing, and G = exp(-M) is 1 exactly when nobody ever
crosses anybody.
"""

import numpy as np

from rankdyn import (
    FunctionalSample,
    decompose,
    default_bandwidths,
    population_summaries,
    presmooth,
    smooth_ranks,
    subject_summaries,
)


def stats_for(sample, label):
    bw = default_bandwidths(sample)
    dec = decompose(sample, presmooth(sample, h_d=0.12), bw)
    ranks = smooth_ranks(sample, bw, eval_grid=dec.trimmed_grid)
    subs = subject_summaries(ranks, dec)
    pop = population_summaries(dec)
    print(f"--- {label} ---")
    top = max(subs, key=lambda s: s.rho)
    wild = max(subs, key=lambda s: s.nu)
    print(f"highest average rank: {top.id} (rho={top.rho:.3f}, nu={top.nu:.4f})")
    if wild.nu < 5e-5:
        # every nu prints as 0.0000: an argmax over rounding noise names no one
        print("most volatile rank:   none; no subject's rank moves (every nu is 0.0000)")
    else:
        print(f"most volatile rank:   {wild.id} (rho={wild.rho:.3f}, nu={wild.nu:.4f})")
    print(f"mixing magnitude M = {pop.mixing:.4f}, stability G = {pop.stability:.4f}\n")
    return subs, pop


rng = np.random.default_rng(11)
grid = np.linspace(0.0, 1.0, 101)
n = 40

# a calm population: well separated levels, tiny common wiggle
calm = FunctionalSample.from_matrix(
    grid,
    np.linspace(0, 3, n)[:, None] + 0.05 * np.sin(2 * np.pi * grid)[None, :],
)
stats_for(calm, "calm population (no crossings)")

# a churning population: everyone oscillates out of phase
phases = rng.uniform(0, 2 * np.pi, n)
churn = FunctionalSample.from_matrix(
    grid,
    0.3 * rng.normal(size=n)[:, None] + np.sin(2 * np.pi * grid[None, :] + phases[:, None]),
)
subs, pop = stats_for(churn, "churning population (constant crossings)")

# the invariant nu <= rho (1 - rho) bounds every subject
bound_ok = all(s.nu <= s.rho * (1 - s.rho) + 1e-12 for s in subs)
print(f"nu <= rho(1-rho) for every subject: {bound_ok}")
