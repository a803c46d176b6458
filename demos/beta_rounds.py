"""Walk a beta process in round by round.

The improper beta density c(1-pi)^(c-1)/pi splits into proper
Beta(1, c+k) components, one per round k, with geometrically shrinking
weights c/(c+k) (normalized against the base mass).  Each round is an
ordinary finite Poisson process, so a truncated draw is just the union
of K+1 easy simulations.  This script prints the round budget, draws a
process, and checks the running mass against the telescoped targets.
"""

import math

import numpy as np

from levycrm import beta, truncation
from levycrm.streams import RandomStream

C = 2.0
MASS = 5.0
K = 14

params = beta.BetaProcessParams.homogeneous(C, MASS)

print(f"beta process, c={C:g}, base mass={MASS:g}, rounds 0..{K}")
print()
print(" k   rate      E[mass_k]     Var[mass_k]")
for k in range(6):
    rnd = beta.round_measure(params, k)
    m, v = beta.round_mean_and_variance(params, k)
    print(f"{k:2d}   {rnd.rate:.4f}   {m:.6f}     {v:.6f}")
print(" ...")

mean_sum, var_sum = beta.cumulative_round_moments(params, K)
print()
print(f"mean of rounds 0..{K}: {mean_sum:.6f}")
print(f"  telescoped target mass*(1 - c/(c+K+1)) = "
      f"{MASS * (1 - C / (C + K + 1)):.6f}")
print(f"variance of rounds 0..{K}: {var_sum:.6f}")

draw = beta.simulate_beta_process(params, K, RandomStream(7))
total = draw.total_mass
print()
print(f"one draw under seed 7: {len(draw)} atoms, total mass {total:.4f}")
for i in np.argsort(-draw.jumps, kind="stable")[:5]:
    print(f"  round {draw.round_k[i]:2d}  location {draw.locations[i, 0]:.4f}  "
          f"jump {draw.jumps[i]:.4f}")

print()
print("truncation ledger (L1 error of the discarded rounds):")
print(" K    superposition   stick-breaking   expected atoms")
# one pass builds every row; expected atoms is the running sum of round rates
table = truncation.beta_table(params, 49)
for k in (0, 4, 9, 19, 49):
    l1, sb = table["l1_error"][k], table["stick_breaking_l1"][k]
    print(f"{k:3d}   {l1:.6f}        {sb:.6e}     {table['expected_atoms'][k]:8.2f}")
print("expected atoms grow like c*mass*log K, so the rounds an atom budget E")
print("needs grow like exp(E/(c*mass))")

print()
print("which construction truncates tighter at fixed K:")
for lo, hi, label in truncation.crossover_ranges(C, 40):
    span = f"K={lo}" if lo == hi else f"K={lo}..{hi}"
    print(f"  {span:10s} {label}")

# sanity: the marginal-likelihood bound for M=10 downstream observations
bound = truncation.beta_marginal_bound(params, K, M=10)
print()
print(f"marginal bound at K={K} against M=10 Bernoulli draws: {bound:.6f}")
assert math.isclose(
    mean_sum, MASS * (1 - C / (C + K + 1)), rel_tol=1e-12
)
