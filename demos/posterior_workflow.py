"""Beta process prior, Bernoulli observations, conjugate update.

M observation rounds flip one coin per prior atom, heads with
probability equal to the atom's jump.  Conditioning keeps the process a
beta process with concentration c+M: each observed atom becomes a fixed
atom of the posterior base measure with mass m_i/(c+M), and the
continuous part shrinks by c/(c+M).  Observed jumps resample as a
Poisson sum of Beta(1, c+M+k) draws truncated at K rounds.
"""

import numpy as np

from levycrm import beta, posterior
from levycrm.streams import RandomStream

C = 1.0
MASS = 2.0
M = 4
K_PRIOR = 60

prior = beta.BetaProcessParams.homogeneous(C, MASS)
draw = beta.simulate_beta_process(prior, K_PRIOR, RandomStream(21))
print(f"prior draw: {len(draw)} atoms, mass {draw.total_mass:.4f}")

obs = posterior.sample_bernoulli_data(draw, M, RandomStream(22))
hits = np.flatnonzero(obs.counts)
print(f"{M} Bernoulli rounds hit {hits.size} distinct atoms")
print()
print("  jump     count   posterior mean m_i/(c+M)")
for i in hits[np.argsort(-obs.counts[hits], kind="stable")][:8]:
    m = obs.counts[i]
    print(f"  {draw.jumps[i]:.4f}   {m:3d}     {m / (C + M):.4f}")

pp = posterior.posterior_params(prior, obs)
print()
print(f"posterior concentration c+M = {pp.concentration.values.flat[0]:g}")
print(f"posterior base: continuous mass "
      f"{MASS * C / (C + M):.4f} + {pp.base.atom_masses.size} fixed atoms "
      f"= {pp.base.total_mass:.4f} total")

# resample the most-observed jump and compare to its truncated mean
m_i = obs.counts.max()
K = 200
draws = posterior.resample_observed_jumps(C, M, m_i, K, RandomStream(23), 20_000)
exact = m_i / (C + M)
trunc = posterior.resample_truncated_expectation(C, M, m_i, K)
print()
print(f"resampling the atom observed {m_i}/{M} times, K={K}:")
print(f"  sample mean {draws.mean():.5f}")
print(f"  truncated expectation {trunc:.5f}, untruncated {exact:.5f}")
print(f"  draws above 1 (sum unclamped): {(draws > 1.0).mean():.4%}")

new_ks, new_jumps = posterior.sample_new_jumps(C, M, 50, RandomStream(24), 10_000)
print()
print(f"new-atom jump distribution (mixture over rounds, K=50): "
      f"mean {new_jumps.mean():.5f}, round 0 drawn "
      f"{np.mean(new_ks == 0):.4%} of the time "
      f"(weight 1/(c+M) over the harmonic total)")
