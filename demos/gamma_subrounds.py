"""Walk a gamma process in by its (round, subround) grid.

The improper density p^(-1)e^(-p/theta) splits twice: round k confines
jumps near scale theta/(k+1), then subround h within round k carries a
proper Gamma(h, theta/(k+1)) jump law at Poisson rate mass/((k+1)^h h).
Within a round the rates sum to mass*log((k+1)/k), so the expected atom
count of a truncation at K rounds is mass*log(K+1) and the L1 error is
1/(K+1) plus a tiny subround tail.
"""

import math

import numpy as np

from levycrm import gamma, truncation
from levycrm.streams import RandomStream

THETA = 1.0
MASS = 2.0

params = gamma.GammaProcessParams.homogeneous(THETA, MASS)

print(f"gamma process, theta={THETA:g}, shape mass={MASS:g}")
print()
print("subround rates, rows k=1..4, columns h=1..6:")
for k in range(1, 5):
    row = [gamma.subround_rate(MASS, k, h) for h in range(1, 7)]
    line = "  ".join(f"{r:.5f}" for r in row)
    print(f"  k={k}:  {line}   row sum -> {MASS * math.log((k + 1) / k):.5f}")

print()
print("round moments telescope to the process moments:")
for K in (1, 10, 100, 1000):
    m = sum(gamma.round_mean_and_variance(params, k)[0] for k in range(1, K + 1))
    target = THETA * MASS * (1.0 - 1.0 / (K + 1.0))
    print(f"  K={K:4d}: mean {m:.6f}   target {target:.6f}")

K, H = 60, 30
draw = gamma.simulate_gamma_process(params, K, H, RandomStream(11))
print()
print(f"one draw under seed 11, K={K}, H={H}: {len(draw)} atoms, "
      f"total mass {draw.total_mass:.4f}")
print(f"expected atoms {truncation.gamma_expected_atoms(MASS, K, H):.2f}, "
      f"L1 truncation error {truncation.gamma_l1_error(K, H):.5f}")
for i in np.argsort(-draw.jumps, kind="stable")[:5]:
    print(f"  (k={draw.round_k[i]}, h={draw.subround_h[i]})  "
          f"location {draw.locations[i, 0]:.4f}  jump {draw.jumps[i]:.4f}")

# the total mass of a draw is Gamma(mass, theta) once K is deep enough;
# a crude 500-replica check keeps this demo honest without scipy; replica r
# reads RandomStream(12).child(r)
reps = 500
totals = gamma.replica_masses(params, 150, 30, RandomStream(12), reps)
print()
print(f"{reps} replicas at K=150: sample mean {totals.mean():.4f} "
      f"(theory {MASS * THETA:.4f}), sample var {totals.var(ddof=1):.4f} "
      f"(theory {MASS * THETA**2:.4f})")

sym = gamma.simulate_symmetric_gamma(params, K, H, RandomStream(13))
pos = np.count_nonzero(sym.jumps > 0)
print()
print(f"symmetric variant, same grid: {len(sym)} signed atoms "
      f"({pos} positive), signed mass {sym.total_mass:+.4f}")
print(f"variance target for the signed mass: "
      f"{gamma.symmetric_variance(params, K, H):.4f} "
      f"(untruncated {2 * MASS * THETA**2:.4f})")
