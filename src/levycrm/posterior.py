"""Beta-process posterior: conjugate update and round-based resampling.

Observing M Bernoulli-process draws from a beta process B with constant
concentration c and base mu leaves B conjugate:

    B | data ~ BP(c + M,  c mu/(c+M) + sum_i m_i delta_{w_i}/(c+M)),

where m_i counts how many of the M draws switched atom i on.  The
posterior is again a beta process (``posterior_params`` returns its
``BetaProcessParams``), so the round decomposition applies verbatim:
posterior round k has jump law Beta(1, c+M+k) and location measure
c mu/(c+M+k) + sum_i m_i/(c+M+k).

The atomic part supports two samplers, both reading round marks with
``measures._marks`` and jumps with the beta round law ``beta._beta1_jump``:

* an observed atom's jump is resampled as a Poisson sum: round k adds
  H_k ~ Poisson(m_i/(c+M+k)) jumps Beta(1, c+M+k).  The rounds superpose
  into one finite Poisson cell, drawn as the draw engine draws a cell: a
  count at the summed rate, a round pick per jump with weight
  proportional to its round's rate, then the jumps.  Truncating the
  round sum at K biases the mean down by exactly m_i/(c+M+K+1); the
  truncated expectation m_i (1/(c+M) - 1/(c+M+K+1)) is reported
  alongside so callers can size K.  The sum is not clamped: it exceeds 1
  in a share of draws that grows with m_i/(c+M) (about 11% at m_i = 3 for
  c = 1, M = 4), which ``cli.cmd_posterior`` reports as ``frac_above_one``.
* a new (unobserved) jump draws its round index k with weight
  1/(c+M+k), k = 0..K, then the jump from Beta(1, c+M+k).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .beta import BetaProcessParams, _beta1_jump
from .measures import (
    BaseMeasure,
    PointMeasure,
    UnsupportedParameterError,
    _count_pass,
    _integer,
    _marks,
    _union,
)
from .streams import RandomStream


class InvalidPriorError(ValueError):
    """The supplied prior draw violates the family's jump support."""


@dataclass(frozen=True)
class ObservationSet:
    """Counts from M Bernoulli-process draws over a fixed atom set.

    ``locations`` is (n, dim); ``counts[i]`` in [0, M] is how many of the
    M draws hit atom i.  Zero-count atoms are kept so downstream code
    sees the full atom set.
    """

    M: int
    locations: np.ndarray
    counts: np.ndarray

    def __post_init__(self):
        locs = np.atleast_2d(np.asarray(self.locations, dtype=np.float64))
        counts = np.atleast_1d(_integer(self.counts, "count", 0))
        if locs.shape[0] != counts.shape[0]:
            raise ValueError("locations and counts must align")
        M = _integer(self.M, "M", 0)
        if np.any(counts > M):
            raise ValueError("every count must lie in [0, M]")
        object.__setattr__(self, "M", M)
        object.__setattr__(self, "locations", locs)
        object.__setattr__(self, "counts", counts)

    def __len__(self):
        return self.counts.shape[0]


def sample_bernoulli_data(
    prior_draw: PointMeasure, M: int, stream: RandomStream
) -> ObservationSet:
    """M independent Bernoulli-process draws over a beta-process draw.

    Atom i with jump pi_i is switched on by each draw independently with
    probability pi_i; the returned counts are the per-atom totals.  Jumps
    outside (0, 1) make the prior invalid for Bernoulli marking.
    """
    M = _integer(M, "M", 0)
    jumps = prior_draw.jumps
    if jumps.size and (jumps.min() <= 0.0 or jumps.max() >= 1.0):
        raise InvalidPriorError("every prior jump must lie strictly in (0, 1)")
    # atom i reads words i*M .. i*M+M-1, as one cursor read per atom would
    u = stream.cursor().uniforms(jumps.size * M).reshape(jumps.size, M)
    counts = (u < jumps[:, None]).sum(axis=1)
    return ObservationSet(M=M, locations=prior_draw.locations, counts=counts)


def posterior_params(
    prior: BetaProcessParams, obs: ObservationSet
) -> BetaProcessParams:
    """The conjugate posterior beta process given Bernoulli counts.

    Requires constant concentration; the posterior has concentration c+M and
    a base with continuous part c mu/(c+M) and an atom of mass m_i/(c+M) at
    each observed location with m_i > 0 (zero-count atoms contribute nothing).
    """
    if not prior.concentration.is_constant:
        raise UnsupportedParameterError(
            "posterior updates require a constant concentration"
        )
    c = float(prior.concentration.values.flat[0])
    c_post = c + obs.M
    density = prior.base.density.map(lambda v: v * (c / c_post))
    keep = obs.counts > 0
    if prior.base.atom_masses.size:
        raise UnsupportedParameterError(
            "priors with fixed base atoms are not supported in the update"
        )
    base_post = BaseMeasure(
        density,
        obs.locations[keep],
        obs.counts[keep].astype(np.float64) / c_post,
    )
    return BetaProcessParams(c_post, base_post)


def _concentration(c: float, M: int, K: int) -> float:
    """The posterior concentration c + M of rounds 0..K, for finite c > 0,
    M >= 0 and K >= 0."""
    if not 0 < c < math.inf:  # false for NaN as well
        raise ValueError("c must be > 0 and finite")
    _integer(K, "K", 0)
    return c + _integer(M, "M", 0)


def resample_observed_jumps(
    c: float,
    M: int,
    m,
    K: int,
    stream: RandomStream,
    draws: int,
) -> np.ndarray:
    """Resampled jumps of observed atoms, one per child stream.

    With one count ``m``, entry ``d`` is a draw over rounds 0..K from
    ``stream.child(d)``; with an array of counts, the result has one row
    per atom and entry ``[i, d]`` is the draw for count ``m[i]`` from
    ``stream.child(i, d)``.  A zero count gives 0.0 and reads no word.
    Otherwise, with ``b = c + M + arange(K + 1)`` and rates ``m / b``, the
    entry's stream holds, from word 0: the count's words, a Poisson count
    ``n`` at the summed rate (chunked as in ``batch_poisson``); then ``n``
    points of ``measures._marks``, round ``k_j`` picked from the cumulative
    rates, jump ``j`` the Beta(1, b[k_j]) inverse CDF ``beta._beta1_jump``.
    The entry is the sum of its ``n`` jumps, in stream order, as ``np.sum``
    adds one contiguous row.

    Each (atom, draw) pair is one finite Poisson cell of the draw engine's
    count pass (``measures._count_pass``): root ``stream.child(i)`` (or
    ``stream`` for one count), cell ``d``, and the total of the round table
    ``cumsum(m / b)`` as its rate; that table depends on the count alone,
    so it is built once per distinct count.  Each run of live streams the
    count pass yields is one ``measures._marks`` read.
    """
    m = np.asarray(_integer(m, "m_i", 0), dtype=np.int64)
    draws = _integer(draws, "draws", 0)
    b = _concentration(c, M, K) + np.arange(K + 1, dtype=np.float64)
    out = np.zeros(m.shape + (draws,), dtype=np.float64)
    rows = out.reshape(m.size, draws)
    live = np.flatnonzero(m)
    if live.size == 0 or draws == 0:
        return out
    r0, r1 = stream.child_keys(live) if m.ndim else np.array([stream.key], np.uint64).T
    ms = m.reshape(-1)[live]
    distinct = _union(ms)
    group = np.searchsorted(distinct, ms)
    cums = np.cumsum(distinct[:, None] / b, axis=1)
    path = (np.arange(draws),)
    for atom, d, counts, k0s, k1s, used in _count_pass(r0, r1, path, cums[group, -1:]):
        ks, u, first = _marks(k0s, k1s, used, counts, cums, group[atom])
        vals = _beta1_jump(u, b[ks])
        # the draws with n jumps form one (draws, n) block; numpy reduces each
        # contiguous row with the pairwise sum a 1-D np.sum uses, so every
        # total is the np.sum of its draw's jumps bit for bit
        for n in np.flatnonzero(np.bincount(counts)):
            ds = np.flatnonzero(counts == n)
            total = vals[first[ds, None] + np.arange(n)].sum(axis=1)
            rows[live[atom[ds]], d[ds]] = total
    return out


def resample_truncated_expectation(c: float, M: int, m_i: int, K: int) -> float:
    """Mean of the truncated resampling sum: m_i (1/(c+M) - 1/(c+M+K+1)).

    Converges to the exact posterior mean m_i/(c+M) as K grows.
    """
    m_i = _integer(m_i, "m_i", 0)
    # grouped as one quotient: 1/a - 1/(a+K+1) cancels badly in floats
    a = _concentration(c, M, K)
    return m_i * (K + 1.0) / (a * (a + K + 1.0))


def sample_new_jumps(
    c: float, M: int, K: int, stream: RandomStream, draws: int
) -> tuple[np.ndarray, np.ndarray]:
    """New-jump draws, one per child stream of ``stream``.

    Returns (round indices, jumps).  Entry ``d`` is one ``measures._marks``
    point from word 0 of ``stream.child(d)``: round k picked with weights
    1/(c+M+k), k = 0..K, and jump the Beta(1, c+M+k) inverse CDF at word 1.
    """
    b = _concentration(c, M, K) + np.arange(K + 1, dtype=np.float64)
    draws = _integer(draws, "draws", 0)
    k0s, k1s = stream.child_keys(np.arange(draws))
    zero = np.zeros(draws, np.intp)
    ks, u, _ = _marks(k0s, k1s, zero, zero + 1, np.cumsum(1.0 / b)[None], zero)
    return ks.astype(np.int64), _beta1_jump(u, b[ks])
