"""Gamma process construction from a doubly indexed subround family.

A gamma process with scale th(w) > 0 and finite shape measure a has Levy
measure

    nu(dp, dw) = p^(-1) exp(-p / th(w)) dp a(dw),   p > 0.

It decomposes exactly into subrounds indexed by k >= 1 and h >= 1:

    nu_kh(dp, dw) = Gamma(p | h, th(w)/(k+1)) dp a(dw) / ((k+1)^h h),

a finite Poisson process for every (k, h).  Summing over h telescopes the
exponentials and summing over k recovers nu, so superposing simulated
subrounds for k <= K, h <= H yields a truncated draw with L1 error
1/(K+1) plus a small h-tail (see the truncation module).

A symmetric variant assigns each atom a fair random sign and doubles the
subround rates; it targets the two-sided Levy density |p|^(-1) e^(-|p|/th),
the increment law of a difference of two independent gamma processes.

The generalized variant with discount sigma in (0, 1) targets

    p^(-sigma-1) exp(-p / th) / Gamma(1-sigma) dp a(dw),

with subround jumps Gamma(h-sigma, th/(k+1)).  The plain rate pattern
a / (Gamma(1-sigma) (k+1)^h h) does not sum back to that target; the
weights need the per-subround factor

    Gamma(h-sigma) / Gamma(h) * (th/(k+1))^(-sigma),

which equals one at sigma = 0.  ``generalized_subround`` exposes both
forms and the verify module gates the family on a density-consistency
check of each.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .measures import (
    BaseMeasure,
    Domain,
    LocationTable,
    PiecewiseConst,
    PointMeasure,
    _sample_locations,
    location_table,
    positive_function,
)
from .streams import (
    RandomStream,
    StreamCursor,
    _absorb_arr,
    _GAMMA_INT_SHAPE_MAX,
    batch_poisson,
)

# Subround cap standing in for h = infinity: beyond h = 64 every subround
# rate is below mass * 2^-70, far under one expected atom per 1e20 draws.
SUBROUND_CAP = 64


class GammaProcessParams:
    """Scale function th(w) and finite shape measure a of a gamma process."""

    __slots__ = ("base", "scale")

    def __init__(self, base: BaseMeasure, scale):
        self.base = base
        self.scale = positive_function(scale, base.domain, "scale")
        if not np.isfinite(base.total_mass) or base.total_mass <= 0:
            raise ValueError("shape measure must have finite positive mass")

    @classmethod
    def homogeneous(
        cls, theta: float, mass: float, domain: Domain | None = None
    ) -> "GammaProcessParams":
        domain = domain or Domain()
        return cls(BaseMeasure.uniform(domain, mass), float(theta))

    @property
    def domain(self) -> Domain:
        return self.base.domain

    @property
    def total_base_mass(self) -> float:
        return self.base.total_mass


def subround_rate(mass: float, k: int, h: int) -> float:
    """Expected atom count of subround (k, h): mass / ((k+1)^h h).

    Evaluated in log space so deep subrounds underflow cleanly to zero
    instead of overflowing the power.
    """
    if k < 1 or h < 1:
        raise ValueError("subround indices start at k = 1, h = 1")
    if mass == 0.0:
        return 0.0
    return math.exp(math.log(mass) - h * math.log1p(k) - math.log(h))


@lru_cache(maxsize=16)
def _rates_grid(mass: float, num_rounds: int, num_subrounds: int) -> np.ndarray:
    g = np.empty((num_rounds, num_subrounds))
    for i, k in enumerate(range(1, num_rounds + 1)):
        for j, h in enumerate(range(1, num_subrounds + 1)):
            g[i, j] = subround_rate(mass, k, h)
    g.setflags(write=False)
    return g


@dataclass(frozen=True)
class GammaSubround:
    """Subround (k, h): Poisson locations from ``measure``, gamma jumps."""

    k: int
    h: int
    measure: BaseMeasure
    jump_shape: float
    jump_scale: PiecewiseConst

    @property
    def rate(self) -> float:
        return self.measure.total_mass


def subround_spec(params: GammaProcessParams, k: int, h: int) -> GammaSubround:
    """Descriptive record of subround (k, h) of the decomposition."""
    w = subround_rate(1.0, k, h)
    return GammaSubround(
        k=k,
        h=h,
        measure=params.base.scaled(w),
        jump_shape=float(h),
        jump_scale=params.scale.map(lambda v: v / (k + 1)),
    )


def simulate_subround(
    params: GammaProcessParams, k: int, h: int, stream: RandomStream
) -> PointMeasure:
    """Draw the atoms of subround (k, h).

    Randomness comes from ``stream.child(k, h)``; draw order is count,
    locations, then jumps, each jump Gamma(h, th(w)/(k+1)).
    """
    rate = subround_rate(params.total_base_mass, k, h)
    cur = stream.child(k, h).cursor()
    n = cur.poisson(rate)
    table = location_table(params.base)
    cols = _emit_subround(params, table, k, h, n, cur, signed=False)
    return PointMeasure(params.domain, *cols)


def _emit_subround(
    params: GammaProcessParams,
    table: LocationTable,
    k: int,
    h: int,
    n: int,
    cur: StreamCursor,
    signed: bool,
) -> tuple:
    """The (locations, jumps, round_k, subround_h) columns of n atoms."""
    locs = _sample_locations(table, n, cur)
    # at(), not the drawn cell: a uniform of 1.0 lands on the next cell's edge
    scales = params.scale.at(locs) / (k + 1)
    if h <= _GAMMA_INT_SHAPE_MAX:
        # one batch; reads the same words the per-atom draws would read
        u = cur.uniforms(n * h).reshape(n, h)
        jumps = -np.log(u).sum(axis=1) * scales
    else:
        jumps = np.array([cur.gamma(h, s) for s in scales])
    if signed:
        signs = np.where(cur.uniforms(n) < 0.5, 1.0, -1.0)
        jumps = jumps * signs
    return locs, jumps, np.full(n, k), np.full(n, h)


def _simulate_grid(
    params: GammaProcessParams,
    K: int,
    H: int | None,
    stream: RandomStream,
    signed: bool,
) -> PointMeasure:
    """Subrounds k = 1..K, h = 1..H of one draw, in (k, h) order.

    The count of every cell comes from one across-keys Poisson pass over
    the cells that can be nonzero.  Every live cell then samples its
    locations from one location table of the shape measure, built once per
    draw, and draws its jumps (and signs) from its own stream.
    """
    if K < 1:
        raise ValueError("need at least one round")
    if H is None:
        H = SUBROUND_CAP
    if H < 1:
        raise ValueError("need at least one subround")
    mass = params.total_base_mass * (2.0 if signed else 1.0)
    rates = _rates_grid(mass, K, H)

    # Where exp(-rate) rounds to 1, the Poisson inversion returns 0 for every
    # uniform (none exceeds 1), so those cells need no key and no cipher.
    ii, jj = np.nonzero(np.exp(-rates) < 1.0)
    ks = np.arange(1, K + 1, dtype=np.uint64)
    hs = np.arange(1, H + 1, dtype=np.uint64)
    k0s, k1s = stream.child_keys(ks)
    g0, g1 = _absorb_arr(k0s[ii], k1s[ii], hs[jj])
    counts, used = batch_poisson(rates[ii, jj], g0, g1)

    table = location_table(params.base)
    parts = []
    for c in np.flatnonzero(counts):
        cur = StreamCursor(int(g0[c]), int(g1[c]), pos=int(used[c]))
        parts.append(_emit_subround(
            params, table, int(ii[c]) + 1, int(jj[c]) + 1, int(counts[c]), cur, signed
        ))
    return PointMeasure.concat(params.domain, parts)


def simulate_gamma_process(
    params: GammaProcessParams,
    K: int,
    H: int | None,
    stream: RandomStream,
) -> PointMeasure:
    """Superpose subrounds k = 1..K, h = 1..H.

    ``H=None`` means all subrounds; rates below one expected atom per 2^70
    draws are dropped, which caps h at SUBROUND_CAP.  The result equals
    concatenating ``simulate_subround`` over the grid in (k, h)
    lexicographic order.
    """
    return _simulate_grid(params, K, H, stream, signed=False)


def simulate_symmetric_gamma(
    params: GammaProcessParams,
    K: int,
    H: int | None,
    stream: RandomStream,
) -> PointMeasure:
    """Truncated draw of the symmetric (signed) gamma process.

    Subround (k, h) runs at twice the one-sided rate; each atom draws its
    magnitude Gamma(h, th/(k+1)) and then an independent fair sign, after
    all magnitudes of its subround.
    """
    return _simulate_grid(params, K, H, stream, signed=True)


def subround_mean_and_variance(
    params: GammaProcessParams, k: int, h: int, boxes=None
) -> tuple[float, float]:
    """Exact mean and variance of subround (k, h) mass on a region.

        E   = int_A th/(k+1)^(h+1)           a(dw)
        Var = int_A (h+1) th^2/(k+1)^(h+2)   a(dw)
    """
    if k < 1 or h < 1:
        raise ValueError("subround indices start at k = 1, h = 1")
    th = params.scale
    f_mean = th.map(lambda v: v * math.exp(-(h + 1) * math.log1p(k)))
    f_var = th.map(lambda v: (h + 1) * v * v * math.exp(-(h + 2) * math.log1p(k)))
    return (
        params.base.integral_against(f_mean, boxes),
        params.base.integral_against(f_var, boxes),
    )


def round_mean_and_variance(
    params: GammaProcessParams,
    k: int,
    boxes=None,
    num_subrounds: int | None = None,
) -> tuple[float, float]:
    """Moments of round k's mass, summed over subrounds.

    Over all h the sums close up:

        E   = int_A th/(k(k+1))                a(dw)
        Var = int_A th^2 (1/k^2 - 1/(k+1)^2)   a(dw).

    A finite ``num_subrounds`` sums that many subround terms instead.
    """
    if k < 1:
        raise ValueError("round indices start at k = 1")
    th = params.scale
    if num_subrounds is None:
        f_mean = th.map(lambda v: v / (k * (k + 1)))
        f_var = th.map(lambda v: v * v * (1.0 / k**2 - 1.0 / (k + 1) ** 2))
        return (
            params.base.integral_against(f_mean, boxes),
            params.base.integral_against(f_var, boxes),
        )
    mean = 0.0
    var = 0.0
    for h in range(1, num_subrounds + 1):
        m, v = subround_mean_and_variance(params, k, h, boxes)
        mean += m
        var += v
    return mean, var


def symmetric_variance(
    params: GammaProcessParams,
    K: int | None = None,
    H: int | None = None,
    boxes=None,
) -> float:
    """Variance of the symmetric process mass on a region.

    The mean is zero by symmetry; the full-process variance is
    2 int_A th^2 a(dw), and truncation scales the round-k contribution
    exactly as in the one-sided process (each subround's rate doubles
    while signs square away).
    """
    if K is None and H is None:
        f = params.scale.map(lambda v: 2.0 * v * v)
        return params.base.integral_against(f, boxes)
    if K is None:
        raise ValueError("a subround cap without a round cap is not supported")
    total = 0.0
    for k in range(1, K + 1):
        _, v = round_mean_and_variance(params, k, boxes, H)
        total += 2.0 * v
    return total


class GeneralizedGammaParams:
    """Generalized gamma process: a gamma process plus a discount sigma."""

    __slots__ = ("base", "sigma")

    def __init__(self, base: GammaProcessParams, sigma: float):
        if not (0.0 < sigma < 1.0):
            raise ValueError("sigma must lie in (0, 1); use GammaProcessParams at 0")
        self.base = base
        self.sigma = float(sigma)

    @property
    def domain(self) -> Domain:
        return self.base.domain


def generalized_weight_correction(k: int, h: int, sigma: float, theta):
    """Factor turning the plain subround weights into exact ones.

        Gamma(h-sigma)/Gamma(h) * (th/(k+1))^(-sigma)

    Multiplying the plain rate a/(Gamma(1-sigma) (k+1)^h h) by this factor
    makes the subround densities sum to the generalized target; the factor
    is identically one at sigma = 0.
    """
    theta = np.asarray(theta, dtype=np.float64)
    return np.exp(
        math.lgamma(h - sigma)
        - math.lgamma(h)
        - sigma * (np.log(theta) - math.log1p(k))
    )


def generalized_subround(
    params: GeneralizedGammaParams, k: int, h: int, corrected: bool = False
) -> GammaSubround:
    """Subround (k, h) of the generalized family.

    Jumps are Gamma(h-sigma, th/(k+1)).  With ``corrected=False`` the
    location intensity is the plain pattern a/(Gamma(1-sigma) (k+1)^h h),
    which fails to reproduce the target density for sigma > 0; with
    ``corrected=True`` it carries ``generalized_weight_correction`` and
    the decomposition is exact.  See the verify module's gate.
    """
    if k < 1 or h < 1:
        raise ValueError("subround indices start at k = 1, h = 1")
    s = params.sigma
    scale = params.base.scale
    w = subround_rate(1.0, k, h) / math.gamma(1.0 - s)
    if corrected:
        factor = scale.map(lambda v: w * generalized_weight_correction(k, h, s, v))
        measure = params.base.base.scaled(factor)
    else:
        measure = params.base.base.scaled(w)
    return GammaSubround(
        k=k,
        h=h,
        measure=measure,
        jump_shape=h - s,
        jump_scale=scale.map(lambda v: v / (k + 1)),
    )
