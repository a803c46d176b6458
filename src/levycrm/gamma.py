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

Every subround's rate, location law and jump law is a closed form known
before any random word is read, so draws run on the draw engine
(``measures.draw_cells``) with a leading axis of draw keys: per batch of
at most ``measures._DRAW_BATCH`` (draw, k, h) streams, one across-keys
count read; the live streams of the batches are pooled, and per run of up
to ``measures._DRAW_BATCH`` of them and ``measures._BATCH_ATOMS`` atoms
comes one ragged read of the locations and one of the jumps (and signs).
Only live cells with h > 16 draw their jumps through a cursor.
``simulate_replicas`` draws many replicas so, and ``replica_masses`` takes
their total masses a block of replicas at a time; the one-draw functions
are the same call over one key.  Subround (k, h) of a draw reads
``stream.child(k, h)`` and the subrounds run in (k, h) lexicographic
order, so raising K only appends atoms.

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
    Cells,
    Domain,
    LocationTable,
    PiecewiseConst,
    PointMeasure,
    draw_cells,
    location_table,
    positive_function,
)
from .streams import _GAMMA_INT_SHAPE_MAX, RandomStream

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
    """``subround_rate(mass, k, h)`` for k = 1..num_rounds, h = 1..num_subrounds.

    Each log is taken once per round or sub-round, with ``math`` as there,
    and each cell evaluates that function's own expression, so every rate
    is bit for bit the one it returns.
    """
    g = np.zeros((num_rounds, num_subrounds))
    if mass != 0.0:
        l1k = np.array([math.log1p(k) for k in range(1, num_rounds + 1)])
        h = np.arange(1, num_subrounds + 1)
        lh = np.array([math.log(x) for x in h.tolist()])
        x = math.log(mass) - h * l1k[:, None] - lh
        g[:] = np.reshape(list(map(math.exp, x.ravel().tolist())), x.shape)
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


def _cells(params: GammaProcessParams, ks, hs, rates) -> Cells:
    # every cell samples from the shape measure's one table; integer shapes
    # up to _GAMMA_INT_SHAPE_MAX take h words per atom, larger ones fall back
    t = location_table(params.base)
    return Cells(
        (ks, hs), rates, LocationTable(t.cum[None], t.edges, t.atoms),
        np.zeros(ks.size, np.intp), np.where(hs <= _GAMMA_INT_SHAPE_MAX, hs, 0),
    )


def _draw(params: GammaProcessParams, cells: Cells, roots, signed: bool) -> list:
    """``cells`` of one draw per root key ``roots = (k0s, k1s)``, through the engine.

    An atom of cell (k, h) at w takes a Gamma(h, th(w)/(k+1)) magnitude: a
    sum of h exponentials, summed per atom over a row of h words, or
    ``StreamCursor.gamma`` beyond integer shape 16.
    """
    scale = params.scale

    def jumps(k, h, locs, u):
        # at(), not the drawn cell: a uniform of 1.0 lands on the next cell's edge
        return -np.log(u).sum(axis=1) * (scale.at(locs) / (k + 1))

    def fallback(cur, k, h, locs):
        return np.array([cur.gamma(h, s) for s in scale.at(locs) / (k + 1)])

    return draw_cells(params.domain, roots, [cells], jumps, fallback, signed)


def _grid(params: GammaProcessParams, K: int, H: int | None, signed: bool) -> Cells:
    """The cells k = 1..K, h = 1..H of a draw, in (k, h) order.

    Where exp(-rate) rounds to 1, the Poisson inversion returns 0 for every
    uniform (none exceeds 1), so those cells need no key and no cipher.
    """
    if K < 1:
        raise ValueError("need at least one round")
    if H is None:
        H = SUBROUND_CAP
    if H < 1:
        raise ValueError("need at least one subround")
    mass = params.total_base_mass * (2.0 if signed else 1.0)
    rates = _rates_grid(mass, K, H)
    ii, jj = np.nonzero(np.exp(-rates) < 1.0)
    return _cells(params, ii + 1, jj + 1, rates[ii, jj])


def simulate_gamma_process(
    params: GammaProcessParams,
    K: int,
    H: int | None,
    stream: RandomStream,
) -> PointMeasure:
    """Superpose subrounds k = 1..K, h = 1..H.

    ``H=None`` means all subrounds; rates below one expected atom per 2^70
    draws are dropped, which caps h at SUBROUND_CAP.  Subround (k, h) reads
    ``stream.child(k, h)`` (its count, then its locations, then its jumps)
    and the subrounds run in (k, h) lexicographic order, so raising K only
    appends atoms.
    """
    return _draw(params, _grid(params, K, H, False), stream.key, signed=False)[0]


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
    return _draw(params, _grid(params, K, H, True), stream.key, signed=True)[0]


def simulate_replicas(
    params: GammaProcessParams,
    K: int,
    H: int | None,
    stream: RandomStream,
    replicas: int,
    signed: bool = False,
) -> list[PointMeasure]:
    """``replicas`` draws through the draw engine; replica r reads ``stream.child(r)``.

    Replica r equals ``simulate_gamma_process(params, K, H, stream.child(r))``
    (``simulate_symmetric_gamma`` when ``signed``), bit for bit.
    """
    if replicas < 0:
        raise ValueError("replicas must be >= 0")
    keys = stream.child_keys(np.arange(replicas))
    return _draw(params, _grid(params, K, H, signed), keys, signed)


# Replicas per engine call in replica_masses: only one block's draws are
# held at a time, so its memory stays bounded whatever the replica count.
_MASS_BLOCK = 1024


def replica_masses(
    params: GammaProcessParams,
    K: int,
    H: int | None,
    stream: RandomStream,
    replicas: int,
    signed: bool = False,
) -> np.ndarray:
    """Total mass of each of ``replicas`` draws; replica r reads ``stream.child(r)``.

    Equals the masses of ``simulate_replicas(params, K, H, stream, replicas,
    signed)``, but draws ``_MASS_BLOCK`` replicas per engine call and keeps
    only their masses.
    """
    if replicas < 0:
        raise ValueError("replicas must be >= 0")
    cells = _grid(params, K, H, signed)
    masses = np.empty(replicas)
    for lo in range(0, replicas, _MASS_BLOCK):
        hi = min(lo + _MASS_BLOCK, replicas)
        draws = _draw(params, cells, stream.child_keys(np.arange(lo, hi)), signed)
        masses[lo:hi] = [d.total_mass for d in draws]
    return masses


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
