"""Gamma process construction from a doubly indexed subround family.

A gamma process with scale th(w) > 0 and finite shape measure a has Levy
measure

    nu(dp, dw) = p^(-1) exp(-p / th(w)) dp a(dw),   p > 0.

It decomposes exactly into subrounds indexed by k >= 1 and h >= 1:

    nu_kh(dp, dw) = Gamma(p | h, th(w)/(k+1)) dp a(dw) / ((k+1)^h h),

a finite Poisson process for every (k, h).  Summing over h telescopes the
exponentials and summing over k recovers nu, so superposing simulated
subrounds for k <= K, h <= H yields a truncated draw with L1 error
1/(K+1) plus a small h-tail (see the truncation module).  H is None or
``math.inf`` (all subrounds) or an integer >= 1, read by ``_finite_h`` for
the draws, the moments and the truncation tables alike; K, k and h are
integers >= 1.  Every integer, H too, goes through ``measures._integer``:
an integral float reads as its int, and a fraction, a bool or NaN raises.

Every subround's rate, location law and jump law is a closed form known
before any random word is read, so draws run on the draw engine
(``measures.draw_cells``) with a leading axis of draw keys.  ``_grid``
rates the (k, h) cells with ``_rates_grid``, the one evaluator of the
subround rate, and hands them to the engine floor(``measures._DRAW_BATCH``
/ H) rounds at a time, so a draw's memory does not grow with K.
Only live cells with h > 16 draw their jumps through a cursor.
``_replica_blocks`` is the one replica loop, ``_MASS_BLOCK`` replicas per
engine call; ``replica_masses`` keeps only their total masses.  The one-draw
functions are the same call over one key.  Subround (k, h) of a draw reads
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

import numpy as np

from . import measures
from .measures import (
    BaseMeasure,
    Cells,
    Domain,
    PiecewiseConst,
    PointMeasure,
    _integer,
    draw_cells,
    location_table,
    positive_function,
)
from .streams import RandomStream

# Subround cap standing in for h = infinity: beyond h = 64 every subround
# rate is below mass * 2^-70, far under one expected atom per 1e20 draws.
SUBROUND_CAP = 64

# Largest jump shape h drawn as a sum of h exponentials (see ``_cells``).
_GAMMA_INT_SHAPE_MAX = 16


def _finite_h(H) -> int | None:
    """The subround cutoff H: None for all subrounds (H None or inf), else
    ``measures._integer``'s int >= 1."""
    return None if H is None or H == math.inf else _integer(H, "H", 1)


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
    """Expected atom count mass / ((k+1)^h h) of subround (k, h): one cell
    of ``_rates_grid``."""
    k, h = _integer(k, "k", 1), _integer(h, "h", 1)
    return float(_rates_grid(mass, np.array([k]), np.array([h]))[0, 0])


def _rates_grid(mass: float, ks: np.ndarray, hs: np.ndarray) -> np.ndarray:
    """mass / ((k+1)^h h) of subrounds (k, h), a row per k in ``ks`` and a
    column per h in ``hs``.

    Evaluated in log space so deep subrounds underflow cleanly to zero
    instead of overflowing the power.  Each log and exp goes through
    ``math``, one value at a time, so a rate is the same bits in whatever
    block it is evaluated.
    """
    if mass == 0.0:
        return np.zeros((ks.size, hs.size))
    l1k = np.array([math.log1p(k) for k in ks.tolist()])
    lh = np.array([math.log(h) for h in hs.tolist()])
    x = math.log(mass) - hs * l1k[:, None] - lh
    return np.fromiter(map(math.exp, x.ravel().tolist()), float).reshape(x.shape)


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
    k, h = _integer(k, "k", 1), _integer(h, "h", 1)
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
    return Cells(
        (ks, hs), rates, location_table(params.base),
        np.zeros(ks.size, np.intp), np.where(hs <= _GAMMA_INT_SHAPE_MAX, hs, 0),
    )


def _draw(params: GammaProcessParams, blocks, roots, signed: bool) -> list:
    """The cells of ``blocks`` (``Cells``, in order) of one draw per root key
    ``roots = (k0s, k1s)``, through the engine.

    An atom of cell (k, h) at w takes a Gamma(h, th(w)/(k+1)) magnitude: a
    sum of h exponentials, summed per atom over a row of h words, or beyond
    ``_GAMMA_INT_SHAPE_MAX`` ``StreamCursor.gamma``'s Marsaglia-Tsang squeeze.
    """
    scale = params.scale

    def jumps(k, h, locs, u):
        # at(), not the drawn cell: a uniform of 1.0 lands on the next cell's edge
        return -np.log(u).sum(axis=1) * (scale.at(locs) / (k + 1))

    def fallback(cur, k, h, locs):
        return np.array([cur.gamma(h, s) for s in scale.at(locs) / (k + 1)])

    return draw_cells(params.domain, roots, blocks, jumps, fallback, signed)


def _grid(params: GammaProcessParams, K: int, H, signed: bool):
    """The cells k = 1..K, h = 1..H of a draw, in (k, h) order: a generator of
    ``Cells`` blocks of floor(``measures._DRAW_BATCH`` / H) rounds (at least
    one); H is an int >= 1, or None or inf (SUBROUND_CAP), checked with K at call.

    Where exp(-rate) rounds to 1, the Poisson inversion returns 0 for every
    uniform (none exceeds 1), so those cells need no key and no cipher.
    Rates fall along a row and down a column, in floats too, so a block is
    rated only over its first round's live sub-rounds, all h < log2(mass) + 64.
    """
    K = _integer(K, "K", 1)
    H = _finite_h(H) or SUBROUND_CAP
    mass = params.total_base_mass * (2.0 if signed else 1.0)
    # frexp's exponent is at least log2(mass), and 0 where the doubled mass
    # overflows to inf: those rates are inf, refused by the count pass's cap
    hs = np.arange(1, min(H, max(1, math.frexp(mass)[1] + 64)) + 1)
    step = max(1, measures._DRAW_BATCH // H)

    def block(ks):
        width = np.count_nonzero(np.exp(-_rates_grid(mass, ks[:1], hs)) < 1.0)
        rates = _rates_grid(mass, ks, hs[:width])
        ii, jj = np.nonzero(np.exp(-rates) < 1.0)
        return _cells(params, ks[ii], hs[jj], rates[ii, jj])

    return (block(np.arange(lo, min(lo + step, K + 1))) for lo in range(1, K + 1, step))


def simulate_gamma_process(
    params: GammaProcessParams,
    K: int,
    H: int | None,
    stream: RandomStream,
) -> PointMeasure:
    """Superpose subrounds k = 1..K, h = 1..H.

    H is an integer >= 1, or None or ``math.inf`` for all subrounds; rates
    below one expected atom per 2^70 draws are dropped, which caps h at
    SUBROUND_CAP.  Subround (k, h) reads ``stream.child(k, h)`` (its count,
    then its locations, then its jumps) and the subrounds run in (k, h)
    lexicographic order, so raising K only appends atoms.
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


# Replicas per engine call: only one block's draws are in flight at a time,
# so replica_masses' memory stays bounded whatever the replica count.
_MASS_BLOCK = 1024


def _replica_blocks(params, K: int, H, stream: RandomStream, n: int, signed: bool):
    """The one replica loop: the draws of replicas 0..n-1, ``_MASS_BLOCK`` per
    engine call, replica r from ``stream.child(r)``; a bad n, K or H raises at call."""
    n = _integer(n, "replicas", 0)
    _grid(params, K, H, signed)
    lows = range(0, n, _MASS_BLOCK)
    keys = (stream.child_keys(np.arange(lo, min(lo + _MASS_BLOCK, n))) for lo in lows)
    return (_draw(params, _grid(params, K, H, signed), k, signed) for k in keys)


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
    blocks = _replica_blocks(params, K, H, stream, replicas, signed)
    return [draw for draws in blocks for draw in draws]


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
    signed)``, keeping only each block's masses.
    """
    blocks = _replica_blocks(params, K, H, stream, replicas, signed)
    return np.fromiter((d.total_mass for ds in blocks for d in ds), float)


def subround_mean_and_variance(
    params: GammaProcessParams, k: int, h: int, boxes=None
) -> tuple[float, float]:
    """Exact mean and variance of subround (k, h) mass on a region.

        E   = int_A th/(k+1)^(h+1)           a(dw)
        Var = int_A (h+1) th^2/(k+1)^(h+2)   a(dw)
    """
    k, h = _integer(k, "k", 1), _integer(h, "h", 1)
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
    num_subrounds=None,
) -> tuple[float, float]:
    """Moments of round k's mass, summed over subrounds.

    Over all h (``num_subrounds`` None or inf) the sums close up:

        E   = int_A th/(k(k+1))                a(dw)
        Var = int_A th^2 (1/k^2 - 1/(k+1)^2)   a(dw).

    An integer ``num_subrounds`` >= 1 sums that many subround terms instead.
    """
    k = _integer(k, "round index", 1)
    th = params.scale
    if (num_subrounds := _finite_h(num_subrounds)) is None:
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
    H=None,
    boxes=None,
) -> float:
    """Variance of the symmetric process mass on a region.

    The mean is zero by symmetry; the full-process variance is
    2 int_A th^2 a(dw), and truncation scales the round-k contribution
    exactly as in the one-sided process (each subround's rate doubles
    while signs square away).  K is None (no round cap) or an int >= 1; H is
    None, inf or an int >= 1, and a finite H needs K.
    """
    K = None if K is None else _integer(K, "K", 1)
    if K is None and _finite_h(H) is None:
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
    k, h = _integer(k, "k", 1), _integer(h, "h", 1)
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
