"""Beta process construction as a superposition of simulable rounds.

A beta process with concentration c(w) > 0 and finite base measure mu has
Levy measure

    nu(dp, dw) = c(w) p^(-1) (1-p)^(c(w)-1) dp mu(dw),   p in (0, 1),

which is infinite, so it cannot be simulated directly.  It splits exactly
into rounds k = 0, 1, 2, ... where round k is a finite Poisson process:

    nu_k(dp, dw) = Beta(p | 1, c(w)+k) dp mu_k(dw),
    mu_k(dw)     = c(w) / (c(w)+k) mu(dw).

Summing the round densities over k recovers nu, and simulating rounds
0..K and superposing the atoms gives a truncated draw whose error decays
like c/(c+K+1) (see the truncation module).

Every round's rate, location table and jump law is a closed form in
(params, k), known before any random word is read.  A draw therefore
builds them once, as array rows over blocks of rounds (``_RoundPlan``),
draws every round's count in one across-keys pass, and then reads each
live round's locations and jumps from ``stream.child(k)``, starting where
the count's words end.  ``round_measure`` stays the descriptive record of
one round; the plan's floats equal its floats bit for bit.

The stable-beta variant adds a discount sigma in [0, 1); its rounds carry
Beta(1-sigma, c+sigma+k) jumps with gamma-function mass factors, and the
Indian buffet construction appears as the N-object finite approximation
whose Levy density converges to the beta process.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .measures import (
    BaseMeasure,
    Domain,
    DomainError,
    LocationTable,
    PiecewiseConst,
    PointMeasure,
    _cell_volumes,
    _sample_locations,
    common_edges,
    positive_function,
)
from .streams import RandomStream, StreamCursor, batch_poisson


class BetaProcessParams:
    """Concentration function c(w) and base measure mu of a beta process."""

    __slots__ = ("concentration", "base")

    def __init__(self, concentration, base: BaseMeasure):
        self.base = base
        self.concentration = positive_function(
            concentration, base.domain, "concentration"
        )
        if not np.isfinite(base.total_mass) or base.total_mass <= 0:
            raise ValueError("base measure must have finite positive mass")

    @classmethod
    def homogeneous(
        cls, c: float, mass: float, domain: Domain | None = None
    ) -> "BetaProcessParams":
        """Constant concentration c and uniform base with the given mass."""
        domain = domain or Domain()
        return cls(float(c), BaseMeasure.uniform(domain, mass))

    @property
    def domain(self) -> Domain:
        return self.base.domain

    @property
    def total_base_mass(self) -> float:
        return self.base.total_mass


@dataclass(frozen=True)
class BetaRound:
    """Round k of the decomposition: a finite Poisson process.

    Atom count is Poisson(measure total), locations follow the normalized
    round measure, and the jump at w is Beta(jump_a, jump_b(w)).
    """

    k: int
    measure: BaseMeasure
    jump_shape_a: float
    jump_shape_b: PiecewiseConst

    @property
    def rate(self) -> float:
        return self.measure.total_mass


def round_measure(params: BetaProcessParams, k: int) -> BetaRound:
    """Round k: jumps Beta(1, c+k), locations from mu_k = c/(c+k) mu."""
    if k < 0:
        raise ValueError("round index must be >= 0")
    c = params.concentration
    mu_k = params.base.scaled(c.map(lambda v: v / (v + k)))
    return BetaRound(
        k=k, measure=mu_k, jump_shape_a=1.0, jump_shape_b=c.map(lambda v: v + k)
    )


def simulate_round(
    params: BetaProcessParams, k: int, stream: RandomStream
) -> PointMeasure:
    """Draw the atoms of round k.

    Randomness comes from ``stream.child(k)``; the draw order is the atom
    count, then all locations, then all jumps, so the result is a pure
    function of (seed, path, params, k).
    """
    if k < 0:
        raise ValueError("round index must be >= 0")
    return _draw_rounds(params, k, k + 1, stream)


def simulate_beta_process(
    params: BetaProcessParams, K: int, stream: RandomStream
) -> PointMeasure:
    """Superpose rounds 0..K (inclusive) into one truncated draw.

    Equals the concatenation of ``simulate_round(params, k, stream)`` for
    k in order, so raising K never changes earlier atoms.  Every round's
    rate and location table come from one ``_RoundPlan`` built per draw,
    a block of rounds at a time.
    """
    if K < 0:
        raise ValueError("truncation round K must be >= 0")
    return _draw_rounds(params, 0, K + 1, stream)


# Rounds per plan block times table width (cells plus fixed atoms) stays near
# this many floats, so a draw's tables take bounded memory whatever K is.
_PLAN_BLOCK = 1 << 10


class _RoundPlan:
    """The rates and location tables of a draw's rounds, before any word is read.

    mu_k = c/(c+k) mu is a closed form in (params, k): on the common grid of
    the density and c, round k's cell masses are density * c/(c+k) * volume
    and its atom masses atom_mass * c(atom)/(c(atom)+k).  ``rows`` evaluates
    these for many k at once in ``round_measure``'s elementwise order, and
    sums each row with the reductions behind ``BaseMeasure.total_mass``, so
    every float equals what ``round_measure(params, k)`` gives.
    """

    def __init__(self, params: BetaProcessParams):
        c, base = params.concentration, params.base
        self.edges = common_edges(base.density, c)
        self.atoms = base.atom_locations
        self._density = base.density.on_grid(self.edges)
        self._c_cells = c.on_grid(self.edges)
        self._volumes = _cell_volumes(self.edges)
        self._atom_masses = base.atom_masses
        self._c_atoms = c.at(base.atom_locations)
        self.width = self._density.size + self._atom_masses.size

    def rows(self, ks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Rates and cumulative location tables of rounds ``ks``, a row each."""
        k_atoms = ks[:, None]
        k_cells = ks.reshape((-1,) + (1,) * self._density.ndim)
        fac = self._c_cells / (self._c_cells + k_cells)
        cells = (self._density * fac * self._volumes).reshape(ks.size, -1)
        atoms = self._atom_masses * (self._c_atoms / (self._c_atoms + k_atoms))
        rates = cells.sum(axis=1) + atoms.sum(axis=1)
        return rates, np.cumsum(np.concatenate([cells, atoms], axis=1), axis=1)


def _draw_rounds(
    params: BetaProcessParams, k_lo: int, k_hi: int, stream: RandomStream
) -> PointMeasure:
    """Rounds k_lo..k_hi-1 superposed, each drawn from ``stream.child(k)``.

    A block of rounds at a time: the plan gives their rates and tables, and
    one across-keys Poisson pass (``batch_poisson``) draws every round's
    count.  Each live round then reads its locations and jumps from
    ``stream.child(k)``, starting where its count's words end.
    """
    plan = _RoundPlan(params)
    step = max(1, _PLAN_BLOCK // plan.width)
    parts = []
    for lo in range(k_lo, k_hi, step):
        ks = np.arange(lo, min(lo + step, k_hi))
        rates, cums = plan.rows(ks)
        k0s, k1s = stream.child_keys(ks)
        counts, used = batch_poisson(rates, k0s, k1s)
        for i in np.flatnonzero(counts):
            cur = StreamCursor(int(k0s[i]), int(k1s[i]), pos=int(used[i]))
            table = LocationTable(cums[i], plan.edges, plan.atoms)
            parts.append(_emit_round(params, table, int(ks[i]), int(counts[i]), cur))
    return PointMeasure.concat(params.domain, parts)


def _emit_round(
    params: BetaProcessParams,
    table: LocationTable,
    k: int,
    n: int,
    cur: StreamCursor,
) -> tuple:
    """The (locations, jumps, round_k, subround_h) columns of round k's n atoms."""
    locs = _sample_locations(table, n, cur)
    # at(), not the drawn cell: a uniform of 1.0 lands on the next cell's edge
    b = params.concentration.at(locs) + k
    u = cur.uniforms(n)
    jumps = -np.expm1(np.log1p(-u) / b)
    return locs, jumps, np.full(n, k), np.zeros(n, np.int64)


def round_mean_and_variance(
    params: BetaProcessParams, k: int, boxes=None
) -> tuple[float, float]:
    """Exact mean and variance of round k's mass on a region.

    By the Poisson-process moment formulas,

        E    = int_A c/((c+k)(c+k+1))          mu(dw)
        Var  = int_A 2c/((c+k)(c+k+1)(c+k+2))  mu(dw).
    """
    c = params.concentration
    f_mean = c.map(lambda v: v / ((v + k) * (v + k + 1)))
    f_var = c.map(lambda v: 2 * v / ((v + k) * (v + k + 1) * (v + k + 2)))
    return (
        params.base.integral_against(f_mean, boxes),
        params.base.integral_against(f_var, boxes),
    )


def cumulative_round_moments(
    params: BetaProcessParams, K: int, boxes=None
) -> tuple[float, float]:
    """Sum of round means and variances over rounds 0..K (inclusive).

    Both sums telescope:

        sum E   = int_A (1 - c/(c+K+1)) mu(dw)
        sum Var = int_A (1/(c+1) - c/((c+K+1)(c+K+2))) mu(dw)

    recovering int_A mu and the full-process variance as K grows.
    """
    if K < 0:
        raise ValueError("truncation round K must be >= 0")
    kk = K + 1
    c = params.concentration
    f_mean = c.map(lambda v: 1 - v / (v + kk))
    f_var = c.map(lambda v: 1 / (v + 1) - v / ((v + kk) * (v + kk + 1)))
    return (
        params.base.integral_against(f_mean, boxes),
        params.base.integral_against(f_var, boxes),
    )


class StableBetaParams:
    """Stable-beta process: a beta process plus a discount sigma in (0, 1)."""

    __slots__ = ("base", "sigma")

    def __init__(self, base: BetaProcessParams, sigma: float):
        if not (0.0 < sigma < 1.0):
            raise ValueError("sigma must lie in (0, 1)")
        self.base = base
        self.sigma = float(sigma)

    @property
    def domain(self) -> Domain:
        return self.base.domain


def stable_round_measure(params: StableBetaParams, k: int) -> BetaRound:
    """Round k of the stable-beta decomposition.

    Jumps are Beta(1-sigma, c+sigma+k) and the round base is mu scaled
    cell-wise by

        Gamma(c+sigma+k) Gamma(c+1) / (Gamma(c+k+1) Gamma(c+sigma)),

    computed in log space; the factor reduces to c/(c+k) as sigma -> 0.
    """
    if k < 0:
        raise ValueError("round index must be >= 0")
    s = params.sigma
    c = params.base.concentration

    def factor(v):
        return np.exp(
            _lgamma(v + s + k) + _lgamma(v + 1) - _lgamma(v + k + 1) - _lgamma(v + s)
        )

    mu_k = params.base.base.scaled(c.map(factor))
    return BetaRound(
        k=k,
        measure=mu_k,
        jump_shape_a=1.0 - s,
        jump_shape_b=c.map(lambda v: v + s + k),
    )


def _lgamma(x):
    return np.vectorize(math.lgamma)(x)


def ibp_levy_density(num_objects: int, c: float, mass: float, pi):
    """Levy density of the N-object Indian buffet approximation.

    The N-object construction draws feature probabilities from
    Beta(c*mass/N, c) at intensity N/mass per unit base measure, so the
    density over pi is (N/mass) Beta(pi | c*mass/N, c).  As N grows this
    converges pointwise to c pi^(-1) (1-pi)^(c-1), the beta process Levy
    density per unit base mass, with error O(1/N).
    """
    if num_objects < 1:
        raise ValueError("need at least one object")
    if c <= 0 or mass <= 0:
        raise ValueError("c and mass must be positive")
    pi = np.asarray(pi, dtype=np.float64)
    if np.any((pi <= 0) | (pi >= 1)):
        raise DomainError("pi must lie strictly inside (0, 1)")
    a = c * mass / num_objects
    log_norm = _lgamma(a + c) - _lgamma(a) - _lgamma(c)
    logpdf = log_norm + (a - 1) * np.log(pi) + (c - 1) * np.log1p(-pi)
    return num_objects / mass * np.exp(logpdf)
