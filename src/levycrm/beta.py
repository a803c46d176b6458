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
(params, k), known before any random word is read, so once the counts are
drawn every word position is fixed.  Draws therefore run on the draw
engine (``measures.draw_cells``) with a leading axis of draw keys:
``_RoundPlan`` builds the rounds' rates and tables as array rows, a block
of about ``measures._DRAW_BATCH`` table entries at a time, and per batch
of at most ``measures._DRAW_BATCH`` (draw, round) streams the engine makes
one across-keys count read; it pools the live streams of the batches, and
per run of up to ``measures._DRAW_BATCH`` of them and
``measures._BATCH_ATOMS`` atoms makes one ragged read of the locations and
one of the jumps.  ``simulate_replicas``
draws many replicas so, and ``simulate_beta_process`` is the same call
over one key.  Round k of a draw reads ``stream.child(k)`` and the rounds
run in order, so raising K only appends atoms.  ``round_measure`` stays
the descriptive record of one round, built from the plan's masses.

The stable-beta variant adds a discount sigma in [0, 1); its rounds carry
Beta(1-sigma, c+sigma+k) jumps with gamma-function mass factors, and the
Indian buffet construction appears as the N-object finite approximation
whose Levy density converges to the beta process.
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
    DomainError,
    LocationTable,
    PiecewiseConst,
    PointMeasure,
    _cell_volumes,
    _integer,
    common_edges,
    draw_cells,
    positive_function,
)
from .streams import RandomStream


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
    """Round k: jumps Beta(1, c+k), locations from mu_k = c/(c+k) mu.

    mu_k is row k of ``_RoundPlan.masses``, the one evaluator of the round law.
    """
    k = _integer(k, "round index", 0)
    plan = _RoundPlan(params)
    density, atoms = plan.masses(np.array([k]))
    mu_k = BaseMeasure(
        PiecewiseConst(params.domain, plan.edges, density[0]), plan.atoms, atoms[0]
    )
    jump_b = params.concentration.map(lambda v: v + k)
    return BetaRound(k=k, measure=mu_k, jump_shape_a=1.0, jump_shape_b=jump_b)


def simulate_beta_process(
    params: BetaProcessParams, K: int, stream: RandomStream
) -> PointMeasure:
    """Superpose rounds 0..K (inclusive) into one truncated draw.

    Round k reads ``stream.child(k)`` (its count, then its locations, then
    its jumps) and the rounds run in order, so raising K only appends atoms.
    """
    K = _integer(K, "truncation round K", 0)
    return _draw(params, 0, K + 1, stream.key)[0]


def simulate_replicas(
    params: BetaProcessParams, K: int, stream: RandomStream, replicas: int
) -> list[PointMeasure]:
    """Rounds 0..K of ``replicas`` draws, through the draw engine.

    Replica r equals ``simulate_beta_process(params, K, stream.child(r))``,
    bit for bit.
    """
    K = _integer(K, "truncation round K", 0)
    replicas = _integer(replicas, "replicas", 0)
    return _draw(params, 0, K + 1, stream.child_keys(np.arange(replicas)))


class _RoundPlan:
    """The rates and location tables of a draw's rounds, before any word is read.

    mu_k = c/(c+k) mu is a closed form in (params, k): on the common grid of
    the density and c, round k's density is density * c/(c+k) and its atom
    masses atom_mass * c(atom)/(c(atom)+k).  ``masses`` evaluates these for
    many k at once, the one place the round law is written; ``rows`` takes
    cell masses as density * volume and sums each row with the reductions
    behind ``BaseMeasure.total_mass``, so every rate equals
    ``round_measure(params, k).rate`` and the integral of c/(c+k) against mu.
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

    def masses(self, ks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Densities on the grid and atom masses of rounds ``ks``, a row each."""
        k_cells = ks.reshape((-1,) + (1,) * self._density.ndim)
        density = self._density * (self._c_cells / (self._c_cells + k_cells))
        atoms = self._atom_masses * (self._c_atoms / (self._c_atoms + ks[:, None]))
        return density, atoms

    def rows(self, ks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Rates and cumulative location tables of rounds ``ks``, a row each."""
        density, atoms = self.masses(ks)
        cells = (density * self._volumes).reshape(ks.size, -1)
        rates = cells.sum(axis=1) + atoms.sum(axis=1)
        return rates, np.cumsum(np.concatenate([cells, atoms], axis=1), axis=1)

    def blocks(self, k_lo: int, k_hi: int):
        """Rounds k_lo..k_hi-1 as engine cells, ``measures._DRAW_BATCH`` //
        width rounds a block, so a draw's tables take bounded memory."""
        step = max(1, measures._DRAW_BATCH // self.width)
        for lo in range(k_lo, k_hi, step):
            ks = np.arange(lo, min(lo + step, k_hi))
            rates, cums = self.rows(ks)
            yield Cells(
                (ks,), rates, LocationTable(cums, self.edges, self.atoms),
                np.arange(ks.size), np.ones(ks.size, np.int64),
            )


def _beta1_jump(u: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The Beta(1, b) inverse CDF at u: round k's jump law, at b = c + k."""
    return -np.expm1(np.log1p(-u) / b)


def _draw(params: BetaProcessParams, k_lo: int, k_hi: int, roots) -> list:
    """Rounds k_lo..k_hi-1 of one draw per root key ``roots = (k0s, k1s)``.

    Round k of a draw reads the root's ``child(k)``: a ``_RoundPlan`` gives
    every round's rate and table, and each atom reads one jump word.
    """
    c = params.concentration

    def jumps(k, h, locs, u):
        # at(), not the drawn cell: a uniform of 1.0 lands on the next cell's edge
        return _beta1_jump(u[:, 0], c.at(locs) + k)

    blocks = _RoundPlan(params).blocks(k_lo, k_hi)
    return draw_cells(params.domain, roots, blocks, jumps)


def round_mean_and_variance(
    params: BetaProcessParams, k: int, boxes=None
) -> tuple[float, float]:
    """Exact mean and variance of round k's mass on a region.

    By the Poisson-process moment formulas,

        E    = int_A c/((c+k)(c+k+1))          mu(dw)
        Var  = int_A 2c/((c+k)(c+k+1)(c+k+2))  mu(dw).
    """
    k = _integer(k, "round index", 0)
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
    kk = _integer(K, "truncation round K", 0) + 1
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
    k = _integer(k, "round index", 0)
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
    num_objects = _integer(num_objects, "num_objects", 1)
    if not (0 < c < math.inf and 0 < mass < math.inf):  # false for NaN as well
        raise ValueError("c and mass must be finite and positive")
    pi = np.asarray(pi, dtype=np.float64)
    if np.any((pi <= 0) | (pi >= 1)):
        raise DomainError("pi must lie strictly inside (0, 1)")
    a = c * mass / num_objects
    log_norm = _lgamma(a + c) - _lgamma(a) - _lgamma(c)
    logpdf = log_norm + (a - 1) * np.log(pi) + (c - 1) * np.log1p(-pi)
    return num_objects / mass * np.exp(logpdf)
