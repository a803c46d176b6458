"""Closed-form truncation error bounds and atom-budget accounting.

Simulating rounds 0..K of a beta process (or subrounds k <= K, h <= H of
a gamma process) leaves out an infinite tail.  The formulas here quantify
that tail exactly:

* beta superposition: the L1 distance between the truncated and full
  normalized Levy measures is (1/gamma) int c/(c+K+1) mu(dw), reducing to
  c/(c+K+1) for constant c;
* beta stick-breaking (for comparison): (c/(c+1))^(K+1);
* data-marginal bound: observing M Bernoulli draws, the marginal
  likelihoods of truncated and full priors differ by at most
  1 - exp(-M int c/(c+K+1) mu(dw));
* gamma superposition: 1/(K+1), plus sum_{k<=K} 1/(k (k+1)^(H+1)) when
  the subround index is also truncated at H.

A truncation table lists these for every K up to K_max, with the expected
atom count of the truncated draw.  One function per family builds it in
one pass over K, each row a running sum over the last: ``beta_table``
takes one tail integral per K and accumulates the round plan's rates
(``beta._RoundPlan``, the one evaluator of the round law c/(c+k) mu), and
``gamma_table`` accumulates the per-round tail terms and log-series sums.
The scalar routes are the same arithmetic: ``beta_l1_error`` and
``beta_marginal_bound`` share the tail integral, and ``gamma_l1_error`` and
``gamma_expected_atoms`` are row K of ``gamma_table``: the closed form at
infinite H, else its column generators run, keeping only the last row.
All three read H through ``gamma._finite_h``, as the draws and moments do.

Everything in this module is exact arithmetic on the closed forms; Monte
Carlo validation of the same quantities lives in the test suite, clearly
separated so formula and simulation evidence stay distinguishable.
"""

from __future__ import annotations

import math
from collections import deque

import numpy as np

from .beta import BetaProcessParams, _RoundPlan
from .gamma import _finite_h
from .measures import UnsupportedParameterError, _integer


def _tail_mass(params: BetaProcessParams, K: int) -> float:
    """int c/(c+K+1) mu(dw), the tail integral behind both beta bounds."""
    K = _integer(K, "K", 0)
    # v + K + 1 adds as (v + K) + 1, which is not always round K+1's v + (K+1)
    f = params.concentration.map(lambda v: v / (v + K + 1))
    return params.base.integral_against(f)


def beta_l1_error(params: BetaProcessParams, K: int) -> float:
    """L1 distance left after superposing rounds 0..K.

    Equals int c/(c+K+1) mu(dw) / gamma; c/(c+K+1) for constant c.
    """
    return _tail_mass(params, K) / params.total_base_mass


def beta_marginal_bound(params: BetaProcessParams, K: int, M: int) -> float:
    """Bound on the marginal-likelihood gap for M observations.

        1 - exp(-M int c/(c+K+1) mu(dw))
    """
    M = _integer(M, "M", 1)
    return -math.expm1(-M * _tail_mass(params, K))


def stick_breaking_bounds(
    c, gamma_mass: float, K: int, M: int | None = None
) -> tuple[float, float | None]:
    """Truncation bounds of the stick-breaking beta construction.

    Returns the L1 distance (c/(c+1))^(K+1) and, when M is given, the
    marginal bound 1 - exp(-M gamma (c/(c+1))^(K+1)).  Constant c only.
    """
    K = _integer(K, "K", 0)
    M = None if M is None else _integer(M, "M", 1)
    if hasattr(c, "is_constant"):
        if not c.is_constant:
            raise UnsupportedParameterError(
                "stick-breaking bounds require a constant concentration"
            )
        c = c.values.flat[0]
    if not 0 < c < math.inf:  # false for NaN as well
        raise ValueError("c must be finite and positive")
    cv, gamma_mass = float(c), _gamma_mass(gamma_mass)
    l1 = (cv / (cv + 1.0)) ** (K + 1)
    marginal = None if M is None else -math.expm1(-M * gamma_mass * l1)
    return l1, marginal


def beta_table(params: BetaProcessParams, K_max: int, M: int | None = None) -> dict:
    """The beta truncation table's columns, an entry per K = 0..K_max.

    ``l1_error`` and ``marginal_bound`` (None without M) take one tail
    integral per K.  ``expected_atoms``, the atom count rounds 0..K expect,
    is the running sum of the round plan's rates int c/(c+k) mu(dw), valid
    for piecewise c as well.  ``stick_breaking_l1`` is the stick-breaking
    construction's L1 distance, None unless c is constant.
    """
    K_max = _integer(K_max, "K_max", 0)
    M = None if M is None else _integer(M, "M", 1)
    ks = range(K_max + 1)
    tails = [_tail_mass(params, K) for K in ks]
    c, mass = params.concentration, params.total_base_mass
    rates = np.concatenate([b.rates for b in _RoundPlan(params).blocks(0, K_max + 1)])
    return {
        "K": np.arange(K_max + 1),
        "l1_error": np.array([t / mass for t in tails]),
        # per row through math, as the scalar routes: numpy's expm1 rounds otherwise
        "marginal_bound": None if M is None else np.array(
            [-math.expm1(-M * t) for t in tails]
        ),
        "expected_atoms": np.cumsum(rates),
        "stick_breaking_l1": np.array(
            [stick_breaking_bounds(c, mass, K)[0] for K in ks]
        ) if c.is_constant else None,
    }


def _gamma_l1_column(K_max: int, H: int | None):
    """1/(K+1) for K = 1..K_max, plus at finite H the running sum over k <= K
    of 1/(k (k+1)^(H+1)), yielded row by row."""
    extra = 0.0
    for k in range(1, K_max + 1):
        if H is not None:
            extra += math.exp(-math.log(k) - (H + 1) * math.log1p(k))
        yield 1.0 / (k + 1) + extra


def _gamma_mass(gamma_mass: float) -> float:
    if not 0 < gamma_mass < math.inf:  # false for NaN as well
        raise ValueError("total mass must be finite and positive")
    return gamma_mass


def _gamma_expected_column(gamma_mass: float, K_max: int, H: int | None):
    """gamma times the running sum of each round's log series cut at h = H,
    yielded row by row."""
    total = 0.0
    for k in range(1, K_max + 1):
        if H is None:
            yield gamma_mass * math.log(k + 1.0)
            continue
        x = 1.0 / (k + 1.0)
        term = s = x
        for h in range(2, H + 1):
            term *= x * (h - 1) / h
            s += term
            if term < 1e-300:
                break
        total += s
        yield gamma_mass * total


def gamma_table(gamma_mass: float, K_max: int, H: int | float | None = None) -> dict:
    """The gamma truncation table's columns, an entry per K = 1..K_max.

    ``l1_error`` is 1/(K+1); a finite H adds the running sum of
    1/(k (k+1)^(H+1)) over k <= K.  ``expected_atoms`` sums the subround
    rates, gamma sum_{k<=K} log((k+1)/k) = gamma log(K+1) at H infinite; a
    finite H keeps a running sum of each round's log series cut at h = H,
    accumulated term by term until it underflows.
    """
    K_max = _integer(K_max, "K_max", 0)
    H, gamma_mass = _finite_h(H), _gamma_mass(gamma_mass)
    return {
        "K": np.arange(1, K_max + 1),
        "l1_error": np.fromiter(_gamma_l1_column(K_max, H), float, K_max),
        "expected_atoms": np.fromiter(
            _gamma_expected_column(gamma_mass, K_max, H), float, K_max
        ),
    }


def gamma_l1_error(K: int, H: int | float | None = None) -> float:
    """L1 distance left after subrounds k <= K, h <= H: row K of ``gamma_table``."""
    K = _integer(K, "K", 1)
    if (H := _finite_h(H)) is None:
        return 1.0 / (K + 1)
    return deque(_gamma_l1_column(K, H), maxlen=1).pop()


def gamma_expected_atoms(gamma_mass: float, K: int, H: int | float | None = None):
    """Expected atom count of subrounds k <= K, h <= H: row K of ``gamma_table``."""
    K = _integer(K, "K", 1)
    gamma_mass = _gamma_mass(gamma_mass)
    if (H := _finite_h(H)) is None:
        return gamma_mass * math.log(K + 1.0)
    return deque(_gamma_expected_column(gamma_mass, K, H), maxlen=1).pop()


def crossover_ranges(c: float, K_max: int) -> list[tuple[int, int, str]]:
    """Maximal K ranges on which each beta bound is the smaller one.

    Compares the superposition bound c/(c+K+1) with the stick-breaking
    bound (c/(c+1))^(K+1) for K = 0..K_max, the ``l1_error`` and
    ``stick_breaking_l1`` columns of ``beta_table`` at base mass 1, and
    reports contiguous ranges labeled by the winner ('superposition',
    'stick-breaking', or 'tie').  No global ordering holds; the label can
    change with K.
    """
    K_max = _integer(K_max, "K_max", 0)
    table = beta_table(BetaProcessParams.homogeneous(c, 1.0), K_max)
    sup, stick = table["l1_error"], table["stick_breaking_l1"]
    labels = np.where(sup < stick, "superposition",
                      np.where(stick < sup, "stick-breaking", "tie")).tolist()
    ranges, start = [], 0
    for K in range(1, K_max + 1):
        if labels[K] != labels[K - 1]:
            ranges.append((start, K - 1, labels[K - 1]))
            start = K
    ranges.append((start, K_max, labels[K_max]))
    return ranges
