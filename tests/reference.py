"""One-stream reference samplers for the bit-for-bit comparison tests.

The library draws every beta round, gamma sub-round and posterior cell on
the draw engine, many streams at a time.  ``poisson``, ``beta_one``,
``_sample_locations`` and the two posterior draws read one stream through
a ``StreamCursor``, one read after another, in the word layout the engine
must reproduce: the count, then the locations, then the jumps.
``simulate_round`` and ``simulate_subround`` draw one cell of one draw
through the engine.  The comparison tests hold the library to these draws
bit for bit, and the tests of these functions' own laws keep them right.
"""

from __future__ import annotations

import math

import numpy as np

from levycrm import beta, gamma
from levycrm.measures import LocationTable, PointMeasure, _place
from levycrm.streams import (
    _POISSON_CHUNK,
    RandomStream,
    StreamCursor,
    _check_rate_cap,
    _poisson_invert,
)


def poisson(cursor: StreamCursor, rate: float) -> int:
    """Poisson count by CDF inversion.

    Rates above a fixed chunk size are split into ``m`` equal pieces and
    the chunk counts summed, which keeps the inversion loop short; the
    number of uniforms consumed is exactly ``m``.
    """
    if rate < 0 or not math.isfinite(rate):
        raise ValueError(f"Poisson rate must be finite and >= 0, got {rate}")
    _check_rate_cap(rate)
    if rate == 0.0:
        return 0
    m = max(1, math.ceil(rate / _POISSON_CHUNK))
    u = cursor.uniforms(m)
    return int(_poisson_invert(np.full(m, rate / m), u).sum())


def beta_one(cursor: StreamCursor, b: float) -> float:
    """Draw from Beta(1, b) by inverting the CDF 1 - (1-x)^b.

    Uses numpy's log1p/expm1 (they differ from libm by an ulp on
    some inputs) so scalar draws match vectorized ones exactly.
    """
    return float(-np.expm1(np.log1p(-cursor.uniform()) / b))


def _sample_locations(table: LocationTable, n: int, cursor: StreamCursor) -> np.ndarray:
    """n locations drawn i.i.d. from the normalized measure of a location table.

    Returns an (n, dim) array.  Consumes, per point, one component-choice
    uniform plus one uniform per dimension when a density cell is chosen
    (atoms need no position draw); the cursor ends after the words used.
    The draw engine calls ``_place`` directly, over many streams.
    """
    if not table.cum[-1] > 0:
        raise ValueError("cannot sample from a measure with zero mass")
    start = cursor.pos
    u = cursor.uniforms(n * (1 + len(table.edges)))
    stacked = LocationTable(table.cum[None], table.edges, table.atoms)
    locs, used = _place(stacked, np.zeros(1, np.intp), np.array([n]), u)
    cursor.pos = start + int(used[0])
    return locs


def simulate_round(
    params: beta.BetaProcessParams, k: int, stream: RandomStream
) -> PointMeasure:
    """Draw the atoms of round k.

    Randomness comes from ``stream.child(k)``; the draw order is the atom
    count, then all locations, then all jumps, so the result is a pure
    function of (seed, path, params, k).
    """
    if k < 0:
        raise ValueError("round index must be >= 0")
    return beta._draw(params, k, k + 1, stream.key)[0]


def simulate_subround(
    params: gamma.GammaProcessParams, k: int, h: int, stream: RandomStream
) -> PointMeasure:
    """Draw the atoms of subround (k, h).

    Randomness comes from ``stream.child(k, h)``; draw order is count,
    locations, then jumps, each jump Gamma(h, th(w)/(k+1)).
    """
    rate = gamma.subround_rate(params.total_base_mass, k, h)
    cells = gamma._cells(params, np.array([k]), np.array([h]), np.array([rate]))
    return gamma._draw(params, cells, stream.key, signed=False)[0]


def resample_observed_jump(
    c: float, M: int, m_i: int, K: int, stream: RandomStream
) -> float:
    """One posterior draw of an observed atom's jump, rounds 0..K.

    The target is a sum over rounds k = 0..K of H_k independent
    Beta(1, c+M+k) jumps with H_k ~ Poisson(m_i/(c+M+k)).  Independent
    Poisson counts superpose: the grand count is Poisson of the summed
    rates, and each arrival falls in round k with probability
    proportional to its rate.  Drawing that way is the same law and
    needs a handful of uniforms instead of one per round.

    The result is nonnegative and occasionally exceeds 1.  Counts
    m_i > M are accepted: the formulas only need m_i >= 0.
    """
    if m_i < 0:
        raise ValueError("m_i must be >= 0")
    if K < 0:
        raise ValueError("K must be >= 0")
    if m_i == 0:
        return 0.0
    cur = stream.cursor()
    b = c + M + np.arange(K + 1, dtype=np.float64)
    cum = np.cumsum(m_i / b)
    n = poisson(cur, float(cum[-1]))
    if n == 0:
        return 0.0
    u = cur.uniforms(n) * cum[-1]
    ks = np.minimum(np.searchsorted(cum, u, side="left"), K)
    v = cur.uniforms(n)
    return float(np.sum(-np.expm1(np.log1p(-v) / b[ks])))


def sample_new_jump(
    c: float, M: int, K: int, stream: RandomStream
) -> tuple[int, float]:
    """One draw of a previously unobserved posterior jump.

    The round index k is drawn from weights 1/(c+M+k), k = 0..K,
    normalized; the jump from Beta(1, c+M+k).
    """
    if K < 0:
        raise ValueError("K must be >= 0")
    cur = stream.cursor()
    w = 1.0 / (c + M + np.arange(K + 1, dtype=np.float64))
    cum = np.cumsum(w)
    u = cur.uniform() * cum[-1]
    k = min(int(np.searchsorted(cum, u, side="left")), K)
    jump = beta_one(cur, c + M + k)
    return k, jump
