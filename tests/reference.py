"""One-stream reference samplers for the bit-for-bit comparison tests.

The library draws every beta round, gamma sub-round and posterior cell on
the draw engine, many streams at a time.  ``poisson``, ``beta_one``,
``_sample_locations`` and the two posterior draws read one stream through
a ``StreamCursor``, one read after another, in the word layout the engine
must reproduce: the count, then the locations, then the jumps.
``simulate_round`` and ``simulate_subround`` draw one cell of one draw
through the engine.  The comparison tests hold the library to these draws
bit for bit, and the tests of these functions' own laws keep them right.

``stream_words`` reads one stream's words from numpy's C Philox, the
oracle that holds the library's own Philox kernel to Philox4x64-10, and
``derive_key`` computes a stream's key in Python integers, the oracle that
holds the library's array absorb to the key derivation.

``json_line`` and ``csv_field`` write one record, or one CSV field, at a
time: the row writer that the CLI's block templates, header included, must
reproduce byte for byte.
"""

from __future__ import annotations

import json
import math

import numpy as np
from numpy.random import Philox

from levycrm import beta, gamma
from levycrm.cli import _fmt_float
from levycrm.measures import LocationTable, PointMeasure, _place
from levycrm.streams import (
    _POISSON_CHUNK,
    RandomStream,
    StreamCursor,
    _check_rate_cap,
    _poisson_invert,
)


_MASK64 = 0xFFFFFFFFFFFFFFFF
_GOLDEN = 0x9E3779B97F4A7C15
_SALT = 0x3C6EF372FE94F82A


def _mix64(z: int) -> int:
    """Finalizer of splitmix64, a bijection on 64-bit integers."""
    z &= _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def derive_key(seed: int, path: tuple[int, ...]) -> tuple[int, int]:
    """Key (k0, k1) of the stream at (seed, path).

    The seed is mixed into two words, then each path element ``e`` is
    absorbed as ``k0 = mix(k0 ^ mix(e + golden))``, ``k1 = mix(k1 +
    mix(e ^ salt))``, all modulo 2**64.
    """
    k0 = _mix64(seed)
    k1 = _mix64((seed + _GOLDEN) & _MASK64)
    for e in path:
        k0 = _mix64(k0 ^ _mix64((e + _GOLDEN) & _MASK64))
        k1 = _mix64((k1 + _mix64(e ^ _SALT)) & _MASK64)
    return k0, k1


def stream_words(k0: int, k1: int, start: int, n: int) -> np.ndarray:
    """Words ``start .. start+n-1`` of the stream keyed by (k0, k1).

    Word ``i`` is word ``i % 4`` of the Philox block with counter ``i // 4``.
    numpy's C Philox computes the same cipher; it increments its counter
    before each block, so it starts one block back.  The key goes in as a
    uint64 array: numpy does not keep Python ints of 2**63 or more intact.
    """
    if n <= 0:
        return np.empty(0, dtype=np.uint64)
    b0 = start >> 2
    b1 = (start + n - 1) >> 2
    bitgen = Philox(
        key=np.array([k0, k1], dtype=np.uint64), counter=(b0 - 1) % 2**256
    )
    words = bitgen.random_raw(4 * (b1 - b0 + 1))
    off = start - 4 * b0
    return words[off:off + n]


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
    if not table.cum[0, -1] > 0:
        raise ValueError("cannot sample from a measure with zero mass")
    start = cursor.pos
    u = cursor.uniforms(n * (1 + len(table.edges)))
    locs, used = _place(table, np.zeros(1, np.intp), np.array([n]), u)
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
    mass = params.total_base_mass
    # the rate's log-space closed form, written here apart from gamma._rates_grid
    rate = math.exp(math.log(mass) - h * math.log1p(k) - math.log(h)) if mass else 0.0
    cells = gamma._cells(params, np.array([k]), np.array([h]), np.array([rate]))
    return gamma._draw(params, [cells], stream.key, signed=False)[0]


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


def _json_value(v) -> str:
    if v is None:
        return "null"
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return _fmt_float(v)
    if isinstance(v, str):
        return json.dumps(v)
    if isinstance(v, (list, tuple, np.ndarray)):
        return "[" + ", ".join(_json_value(x) for x in v) + "]"
    raise TypeError(f"cannot serialize {type(v).__name__}")


def json_line(record: dict) -> str:
    """One record as a JSON object on one line, without the newline."""
    parts = (f"{json.dumps(k)}: {_json_value(v)}" for k, v in record.items())
    return "{" + ", ".join(parts) + "}"


def csv_field(v) -> str:
    """One value as a CSV field; a list is its floats joined by ``;``."""
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return _fmt_float(v)
    if isinstance(v, (list, tuple, np.ndarray)):
        return ";".join(_fmt_float(x) for x in v)
    s = str(v)
    if any(ch in s for ch in ",\"\n"):
        s = '"' + s.replace('"', '""') + '"'
    return s
