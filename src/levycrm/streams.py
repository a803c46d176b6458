"""Counter-based random streams with hierarchical splitting.

Every random quantity in this package is drawn from a :class:`RandomStream`,
which is an immutable (seed, path) pair.  The path is a tuple of nonnegative
integers; ``stream.child(k)`` appends ``k``.  Streams at distinct paths are
statistically independent, and the draws produced under a given (seed, path)
are a pure function of that pair, independent of call order, process layout,
or how many sibling streams exist.

The generator is Philox4x64-10, a counter-based block cipher.  A stream's
128-bit key has one derivation: the seed is mixed once through a 64-bit
finalizer, then each path element is absorbed into the key it extends, so
``child`` and ``child_keys`` absorb only their own indices.  The absorb is
bijective in the element, so siblings always get distinct keys; it is numpy
array ops (``_absorb_arr``), on one key or on many.  Block ``j`` of the
stream is the Philox output for counter ``(j, 0, 0, 0)``, giving random access
to any position without sequential state.

Every word comes from one implementation of the cipher, ``_philox4x64``,
which runs it as numpy array ops: its state is two lanes, ``(x0, x2)`` and
``(x1, x3)``, each a ``(2, m)`` array updated in place, over passes of at most
8,192 blocks.  ``_ragged_blocks`` evaluates the blocks that any ranges of any
keys touch through one call of it, ``ragged_words`` gathers the ranges'
words from them, and a cursor read is that call over the cursor's own key.
"""

from __future__ import annotations

import math

import numpy as np

_MASK64 = 0xFFFFFFFFFFFFFFFF

# Philox4x64's round multipliers as a (2, 1) column, one row per lane row of
# ``_philox4x64`` (see there), with their 32-bit halves split once here, and
# the key's Weyl offsets after r rounds, r * (W0, W1) mod 2**64, per round.
_MASK32 = np.uint64(0xFFFFFFFF)
_SH32 = np.uint64(32)
_M = np.array([[0xD2E7470EE14C6C93], [0xCA5A826395121157]], dtype=np.uint64)
_MH, _ML = _M >> _SH32, _M & _MASK32
_WEYL = np.arange(10, dtype=np.uint64)[:, None] * np.array(
    [0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B], dtype=np.uint64
)

# Blocks per pass of ``_philox4x64``: its lane buffers hold this many blocks
# and are reused from pass to pass, so its temporaries stay fixed in size.
_PHILOX_CHUNK = 8192

# Largest Poisson rate drawn in a single inversion pass; larger rates are
# split into equal chunks so the search loop stays short.
_POISSON_CHUNK = 16.0

# Largest Poisson rate one stream draws.  Its count reads rate/16 words and
# its atoms about rate * (1 + dim + h) more, so the cap keeps one stream's
# reads to some millions of words where a huge mass would ask for gigabytes.
MAX_POISSON_RATE = 2.0**20


class RateCapError(ValueError):
    """A Poisson rate above ``MAX_POISSON_RATE``."""


# splitmix64's shifts and multipliers, and the absorb constants, as numpy
# scalars made once: building them per call cost a third of an absorb
_MIX_ARR = tuple(map(np.uint64, (30, 0xBF58476D1CE4E5B9, 27, 0x94D049BB133111EB, 31)))
_GOLDEN_ARR, _SALT_ARR = np.uint64(0x9E3779B97F4A7C15), np.uint64(0x3C6EF372FE94F82A)


def _mix64_arr(z: np.ndarray) -> np.ndarray:
    """Finalizer of splitmix64, a bijection on 64-bit words, elementwise."""
    s1, m1, s2, m2, s3 = _MIX_ARR
    z = (z ^ (z >> s1)) * m1
    z = (z ^ (z >> s2)) * m2
    return z ^ (z >> s3)


def _path_mix(e) -> tuple[np.ndarray, np.ndarray]:
    """The path element's half of each absorb step, which depends on e alone:
    a caller that absorbs one element under many keys mixes it once."""
    e = np.asarray(e, dtype=np.uint64)
    return _mix64_arr(e + _GOLDEN_ARR), _mix64_arr(e ^ _SALT_ARR)


def _absorb_mixed(k0, k1, g, s) -> tuple[np.ndarray, np.ndarray]:
    """``_absorb_arr`` with the element's half ``(g, s) = _path_mix(e)`` done."""
    return _mix64_arr(k0 ^ g), _mix64_arr(k1 + s)


def _absorb_arr(k0, k1, e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Keys ``(k0, k1)`` with path elements ``e`` absorbed, elementwise;
    bijective in e for fixed (k0, k1), so siblings can never collide."""
    return _absorb_mixed(k0, k1, *_path_mix(e))


def _philox4x64(k0, k1, blocks) -> np.ndarray:
    """Philox4x64-10 output words of counters ``(blocks, 0, 0, 0)``.

    Returns an ``(n, 4)`` array whose row ``i`` is block ``blocks[i]`` under
    key ``(k0[i], k1[i])``; the arguments are uint64 scalars or 1-D arrays,
    broadcast to one length.  Every word the package reads comes from here,
    through ``_ragged_blocks`` or ``batch_poisson``'s one-word read.

    The state runs as two lanes, ``(x0, x2)`` and ``(x1, x3)``, each a
    ``(2, m)`` array whose rows take their own multiplier (``_M``), so one
    ufunc call serves both words of a lane.  A round is 19 calls, each
    written in place into six lane buffers made once and reused over passes
    of at most ``_PHILOX_CHUNK`` blocks; a round's key is the input key
    plus its Weyl offset (``_WEYL``), made in a free buffer, so no key
    buffer is kept.
    """
    k0, k1, blocks = np.broadcast_arrays(
        *(np.asarray(a, dtype=np.uint64).reshape(-1) for a in (k0, k1, blocks))
    )
    n = blocks.size
    out = np.empty((n, 4), dtype=np.uint64)
    bufs = np.empty((6, 2, min(n, _PHILOX_CHUNK)), dtype=np.uint64)
    for lo in range(0, n, _PHILOX_CHUNK):
        c = slice(lo, lo + _PHILOX_CHUNK)
        a, b, hi, t, u, v = bufs[:, :, : blocks[c].size]
        a[0], a[1] = blocks[c], 0
        b[...] = 0
        for weyl in _WEYL:
            # (hi, lo) = the 128-bit product _M * a from 32-bit halves;
            # every partial sum stays under 2**64, so hi is exact
            np.right_shift(a, _SH32, out=hi)
            np.bitwise_and(a, _MASK32, out=t)
            np.multiply(_ML, t, out=u)
            np.right_shift(u, _SH32, out=u)
            np.multiply(_MH, t, out=t)
            np.add(t, u, out=t)
            np.bitwise_and(t, _MASK32, out=u)
            np.multiply(_ML, hi, out=v)
            np.add(u, v, out=u)
            np.multiply(_MH, hi, out=hi)
            np.right_shift(t, _SH32, out=t)
            np.add(hi, t, out=hi)
            np.right_shift(u, _SH32, out=u)
            np.add(hi, u, out=hi)
            np.multiply(_M, a, out=v)  # the low words
            np.add(k0[c], weyl[0], out=t[0])
            np.add(k1[c], weyl[1], out=t[1])
            # x0, x2 = hi1 ^ x1 ^ k0, hi0 ^ x3 ^ k1 and x1, x3 = lo1, lo0:
            # both lanes take their new words with the rows swapped, and the
            # old (x1, x3) buffer takes the next round's low words
            np.bitwise_xor(hi[::-1], b, out=a)
            np.bitwise_xor(a, t, out=a)
            b, v = v[::-1], b
        rows = out[c]
        rows[:, 0::2] = a.T
        rows[:, 1::2] = b.T
    return out


def _words_to_uniform(w: np.ndarray) -> np.ndarray:
    # 53-bit mantissa plus half a step, in (0, 1]: the 2**11 words whose top
    # 53 bits are all ones round to exactly 1.0.  Mapping them below 1 would
    # change draws, so it needs a stream-version field in the output header.
    return ((w >> np.uint64(11)).astype(np.float64) + 0.5) * (2.0 ** -53)


class RandomStream:
    """Immutable handle for the random stream at (seed, path)."""

    __slots__ = ("seed", "path", "_k0", "_k1")

    def __init__(self, seed: int, path: tuple[int, ...] = ()):
        if type(seed) is not int or not 0 <= seed <= _MASK64:  # a bool is refused
            raise ValueError("seed must be an integer in [0, 2**64)")
        # one-element arrays: the wrapping multiplies warn on numpy scalars
        k = np.array([seed], np.uint64)
        self._extend(seed, (), _mix64_arr(k), _mix64_arr(k + _GOLDEN_ARR), path)

    def _extend(self, seed: int, path: tuple, k0, k1, more) -> None:
        """Become (seed, path + more), given (seed, path)'s key as arrays."""
        more = tuple(more)
        for e in more:
            if type(e) is not int or e < 0 or e > _MASK64:
                raise ValueError("path elements must be integers in [0, 2**64)")
            k0, k1 = _absorb_arr(k0, k1, np.array([e], np.uint64))
        object.__setattr__(self, "seed", seed)
        object.__setattr__(self, "path", path + more)
        object.__setattr__(self, "_k0", int(k0[0]))
        object.__setattr__(self, "_k1", int(k1[0]))

    def __setattr__(self, name, value):
        raise AttributeError("RandomStream is immutable")

    def child(self, *indices: int) -> "RandomStream":
        """Stream at this path extended by ``indices``.

        ``s.child(a, b)`` equals ``s.child(a).child(b)``; its key is this
        stream's with each index absorbed.
        """
        child = object.__new__(RandomStream)
        k0, k1 = (np.array([k], np.uint64) for k in self.key)
        child._extend(self.seed, self.path, k0, k1, indices)
        return child

    @property
    def key(self) -> tuple[int, int]:
        return self._k0, self._k1

    def cursor(self, start: int = 0) -> "StreamCursor":
        return StreamCursor(self._k0, self._k1, start)

    def child_keys(self, indices) -> tuple[np.ndarray, np.ndarray]:
        """Keys of ``self.child(i)`` for an array of indices, vectorized."""
        return _absorb_arr(np.uint64(self._k0), np.uint64(self._k1), indices)

    def __repr__(self) -> str:
        return f"RandomStream(seed={self.seed}, path={self.path})"

    def __eq__(self, other) -> bool:
        if not isinstance(other, RandomStream):
            return NotImplemented
        return self.seed == other.seed and self.path == other.path

    def __hash__(self) -> int:
        return hash((self.seed, self.path))


class StreamCursor:
    """Sequential reader over one stream's word sequence.

    The cursor tracks how many 64-bit words have been consumed; every draw
    advances it by a count that depends only on the requested quantities and
    the values drawn, so a fixed request sequence always reads fixed stream
    positions.
    """

    __slots__ = ("_k0", "_k1", "pos")

    def __init__(self, k0: int, k1: int, pos: int = 0):
        self._k0 = np.uint64(k0)
        self._k1 = np.uint64(k1)
        self.pos = pos

    def words(self, n: int) -> np.ndarray:
        w = ragged_words(self._k0, self._k1, self.pos, n)
        self.pos += w.size
        return w

    def uniforms(self, n: int) -> np.ndarray:
        """n independent uniforms on (0, 1]; see ``_words_to_uniform``."""
        return _words_to_uniform(self.words(n))

    def uniform(self) -> float:
        return float(self.uniforms(1)[0])

    def gamma(self, shape: float, scale: float = 1.0) -> float:
        """Gamma(shape, scale) for shape >= 1, the engine's jumps of shape
        above 16, by the Marsaglia-Tsang squeeze: a try reads three words, a
        Box-Muller normal's two and then a uniform, and gives the uniform
        back when it is rejected on v <= 0."""
        if shape < 1.0 or scale <= 0:
            raise ValueError("gamma needs shape >= 1 and a positive scale")
        d = shape - 1.0 / 3.0
        c = 1.0 / math.sqrt(9.0 * d)
        while True:
            u = self.uniforms(3)
            x = math.sqrt(-2.0 * math.log(u[0])) * math.cos(2.0 * math.pi * u[1])
            v = (1.0 + c * x) ** 3
            if v <= 0.0:
                self.pos -= 1
                continue
            if math.log(u[2]) < 0.5 * x * x + d - d * v + d * math.log(v):
                return d * v * scale


def _check_rate_cap(rate: float) -> None:
    if rate > MAX_POISSON_RATE:
        raise RateCapError(
            f"Poisson rate {rate:g} is above the per-stream cap {MAX_POISSON_RATE:g}"
        )


def _poisson_invert(rates: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Vectorized Poisson CDF inversion; one uniform per entry.

    Counts satisfy ``P(N <= n) >= u`` minimally.  The loop runs to the
    largest count drawn, so callers keep rates small by splitting them into
    chunks (see ``batch_poisson``).  An entry stops when ``u <= cdf`` or
    when its term underflows to 0 (its CDF can grow no more), and a stopped
    entry never restarts, so each pass runs only over the entries still
    going, with the float operations a full-array pass gives them.
    """
    lam = np.asarray(rates, dtype=np.float64).ravel()
    u = np.asarray(u, dtype=np.float64).ravel()
    p = np.exp(-lam)
    n = np.zeros(lam.shape, dtype=np.int64)
    go = np.flatnonzero((u > p) & (p > 0.0))
    lam, u, cdf, p = lam[go], u[go], p[go], p[go]
    k = 0
    while go.size:
        k += 1
        p = p * (lam / k)
        cdf = cdf + p
        more = (u > cdf) & (p > 0.0)
        n[go[~more]] = k
        go, lam, u, cdf, p = go[more], lam[more], u[more], cdf[more], p[more]
    return n.reshape(np.shape(rates))


def _ragged_index(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Owner, index within the owner, and owner's first slot of ragged rows.

    Row ``i`` holds ``counts[i]`` slots, laid out one row after another;
    slot ``j`` belongs to row ``owner[j]`` at position ``within[j]``.
    Where every row holds one slot the layout is the identity, made
    without the repeat.
    """
    if (counts == 1).all():
        ix = np.arange(counts.size)
        return ix, np.zeros_like(ix), ix
    first = np.cumsum(counts) - counts
    owner = np.repeat(np.arange(counts.size), counts)
    return owner, np.arange(owner.size) - first[owner], first


def _ragged_blocks(k0s, k1s, starts, counts) -> tuple[np.ndarray, np.ndarray]:
    """The words of every Philox block that word ranges touch, and where
    each range's first word lies among them.

    The arguments are 1-D arrays of one length, ``counts`` nonnegative.
    Range ``i`` is words ``starts[i] .. starts[i]+counts[i]-1`` of stream
    ``(k0s[i], k1s[i])``: word ``j`` of a stream is word ``j % 4`` of its
    block with counter ``j // 4``.  One ``_philox4x64`` call evaluates the
    blocks, each range's in order after the previous range's, so word ``j``
    of range ``i`` is ``words[base[i] + j]``.
    """
    b0 = starts >> 2
    n_blocks = np.where(counts > 0, ((starts + counts - 1) >> 2) - b0 + 1, 0)
    key, block, first_block = _ragged_index(n_blocks)
    words = _philox4x64(k0s[key], k1s[key], b0[key] + block).reshape(-1)
    return words, 4 * first_block + (starts & 3)


def ragged_words(k0s, k1s, starts, counts) -> np.ndarray:
    """Words ``starts[i] .. starts[i]+counts[i]-1`` of every keyed stream.

    The segments are concatenated in key order, gathered from the blocks
    that ``_ragged_blocks`` reads; nonpositive counts give empty segments.
    Arguments broadcast to one shape, read in C order.
    """
    k0s, k1s, starts, counts = (a.ravel() for a in np.broadcast_arrays(
        np.asarray(k0s, dtype=np.uint64),
        np.asarray(k1s, dtype=np.uint64),
        np.asarray(starts, dtype=np.int64),
        np.maximum(np.asarray(counts, dtype=np.int64), 0),
    ))
    words, base = _ragged_blocks(k0s, k1s, starts, counts)
    seg, j, _ = _ragged_index(counts)
    return words[base[seg] + j]


def batch_poisson(
    rates: np.ndarray, k0s: np.ndarray, k1s: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Poisson counts for many keyed streams at once, one per stream.

    Returns ``(counts, words_used)``: entry ``i`` is the count at rate
    ``rates[i]`` drawn from position 0 of stream ``(k0s[i], k1s[i])``, and
    the number of words it read, where that stream's next draw starts.
    A nonzero rate splits into ``max(1, ceil(rate / 16))`` equal chunks,
    one word each; a zero rate reads none.  Rates and keys broadcast to
    one shape.  One ragged read takes each stream's ``words_used`` words,
    one inversion runs over all of them at the stream's chunk rate, and
    each count is its stream's sum of chunk counts (integers, so exact in
    any order).  Where no rate exceeds one chunk, a lone key included,
    every count is one word: word 0 of block 0, read for every key in one
    ``_philox4x64`` call and inverted at the stream's rate, with no ragged
    layout (a zero rate inverts to 0 and still reports 0 words).
    """
    rates, k0s, k1s = np.broadcast_arrays(
        np.asarray(rates, dtype=np.float64),
        np.asarray(k0s, dtype=np.uint64),
        np.asarray(k1s, dtype=np.uint64),
    )
    top = rates.max(initial=0.0)
    _check_rate_cap(top)  # an infinite rate is above the cap too
    if not np.all((rates >= 0) & (rates < math.inf)):
        raise ValueError("Poisson rates must be finite and >= 0")
    if top <= _POISSON_CHUNK:
        u = _words_to_uniform(_philox4x64(k0s, k1s, 0)[:, 0])
        counts = _poisson_invert(rates.ravel(), u).reshape(rates.shape)
        return counts, (rates > 0).astype(np.int64)
    # chunk counts: none at rate 0, at least one above
    used = np.maximum(np.ceil(rates / _POISSON_CHUNK), rates > 0).astype(np.int64)
    m = used.ravel()
    u = _words_to_uniform(ragged_words(k0s, k1s, 0, used))
    owner, _, first = _ragged_index(m)
    lam = (rates.ravel() / np.maximum(m, 1))[owner]
    total = np.concatenate([[0], np.cumsum(_poisson_invert(lam, u))])
    return (total[first + m] - total[first]).reshape(rates.shape), used
