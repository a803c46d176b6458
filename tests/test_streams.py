"""Counter-based generator checks.

The stream contract everything else leans on: Philox blocks match the
reference implementation bit for bit, (seed, path) fully determines every
draw, and the scalar draw helpers produce the documented distributions.
"""

import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
import scipy.stats as stats
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.random import Philox

from levycrm import streams
from levycrm.streams import (
    RandomStream,
    StreamCursor,
    _philox4x64,
    _poisson_invert,
    _stream_words,
    batch_poisson,
    ragged_words,
)


def test_philox_blocks_match_numpy():
    # numpy's Philox advances its counter before generating, so its output
    # for counter word j equals our block j+1
    keys = [(0, 0), (1, 0), (0x0123456789ABCDEF, 0xFEDCBA9876543210)]
    for k0, k1 in keys:
        bg = Philox(
            key=np.array([k0, k1], dtype=np.uint64),
            counter=np.array([5, 0, 0, 0], dtype=np.uint64),
        )
        ref = bg.random_raw(12)
        mine = _philox4x64(np.uint64(k0), np.uint64(k1), np.arange(6, 9, dtype=np.uint64))
        assert np.array_equal(ref, mine.reshape(-1))


def test_frozen_words():
    # golden values pin the key derivation and the block-to-word layout
    s = RandomStream(0)
    w = _stream_words(*s.key, 0, 4)
    assert [hex(int(x)) for x in w] == [
        "0x8d095b181f351512",
        "0x4a76a55c00dc1b79",
        "0xbaaff128a5626a89",
        "0x87e35bf5e18bd8cf",
    ]
    wc = _stream_words(*s.child(3, 1).key, 0, 2)
    assert [hex(int(x)) for x in wc] == ["0x3c477e94400bbddd", "0x2c97f09cf4a28640"]


_KEY_WORDS = st.one_of(st.sampled_from([0, 1, 2**63, 2**64 - 1]), st.integers(0, 2**64 - 1))


@settings(max_examples=300, deadline=None)
@given(
    k0=_KEY_WORDS,
    k1=_KEY_WORDS,
    start=st.one_of(
        st.just(0),
        st.integers(0, 2**40).map(lambda b: 4 * b),
        st.integers(0, 2**62),
    ),
    n=st.integers(1, 300),
)
def test_stream_words_match_philox_blocks(k0, k1, start, n):
    # single-stream reads use numpy's C Philox; the array emulation that
    # serves the across-keys fan-out must give the same words at any key
    # (key words of 2**63 and above included) and any offset
    b0, b1 = start >> 2, (start + n - 1) >> 2
    blocks = _philox4x64(
        np.uint64(k0), np.uint64(k1), np.arange(b0, b1 + 1, dtype=np.uint64)
    )
    ref = blocks.reshape(-1)[start - 4 * b0:][:n]
    assert np.array_equal(_stream_words(k0, k1, start, n), ref)


_CHUNK = streams._PHILOX_CHUNK


@settings(max_examples=25, deadline=None)
@given(
    keys=st.lists(st.tuples(_KEY_WORDS, _KEY_WORDS), min_size=1, max_size=3),
    n=st.sampled_from([1, _CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK + 3]),
    b0=st.one_of(st.just(0), st.integers(-3, 3).map(lambda d: 2**62 + d)),
)
def test_philox_kernel_matches_numpy_across_passes(keys, n, b0):
    # block i runs under key i % len(keys), at counter b0 + i: the passes of
    # the two-lane kernel meet and end at any block, with any per-block key
    k0, k1 = (np.array(k, dtype=np.uint64) for k in zip(*keys))
    pick = np.arange(n) % len(keys)
    got = _philox4x64(k0[pick], k1[pick], np.arange(b0, b0 + n, dtype=np.uint64))
    assert got.shape == (n, 4) and got.dtype == np.uint64
    for j, (a, b) in enumerate(keys):
        bg = Philox(key=np.array([a, b], dtype=np.uint64), counter=(b0 - 1) % 2**256)
        ref = bg.random_raw(4 * n).reshape(n, 4)
        assert np.array_equal(got[pick == j], ref[pick == j])


def test_philox_kernel_memory_is_bounded_by_its_output():
    # five passes: the lane buffers are one pass's, reused, so the peak is
    # the (n, 4) output plus a fixed number of (2, chunk) lane buffers
    n = 5 * _CHUNK
    blocks = np.arange(n, dtype=np.uint64)
    lane = 2 * _CHUNK * 8
    tracemalloc.start()
    try:
        out = _philox4x64(np.uint64(3), np.uint64(2**64 - 1), blocks)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < out.nbytes + 7 * lane
    assert np.array_equal(out[-1], Philox(key=np.array([3, 2**64 - 1], np.uint64),
                                          counter=n - 2).random_raw(4))


def _ragged_layout(counts):
    # the general layout, built with the repeat
    first = np.cumsum(counts) - counts
    owner = np.repeat(np.arange(counts.size), counts)
    return owner, np.arange(owner.size) - first[owner], first


@settings(max_examples=200, deadline=None)
@given(
    counts=st.one_of(
        st.lists(st.just(1), max_size=20),
        st.lists(st.sampled_from([0, 1]), max_size=20),
        st.lists(st.integers(0, 4), max_size=20),
    ).map(lambda c: np.array(c, dtype=np.int64))
)
def test_ragged_index_identity_equals_the_general_layout(counts):
    # all ones take the identity shortcut; zeros or larger rows do not
    got = streams._ragged_index(counts)
    for a, b in zip(got, _ragged_layout(counts)):
        assert a.dtype == b.dtype
        assert np.array_equal(a, b)


def test_word_layout_is_position_pure():
    s = RandomStream(99)
    full = _stream_words(*s.key, 0, 40)
    for start, n in [(0, 1), (3, 5), (7, 9), (31, 9), (5, 0)]:
        assert np.array_equal(_stream_words(*s.key, start, n), full[start : start + n])


def test_cursor_reads_match_direct_words():
    # values must not depend on read sizes
    s = RandomStream(2024)
    direct = _stream_words(*s.key, 0, 600)
    cur = s.cursor()
    got = np.concatenate([cur.words(n) for n in (1, 2, 4, 120, 128, 300, 45)])
    assert np.array_equal(got, direct)
    # a cursor started mid-stream agrees with the same positions
    cur2 = s.cursor(start=137)
    assert np.array_equal(cur2.words(100), direct[137:237])


@settings(max_examples=200, deadline=None)
@given(start=st.integers(0, 2**40), pieces=st.lists(st.integers(-2, 40), max_size=12))
def test_split_cursor_reads_equal_one_read(start, pieces):
    # nonpositive reads return nothing and leave the cursor where it was
    s = RandomStream(2025)
    cur = s.cursor(start)
    got = np.concatenate([np.empty(0, np.uint64)] + [cur.words(n) for n in pieces])
    total = sum(max(n, 0) for n in pieces)
    assert np.array_equal(got, _stream_words(*s.key, start, total))
    assert cur.pos == start + total


def test_ragged_words_matches_cursor():
    s = RandomStream(5)
    k0s, k1s = s.child_keys(np.arange(17))
    w = ragged_words(k0s, k1s, 0, 11).reshape(17, 11)
    for i in range(17):
        assert np.array_equal(w[i], s.child(i).cursor().words(11))


@settings(max_examples=300, deadline=None)
@given(
    reads=st.lists(
        st.tuples(
            st.sampled_from([0, 2**63, 2**64 - 1]),
            st.sampled_from([0, 2**63, 2**64 - 1]),
            # at and around block boundaries, near and far into the stream
            st.tuples(st.sampled_from([0, 1, 2**20, 2**40]), st.integers(-1, 2))
            .map(lambda t: max(4 * t[0] + t[1], 0)),
            st.one_of(st.just(0), st.integers(0, 40)),
        ),
        max_size=12,
    ),
    c_keys=st.sampled_from([0, streams._C_READ_MAX_KEYS]),
)
def test_ragged_words_equal_per_key_reads(reads, c_keys):
    # the emulated cipher and the per-stream C reads give the same words
    k0s, k1s, starts, counts = (
        np.array([r[i] for r in reads], dtype=t)
        for i, t in enumerate([np.uint64, np.uint64, np.int64, np.int64])
    )
    with mock.patch.object(streams, "_C_READ_MAX_KEYS", c_keys):
        got = ragged_words(k0s, k1s, starts, counts)
    want = [_stream_words(*r) for r in reads]
    assert np.array_equal(got, np.concatenate([np.empty(0, np.uint64)] + want))


_MIXED_RATES = st.sampled_from([0.0, 0.3, 16.0, 16.000001, 500.0])


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32),
    rates=st.one_of(
        st.lists(_MIXED_RATES, min_size=1, max_size=10).map(np.array),
        st.lists(st.lists(_MIXED_RATES, min_size=3, max_size=3), min_size=1, max_size=4)
        .map(np.array),
    ),
)
def test_batch_poisson_equals_cursor_on_mixed_rates(seed, rates):
    s = RandomStream(seed)
    idx = np.arange(rates.size).reshape(rates.shape)
    with mock.patch.object(streams, "_C_READ_MAX_KEYS", 0):
        counts, used = batch_poisson(rates, *s.child_keys(idx))
    assert counts.shape == used.shape == rates.shape
    for i in np.ndindex(rates.shape):
        cur = s.child(int(idx[i])).cursor()
        assert counts[i] == cur.poisson(float(rates[i]))
        assert used[i] == cur.pos


def test_child_path_algebra():
    s = RandomStream(7)
    assert s.child(2, 5) == s.child(2).child(5)
    assert s.child(2, 5).key == s.child(2).child(5).key
    # distinct paths get distinct keys
    keys = {s.child(i).key for i in range(200)}
    keys |= {s.child(0, i).key for i in range(200)}
    assert len(keys) == 400
    k0s, k1s = s.child_keys(np.arange(50))
    for i in range(50):
        assert (int(k0s[i]), int(k1s[i])) == s.child(i).key


def test_same_seed_same_draws():
    a = RandomStream(314, (1, 2)).cursor().uniforms(64)
    b = RandomStream(314, (1, 2)).cursor().uniforms(64)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, RandomStream(315, (1, 2)).cursor().uniforms(64))


def test_uniforms_open_interval_and_moments():
    u = RandomStream(11).cursor().uniforms(100_000)
    assert np.all(u > 0.0) and np.all(u < 1.0)
    se = (1.0 / math.sqrt(12.0)) / math.sqrt(u.size)
    assert abs(u.mean() - 0.5) < 4 * se


def test_poisson_zero_rate_and_validation():
    cur = RandomStream(1).cursor()
    assert cur.poisson(0.0) == 0
    with pytest.raises(ValueError):
        cur.poisson(-1.0)
    with pytest.raises(ValueError):
        cur.poisson(math.inf)


def test_rates_above_the_cap_raise_before_any_word_is_read():
    # a huge rate would ask for rate/16 count words per stream; the cap
    # refuses it up front, so nothing is allocated at or beyond the limit
    over = streams.MAX_POISSON_RATE * 2.0
    keys = RandomStream(1).child_keys(np.arange(3))
    with mock.patch.object(streams, "ragged_words") as read:
        with pytest.raises(streams.RateCapError, match="cap"):
            batch_poisson(np.array([0.5, over, 2.0]), *keys)
    read.assert_not_called()
    with mock.patch.object(streams, "_stream_words") as read:
        with pytest.raises(streams.RateCapError, match="cap"):
            RandomStream(1).cursor().poisson(over)
    read.assert_not_called()
    # every rate the suite draws sits below the cap
    assert streams.MAX_POISSON_RATE > 1e5


def test_poisson_moments():
    # rate 5, 1e5 replicas: mean within 3 sqrt(5/n), variance within 5%
    s = RandomStream(42)
    k0s, k1s = s.child_keys(np.arange(100_000))
    counts, used = batch_poisson(np.full(100_000, 5.0), k0s, k1s)
    assert np.all(used == 1)
    assert abs(counts.mean() - 5.0) < 3.0 * math.sqrt(5.0 / counts.size)
    assert abs(counts.var(ddof=1) - 5.0) < 0.25


def test_batch_poisson_matches_cursor():
    # zero, one-chunk, chunk-boundary and multi-chunk rates over 2-D keys
    s = RandomStream(8)
    rates = np.tile([0.0, 3.5, 16.0, 16.5, 40.0, 300.0], (30, 1))
    idx = np.arange(rates.size).reshape(rates.shape)
    k0s, k1s = s.child_keys(idx)
    counts, used = batch_poisson(rates, k0s, k1s)
    assert counts.shape == used.shape == rates.shape
    for i, j in np.ndindex(rates.shape):
        cur = s.child(int(idx[i, j])).cursor()
        assert counts[i, j] == cur.poisson(float(rates[i, j]))
        assert used[i, j] == cur.pos
    assert list(used[0]) == [0, 1, 1, 2, 3, 19]


def test_batch_poisson_validation():
    k0s, k1s = RandomStream(8).child_keys(np.arange(2))
    for bad in (-1.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            batch_poisson(np.array([1.0, bad]), k0s, k1s)


def test_poisson_large_rate_chunking():
    # rates above the chunk bound split into ceil(rate/16) uniforms
    s = RandomStream(13)
    cur = s.cursor()
    n = cur.poisson(40.0)
    assert cur.pos == 3
    counts = np.array([s.child(i).cursor().poisson(40.0) for i in range(3000)])
    assert abs(counts.mean() - 40.0) < 4.0 * math.sqrt(40.0 / counts.size)
    assert n == counts[0] or n >= 0  # n itself came from a different stream


def test_poisson_inversion_is_quantile():
    lam = np.full(7, 2.0)
    q = np.array([stats.poisson.cdf(k, 2.0) for k in range(6)])
    # just below / just above each CDF step
    below = _poisson_invert(lam[:6], q - 1e-12)
    above = _poisson_invert(lam[:6], q + 1e-12)
    assert np.array_equal(below, np.arange(6))
    assert np.array_equal(above, np.arange(1, 7))


def test_beta_one_inverts_cdf():
    s = RandomStream(21)
    u = s.cursor().uniforms(1)[0]
    x = s.cursor().beta_one(3.0)
    assert x == -np.expm1(np.log1p(-u) / 3.0)
    draws = np.array([RandomStream(21, (i,)).cursor().beta_one(3.5) for i in range(4000)])
    assert np.all((draws > 0) & (draws < 1))
    r = stats.kstest(draws, lambda t: stats.beta.cdf(t, 1.0, 3.5))
    assert r.pvalue > 1e-3


@pytest.mark.parametrize("shape", [1.0, 4.0, 0.6, 3.7, 20.5])
def test_gamma_draw_distribution(shape):
    cur = RandomStream(303, (int(shape * 10),)).cursor()
    draws = np.array([cur.gamma(shape, 2.0) for _ in range(4000)])
    assert np.all(draws > 0)
    r = stats.kstest(draws, lambda t: stats.gamma.cdf(t, shape, scale=2.0))
    assert r.pvalue > 1e-3


def test_gamma_validation():
    cur = RandomStream(1).cursor()
    with pytest.raises(ValueError):
        cur.gamma(0.0, 1.0)
    with pytest.raises(ValueError):
        cur.gamma(2.0, -1.0)


def test_integer_gamma_is_sum_of_exponentials():
    s = RandomStream(31)
    u = s.cursor().uniforms(3)
    x = s.cursor().gamma(3, 2.0)
    assert x == pytest.approx(-float(np.log(u).sum()) * 2.0, rel=0, abs=0)
