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
    batch_poisson,
    ragged_words,
)
from reference import beta_one, derive_key, poisson, stream_words


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
    w = s.cursor().words(4)
    assert [hex(int(x)) for x in w] == [
        "0x8d095b181f351512",
        "0x4a76a55c00dc1b79",
        "0xbaaff128a5626a89",
        "0x87e35bf5e18bd8cf",
    ]
    wc = s.child(3, 1).cursor().words(2)
    assert [hex(int(x)) for x in wc] == ["0x3c477e94400bbddd", "0x2c97f09cf4a28640"]


_KEY_WORDS = st.one_of(st.sampled_from([0, 1, 2**63, 2**64 - 1]), st.integers(0, 2**64 - 1))


@settings(max_examples=300, deadline=None)
@given(
    seed=_KEY_WORDS,
    path=st.lists(_KEY_WORDS, max_size=3),
    more=st.lists(_KEY_WORDS, min_size=1, max_size=3),
)
def test_stream_keys_match_the_integer_derivation(seed, path, more):
    # the array absorb, on one key or on many, computes the key derivation
    # of Python integers modulo 2**64
    s = RandomStream(seed, tuple(path))
    assert s.key == derive_key(seed, tuple(path))
    assert all(type(w) is int for w in s.key)
    assert s.child(*more).key == derive_key(seed, tuple(path + more))
    k0s, k1s = s.child_keys(np.array(more, dtype=np.uint64))
    assert list(zip(k0s.tolist(), k1s.tolist())) == [
        derive_key(seed, tuple(path) + (e,)) for e in more
    ]


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
    # a one-key read and a cursor read give numpy's C Philox words at any
    # key (key words of 2**63 and above included) and any offset
    want = stream_words(k0, k1, start, n)
    assert np.array_equal(ragged_words(k0, k1, start, n), want)
    cur = StreamCursor(k0, k1, start)
    assert np.array_equal(cur.words(n), want)
    assert cur.pos == start + n


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
    full = s.cursor().words(40)
    for start, n in [(0, 1), (3, 5), (7, 9), (31, 9), (5, 0)]:
        assert np.array_equal(s.cursor(start).words(n), full[start : start + n])


def test_cursor_reads_match_direct_words():
    # values must not depend on read sizes
    s = RandomStream(2024)
    direct = stream_words(*s.key, 0, 600)
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
    assert np.array_equal(got, stream_words(*s.key, start, total))
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
)
def test_ragged_words_equal_per_key_reads(reads):
    # one read over many keys gives each key's C Philox words in key order
    k0s, k1s, starts, counts = (
        np.array([r[i] for r in reads], dtype=t)
        for i, t in enumerate([np.uint64, np.uint64, np.int64, np.int64])
    )
    got = ragged_words(k0s, k1s, starts, counts)
    want = [stream_words(*r) for r in reads]
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
    counts, used = batch_poisson(rates, *s.child_keys(idx))
    assert counts.shape == used.shape == rates.shape
    for i in np.ndindex(rates.shape):
        cur = s.child(int(idx[i])).cursor()
        assert counts[i] == poisson(cur, float(rates[i]))
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


def test_seed_and_path_elements_must_be_integers_in_range():
    # a bool seed used to equal RandomStream(1), key and all
    for seed in (True, False, -1, 2**64, 1.0, np.uint64(1)):
        with pytest.raises(ValueError, match="seed must be an integer"):
            RandomStream(seed)
    for e in (False, True, -1, 2**64, 2.0, np.int64(2)):
        with pytest.raises(ValueError, match="path elements must be integers"):
            RandomStream(1).child(e)
        with pytest.raises(ValueError, match="path elements must be integers"):
            RandomStream(1, (0, e))


def test_child_absorbs_only_its_own_indices():
    # a child extends its parent's key: one absorb per new element, none
    # for the parent's path
    s = RandomStream(5, (3, 4))
    with mock.patch.object(streams, "_absorb_arr", wraps=streams._absorb_arr) as spy:
        child = s.child(7)
    assert spy.call_count == 1
    assert child.key == derive_key(5, (3, 4, 7))


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
    key = RandomStream(1).key
    counts, used = batch_poisson(0.0, *key)
    assert counts == 0 and used == 0
    with pytest.raises(ValueError):
        batch_poisson(-1.0, *key)
    with pytest.raises(ValueError):
        batch_poisson(math.inf, *key)


def test_rates_above_the_cap_raise_before_any_word_is_read():
    # a huge rate would ask for rate/16 count words per stream; the cap
    # refuses it up front, so nothing is allocated at or beyond the limit,
    # for many keys and for a lone key alike
    over = streams.MAX_POISSON_RATE * 2.0
    keys = RandomStream(1).child_keys(np.arange(3))
    with mock.patch.object(streams, "_philox4x64") as read:
        with pytest.raises(streams.RateCapError, match="cap"):
            batch_poisson(np.array([0.5, over, 2.0]), *keys)
        with pytest.raises(streams.RateCapError, match="cap"):
            batch_poisson(over, *RandomStream(1).key)
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
        assert counts[i, j] == poisson(cur, float(rates[i, j]))
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
    n, used = batch_poisson(40.0, *s.key)
    cur = s.cursor()
    assert n == poisson(cur, 40.0)
    assert used == cur.pos == 3
    counts, _ = batch_poisson(np.full(3000, 40.0), *s.child_keys(np.arange(3000)))
    assert abs(counts.mean() - 40.0) < 4.0 * math.sqrt(40.0 / counts.size)


def test_one_word_counts_equal_the_cursor_and_the_chunked_path():
    # no rate above one chunk: every count is word 0 of its stream, read
    # without the ragged layout
    s = RandomStream(2**64 - 5)
    rates = np.tile([0.0, 5e-324, 1e-3, 0.7, 3.5, 15.999, 16.0], 9)
    k0s, k1s = s.child_keys(np.arange(rates.size))
    with mock.patch.object(streams, "ragged_words", side_effect=AssertionError):
        counts, used = batch_poisson(rates, k0s, k1s)
    assert counts.dtype == used.dtype == np.int64
    assert counts.any()
    for i, rate in enumerate(rates.tolist()):
        cur = s.child(i).cursor()
        assert counts[i] == poisson(cur, rate)
        assert used[i] == cur.pos
    # batches of 1 to 16 keys, and a lone key given as Python ints, take
    # the same one-word path
    with mock.patch.object(streams, "ragged_words", side_effect=AssertionError):
        for n in range(1, 17):
            few, few_used = batch_poisson(rates[:n], k0s[:n], k1s[:n])
            assert few.tolist() == counts.tolist()[:n]
            assert few_used.tolist() == used.tolist()[:n]
        for i, rate in enumerate(rates.tolist()[:16]):
            one, one_used = batch_poisson(rate, *s.child(i).key)
            assert one.shape == one_used.shape == ()
            assert (int(one), int(one_used)) == (counts[i], used[i])
    # one rate above the chunk sends the same keys down the chunked path
    more, more_used = batch_poisson(
        np.append(rates, 16.5), np.append(k0s, k0s[0]), np.append(k1s, k1s[0])
    )
    assert more.tolist()[:-1] == counts.tolist()
    assert more_used.tolist() == used.tolist() + [2]


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
    x = beta_one(s.cursor(), 3.0)
    assert x == -np.expm1(np.log1p(-u) / 3.0)
    draws = np.array([
        beta_one(RandomStream(21, (i,)).cursor(), 3.5) for i in range(4000)
    ])
    assert np.all((draws > 0) & (draws < 1))
    r = stats.kstest(draws, lambda t: stats.beta.cdf(t, 1.0, 3.5))
    assert r.pvalue > 1e-3


@pytest.mark.parametrize("shape", [1.0, 4.0, 3.7, 20.5])
def test_gamma_draw_distribution(shape):
    cur = RandomStream(303, (int(shape * 10),)).cursor()
    draws = np.array([cur.gamma(shape, 2.0) for _ in range(4000)])
    assert np.all(draws > 0)
    r = stats.kstest(draws, lambda t: stats.gamma.cdf(t, shape, scale=2.0))
    assert r.pvalue > 1e-3


def _gamma_two_reads(cur, shape):
    # StreamCursor.gamma as it read before: each squeeze try read the
    # normal's two words, then the uniform in a read of its own, and a try
    # rejected on v <= 0 read no uniform; returns the draw and the number
    # of such rejections
    d = shape - 1.0 / 3.0
    c = 1.0 / math.sqrt(9.0 * d)
    rejected = 0
    while True:
        u = cur.uniforms(2)
        x = math.sqrt(-2.0 * math.log(u[0])) * math.cos(2.0 * math.pi * u[1])
        v = (1.0 + c * x) ** 3
        if v <= 0.0:
            rejected += 1
            continue
        if math.log(cur.uniform()) < 0.5 * x * x + d - d * v + d * math.log(v):
            break
    return d * v, rejected


@pytest.mark.parametrize("shape", [1.0, 3.7, 17.0, 20.5])
def test_gamma_squeeze_reads_the_words_of_the_two_read_loop(shape):
    # one read of three words per try, one word given back on v <= 0: the
    # same draws at the same stream positions as two reads per try
    s = RandomStream(17, (129,))
    new, old = s.cursor(), s.cursor()
    rejected = 0
    for _ in range(40):
        g, r = _gamma_two_reads(old, shape)
        assert new.gamma(shape) == g
        assert new.pos == old.pos
        rejected += r
    if shape == 1.0:
        assert rejected > 0


def test_gamma_validation():
    cur = RandomStream(1).cursor()
    with pytest.raises(ValueError):
        cur.gamma(0.0, 1.0)
    with pytest.raises(ValueError):
        cur.gamma(2.0, -1.0)
    with pytest.raises(ValueError):
        cur.gamma(0.6)
