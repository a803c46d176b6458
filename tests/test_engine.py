"""The draw engine: many draw keys at once equal the per-draw loop.

``measures.draw_cells`` draws every replica of a beta or gamma draw in a
few across-keys passes.  Each replica must equal the one-draw function on
its own stream bit for bit, column for column, whatever the base
(fixed atoms, 2-D piecewise grids, zero-mass cells), the concentration or
scale function, the jump law (live ``h > 16`` cells go through the
per-stream fallback), the sign words, and the keys-per-call bound.  The
engine's count pass and table pick, which the posterior resampler shares,
are checked against one-stream cursors and per-element searches.
"""

import itertools
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from levycrm import beta, gamma, measures
from levycrm.cli import main
from levycrm.measures import PointMeasure
from levycrm.streams import RandomStream
from test_beta import _base_2d, _fn_2d, column_digest, piecewise_cases
from reference import poisson, simulate_round
from test_gamma import reference_cell


def assert_same_draws(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        for x, y in zip(a.columns, b.columns):
            assert x.dtype == y.dtype
            assert np.array_equal(x, y)
        assert a.total_mass == b.total_mass


@settings(max_examples=60, deadline=None)
@given(
    case=piecewise_cases(),
    K=st.integers(0, 20),
    seed=st.integers(0, 2**64 - 1),
    replicas=st.integers(0, 5),
)
def test_beta_replicas_equal_per_draw_loop(case, K, seed, replicas):
    c, base = case
    assume(base.total_mass > 0)
    p = beta.BetaProcessParams(c, base)
    s = RandomStream(seed)
    got = beta.simulate_replicas(p, K, s, replicas)
    rounds = [
        PointMeasure.concat(p.domain, [
            simulate_round(p, k, s.child(r)).columns for k in range(K + 1)
        ])
        for r in range(replicas)
    ]
    assert_same_draws(got, rounds)
    whole = [beta.simulate_beta_process(p, K, s.child(r)) for r in range(replicas)]
    assert_same_draws(got, whole)


@settings(max_examples=60, deadline=None)
@given(
    case=piecewise_cases(),
    K=st.integers(1, 8),
    H=st.one_of(st.integers(1, 8), st.none()),
    seed=st.integers(0, 2**64 - 1),
    replicas=st.integers(0, 5),
    signed=st.booleans(),
)
def test_gamma_replicas_equal_per_draw_loop(case, K, H, seed, replicas, signed):
    scale, base = case
    assume(base.total_mass > 0)
    p = gamma.GammaProcessParams(base, scale)
    s = RandomStream(seed)
    one = gamma.simulate_symmetric_gamma if signed else gamma.simulate_gamma_process
    got = gamma.simulate_replicas(p, K, H, s, replicas, signed=signed)
    assert_same_draws(got, [one(p, K, H, s.child(r)) for r in range(replicas)])


@settings(max_examples=60, deadline=None)
@given(
    case=piecewise_cases(),
    cells=st.lists(
        st.tuples(
            st.integers(1, 4),
            st.sampled_from([1, 2, 9, 16, 17, 23]),
            st.sampled_from([0.0, 0.0, 0.4, 3.0, 12.0]),
        ),
        min_size=1, max_size=6,
    ),
    seed=st.integers(0, 2**64 - 1),
    replicas=st.integers(1, 4),
    signed=st.booleans(),
)
def test_engine_cells_equal_per_cell_cursor_draws(case, cells, seed, replicas, signed):
    # rates chosen freely, so cells with h > 16 are live and some rates are 0
    scale, base = case
    assume(base.total_mass > 0)
    p = gamma.GammaProcessParams(base, scale)
    ks, hs, rates = (np.array(v) for v in zip(*cells))
    s = RandomStream(seed)
    block = gamma._cells(p, ks, hs, rates)
    got = gamma._draw(p, [block], s.child_keys(np.arange(replicas)), signed)
    want = [
        PointMeasure.concat(p.domain, [
            part for k, h, rate in cells
            for part in reference_cell(p, k, h, rate, s.child(r), signed)
        ])
        for r in range(replicas)
    ]
    assert_same_draws(got, want)


def test_keys_per_call_bound_leaves_bytes_unchanged():
    # a bound of 1 puts every stream key (or every live stream, for the atoms
    # bound) in a call of its own; an odd bound splits blocks of cells and of
    # draws unevenly
    beta_p = beta.BetaProcessParams(_fn_2d([[0.5, 2.0], [4.0, 1.0]]), _base_2d())
    gamma_p = gamma.GammaProcessParams(_base_2d(), _fn_2d([[0.5, 2.0], [3.0, 1.0]]))
    homog = gamma.GammaProcessParams.homogeneous(1.0, 3.0)
    s = RandomStream(77)

    def draws():
        return (
            beta.simulate_replicas(beta_p, 12, s, 4)
            + gamma.simulate_replicas(gamma_p, 5, 6, s, 3)
            + gamma.simulate_replicas(homog, 6, 4, s, 5, signed=True)
        )

    want = draws()
    assert all(len(pm) for pm in want)
    for name in ("_DRAW_BATCH", "_BATCH_ATOMS"):
        for bound in (1, 7):
            with mock.patch.object(measures, name, bound):
                got = draws()
            assert [column_digest(pm) for pm in got] == [column_digest(pm) for pm in want]


def test_sparse_grid_pools_live_streams_into_few_draw_calls():
    # a K x H grid of mostly empty cells: a batch of 64 (or 32) keys holds a
    # few live streams, pooled over the batches of a block of cells until one
    # draw call can take 64 (32) of them; the batch also cuts the grid into
    # blocks of 64 // 12 = 5 (32 // 12 = 2) rounds, each with its own count pass
    p = gamma.GammaProcessParams.homogeneous(1.0, 2.0)
    s = RandomStream(91)
    want = gamma.simulate_replicas(p, 40, 12, s, 24)
    real = measures._draw_block
    for batch in (32, 64):
        runs = {}

        def spy(cells, live, *rest):
            # run sizes per block; holding the block keeps its id unique
            runs.setdefault(id(cells), (cells, []))[1].append(live[2].size)
            return real(cells, live, *rest)

        with mock.patch.object(measures, "_DRAW_BATCH", batch), \
                mock.patch.object(measures, "_draw_block", spy):
            blocks = list(gamma._grid(p, 40, 12, False))
            got = gamma.simulate_replicas(p, 40, 12, s, 24)
        step = batch // 12
        assert [b.path[0].max() for b in blocks] == list(range(step, 41, step))
        batches = sum(-(-24 * b.rates.size // batch) for b in blocks)
        sizes = [n for _, n in runs.values()]
        assert sum(map(len, sizes)) < batches / 4
        for n in sizes:
            assert len(n) == -(-sum(n) // batch)
            assert n[:-1] == [batch] * (len(n) - 1)
        # at 32, a block's live streams fill more than one run
        assert max(map(len, sizes)) > 1 or batch == 64
        assert [column_digest(pm) for pm in got] == [column_digest(pm) for pm in want]


def test_replica_masses_bound_leaves_masses_unchanged():
    # blocks of 1 and 3 replicas, with keys-per-call bounds that split them
    # further, give the masses of the per-draw loop
    p = gamma.GammaProcessParams(_base_2d(), _fn_2d([[0.5, 2.0], [3.0, 1.0]]))
    s = RandomStream(78)
    for signed in (False, True):
        one = gamma.simulate_symmetric_gamma if signed else gamma.simulate_gamma_process
        want = [one(p, 5, 6, s.child(r)).total_mass for r in range(7)]
        assert all(want)
        for block, bound in ((1, 1), (3, 7), (1024, 8192)):
            with mock.patch.object(gamma, "_MASS_BLOCK", block), \
                    mock.patch.object(measures, "_DRAW_BATCH", bound):
                got = gamma.replica_masses(p, 5, 6, s, 7, signed)
            assert got.dtype == np.float64
            assert got.tolist() == want


def test_gamma_blocks_of_rounds_leave_draws_unchanged():
    # a budget of 16 cells cuts the grid into blocks of 16 // H rounds (one
    # round each at H = None); every cell keeps its stream key and its place
    # in its draw, so the draws and masses are those of one block
    p = gamma.GammaProcessParams(_base_2d(), _fn_2d([[0.5, 2.0], [3.0, 1.0]]))
    s = RandomStream(79)

    def draws():
        out, masses = [], []
        for K, H in ((40, 5), (23, None)):
            out += [
                gamma.simulate_gamma_process(p, K, H, s.child(9)),
                gamma.simulate_symmetric_gamma(p, K, H, s.child(10)),
                *gamma.simulate_replicas(p, K, H, s, 3),
                *gamma.simulate_replicas(p, K, H, s, 3, signed=True),
            ]
            masses += [gamma.replica_masses(p, K, H, s, 5, signed).tobytes()
                       for signed in (False, True)]
        return [column_digest(pm) for pm in out], masses

    # verify's gamma-marginal grid is one block
    homog = gamma.GammaProcessParams.homogeneous(1.0, 2.0)
    assert len(list(gamma._grid(homog, 199, 40, False))) == 1
    assert len(list(gamma._grid(p, 40, 5, False))) == 1
    want = draws()
    assert all(len(pm) for pm in gamma.simulate_replicas(p, 40, 5, s, 3))
    with mock.patch.object(measures, "_DRAW_BATCH", 16):
        assert len(list(gamma._grid(p, 40, 5, False))) == 14
        assert len(list(gamma._grid(p, 23, None, True))) == 23
        assert draws() == want


def test_huge_K_gamma_draw_holds_a_block_of_rates_at_a_time():
    # K x 64 rates would take 2.4 MiB at K = 5000, and building them through
    # Python lists several times that; a block holds at most 8,192
    p = gamma.GammaProcessParams.homogeneous(1.0, 2.0)
    tracemalloc.start()
    try:
        pm = gamma.simulate_gamma_process(p, 5000, None, RandomStream(5))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(pm) > 10
    assert peak < 4 * 2**20


def test_grid_blocks_keep_the_live_cells_of_the_full_grid():
    # each block is rated over its first round's live sub-rounds only; its
    # cells are the full grid's live cells, rates bit for bit, in order
    for mass in (1e-9, 1.0, 2.0, 300.0, 2.0**19):
        p = gamma.GammaProcessParams.homogeneous(1.0, mass)
        for (K, H), signed in itertools.product(
            [(1, None), (199, 40), (3000, 7), (5000, None)], [False, True]
        ):
            hs = np.arange(1, (H or gamma.SUBROUND_CAP) + 1)
            full = gamma._rates_grid(
                mass * (2.0 if signed else 1.0), np.arange(1, K + 1), hs
            )
            ii, jj = np.nonzero(np.exp(-full) < 1.0)
            with mock.patch.object(measures, "_DRAW_BATCH", 512):
                blocks = list(gamma._grid(p, K, H, signed))
            assert len(blocks) == -(-K // (512 // hs.size))
            ks, hh, rates, width = (np.concatenate(x) for x in zip(
                *((b.path[0], b.path[1], b.rates, b.width) for b in blocks)
            ))
            assert np.array_equal(ks, ii + 1) and np.array_equal(hh, jj + 1)
            assert rates.tobytes() == full[ii, jj].tobytes()
            assert np.array_equal(width, np.where(hh <= 16, hh, 0))


def test_grid_rates_only_the_live_sub_rounds():
    # at K = 5000 and all sub-rounds, 320,000 cells would be rated, but
    # fewer than 23,000 can draw an atom
    p = gamma.GammaProcessParams.homogeneous(1.0, 2.0)
    real, rated = gamma._rates_grid, []

    def spy(mass, ks, hs):
        rated.append(ks.size * hs.size)
        return real(mass, ks, hs)

    with mock.patch.object(gamma, "_rates_grid", spy):
        live = sum(b.rates.size for b in gamma._grid(p, 5000, None, False))
    assert live < 23_000
    assert sum(rated) <= 40_000


def test_grid_rates_no_sub_round_past_the_live_bound(tmp_path):
    # h >= log2(mass) + 64 rates below 2^-64 in every round, so H = 10^6
    # rates at most 65 sub-rounds a round, twice: the first round's scan
    # and the block; the draws past that bound are the H = 64 draws
    p = gamma.GammaProcessParams.homogeneous(1.0, 2.0)
    real, rated = gamma._rates_grid, []

    def spy(mass, ks, hs):
        rated.append(ks.size * hs.size)
        return real(mass, ks, hs)

    with mock.patch.object(gamma, "_rates_grid", spy):
        for _ in gamma._grid(p, 3, 10**6, False):
            pass
    assert sum(rated) <= 3 * 2 * 65
    argv = [
        "simulate", "--family", "gamma", "--theta", "1", "--mass", "2",
        "--K", "20", "--replicas", "3", "--seed", "9",
    ]
    rows = []
    for H in ("100000", "64"):
        out = tmp_path / f"h{H}.jsonl"
        assert main(argv + ["--H", H, "--out", str(out)]) == 0
        rows.append(out.read_text().splitlines()[1:])
    assert len(rows[0]) > 3 and rows[0] == rows[1]


@settings(max_examples=60, deadline=None)
@given(
    seeds=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=4),
    cells=st.lists(
        st.tuples(
            st.integers(0, 2**64 - 1),
            st.integers(0, 40),
            st.sampled_from([0.0, 0.0, 0.3, 2.0, 16.0, 40.0]),
        ),
        min_size=1, max_size=8,
    ),
    levels=st.integers(1, 2),
    per_root=st.booleans(),
    batch=st.sampled_from([1, 3, 8192]),
    atoms=st.sampled_from([1, 7, 2**18]),
)
def test_count_pass_yields_the_live_streams_in_order(
    seeds, cells, levels, per_root, batch, atoms
):
    # rates above 16 split the count into chunks; rate 0 reads no word; a
    # rate per (root, cell) pair is each root's rotation of the cell rates
    first, second, rates = zip(*cells)
    path = (np.array(first, np.uint64), np.array(second))[:levels]
    table = np.array([np.roll(rates, j) for j in range(len(seeds))])
    rates = table if per_root else table[0]
    keys = zip(*(RandomStream(seed).key for seed in seeds))
    r0, r1 = (np.array(k, dtype=np.uint64) for k in keys)
    sizes = []
    real = measures.batch_poisson

    def spy(rates, k0s, k1s):
        sizes.append(np.size(k0s))
        return real(rates, k0s, k1s)

    with mock.patch.object(measures, "_DRAW_BATCH", batch), \
            mock.patch.object(measures, "_BATCH_ATOMS", atoms), \
            mock.patch.object(measures, "batch_poisson", spy):
        got = list(measures._count_pass(r0, r1, path, rates))
    assert max(sizes) <= batch
    assert sum(sizes) == len(seeds) * len(cells)
    want = []
    for j, seed in enumerate(seeds):
        for i, rate in enumerate(table[j if per_root else 0].tolist()):
            s = RandomStream(seed, tuple(int(p[i]) for p in path))
            cur = s.cursor()
            n = poisson(cur, rate)
            if n:
                want.append((j, i, n, *s.key, cur.pos))
    for arrays, after in zip(got, got[1:] + [None]):
        n = arrays[2]
        assert n.size and n.all()
        # a run holds at most ``atoms`` atoms, or one stream above that
        assert n.sum() <= atoms or n.size == 1
        # live streams are pooled over batches: a run before the pass's last
        # holds ``batch`` of them, or ends where the next would pass ``atoms``
        assert n.size <= batch
        if after is not None:
            assert n.size == batch or n.sum() + after[2][0] > atoms
    assert [row for arrays in got for row in zip(*(a.tolist() for a in arrays))] == want


@pytest.mark.parametrize("levels", [1, 2])
@pytest.mark.parametrize("batch", [5, 13, 8192])
def test_count_pass_keys_are_the_child_stream_keys(levels, batch):
    # replica roots as the engine gets them; the path's mix is made once per
    # cell and absorbed under each root, in batches that split roots' cells
    s = RandomStream(2**63 + 11)
    r0, r1 = s.child_keys(np.arange(4))
    k, h = np.divmod(np.arange(12), 3)
    path = ((k + 1,), (k + 1, h + 1))[levels - 1]
    with mock.patch.object(measures, "_DRAW_BATCH", batch):
        got = list(measures._count_pass(r0, r1, path, 4.0))
    streams = [row for arrays in got for row in zip(*(a.tolist() for a in arrays))]
    assert len(streams) > 40
    for root, cell, _, k0, k1, _ in streams:
        assert (k0, k1) == s.child(root, *(int(p[cell]) for p in path)).key


@settings(max_examples=100, deadline=None)
@given(data=st.data(), n_rows=st.integers(1, 4), width=st.integers(1, 5))
def test_pick_equals_per_element_search(data, n_rows, width):
    masses = np.array(data.draw(st.lists(
        st.lists(st.sampled_from([0.0, 0.5, 1.0, 3.0]), min_size=width, max_size=width),
        min_size=n_rows, max_size=n_rows,
    )))
    if data.draw(st.booleans()):
        masses[0] = 0.0
    cums = np.cumsum(masses, axis=1)
    n = data.draw(st.integers(0, 30))
    row = np.array(data.draw(st.lists(
        st.integers(0, n_rows - 1), min_size=n, max_size=n
    )), dtype=np.intp)
    u = np.array(data.draw(st.lists(
        st.floats(0.0, 1.0, exclude_min=True), min_size=n, max_size=n
    )), dtype=np.float64)
    got = measures._pick(cums, row, u)
    want = [
        min(int(np.searchsorted(cums[r], x * cums[r, -1], side="left")), width - 1)
        for r, x in zip(row, u)
    ]
    assert got.tolist() == want
