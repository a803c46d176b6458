"""Gamma-process decomposition: subround grid, moments, simulation.

Subround (k, h) is a finite Poisson process with mean count
mass / ((k+1)^h h) and Gamma(h, theta/(k+1)) jumps; summed over h the
round rates telescope to log((k+1)/k).  Variants: signed jumps
(symmetric) and a discount sigma (generalized).
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import stats

from levycrm import gamma, verify
from levycrm.measures import (
    BaseMeasure,
    Domain,
    PiecewiseConst,
    PointMeasure,
    location_table,
)
from levycrm.streams import RandomStream, _poisson_invert, _words_to_uniform
from reference import _sample_locations, poisson, simulate_subround
from test_beta import (
    HALF,
    ONE,
    _base_2d,
    _fn_2d,
    column_digest,
    fixed_words,
    piecewise_cases,
)

UNIT_MASS = gamma.GammaProcessParams.homogeneous(1.0, 1.0)


def homog(theta, mass):
    return gamma.GammaProcessParams.homogeneous(theta, mass)


def test_subround_rate_examples():
    assert gamma.subround_rate(1.0, 1, 1) == 0.5
    assert gamma.subround_rate(1.0, 1, 2) == pytest.approx(0.125, rel=1e-15)
    assert gamma.subround_rate(0.0, 4, 2) == 0.0
    with pytest.raises(ValueError):
        gamma.subround_rate(1.0, 0, 1)
    with pytest.raises(ValueError):
        gamma.subround_rate(1.0, 1, 0)


@pytest.mark.parametrize("mass", [0.0, 1.0, 2.0, 0.37, 1e-300, 3e5, 5e300])
@pytest.mark.parametrize("K, H", [(1, 1), (7, 3), (199, 40), (60, gamma.SUBROUND_CAP)])
def test_rates_grid_equals_subround_rate_bit_for_bit(mass, K, H):
    gamma._rates_grid.cache_clear()
    grid = gamma._rates_grid(mass, K, H)
    want = np.array([
        [gamma.subround_rate(mass, k, h) for h in range(1, H + 1)]
        for k in range(1, K + 1)
    ])
    assert grid.shape == (K, H) and not grid.flags.writeable
    assert np.array_equal(grid.view(np.uint64), want.view(np.uint64))


def test_subround_rates_sum_to_log():
    # sum_h 1/((k+1)^h h) = log((k+1)/k); the h-tail at 60 is ~2^-60
    partial = math.fsum(gamma.subround_rate(1.0, 1, h) for h in range(1, 61))
    assert abs(partial - math.log(2.0)) < 1e-10
    grid = math.fsum(
        gamma.subround_rate(1.0, k, h) for k in range(1, 10) for h in range(1, 61)
    )
    assert abs(grid - math.log(10.0)) < 1e-9


def test_subround_spec_fields():
    sub = gamma.subround_spec(UNIT_MASS, 1, 1)
    assert sub.rate == pytest.approx(0.5, rel=1e-15)
    assert sub.jump_shape == 1.0
    assert float(sub.jump_scale.values.flat[0]) == 0.5
    sub = gamma.subround_spec(homog(3.0, 2.0), 2, 4)
    assert sub.rate == pytest.approx(2.0 / (3**4 * 4), rel=1e-12)
    assert sub.jump_shape == 4.0
    assert float(sub.jump_scale.values.flat[0]) == 1.0


def test_subround_mean_and_variance():
    m, v = gamma.subround_mean_and_variance(UNIT_MASS, 1, 1)
    assert m == pytest.approx(0.25, rel=1e-12)
    assert v == pytest.approx(0.25, rel=1e-12)
    with pytest.raises(ValueError):
        gamma.subround_mean_and_variance(UNIT_MASS, 0, 1)


def test_round_mean_and_variance():
    m, v = gamma.round_mean_and_variance(UNIT_MASS, 1)
    assert m == pytest.approx(0.5, rel=1e-15)
    assert v == pytest.approx(0.75, rel=1e-15)
    # restricting to a region scales both by its base mass
    m_box, _ = gamma.round_mean_and_variance(UNIT_MASS, 1, [(0.0, 0.3)])
    assert m_box == pytest.approx(0.3 * 0.5, rel=1e-12)
    # 60 subround terms close the h-sum to beyond double precision
    for k in (1, 2, 7):
        closed = gamma.round_mean_and_variance(UNIT_MASS, k)
        summed = gamma.round_mean_and_variance(UNIT_MASS, k, num_subrounds=60)
        assert summed[0] == pytest.approx(closed[0], rel=1e-12)
        assert summed[1] == pytest.approx(closed[1], rel=1e-12)
    with pytest.raises(ValueError):
        gamma.round_mean_and_variance(UNIT_MASS, 0)


def test_mean_telescoping():
    p = homog(2.0, 3.0)
    total = math.fsum(gamma.round_mean_and_variance(p, k)[0] for k in range(1, 1001))
    assert total == pytest.approx(3.0 * 2.0 * (1.0 - 1.0 / 1001.0), rel=1e-12)


@pytest.mark.parametrize("K", [1, 10, 1000])
def test_variance_partial_identity(K):
    p = homog(2.0, 3.0)
    total = math.fsum(gamma.round_mean_and_variance(p, k)[1] for k in range(1, K + 1))
    target = 3.0 * 4.0 * (1.0 - 1.0 / (K + 1.0) ** 2)
    assert total == pytest.approx(target, rel=1e-12)


def test_single_cell_grid_equals_subround():
    p = homog(1.0, 30.0)
    s = RandomStream(42)
    assert gamma.simulate_gamma_process(p, 1, 1, s).atoms == (
        simulate_subround(p, 1, 1, s).atoms
    )


def test_grid_is_lexicographic_concatenation():
    # mass 40 pushes subround (1,1) past the single-chunk count draw
    p = homog(1.0, 40.0)
    s = RandomStream(43)
    grid = gamma.simulate_gamma_process(p, 3, 4, s)
    concat = []
    for k in range(1, 4):
        for h in range(1, 5):
            concat.extend(simulate_subround(p, k, h, s).atoms)
    assert len(grid.atoms) > 30
    assert grid.atoms == concat


def test_largest_uniform_cannot_leave_a_certain_zero_cell():
    # the grid skips cells whose exp(-rate) rounds to 1: inversion stops
    # once u <= cdf, and even the largest uniform a word can give (which
    # rounds to 1.0) does not exceed a starting cdf of 1.0
    top = _words_to_uniform(np.array([2**64 - 1], dtype=np.uint64))
    assert top[0] <= 1.0
    rate = np.array([2.0**-60])
    assert np.exp(-rate)[0] == 1.0
    assert _poisson_invert(rate, top)[0] == 0


def test_grid_with_certain_zero_cells_is_lexicographic_concatenation():
    # mass 1, K = 50, all subrounds: most (k, h) cells have exp(-rate) == 1
    # and are skipped without a key, which must not shift any other cell
    K, H = 50, gamma.SUBROUND_CAP
    assert np.count_nonzero(np.exp(-gamma._rates_grid(1.0, K, H)) == 1.0) > K * H // 2
    plain, doubled = homog(1.0, 1.0), homog(1.0, 2.0)
    cells = [(k, h) for k in range(1, K + 1) for h in range(1, H + 1)]
    n_atoms = 0
    for seed in range(5):
        s = RandomStream(700 + seed)
        concat = [a for k, h in cells for a in simulate_subround(plain, k, h, s).atoms]
        assert gamma.simulate_gamma_process(plain, K, None, s).atoms == concat
        n_atoms += len(concat)
        # signed atoms carry the draws of the doubled-mass cells, then a sign
        concat2 = [a for k, h in cells for a in simulate_subround(doubled, k, h, s).atoms]
        sym = gamma.simulate_symmetric_gamma(plain, K, None, s).atoms
        assert len(sym) == len(concat2)
        for a, b in zip(sym, concat2):
            assert a.location == b.location
            assert abs(a.jump) == b.jump
            assert (a.round_k, a.subround_h) == (b.round_k, b.subround_h)
    assert n_atoms > 10


def test_default_subround_cap():
    p = homog(1.0, 4.0)
    s = RandomStream(44)
    full = gamma.simulate_gamma_process(p, 2, None, s)
    capped = gamma.simulate_gamma_process(p, 2, gamma.SUBROUND_CAP, s)
    assert full.atoms == capped.atoms


def test_simulate_validation():
    with pytest.raises(ValueError):
        gamma.simulate_gamma_process(UNIT_MASS, 0, 1, RandomStream(1))
    with pytest.raises(ValueError):
        gamma.simulate_gamma_process(UNIT_MASS, 1, 0, RandomStream(1))


def test_empty_subround_and_atom_tags():
    assert simulate_subround(UNIT_MASS, 5, 3, RandomStream(2)).atoms == []
    pm = simulate_subround(homog(1.0, 5000.0), 2, 1, RandomStream(3))
    assert len(pm.atoms) > 0
    for a in pm.atoms:
        assert a.jump > 0.0
        assert a.round_k == 2
        assert a.subround_h == 1
        assert 0.0 <= a.location[0] <= 1.0
        assert a.origin == "prior"


def test_jump_mean_and_locations_big_subround():
    # K = H = 1, subround (1, 1) alone, at base mass 2e5: ~1e5 Exponential(1/2) jumps
    pm = gamma.simulate_gamma_process(homog(1.0, 2e5), 1, 1, RandomStream(600))
    j = pm.jumps
    assert j.size > 50_000
    se = j.std(ddof=1) / math.sqrt(j.size)
    assert abs(j.mean() - 0.5) < 3 * se
    counts = np.histogram(pm.locations[:, 0], bins=20, range=(0.0, 1.0))[0]
    res = verify.chi_square_gof(counts, np.full(20, 0.05))
    assert res.passed


def test_high_shape_subround():
    # h = 17 takes the rejection-sampler branch; mean h*theta/(k+1) = 8.5
    mass = 2.0**17 * 17 * 200
    pm = simulate_subround(homog(1.0, mass), 1, 17, RandomStream(604))
    j = pm.jumps
    assert j.size > 100
    se = j.std(ddof=1) / math.sqrt(j.size)
    assert abs(j.mean() - 17.0 * 0.5) < 4 * se


def test_symmetric_magnitudes_match_doubled_mass_process():
    # same stream: signed atoms carry the doubled-rate one-sided draw
    s = RandomStream(605)
    sym = gamma.simulate_symmetric_gamma(homog(1.0, 50.0), 5, 10, s)
    plain = gamma.simulate_gamma_process(homog(1.0, 100.0), 5, 10, s)
    assert len(sym.atoms) > 100
    assert len(sym.atoms) == len(plain.atoms)
    for a, b in zip(sym.atoms, plain.atoms):
        assert a.location == b.location
        assert abs(a.jump) == b.jump
        assert (a.round_k, a.subround_h) == (b.round_k, b.subround_h)


def test_symmetric_mean_monte_carlo():
    # replica r reads RandomStream(601, (r,))
    draws = gamma.simulate_replicas(UNIT_MASS, 100, 30, RandomStream(601), 1500, signed=True)
    totals = np.array([pm.total_mass for pm in draws])
    ms = verify.monte_carlo_moments(totals)
    assert abs(ms.mean) < 4 * ms.se_mean


def test_symmetric_atom_count_and_signs():
    # expected atom count is twice the one-sided rate sum
    pm = gamma.simulate_symmetric_gamma(homog(1.0, 5000.0), 3, 20, RandomStream(602))
    expected = 2.0 * math.fsum(
        gamma.subround_rate(5000.0, k, h) for k in range(1, 4) for h in range(1, 21)
    )
    n = len(pm.atoms)
    assert abs(n - expected) < 4 * math.sqrt(expected)
    neg = sum(1 for a in pm.atoms if a.jump < 0.0)
    assert abs(neg - n / 2.0) < 4 * math.sqrt(n / 4.0)


def test_symmetric_variance_values():
    assert gamma.symmetric_variance(UNIT_MASS) == pytest.approx(2.0, rel=1e-15)
    assert gamma.symmetric_variance(UNIT_MASS, 100, 30) == pytest.approx(
        1.9998039254232796, rel=1e-12
    )
    assert gamma.symmetric_variance(UNIT_MASS, 100, 30) < 2.0
    assert gamma.symmetric_variance(UNIT_MASS, boxes=[(0.0, 0.25)]) == pytest.approx(
        0.5, rel=1e-12
    )
    with pytest.raises(ValueError):
        gamma.symmetric_variance(UNIT_MASS, K=None, H=30)


def test_total_mass_ks_against_marginal():
    # truncated total mass at K=100 is within KS noise of Gamma(2, 1)
    p = homog(1.0, 2.0)
    # replica r reads RandomStream(603, (r,))
    draws = gamma.simulate_replicas(p, 100, 30, RandomStream(603), 500)
    totals = np.array([pm.total_mass for pm in draws])
    res = verify.ks_distance(totals, lambda x: stats.gamma.cdf(x, 2.0, scale=1.0))
    assert res.statistic < res.critical_value


def test_generalized_weight_correction():
    got = gamma.generalized_weight_correction(1, 1, 0.5, 1.0)
    assert float(got) == pytest.approx(math.sqrt(2.0 * math.pi), rel=1e-12)
    assert float(gamma.generalized_weight_correction(3, 2, 1e-12, 2.5)) == (
        pytest.approx(1.0, rel=1e-9)
    )
    arr = gamma.generalized_weight_correction(1, 1, 0.5, np.array([1.0, 2.0]))
    assert arr.shape == (2,)
    assert arr[0] == pytest.approx(math.sqrt(2.0 * math.pi), rel=1e-12)


def test_generalized_subround_rates():
    gg = gamma.GeneralizedGammaParams(UNIT_MASS, 0.5)
    plain = gamma.generalized_subround(gg, 1, 1)
    # 1/(Gamma(1/2) * 2 * 1) = 1/(2 sqrt(pi))
    assert plain.measure.total_mass == pytest.approx(0.28209479177387814, rel=1e-12)
    assert plain.jump_shape == 0.5
    assert float(plain.jump_scale.values.flat[0]) == 0.5
    corrected = gamma.generalized_subround(gg, 1, 1, corrected=True)
    assert corrected.measure.total_mass == pytest.approx(
        math.sqrt(0.5), rel=1e-12
    )
    with pytest.raises(ValueError):
        gamma.generalized_subround(gg, 0, 1)


def test_generalized_sigma_to_zero_recovers_plain():
    gg = gamma.GeneralizedGammaParams(UNIT_MASS, 1e-8)
    for k, h in ((1, 1), (2, 3)):
        got = gamma.generalized_subround(gg, k, h).measure.total_mass
        assert got == pytest.approx(gamma.subround_rate(1.0, k, h), rel=1e-6)


def test_generalized_sigma_validation():
    with pytest.raises(ValueError):
        gamma.GeneralizedGammaParams(UNIT_MASS, 0.0)
    with pytest.raises(ValueError):
        gamma.GeneralizedGammaParams(UNIT_MASS, 1.0)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**64 - 1),
    mass=st.floats(0.1, 40.0),
    K=st.integers(1, 30),
    H=st.integers(1, 8),
    more=st.integers(1, 10),
    signed=st.booleans(),
)
def test_growing_K_or_H_only_adds_atoms(seed, mass, K, H, more, signed):
    # rounds k > K go after the draw; subrounds h > H fall inside each round,
    # so dropping them from the bigger draw must give back the smaller one
    p = homog(1.5, mass)
    sim = gamma.simulate_symmetric_gamma if signed else gamma.simulate_gamma_process
    small = sim(p, K, H, RandomStream(seed))
    n = len(small)
    longer = sim(p, K + more, H, RandomStream(seed))
    for a, b in zip(small.columns, longer.columns):
        assert np.array_equal(b[:n], a)
    assert np.all(longer.round_k[n:] > K)
    deeper = sim(p, K, H + more, RandomStream(seed))
    keep = deeper.subround_h <= H
    for a, b in zip(small.columns, deeper.columns):
        assert np.array_equal(b[keep], a)


def test_piecewise_2d_draw_bytes_are_pinned():
    # the base of test_beta's 2-D pin, with a piecewise scale
    p = gamma.GammaProcessParams(_base_2d(), _fn_2d([[0.5, 2.0], [3.0, 1.0]]))
    pm = gamma.simulate_gamma_process(p, 20, None, RandomStream(52))
    assert len(pm) == 24
    assert column_digest(pm) == (
        "9ee0c8a70e8835e1ab9f1c310dfec2e4065dae99640e08dc7c194819718a1dea"
    )


def _reference_subround(params, k, h, stream, signed):
    # subround (k, h) with a location table of its own, the way every live
    # cell drew before the grid built one table per draw
    mass = params.total_base_mass * (2.0 if signed else 1.0)
    return reference_cell(params, k, h, gamma.subround_rate(mass, k, h), stream, signed)


def reference_cell(params, k, h, rate, stream, signed):
    # cell (k, h) at the given rate, drawn through one cursor
    cur = stream.child(k, h).cursor()
    n = poisson(cur, rate)
    if n == 0:
        return []
    locs = _sample_locations(location_table(params.base), n, cur)
    scales = params.scale.at(locs) / (k + 1)
    if h <= 16:
        jumps = -np.log(cur.uniforms(n * h).reshape(n, h)).sum(axis=1) * scales
    else:
        jumps = np.array([cur.gamma(h, s) for s in scales])
    if signed:
        jumps = jumps * np.where(cur.uniforms(n) < 0.5, 1.0, -1.0)
    return [(locs, jumps, np.full(n, k), np.full(n, h))]


@settings(max_examples=60, deadline=None)
@given(
    case=piecewise_cases(),
    K=st.integers(1, 10),
    H=st.one_of(st.integers(1, 8), st.none()),
    seed=st.integers(0, 2**64 - 1),
    signed=st.booleans(),
)
def test_grid_with_one_table_matches_per_cell_tables(case, K, H, seed, signed):
    scale, base = case
    assume(base.total_mass > 0)
    p = gamma.GammaProcessParams(base, scale)
    s = RandomStream(seed)
    sim = gamma.simulate_symmetric_gamma if signed else gamma.simulate_gamma_process
    got = sim(p, K, H, s)
    hs = range(1, (H or gamma.SUBROUND_CAP) + 1)
    cells = [(k, h) for k in range(1, K + 1) for h in hs]
    want = PointMeasure.concat(
        p.domain, [x for k, h in cells for x in _reference_subround(p, k, h, s, signed)]
    )
    for a, b in zip(got.columns, want.columns):
        assert np.array_equal(a, b)


def test_jump_scale_follows_at_on_a_cell_upper_edge():
    # all mass in [0, 0.5], so a location uniform of 1.0 lands on 0.5, where
    # scale.at gives the upper cell's 3.0 and the drawn cell holds 0.5
    density = PiecewiseConst(Domain(), [[0.0, 0.5, 1.0]], [2.0, 0.0])
    scale = PiecewiseConst(Domain(), [[0.0, 0.5, 1.0]], [0.5, 3.0])
    p = gamma.GammaProcessParams(BaseMeasure(density), scale)
    k, h = 2, 3
    with fixed_words(2, ONE, HALF):
        pm = simulate_subround(p, k, h, RandomStream(0))
    assert np.array_equal(pm.locations, [[0.5], [0.5]])
    u = _words_to_uniform(np.full((2, h), HALF, dtype=np.uint64))
    want = -np.log(u).sum(axis=1) * (3.0 / (k + 1))
    assert np.array_equal(pm.jumps, want)
