"""Conjugate posterior update and round-based posterior sampling.

Observing M Bernoulli draws turns BP(c, mu) into BP(c+M, mixed base);
the checks here cover the parameter update, the posterior rounds, the
observed-jump resampler (a Poisson sum over rounds), and the new-jump
sampler, ending with a prior-to-posterior round trip.
"""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from levycrm import beta, measures, posterior, verify
from levycrm.measures import (
    BaseMeasure,
    Domain,
    PiecewiseConst,
    PointMeasure,
    UnsupportedParameterError,
)
from levycrm.streams import RandomStream
from reference import resample_observed_jump, sample_new_jump

UNIT = Domain()


def prior(c=1.0, mass=1.0):
    return beta.BetaProcessParams.homogeneous(c, mass)


def obs_at(M, locs, counts):
    return posterior.ObservationSet(M=M, locations=np.asarray(locs, float), counts=counts)


def test_observation_set_validation():
    obs = obs_at(2, [[0.2], [0.6]], [1, 2])
    assert len(obs) == 2
    assert obs.locations.shape == (2, 1)
    with pytest.raises(ValueError):
        obs_at(2, [[0.2]], [1, 2])
    with pytest.raises(ValueError):
        obs_at(2, [[0.2]], [3])
    with pytest.raises(ValueError):
        obs_at(-1, [[0.2]], [0])
    with pytest.raises(ValueError):
        obs_at(2, [[0.2]], [-1])


def test_posterior_params_update():
    pp = posterior.posterior_params(prior(), obs_at(2, [[0.2], [0.6]], [1, 2]))
    assert pp.concentration.values.flat[0] == 3.0
    # continuous part c mu / (c+M)
    assert pp.base.density.values.flat[0] == pytest.approx(1.0 / 3.0, rel=1e-15)
    assert pp.base.atom_masses == pytest.approx([1.0 / 3.0, 2.0 / 3.0], rel=1e-15)
    # total mass (c gamma + sum m_i) / (c + M)
    assert pp.base.total_mass == pytest.approx((1.0 + 3.0) / 3.0, rel=1e-12)
    # zero-count atoms drop out of the atomic part
    pp = posterior.posterior_params(prior(), obs_at(2, [[0.2], [0.6]], [0, 2]))
    assert pp.base.atom_masses.shape == (1,)
    assert pp.base.atom_locations[0, 0] == 0.6


def test_posterior_params_m0_is_prior():
    p = prior(c=2.0, mass=3.0)
    pp = posterior.posterior_params(p, obs_at(0, np.empty((0, 1)), np.empty(0, int)))
    assert pp.concentration.values.flat[0] == 2.0
    assert np.array_equal(pp.base.density.values, p.base.density.values)
    assert pp.base.atom_masses.size == 0
    assert pp.base.total_mass == pytest.approx(3.0, rel=1e-15)


def test_posterior_params_validation():
    pw = PiecewiseConst(UNIT, [np.array([0.0, 0.5, 1.0])], np.array([1.0, 3.0]))
    bad_c = beta.BetaProcessParams(pw, BaseMeasure.uniform(UNIT, 1.0))
    with pytest.raises(UnsupportedParameterError):
        posterior.posterior_params(bad_c, obs_at(1, [[0.2]], [1]))
    atom_base = beta.BetaProcessParams(
        1.0,
        BaseMeasure(
            PiecewiseConst.constant(UNIT, 1.0), np.array([[0.5]]), np.array([1.0])
        ),
    )
    with pytest.raises(UnsupportedParameterError):
        posterior.posterior_params(atom_base, obs_at(1, [[0.2]], [1]))


def test_posterior_round_measure():
    p = prior(c=2.0, mass=3.0)
    pp = posterior.posterior_params(p, obs_at(0, np.empty((0, 1)), np.empty(0, int)))
    for k in range(4):
        a = beta.round_measure(pp, k)
        b = beta.round_measure(p, k)
        assert a.measure.total_mass == pytest.approx(b.measure.total_mass, rel=1e-14)
        assert float(a.jump_shape_b.values.flat[0]) == float(b.jump_shape_b.values.flat[0])
    # an m_i = 3 atom at c+M = 3 puts unit mass on round 0's atomic part
    pp = beta.BetaProcessParams(
        3.0,
        BaseMeasure(
            PiecewiseConst.constant(UNIT, 1.0 / 3.0),
            np.array([[0.4]]),
            np.array([1.0]),
        ),
    )
    rnd = beta.round_measure(pp, 0)
    assert rnd.measure.atom_masses[0] == pytest.approx(1.0, rel=1e-15)
    masses = [
        beta.round_measure(pp, k).measure.total_mass for k in range(11)
    ]
    assert all(b < a for a, b in zip(masses, masses[1:]))


def test_sample_bernoulli_data():
    pd = PointMeasure(UNIT, [[0.2], [0.7]], [0.3, 1.0 - 1e-12], [0, 0])
    obs = posterior.sample_bernoulli_data(pd, 0, RandomStream(1))
    assert obs.M == 0 and (obs.counts == 0).all()
    obs = posterior.sample_bernoulli_data(pd, 10_000, RandomStream(800))
    # binomial CI for the pi = 0.3 atom; the near-one atom never misses
    se = math.sqrt(10_000 * 0.3 * 0.7)
    assert abs(obs.counts[0] - 3000.0) < 4 * se
    assert obs.counts[1] == 10_000
    bad = PointMeasure(UNIT, [[0.2]], [1.5], [0])
    with pytest.raises(posterior.InvalidPriorError):
        posterior.sample_bernoulli_data(bad, 3, RandomStream(1))


def test_bernoulli_data_matches_per_atom_reads():
    # one read of n*M words equals one M-word read per atom, in atom order
    pd = beta.simulate_beta_process(prior(c=1.0, mass=5.0), 30, RandomStream(802))
    assert len(pd) > 3
    for M in (0, 1, 7):
        cur = RandomStream(803).cursor()
        want = [int((cur.uniforms(M) < pi).sum()) for pi in pd.jumps]
        got = posterior.sample_bernoulli_data(pd, M, RandomStream(803))
        assert got.counts.tolist() == want


def test_bernoulli_counts_independent_across_atoms():
    pd = PointMeasure(UNIT, [[0.2], [0.7]], [0.3, 0.6], [0, 0])
    xs = np.empty((3000, 2))
    for r in range(3000):
        xs[r] = posterior.sample_bernoulli_data(pd, 10, RandomStream(801, (r,))).counts
    corr = np.corrcoef(xs.T)[0, 1]
    assert abs(corr) < 4.0 / math.sqrt(3000)


def test_resample_zero_count_and_validation():
    assert resample_observed_jump(1.0, 2, 0, 5, RandomStream(1)) == 0.0
    assert (posterior.resample_observed_jumps(1.0, 2, 0, 5, RandomStream(1), 7) == 0.0).all()
    # no draws, or no atoms, give empty rows of the right shape
    for m, draws, shape in [(3, 0, (0,)), ([3, 0], 0, (2, 0)), ([], 4, (0, 4))]:
        got = posterior.resample_observed_jumps(1.0, 2, m, 5, RandomStream(1), draws)
        assert got.shape == shape
    with pytest.raises(ValueError):
        posterior.resample_observed_jumps(1.0, 2, -1, 5, RandomStream(1), 1)
    with pytest.raises(ValueError):
        posterior.resample_observed_jumps(1.0, 2, 1, -1, RandomStream(1), 1)
    with pytest.raises(ValueError):
        posterior.resample_observed_jumps(1.0, 2, 1, 5, RandomStream(1), -1)
    # the prior concentration must be positive and M nonnegative, for both
    # samplers and the truncated expectation alike
    s = RandomStream(1)
    for c, M in [(-1.0, 0), (0.0, 0), (-4.0, 3), (math.nan, 2), (math.inf, 2), (1.0, -1)]:
        with pytest.raises(ValueError, match="c must be > 0|M must be >= 0"):
            posterior.sample_new_jumps(c, M, 5, s, 3)
        with pytest.raises(ValueError, match="c must be > 0|M must be >= 0"):
            posterior.resample_observed_jumps(c, M, [2], 5, s, 3)
        with pytest.raises(ValueError, match="c must be > 0|M must be >= 0"):
            posterior.resample_truncated_expectation(c, M, 2, 5)


def test_bulk_resample_matches_single_draws():
    s = RandomStream(77)
    # (4, 4, 1000) has rate about 21.6, so its count reads two chunk words
    for m_i, M, K in [(1, 2, 1000), (4, 4, 1000)]:
        bulk = posterior.resample_observed_jumps(1.0, M, m_i, K, s, 300)
        single = np.array([
            resample_observed_jump(1.0, M, m_i, K, s.child(d))
            for d in range(300)
        ])
        assert np.array_equal(bulk, single)
    ks_b, j_b = posterior.sample_new_jumps(1.0, 2, 40, s, 300)
    singles = [sample_new_jump(1.0, 2, 40, s.child(d)) for d in range(300)]
    assert np.array_equal(ks_b, np.array([k for k, _ in singles]))
    assert np.array_equal(j_b, np.array([j for _, j in singles]))


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**63 - 1),
    c=st.sampled_from([0.5, 1.0, 2.5]),
    M=st.integers(0, 4),
    m_i=st.integers(0, 60),
    K=st.integers(0, 1000),
    draws=st.integers(1, 30),
)
# rates near 375 and 37: draws with counts above 128 and above 8
@example(seed=5, c=1.0, M=0, m_i=50, K=1000, draws=30)
@example(seed=6, c=1.0, M=0, m_i=5, K=1000, draws=30)
def test_grouped_resample_sums_match_single_draws(seed, c, M, m_i, K, draws):
    s = RandomStream(seed)
    bulk = posterior.resample_observed_jumps(c, M, m_i, K, s, draws)
    single = np.array([
        resample_observed_jump(c, M, m_i, K, s.child(d))
        for d in range(draws)
    ])
    assert np.array_equal(bulk, single)


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**63 - 1),
    M=st.integers(0, 4),
    counts=st.lists(st.sampled_from([0, 1, 2, 4, 9, 50]), min_size=1, max_size=6),
    K=st.integers(0, 1000),
    draws=st.integers(1, 12),
    batch=st.sampled_from([1, 5, 8192]),
    atoms=st.sampled_from([1, 7, 2**18]),
)
def test_resample_over_atoms_matches_single_draws(seed, M, counts, K, draws, batch, atoms):
    # row i draws from stream.child(i); blocks of child streams, and runs of
    # their live streams, may split an atom
    s = RandomStream(seed)
    with mock.patch.object(measures, "_DRAW_BATCH", batch), \
            mock.patch.object(measures, "_BATCH_ATOMS", atoms):
        bulk = posterior.resample_observed_jumps(1.0, M, np.array(counts), K, s, draws)
    single = np.array([
        [resample_observed_jump(1.0, M, m_i, K, s.child(i, d))
         for d in range(draws)]
        for i, m_i in enumerate(counts)
    ])
    assert np.array_equal(bulk, single)


def test_truncated_expectation_values():
    # one-round truncation at c+M = 3, m_i = 3: exactly 1/4
    assert posterior.resample_truncated_expectation(1.0, 2, 3, 0) == 0.25
    assert posterior.resample_truncated_expectation(1.0, 2, 1, 10**9) == pytest.approx(
        1.0 / 3.0, rel=1e-6
    )
    with pytest.raises(ValueError):
        posterior.resample_truncated_expectation(1.0, 2, -1, 5)


@pytest.mark.parametrize(
    "seed,c,M,m_i,K",
    [(810, 1.0, 2, 1, 10), (811, 0.5, 3, 2, 25), (812, 2.0, 0, 1, 0)],
)
def test_resample_mean_matches_truncated_expectation(seed, c, M, m_i, K):
    vals = posterior.resample_observed_jumps(c, M, m_i, K, RandomStream(seed), 20_000)
    ms = verify.monte_carlo_moments(vals)
    target = posterior.resample_truncated_expectation(c, M, m_i, K)
    assert abs(ms.mean - target) < 4 * ms.se_mean
    assert vals.min() >= 0.0


def test_resample_sum_can_exceed_one():
    # the round sum is not clamped; with m_i = 3 it tops 1 often
    vals = posterior.resample_observed_jumps(1.0, 2, 3, 50, RandomStream(823), 4000)
    frac = float((vals > 1.0).mean())
    assert 0.0 < frac < 1.0
    # Beta(sum m, c+M-sum m) would need sum m < c+M; here it does not
    # exist (3 = c+M), underscoring that the sum is only moment-matched
    ms = verify.monte_carlo_moments(vals)
    assert math.isfinite(ms.mean) and math.isfinite(ms.variance)


def test_new_jump_round_distribution():
    # K = 1 at c+M = 3: weights 1/3, 1/4 give P(k=0) = 4/7
    ks, _ = posterior.sample_new_jumps(1.0, 2, 1, RandomStream(820), 100_000)
    p0 = float((ks == 0).mean())
    se = math.sqrt((4.0 / 7.0) * (3.0 / 7.0) / 100_000)
    assert abs(p0 - 4.0 / 7.0) < 4 * se
    w = 1.0 / (3.0 + np.arange(7))
    ks, _ = posterior.sample_new_jumps(1.0, 2, 6, RandomStream(821), 100_000)
    res = verify.chi_square_gof(np.bincount(ks, minlength=7), w / w.sum())
    assert res.passed


def test_new_jump_law_at_k0():
    ks, jumps = posterior.sample_new_jumps(1.0, 2, 0, RandomStream(822), 2000)
    assert (ks == 0).all()
    res = verify.ks_distance(jumps, lambda x: stats.beta.cdf(x, 1.0, 3.0))
    assert res.statistic < res.critical_value
    assert ((jumps > 0.0) & (jumps < 1.0)).all()
    with pytest.raises(ValueError):
        posterior.sample_new_jumps(1.0, 2, -1, RandomStream(1), 1)


def test_prior_to_posterior_round_trip():
    # simulate, observe, update, resample: every hit atom's resampled
    # mean must sit on the truncated posterior expectation
    p = prior(c=1.0, mass=2.0)
    draw = beta.simulate_beta_process(p, 80, RandomStream(830))
    obs = posterior.sample_bernoulli_data(draw, 3, RandomStream(831))
    hit = np.flatnonzero(obs.counts > 0)
    assert hit.size >= 2
    pp = posterior.posterior_params(p, obs)
    assert pp.concentration.values.flat[0] == 4.0
    assert pp.base.atom_masses.size == hit.size
    for idx, i in enumerate(hit):
        m_i = int(obs.counts[i])
        vals = posterior.resample_observed_jumps(
            1.0, 3, m_i, 500, RandomStream(832, (idx,)), 4000
        )
        ms = verify.monte_carlo_moments(vals)
        target = posterior.resample_truncated_expectation(1.0, 3, m_i, 500)
        assert abs(ms.mean - target) < 4 * ms.se_mean
