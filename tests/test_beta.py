"""Beta-process decomposition: round measures, moments, simulation.

Round k of the decomposition is a finite Poisson process with base
c/(c+k) mu and jumps Beta(1, c+k); the checks here pin the exact round
arithmetic, the telescoping identities, the stable-beta factors, the IBP
density limit, the per-draw round plan against the integrals of c/(c+k)
against mu and against ``round_measure``'s tables, and the Monte Carlo
behaviour of the simulator.
"""

import contextlib
import hashlib
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from levycrm import beta, measures, verify
from levycrm.measures import (
    BaseMeasure,
    Domain,
    DomainError,
    PiecewiseConst,
    PointMeasure,
    location_table,
)
from levycrm.streams import RandomStream, _words_to_uniform
from reference import _sample_locations, poisson, simulate_round

UNIT = Domain()


def homog(c, mass):
    return beta.BetaProcessParams.homogeneous(c, mass)


def piecewise_c(values, mass=1.0):
    pw = PiecewiseConst(UNIT, [np.array([0.0, 0.5, 1.0])], np.asarray(values, float))
    return beta.BetaProcessParams(pw, BaseMeasure.uniform(UNIT, mass))


def test_round_measure_masses():
    assert beta.round_measure(homog(1.0, 1.0), 0).measure.total_mass == 1.0
    assert beta.round_measure(homog(2.0, 3.0), 4).measure.total_mass == pytest.approx(1.0)
    # piecewise c = {1, 3}: 1*(1/2)*1 + (3/4)*1 = 1.25 on a mass-2 uniform base
    assert beta.round_measure(piecewise_c([1.0, 3.0], 2.0), 1).measure.total_mass == (
        pytest.approx(1.25, rel=1e-15)
    )
    with pytest.raises(ValueError):
        beta.round_measure(homog(1.0, 1.0), -1)
    # a negative round index would give a negative variance at k = -5
    for k in (-1, -2, -5):
        with pytest.raises(ValueError, match="round index must be >= 0"):
            beta.round_mean_and_variance(homog(1.0, 1.0), k)


def test_round_jump_law_fields():
    rnd = beta.round_measure(homog(2.0, 1.0), 3)
    assert rnd.jump_shape_a == 1.0
    assert float(rnd.jump_shape_b.values.flat[0]) == 5.0
    # inhomogeneous c evaluates cell-wise
    rnd = beta.round_measure(piecewise_c([1.0, 3.0]), 2)
    assert rnd.jump_shape_b.at(np.array([[0.25]]))[0] == 3.0
    assert rnd.jump_shape_b.at(np.array([[0.75]]))[0] == 5.0


def test_round_mean_and_variance_examples():
    m, v = beta.round_mean_and_variance(homog(1.0, 1.0), 0)
    assert m == pytest.approx(0.5, rel=1e-15)
    assert v == pytest.approx(1.0 / 3.0, rel=1e-15)
    m, _ = beta.round_mean_and_variance(homog(2.0, 3.0), 4)
    assert m == pytest.approx(1.0 / 7.0, rel=1e-15)


@pytest.mark.parametrize("c,mass,K", [(1.0, 1.0, 0), (1.0, 1.0, 50), (3.0, 2.0, 1000)])
def test_telescoping_mean(c, mass, K):
    total = math.fsum(
        beta.round_mean_and_variance(homog(c, mass), k)[0] for k in range(K + 1)
    )
    closed = mass * (1.0 - c / (c + K + 1.0))
    assert total == pytest.approx(closed, rel=1e-12)
    cm, _ = beta.cumulative_round_moments(homog(c, mass), K)
    assert cm == pytest.approx(closed, rel=1e-12)


def test_variance_sum_matches_quadrature_oracle():
    # Eq-loop closure: summed round variances vs the independent oracle
    for c in (1.0, 3.0):
        p = homog(c, 1.0)
        for boxes in (None, [(0.0, 0.3)]):
            total = math.fsum(
                beta.round_mean_and_variance(p, k, boxes)[1] for k in range(2001)
            )
            oracle = verify.moment_oracle("beta", p, A=boxes, r=2)
            assert total == pytest.approx(oracle, rel=1e-3)


def test_stable_round_factors():
    sp = beta.StableBetaParams(homog(1.0, 1.0), 0.5)
    assert beta.stable_round_measure(sp, 0).measure.total_mass == pytest.approx(1.0)
    # Gamma(3.5)Gamma(2)/(Gamma(4)Gamma(1.5)) = 2.5*1.5/6
    assert beta.stable_round_measure(sp, 2).measure.total_mass == pytest.approx(
        0.625, rel=1e-12
    )
    rnd = beta.stable_round_measure(sp, 2)
    assert rnd.jump_shape_a == 0.5
    assert float(rnd.jump_shape_b.values.flat[0]) == pytest.approx(3.5)


def test_stable_sigma_to_zero_recovers_plain_rounds():
    p = homog(1.5, 2.0)
    sp = beta.StableBetaParams(p, 1e-8)
    for k in (0, 1, 5):
        got = beta.stable_round_measure(sp, k).measure.total_mass
        want = beta.round_measure(p, k).measure.total_mass
        assert got == pytest.approx(want, rel=1e-6)


def test_stable_sigma_validation():
    with pytest.raises(ValueError):
        beta.StableBetaParams(homog(1.0, 1.0), 0.0)
    with pytest.raises(ValueError):
        beta.StableBetaParams(homog(1.0, 1.0), 1.0)


def test_ibp_density_limit():
    assert verify.levy_density("beta", {"c": 1.0}, 0.5) == 2.0
    val = beta.ibp_levy_density(10**6, 1.0, 1.0, 0.5)
    assert val == pytest.approx(2.0, rel=1e-3)
    errs = [
        abs(beta.ibp_levy_density(n, 1.0, 1.0, 0.5) - 2.0) / 2.0
        for n in (10**3, 10**4, 10**5, 10**6)
    ]
    assert errs == sorted(errs, reverse=True)
    with pytest.raises(DomainError):
        beta.ibp_levy_density(10, 1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        beta.ibp_levy_density(0, 1.0, 1.0, 0.5)


def test_simulate_round_empty_and_tags():
    p = homog(1.0, 1.0)
    assert simulate_round(p, 9, RandomStream(0)).atoms == []
    pm = simulate_round(homog(1.0, 20.0), 2, RandomStream(1))
    assert len(pm.atoms) > 0
    for a in pm.atoms:
        assert 0.0 < a.jump < 1.0
        assert a.round_k == 2
        assert a.subround_h == 0
        assert 0.0 <= a.location[0] <= 1.0


def test_simulate_process_extends_by_round():
    # raising K appends rounds without disturbing earlier atoms
    p = homog(1.0, 5.0)
    s = RandomStream(33)
    two = beta.simulate_beta_process(p, 2, s)
    three = beta.simulate_beta_process(p, 3, s)
    assert three.atoms[: len(two.atoms)] == two.atoms
    assert three.atoms[len(two.atoms) :] == simulate_round(p, 3, s).atoms
    assert beta.simulate_beta_process(p, 0, s).atoms == simulate_round(p, 0, s).atoms
    with pytest.raises(ValueError):
        beta.simulate_beta_process(p, -1, s)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**64 - 1),
    c=st.floats(0.1, 5.0),
    mass=st.floats(0.1, 40.0),
    K=st.integers(0, 25),
    more=st.integers(1, 10),
)
def test_growing_K_only_appends_atoms(seed, c, mass, K, more):
    p = homog(c, mass)
    short = beta.simulate_beta_process(p, K, RandomStream(seed))
    full = beta.simulate_beta_process(p, K + more, RandomStream(seed))
    n = len(short)
    for a, b in zip(short.columns, full.columns):
        assert np.array_equal(b[:n], a)
    assert np.all(full.round_k[n:] > K)


DOM2 = Domain([(0.0, 1.0), (-1.0, 2.0)])


def _base_2d():
    # a zero-density cell, an atom on an interior edge of _fn_2d's grid, one
    # in the domain corner and one of zero mass
    density = PiecewiseConst(
        DOM2, [[0.0, 0.3, 1.0], [-1.0, 0.5, 2.0]], [[2.0, 0.0], [1.0, 3.0]]
    )
    return BaseMeasure(density, [(0.6, 0.5), (1.0, 2.0), (0.25, -1.0)], [1.5, 0.7, 0.0])


def _fn_2d(values):
    return PiecewiseConst(DOM2, [[0.0, 0.6, 1.0], [-1.0, 0.0, 2.0]], values)


def column_digest(pm):
    return hashlib.sha256(
        b"".join(np.ascontiguousarray(c).tobytes() for c in pm.columns)
    ).hexdigest()


def test_piecewise_2d_draw_bytes_are_pinned():
    # a non-homogeneous draw: c(w) and the density live on different grids
    p = beta.BetaProcessParams(_fn_2d([[0.5, 2.0], [4.0, 1.0]]), _base_2d())
    pm = beta.simulate_beta_process(p, 30, RandomStream(51))
    assert len(pm) == 25
    assert column_digest(pm) == (
        "cd19123dc7877729d021a7af9e8f3f4c60f52671c79b7c049841a47942413581"
    )


@st.composite
def piecewise_cases(draw):
    """(fn, base): a positive piecewise function and a base measure on one domain.

    dim 1-2; the two grids are independent, the density has zero cells, and
    0-3 fixed atoms (some of zero mass) sit on corners and on fn's edges.
    """
    dim = draw(st.integers(1, 2))
    domain = Domain([(0.0, 1.0), (-1.0, 2.0)][:dim])

    def grid():
        return [
            [lo, *sorted(draw(st.lists(
                st.floats(lo, hi, exclude_min=True, exclude_max=True),
                max_size=3, unique=True,
            ))), hi]
            for lo, hi in domain.bounds
        ]

    def values(edges, elements):
        shape = tuple(len(e) - 1 for e in edges)
        n = math.prod(shape)
        return np.reshape(draw(st.lists(elements, min_size=n, max_size=n)), shape)

    fn_edges, density_edges = grid(), grid()
    fn = PiecewiseConst(
        domain, fn_edges, values(fn_edges, st.sampled_from([0.1, 0.5, 1.0, 2.5, 7.0]))
    )
    weights = st.sampled_from([0.0, 0.0, 0.5, 1.0, 3.0, 20.0])
    density = PiecewiseConst(domain, density_edges, values(density_edges, weights))
    spots = st.tuples(*[st.sampled_from(e) for e in fn_edges])
    locs = draw(st.lists(spots, max_size=3, unique=True))
    masses = draw(st.lists(weights, min_size=len(locs), max_size=len(locs)))
    base = BaseMeasure(density, locs, masses) if locs else BaseMeasure(density)
    return fn, base


def _reference_round(params, k, stream):
    # round k drawn from round_measure's measure and jump law, one round at
    # a time, as simulate_beta_process did before the draw plan
    rnd = beta.round_measure(params, k)
    cur = stream.child(k).cursor()
    n = poisson(cur, rnd.rate)
    if n == 0:
        return []
    locs = _sample_locations(location_table(rnd.measure), n, cur)
    b = rnd.jump_shape_b.at(locs)
    u = cur.uniforms(n)
    jumps = -np.expm1(np.log1p(-u) / b)
    return [(locs, jumps, np.full(n, k), np.zeros(n, np.int64))]


@settings(max_examples=150, deadline=None)
@given(
    case=piecewise_cases(),
    K=st.integers(0, 30),
    seed=st.integers(0, 2**64 - 1),
    block=st.sampled_from([1, 4, measures._DRAW_BATCH]),
)
def test_round_plan_matches_round_measure(case, K, seed, block):
    c, base = case
    assume(base.total_mass > 0)
    p = beta.BetaProcessParams(c, base)
    plan = beta._RoundPlan(p)
    rates, cums = plan.rows(np.arange(K + 1))
    for k in range(K + 1):
        # round_measure is built from the plan; the integral of c/(c+k)
        # against mu is the route that does not go through it
        assert rates[k] == base.integral_against(c.map(lambda v: v / (v + k)))
        rnd = beta.round_measure(p, k)
        table = location_table(rnd.measure)
        assert rnd.rate == rates[k]
        assert np.array_equal(cums[k], table.cum[0])
        assert all(np.array_equal(a, b) for a, b in zip(plan.edges, table.edges))
    s = RandomStream(seed)
    want = PointMeasure.concat(
        p.domain, [part for k in range(K + 1) for part in _reference_round(p, k, s)]
    )
    with mock.patch.object(measures, "_DRAW_BATCH", block):
        got = beta.simulate_beta_process(p, K, s)
    for a, b in zip(got.columns, want.columns):
        assert np.array_equal(a, b)


@contextlib.contextmanager
def fixed_words(n, location_word, jump_word):
    """Every live cell of the draw engine draws n atoms, from location words
    that all equal ``location_word`` and jump words that all equal ``jump_word``."""
    words = iter([location_word, jump_word])

    def counts(rates, k0s, k1s):
        return np.full(np.shape(k0s), n), np.zeros(np.shape(k0s), np.int64)

    def read(k0s, k1s, starts, sizes):
        return np.full(int(np.sum(sizes)), next(words), dtype=np.uint64)

    with mock.patch.object(measures, "batch_poisson", counts), \
            mock.patch.object(measures, "ragged_words", read):
        yield


# a word of all ones is the uniform 1.0; 2**63 is one a little above 0.5
ONE, HALF = 2**64 - 1, 2**63


def test_jump_law_follows_at_on_a_cell_upper_edge():
    # all mass in [0, 0.5], so a location uniform of 1.0 lands on 0.5, where
    # c.at gives the upper cell's 4.0 and the drawn cell holds 1.0
    density = PiecewiseConst(UNIT, [[0.0, 0.5, 1.0]], [2.0, 0.0])
    c = PiecewiseConst(UNIT, [[0.0, 0.5, 1.0]], [1.0, 4.0])
    p = beta.BetaProcessParams(c, BaseMeasure(density))
    k = 3
    with fixed_words(2, ONE, HALF):
        pm = simulate_round(p, k, RandomStream(0))
    assert np.array_equal(pm.locations, [[0.5], [0.5]])
    assert c.at(pm.locations).tolist() == [4.0, 4.0]
    u = _words_to_uniform(np.full(2, HALF, dtype=np.uint64))
    assert np.array_equal(pm.jumps, -np.expm1(np.log1p(-u) / (4.0 + k)))


def test_round_zero_monte_carlo_moments():
    # 1e4 replicas of round 0 at c=1, gamma=1: mean 1/2, variance 1/3
    p = homog(1.0, 1.0)
    # replica r is round 0 of RandomStream(500, (r,))
    totals = np.array(
        [pm.total_mass for pm in beta.simulate_replicas(p, 0, RandomStream(500), 10_000)]
    )
    ms = verify.monte_carlo_moments(totals)
    assert abs(ms.mean - 0.5) < 4 * ms.se_mean
    assert abs(ms.variance - 1.0 / 3.0) < 4 * ms.se_variance


def test_round_count_monte_carlo():
    # n_3 ~ Poisson(c*gamma/(c+3)) = Poisson(2.5) at c=1, gamma=10
    p = homog(1.0, 10.0)
    # replica r is simulate_round(p, 3, RandomStream(501, (r,)))
    draws = beta._draw(p, 3, 4, RandomStream(501).child_keys(np.arange(10_000)))
    counts = np.array([len(pm) for pm in draws])
    assert abs(counts.mean() - 2.5) < 3.0 * math.sqrt(2.5 / counts.size)


def test_round_jump_mean():
    # K = 0: one large round supplies 1e5 Beta(1,1) jumps
    pm = beta.simulate_beta_process(homog(1.0, 1e5), 0, RandomStream(502))
    j = pm.jumps
    assert j.size > 50_000
    se = j.std(ddof=1) / math.sqrt(j.size)
    assert abs(j.mean() - 0.5) < 3 * se
