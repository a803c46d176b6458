"""Truncation error bounds: exact values, monotonicity, MC validation.

The one-pass tables are held row by row, bit for bit, to the scalar
routes and to sums re-done from the first round.

The Monte Carlo check at the bottom simulates the residual rounds
directly and compares their mean mass against the difference of L1
bounds, tying the closed forms to the simulator.
"""

import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from levycrm import beta, truncation
from levycrm.measures import (
    BaseMeasure,
    Domain,
    PiecewiseConst,
    UnsupportedParameterError,
)
from levycrm.streams import (
    RandomStream,
    _absorb_arr,
    _words_to_uniform,
    batch_poisson,
    ragged_words,
)
from reference import simulate_round

UNIT = Domain()


def homog(c, mass):
    return beta.BetaProcessParams.homogeneous(c, mass)


def piecewise_params():
    pw = PiecewiseConst(UNIT, [np.array([0.0, 0.5, 1.0])], np.array([1.0, 3.0]))
    return beta.BetaProcessParams(pw, BaseMeasure.uniform(UNIT, 1.0))


def test_beta_l1_examples():
    assert truncation.beta_l1_error(homog(1.0, 1.0), 0) == pytest.approx(0.5, rel=1e-15)
    assert truncation.beta_l1_error(homog(1.0, 5.0), 9) == pytest.approx(
        1.0 / 11.0, rel=1e-15
    )
    # piecewise c = {1, 3}: (1/3 + 3/5)/2 = 7/15
    assert truncation.beta_l1_error(piecewise_params(), 1) == pytest.approx(
        7.0 / 15.0, rel=1e-12
    )
    with pytest.raises(ValueError):
        truncation.beta_l1_error(homog(1.0, 1.0), -1)


def test_beta_l1_strictly_decreasing():
    p = homog(2.0, 3.0)
    vals = [truncation.beta_l1_error(p, K) for K in range(31)]
    assert all(b < a for a, b in zip(vals, vals[1:]))


def test_beta_marginal_bound():
    p = homog(1.0, 1.0)
    assert truncation.beta_marginal_bound(p, 0, 1) == pytest.approx(
        -math.expm1(-0.5), rel=1e-15
    )
    assert truncation.beta_marginal_bound(p, 0, 1) == pytest.approx(0.3935, abs=5e-5)
    # huge M saturates the bound at 1
    assert truncation.beta_marginal_bound(p, 0, 10**6) == pytest.approx(1.0, abs=1e-12)
    assert truncation.beta_marginal_bound(p, 0, 1) < truncation.beta_marginal_bound(p, 0, 5)
    assert truncation.beta_marginal_bound(p, 9, 3) < truncation.beta_marginal_bound(p, 1, 3)
    with pytest.raises(ValueError):
        truncation.beta_marginal_bound(p, 1, 0)


def test_stick_breaking_bounds():
    l1, marginal = truncation.stick_breaking_bounds(1.0, 1.0, 9)
    assert l1 == 0.0009765625
    assert marginal is None
    l1, marginal = truncation.stick_breaking_bounds(1.0, 2.0, 9, M=3)
    assert marginal == pytest.approx(-math.expm1(-3 * 2.0 * 2.0**-10), rel=1e-12)
    # at K = 0 both constructions leave the same L1 distance
    assert truncation.stick_breaking_bounds(1.0, 1.0, 0)[0] == (
        truncation.beta_l1_error(homog(1.0, 1.0), 0)
    )
    # c = 9, K = 9: the geometric bound has already fallen below c/(c+K+1)
    assert truncation.stick_breaking_bounds(9.0, 1.0, 9)[0] == pytest.approx(
        0.9**10, rel=1e-15
    )
    assert 0.9**10 < 9.0 / 19.0
    const = PiecewiseConst.constant(UNIT, 2.0)
    assert truncation.stick_breaking_bounds(const, 1.0, 3)[0] == (
        truncation.stick_breaking_bounds(2.0, 1.0, 3)[0]
    )
    with pytest.raises(UnsupportedParameterError):
        truncation.stick_breaking_bounds(piecewise_params().concentration, 1.0, 3)
    # c = -1 divided by zero, c = 0 returned 0.0, NaN came back, and a
    # negative mass gave a negative marginal bound
    for c, mass, M, message in [
        (-1.0, 1.0, None, "c must be finite and positive"),
        (0.0, 1.0, None, "c must be finite and positive"),
        (math.nan, 1.0, None, "c must be finite and positive"),
        (math.inf, 1.0, None, "c must be finite and positive"),
        (PiecewiseConst.constant(UNIT, -2.0), 1.0, 3, "c must be finite and positive"),
        (1.0, -5.0, 3, "total mass must be finite and positive"),
        (1.0, math.nan, 3, "total mass must be finite and positive"),
        (1.0, math.inf, None, "total mass must be finite and positive"),
        (1.0, 1.0, 0, "M must be >= 1"),
    ]:
        with pytest.raises(ValueError, match=message):
            truncation.stick_breaking_bounds(c, mass, 3, M)


def test_gamma_l1_examples():
    assert truncation.gamma_l1_error(9) == pytest.approx(0.1, rel=1e-15)
    assert truncation.gamma_l1_error(1, None) == 0.5
    assert truncation.gamma_l1_error(1, math.inf) == 0.5
    assert truncation.gamma_l1_error(1, 1) == pytest.approx(0.75, rel=1e-15)
    with pytest.raises(ValueError):
        truncation.gamma_l1_error(0)
    with pytest.raises(ValueError):
        truncation.gamma_l1_error(2, 0)


def test_gamma_l1_subround_gap():
    # finite H adds exactly sum_k 1/(k (k+1)^(H+1))
    gap = truncation.gamma_l1_error(3, 2) - truncation.gamma_l1_error(3)
    exact = math.fsum(1.0 / (k * (k + 1) ** 3) for k in range(1, 4))
    assert gap == pytest.approx(exact, rel=1e-12)
    # the gap shrinks at least geometrically in H
    gaps = [
        truncation.gamma_l1_error(5, H) - truncation.gamma_l1_error(5)
        for H in range(1, 12)
    ]
    for a, b in zip(gaps, gaps[1:]):
        assert b <= 0.5 * a
    ks = [truncation.gamma_l1_error(K, 10) for K in range(1, 30)]
    assert all(b < a for a, b in zip(ks, ks[1:]))


def test_beta_table_expected_atoms():
    # E(I_K) = sum_{k<=K} c mass/(c+k)
    t = truncation.beta_table(homog(1.0, 1.0), 2)
    assert t["expected_atoms"][0] == 1.0
    assert t["expected_atoms"][2] == pytest.approx(11.0 / 6.0, rel=1e-15)
    t = truncation.beta_table(homog(1.0, 10.0), 9)
    assert t["expected_atoms"][9] == pytest.approx(29.289682539682538, rel=1e-13)
    # round 0 mass is the full base mass whatever c is
    assert truncation.beta_table(piecewise_params(), 0)["expected_atoms"][0] == (
        pytest.approx(1.0, rel=1e-12)
    )
    with pytest.raises(ValueError):
        truncation.beta_table(homog(1.0, 1.0), -1)


def test_gamma_expected_atoms():
    assert truncation.gamma_expected_atoms(1.0, 9) == pytest.approx(
        math.log(10.0), rel=1e-15
    )
    assert truncation.gamma_expected_atoms(1.0, 9, 60) == pytest.approx(
        math.log(10.0), abs=1e-9
    )
    # H = 1 keeps only the first subround of each round
    assert truncation.gamma_expected_atoms(1.0, 9, 1) == pytest.approx(
        math.fsum(1.0 / (k + 1.0) for k in range(1, 10)), rel=1e-12
    )
    assert truncation.gamma_expected_atoms(2.0, 9) == pytest.approx(
        2.0 * math.log(10.0), rel=1e-15
    )
    # each round's log series stops once its terms underflow (by h = 1000 at
    # k = 1), so a deeper H adds nothing and costs no more
    deep = truncation.gamma_expected_atoms(2.0, 50, 5000)
    assert truncation.gamma_expected_atoms(2.0, 50, 10**6) == deep
    assert deep == pytest.approx(2.0 * math.log(51.0), rel=1e-12)
    with pytest.raises(ValueError):
        truncation.gamma_expected_atoms(1.0, 0)
    # a bad mass is refused with BaseMeasure.uniform's wording, at every H
    for mass in (0.0, -1.0, math.nan, math.inf):
        for H in (None, 3):
            with pytest.raises(ValueError, match="total mass must be finite"):
                truncation.gamma_table(mass, 3, H)
            with pytest.raises(ValueError, match="total mass must be finite"):
                truncation.gamma_expected_atoms(mass, 3, H)


def test_truncation_tables():
    p = homog(1.0, 10.0)
    t = truncation.beta_table(p, 9, M=3)
    assert list(t) == [
        "K", "l1_error", "marginal_bound", "expected_atoms", "stick_breaking_l1",
    ]
    assert t["K"].tolist() == list(range(10))
    assert t["l1_error"][9] == truncation.beta_l1_error(p, 9)
    assert t["marginal_bound"][9] == truncation.beta_marginal_bound(p, 9, 3)
    assert t["stick_breaking_l1"][9] == 0.0009765625
    # no marginal column without M, no stick-breaking one for piecewise c
    assert truncation.beta_table(p, 9)["marginal_bound"] is None
    assert truncation.beta_table(piecewise_params(), 3)["stick_breaking_l1"] is None
    with pytest.raises(ValueError):
        truncation.beta_table(p, 9, M=0)
    t = truncation.gamma_table(1.0, 9)
    assert t["K"].tolist() == list(range(1, 10))
    assert t["l1_error"][-1] == pytest.approx(0.1, rel=1e-15)
    assert t["expected_atoms"][-1] == pytest.approx(math.log(10.0), rel=1e-15)
    assert truncation.gamma_table(1.0, 0)["K"].size == 0
    with pytest.raises(ValueError):
        truncation.gamma_table(1.0, 3, 0)


@settings(max_examples=60, deadline=None)
@given(
    c=st.floats(0.05, 20.0).filter(lambda v: v != round(v)),
    c2=st.one_of(st.none(), st.floats(0.05, 20.0)),
    mass=st.floats(0.01, 100.0),
    K_max=st.integers(0, 60),
    M=st.one_of(st.none(), st.integers(1, 10**4)),
)
def test_beta_table_rows_equal_scalar_routes(c, c2, mass, K_max, M):
    if c2 is None:
        p = homog(c, mass)
    else:
        pw = PiecewiseConst(UNIT, [np.array([0.0, 0.3, 1.0])], np.array([c, c2]))
        p = beta.BetaProcessParams(pw, BaseMeasure.uniform(UNIT, mass))
    t = truncation.beta_table(p, K_max, M)
    rate_sum = integral_sum = 0.0
    for K in range(K_max + 1):
        # expected atoms: the sequential sum of the round rates, and of the
        # integrals of c/(c+k) against mu, which do not go through the plan
        rate_sum += beta.round_measure(p, K).rate
        integral_sum += p.base.integral_against(
            p.concentration.map(lambda v: v / (v + K))
        )
        assert t["K"][K] == K
        assert t["expected_atoms"][K] == rate_sum == integral_sum
        assert t["l1_error"][K] == truncation.beta_l1_error(p, K)
        if M is not None:
            assert t["marginal_bound"][K] == truncation.beta_marginal_bound(p, K, M)
        if c2 is None:
            stick, _ = truncation.stick_breaking_bounds(c, mass, K)
            assert t["stick_breaking_l1"][K] == stick


def _resummed_gamma_row(gamma_mass, K, H):
    """(l1_error, expected_atoms) of row K, re-summed from k = 1."""
    if H is None or H == math.inf:
        return 1.0 / (K + 1), gamma_mass * math.log(K + 1.0)
    extra = total = 0.0
    for k in range(1, K + 1):
        extra += math.exp(-math.log(k) - (H + 1) * math.log1p(k))
        x = 1.0 / (k + 1.0)
        term = s = x
        for h in range(2, H + 1):
            term *= x * (h - 1) / h
            s += term
            if term < 1e-300:
                break
        total += s
    return 1.0 / (K + 1) + extra, gamma_mass * total


@settings(max_examples=30, deadline=None)
@given(
    mass=st.floats(0.01, 100.0),
    K_max=st.integers(0, 60),
    H=st.one_of(st.none(), st.just(math.inf), st.integers(1, 40)),
)
def test_gamma_table_rows_equal_scalar_routes(mass, K_max, H):
    t = truncation.gamma_table(mass, K_max, H)
    assert t["K"].tolist() == list(range(1, K_max + 1))
    for i, K in enumerate(range(1, K_max + 1)):
        l1, atoms = _resummed_gamma_row(mass, K, H)
        assert t["l1_error"][i] == truncation.gamma_l1_error(K, H) == l1
        assert t["expected_atoms"][i] == (
            truncation.gamma_expected_atoms(mass, K, H)
        ) == atoms


def test_gamma_scalar_bounds_keep_one_row():
    # row K of the table without the K rows before it: a list of them would
    # hold 10^5 floats, about 3 MiB; a finite H walks the rows, keeping one
    for H in (None, 3):
        tracemalloc.start()
        try:
            l1 = truncation.gamma_l1_error(10**5, H)
            atoms = truncation.gamma_expected_atoms(2.0, 10**5, H)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        table = truncation.gamma_table(2.0, 10**5, H)
        assert l1 == table["l1_error"][-1]
        assert atoms == table["expected_atoms"][-1]
        assert peak < 2**18
    assert l1 > 1.0 / (10**5 + 1)


def test_gamma_scalar_bounds_at_infinite_H_are_closed_forms():
    # at H = inf, row K is 1/(K+1) and gamma log(K+1), returned without
    # walking the K rows before it
    def walk(*args):
        raise AssertionError("walked the column")

    with mock.patch.object(truncation, "_gamma_l1_column", walk), \
            mock.patch.object(truncation, "_gamma_expected_column", walk):
        for H in (None, math.inf):
            assert truncation.gamma_l1_error(10**7, H) == 1.0 / (10**7 + 1)
            assert truncation.gamma_expected_atoms(2.0, 10**7, H) == (
                2.0 * math.log(10**7 + 1.0)
            )


@pytest.mark.parametrize("c", [0.5, 1.0, 2.0, 5.0])
def test_crossover_ranges(c):
    K_max = 40
    ranges = truncation.crossover_ranges(c, K_max)
    # contiguous cover of 0..K_max
    assert ranges[0][0] == 0 and ranges[-1][1] == K_max
    for (_, e1, _), (s2, _, _) in zip(ranges, ranges[1:]):
        assert s2 == e1 + 1
    # labels agree with a direct comparison at every K
    for start, end, label in ranges:
        for K in range(start, end + 1):
            sup = c / (c + K + 1.0)
            stick = (c / (c + 1.0)) ** (K + 1)
            want = "superposition" if sup < stick else (
                "stick-breaking" if stick < sup else "tie"
            )
            assert label == want
    # the bounds coincide at K = 0 and the geometric one wins afterwards
    assert ranges[0] == (0, 0, "tie")
    assert ranges[1][2] == "stick-breaking"


def _residual_round_totals(c, mass, ks, seed, reps):
    """Summed mass of rounds ``ks`` per replica, batched across streams.

    Row r reproduces, jump for jump, what summing simulate_round over
    ``ks`` under RandomStream(seed, (r,)) yields; constant c, uniform
    one-cell base.  Word layout per round: the count's words, then per
    atom a cell-choice word and a position word, then the jump words.
    """
    ks = np.asarray(ks)
    root = RandomStream(seed)
    k0r, k1r = root.child_keys(np.arange(reps))
    g0, g1 = _absorb_arr(k0r[:, None], k1r[:, None], ks[None, :].astype(np.uint64))
    rates = np.broadcast_to(mass * c / (c + ks.astype(float)), g0.shape)
    counts, used = batch_poisson(rates, g0, g1)
    nz = counts > 0
    n = counts[nz]
    if n.size == 0:
        return np.zeros(reps)
    start = used[nz]
    b = np.broadcast_to(c + ks.astype(float), g0.shape)[nz]
    repl = np.broadcast_to(np.arange(reps)[:, None], g0.shape)[nz]
    # each live round's jump words follow its count and 2 words per location
    u = _words_to_uniform(ragged_words(g0[nz], g1[nz], start + 2 * n, n))
    rows = np.repeat(np.arange(n.size), n)
    jumps = -np.expm1(np.log1p(-u) / b[rows])
    return np.bincount(repl[rows], weights=jumps, minlength=reps)


def test_residual_helper_matches_simulate_round():
    c, mass = 1.0, 10.0
    p = homog(c, mass)
    ks = np.arange(5, 15)
    got = _residual_round_totals(c, mass, ks, seed=31, reps=30)
    want = np.array(
        [
            math.fsum(
                simulate_round(p, int(k), RandomStream(31, (r,))).total_mass
                for k in ks
            )
            for r in range(30)
        ]
    )
    assert np.allclose(got, want, rtol=0.0, atol=1e-12)
    assert (want > 0).all()


@pytest.mark.parametrize("K", [4, 9, 19])
def test_monte_carlo_residual_mass(K):
    # rounds K+1..K+200 carry mass gamma*(l1(K) - l1(K+200)) on average
    c, mass, tail = 1.0, 10.0, 200
    p = homog(c, mass)
    ks = np.arange(K + 1, K + 1 + tail)
    totals = _residual_round_totals(c, mass, ks, seed=700 + K, reps=2000)
    target = mass * (
        truncation.beta_l1_error(p, K) - truncation.beta_l1_error(p, K + tail)
    )
    assert abs(totals.mean() - target) < 0.05 * target
