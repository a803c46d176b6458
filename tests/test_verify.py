"""Oracles and goodness-of-fit machinery used to validate the library.

These tests pin the oracle implementations themselves: closed-form
densities, partial sums with exact tails, quadrature moments, and the
KS / chi-square / moment summaries, plus the generalized-gamma gate.
"""

import math

import numpy as np
import pytest

from levycrm import beta, gamma, verify
from levycrm.measures import DomainError, OracleError
from levycrm.streams import RandomStream


def test_make_report_modes():
    rep = verify.make_report("x", target=2.0, computed=2.001, tolerance=1e-2)
    assert rep.passed and rep.mode == "rel"
    assert not verify.make_report("x", 2.0, 2.1, 1e-3).passed
    rep = verify.make_report("x", 0.0, 5e-7, 1e-6, mode="abs")
    assert rep.passed
    # relative mode around a zero target falls back to absolute
    assert verify.make_report("x", 0.0, 5e-7, 1e-6).passed
    assert not verify.make_report("x", 0.0, 5e-6, 1e-6).passed
    with pytest.raises(ValueError):
        verify.make_report("x", 1.0, 1.0, 1e-6, mode="pct")


def test_levy_density_values():
    assert verify.levy_density("beta", {"c": 1.0}, 0.5) == 2.0
    assert verify.levy_density("gamma", {"theta": 1.0}, 1.0) == pytest.approx(
        math.exp(-1.0), rel=1e-15
    )
    assert verify.levy_density("symmetric-gamma", {"theta": 1.0}, -1.0) == (
        pytest.approx(math.exp(-1.0), rel=1e-15)
    )
    # stable-beta: Gamma(c+1)/(Gamma(1-s)Gamma(c+s)) x^(-s-1) (1-x)^(c+s-1)
    want = (2.0 / math.pi) * 0.3**-1.5 * 0.7**0.5
    assert verify.levy_density(
        "stable-beta", {"c": 1.0, "sigma": 0.5}, 0.3
    ) == pytest.approx(want, rel=1e-12)
    want = math.exp(-2.0) * 2.0**-1.5 / math.gamma(0.5)
    assert verify.levy_density(
        "generalized-gamma", {"theta": 1.0, "sigma": 0.5}, 2.0
    ) == pytest.approx(want, rel=1e-12)
    # finite-N feature-count density approaches the beta target
    approx = verify.levy_density(
        "ibp", {"num_objects": 1e6, "c": 1.0, "mass": 1.0}, 0.5
    )
    assert approx == pytest.approx(2.0, rel=1e-3)
    assert approx == pytest.approx(
        float(beta.ibp_levy_density(10**6, 1.0, 1.0, 0.5)), rel=1e-12
    )


def test_levy_density_domain_errors():
    for x in (0.0, 1.0, -0.2, 1.3):
        with pytest.raises(DomainError):
            verify.levy_density("beta", {"c": 1.0}, x)
    with pytest.raises(DomainError):
        verify.levy_density("gamma", {"theta": 1.0}, 0.0)
    with pytest.raises(DomainError):
        verify.levy_density("symmetric-gamma", {"theta": 1.0}, 0.0)
    with pytest.raises(ValueError):
        verify.levy_density("weibull", {}, 0.5)
    with pytest.raises(ValueError):
        verify.levy_density("beta", {}, 0.5)


def test_beta_partial_sum():
    ps = verify.decomposition_density_partial_sum("beta", {"c": 1.0}, 0.5, 40)
    # remaining terms sum to exactly c (1-x)^(c+K) / x = 2^-40 here
    assert ps.tail_bound == 2.0**-40
    assert ps.value + ps.tail_bound == pytest.approx(2.0, abs=1e-12)
    ps0 = verify.decomposition_density_partial_sum("beta", {"c": 1.0}, 0.5, 0)
    assert ps0.value == pytest.approx(1.0, abs=1e-12)
    assert ps0.value + ps0.tail_bound == pytest.approx(2.0, abs=1e-12)
    # partial sums increase toward the target as K grows
    vals = [
        verify.decomposition_density_partial_sum("beta", {"c": 2.0}, 0.3, K).value
        for K in (0, 1, 5, 20)
    ]
    assert all(a < b for a, b in zip(vals, vals[1:]))
    assert vals[-1] < verify.levy_density("beta", {"c": 2.0}, 0.3)


def test_stable_beta_partial_sum():
    params = {"c": 1.0, "sigma": 0.5}
    ps = verify.decomposition_density_partial_sum("stable-beta", params, 0.3, 60)
    target = verify.levy_density("stable-beta", params, 0.3)
    assert ps.value + ps.tail_bound == pytest.approx(target, rel=1e-9)
    assert ps.value < target


def test_gamma_partial_sum():
    ps = verify.decomposition_density_partial_sum("gamma", {"theta": 1.0}, 1.0, 200, 60)
    assert ps.value == pytest.approx(math.exp(-1.0), rel=1e-6)
    assert ps.value + ps.tail_bound == pytest.approx(math.exp(-1.0), rel=1e-12)
    # the k-tail at small jumps decays like e^(-p K / theta): still large
    # at p = 0.05, which is why the tail must be reported, not assumed
    ps = verify.decomposition_density_partial_sum("gamma", {"theta": 1.0}, 0.05, 200, 60)
    assert ps.tail_bound > 1e-6 * ps.value
    assert ps.value + ps.tail_bound == pytest.approx(20.0 * math.exp(-0.05), rel=1e-12)
    # a short sub-round truncation leaves a Poisson tail beyond H in every round
    for H in (5, 10):
        ps = verify.decomposition_density_partial_sum("gamma", {"theta": 1.0}, 5.0, 200, H)
        assert ps.value + ps.tail_bound == pytest.approx(math.exp(-5.0) / 5.0, rel=1e-12)
    sym = verify.decomposition_density_partial_sum(
        "symmetric-gamma", {"theta": 1.0}, -1.0, 200, 60
    )
    assert sym.value == pytest.approx(math.exp(-1.0), rel=1e-6)
    # monotone in both truncation indices
    v = lambda K, H: verify.decomposition_density_partial_sum(
        "gamma", {"theta": 1.0}, 0.8, K, H
    ).value
    assert v(1, 10) < v(5, 10) < v(50, 10)
    assert v(50, 1) < v(50, 3) < v(50, 10)
    with pytest.raises(ValueError):
        verify.decomposition_density_partial_sum("gamma", {"theta": 1.0}, 1.0, 0, 10)
    with pytest.raises(ValueError):
        verify.decomposition_density_partial_sum("gamma", {"theta": 1.0}, 1.0, 10, None)


def test_generalized_partial_sum_variants():
    params = {"theta": 1.0, "sigma": 0.5}
    printed = verify.decomposition_density_partial_sum(
        "generalized-gamma", params, 1.0, 200, 60
    )
    assert printed.tail_bound is None
    corrected = verify.decomposition_density_partial_sum(
        "generalized-gamma", {**params, "corrected": True}, 1.0, 200, 60
    )
    target = verify.levy_density("generalized-gamma", params, 1.0)
    assert corrected.value == pytest.approx(target, rel=1e-6)
    assert abs(printed.value - target) / target > 0.01
    short = verify.decomposition_density_partial_sum(
        "generalized-gamma", {**params, "corrected": True}, 1.0, 5, 3
    )
    assert short.value + short.tail_bound == pytest.approx(target, rel=1e-12)


def test_moment_oracle_beta():
    # first moment of the full process mass equals the base mass on A
    for c in (1.0, 3.0):
        p = beta.BetaProcessParams.homogeneous(c, 1.0)
        assert verify.moment_oracle("beta", p, r=1) == pytest.approx(1.0, abs=1e-9)
        assert verify.moment_oracle("beta", p, A=[(0.0, 0.3)], r=1) == pytest.approx(
            0.3, abs=1e-9
        )
    with pytest.raises(ValueError):
        verify.moment_oracle("beta", beta.BetaProcessParams.homogeneous(1.0, 1.0), r=3)


def test_moment_oracle_stable_beta():
    # the jump integral telescopes to 1 for every (c, sigma)
    sp = beta.StableBetaParams(beta.BetaProcessParams.homogeneous(2.0, 1.5), 0.3)
    assert verify.moment_oracle("stable-beta", sp, r=1) == pytest.approx(1.5, abs=1e-9)


def test_moment_oracle_gamma_families():
    p = gamma.GammaProcessParams.homogeneous(1.0, 1.0)
    assert verify.moment_oracle("gamma", p, r=1) == pytest.approx(1.0, rel=1e-9)
    assert verify.moment_oracle("gamma", p, r=2) == pytest.approx(1.0, rel=1e-9)
    p2 = gamma.GammaProcessParams.homogeneous(2.0, 3.0)
    assert verify.moment_oracle("gamma", p2, r=2) == pytest.approx(12.0, rel=1e-9)
    assert verify.moment_oracle("symmetric-gamma", p, r=1) == 0.0
    assert verify.moment_oracle("symmetric-gamma", p, r=2) == pytest.approx(
        2.0, rel=1e-9
    )
    gg = gamma.GeneralizedGammaParams(
        gamma.GammaProcessParams.homogeneous(2.0, 1.0), 0.5
    )
    assert verify.moment_oracle("generalized-gamma", gg, r=1) == pytest.approx(
        math.sqrt(2.0), rel=1e-9
    )
    with pytest.raises(ValueError):
        verify.moment_oracle("weibull", p, r=1)


def test_ks_distance():
    res = verify.ks_distance(np.linspace(0.001, 0.999, 2000), lambda x: x)
    assert res.critical_value == pytest.approx(0.043591577338810764, rel=1e-12)
    assert res.passed
    u = RandomStream(900).cursor().uniforms(2000)
    assert verify.ks_distance(u, lambda x: x).passed
    # a point mass against a continuous law is distance >= 1/2
    res = verify.ks_distance(np.full(100, 0.5), lambda x: x)
    assert res.statistic >= 0.5 and not res.passed
    with pytest.raises(ValueError):
        verify.ks_distance(np.array([1.0]), lambda x: x)
    # below 4 samples the critical value is at least 1, which no statistic
    # reaches, so the test is refused; at 4 it is 0.975 and can fail
    with pytest.raises(ValueError, match="must be >= 4"):
        verify.ks_distance(np.array([0.2, 0.5, 0.8]), lambda x: x)
    res = verify.ks_distance(np.full(4, 0.999), lambda x: x)
    assert res.critical_value < 1.0 and not res.passed


def test_gamma2_cdf_equals_scipy_gammainc_bit_for_bit():
    from scipy import special

    # each branch and its edges: the prefactor x^2 e^-x cut to 0 below the
    # last x it leaves nonzero (where 2 log x - x passes -709.78...), the
    # series up to x = 2, the Lanczos band |2 - x| <= 0.8, the continued
    # fraction above 2 and its own underflow to exactly 1
    points = [0.0, 5e-324, 1.0, 1.1, 1.2, 2.0, 2.8, 30.0, 745.0, 1e300, math.inf]
    points += [7.458340731200083e-155]
    points += np.geomspace(1e-300, 1e-150, 2000).tolist()
    edges = np.array(points)
    draws = np.random.default_rng(2).gamma(2.0, 1.0, 100_000)
    x = np.concatenate([
        edges, np.nextafter(edges, 0.0), np.nextafter(edges, np.inf), draws
    ])
    got = np.array([verify.gamma2_cdf(v) for v in x.tolist()])
    want = special.gammainc(2.0, x)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    assert verify.gamma2_cdf(7.4583407312000825e-155) == 0.0
    assert verify.gamma2_cdf(7.458340731200083e-155) > 0.0


def test_chi_square_gof():
    res = verify.chi_square_gof([55, 45], [0.5, 0.5])
    assert res.statistic == pytest.approx(1.0, rel=1e-12)
    assert res.dof == 1
    assert res.critical_value == pytest.approx(10.827566170662733, rel=1e-9)
    assert res.passed
    assert not verify.chi_square_gof([90, 10], [0.5, 0.5]).passed
    with pytest.raises(ValueError):
        verify.chi_square_gof([1, 2, 3], [0.5, 0.5])
    with pytest.raises(ValueError):
        verify.chi_square_gof([1, 2], [0.7, 0.4])
    with pytest.raises(ValueError):
        verify.chi_square_gof([1, 2], [1.0, 0.0])


def test_monte_carlo_moments():
    ms = verify.monte_carlo_moments([1.0, 1.0, 1.0])
    assert ms.mean == 1.0 and ms.variance == 0.0 and ms.se_mean == 0.0
    ms = verify.monte_carlo_moments([0.0, 2.0])
    assert ms.mean == 1.0 and ms.variance == 2.0
    u = RandomStream(900).cursor().uniforms(100_000)
    ms = verify.monte_carlo_moments(u)
    assert abs(ms.mean - 0.5) < 4 * ms.se_mean
    assert abs(ms.variance - 1.0 / 12.0) < 4 * ms.se_variance
    with pytest.raises(ValueError):
        verify.monte_carlo_moments([1.0])


def test_quadrature_failures_raise():
    with pytest.raises(OracleError):
        verify._quad(lambda x: math.sin(1.0 / max(x, 1e-300)), 0.0, 1.0)
    with pytest.raises(OracleError):
        verify._quad(lambda p: 1.0 / max(p, 1e-300), 0.0, 1.0)


@pytest.mark.parametrize("sigma", [0.1, 0.5, 0.9])
def test_generalized_gamma_gate(sigma):
    rep = verify.generalized_gamma_gate(sigma)
    assert len(rep.points) == 50
    assert rep.fitted_constant > 1.0
    # the printed weights miss the target by far more than tolerance
    assert not rep.printed_all_ok
    assert rep.max_rel_err_printed > 0.01
    # corrected weights reproduce the density up to the reported k-tail
    assert rep.max_rel_err_corrected < 1e-3
    assert rep.max_rel_err_corrected < rep.max_rel_err_printed / 100.0
    for pt in rep.points:
        assert pt.printed_ok == (pt.rel_err_printed < 1e-3)
        assert pt.corrected_ok == (pt.rel_err_corrected < 1e-6)


def test_gate_corrected_exact_away_from_small_jumps():
    # off the deep-tail region the corrected sum has no visible error
    rep = verify.generalized_gamma_gate(0.5, grid=np.linspace(0.5, 5.0, 20))
    assert rep.corrected_all_ok
    assert rep.max_rel_err_corrected < 1e-12
