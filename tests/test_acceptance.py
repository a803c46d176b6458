"""Acceptance scoreboard: one numbered check per guarantee the package makes.

Each test prints a single `acceptance NN PASS/FAIL` line with the measured
quantity next to its tolerance, then asserts.  Monte Carlo checks run on
frozen seeds at 3 or 4 standard errors; formula checks compare against
independent oracles computed inline, not against library code paths.
"""

import json
import math
import time

import numpy as np
import pytest
from scipy import stats

from levycrm import beta, gamma, posterior, verify
from levycrm.cli import main
from levycrm.streams import RandomStream


def _report(num, ok, detail, t0):
    status = "PASS" if ok else "FAIL"
    line = f"acceptance {num:02d} {status} ({time.perf_counter() - t0:.1f}s): {detail}"
    print(line)
    return line


def test_01_truncation_table_values(tmp_path):
    t0 = time.perf_counter()
    out = tmp_path / "beta.jsonl"
    assert main([
        "truncation-table", "--family", "beta", "--c", "1",
        "--K-max", "9", "--seed", "0", "--out", str(out),
    ]) == 0
    row = json.loads(out.read_text().splitlines()[-1])
    gout = tmp_path / "gamma.jsonl"
    assert main([
        "truncation-table", "--family", "gamma", "--K-max", "9",
        "--H", "inf", "--seed", "0", "--out", str(gout),
    ]) == 0
    grow = json.loads(gout.read_text().splitlines()[-1])
    ok = (
        row["K"] == 9
        and row["l1_error"] == 1.0 / 11.0
        and row["stick_breaking_l1"] == 0.0009765625
        and grow["K"] == 9
        and grow["l1_error"] == 0.1
    )
    line = _report(1, ok, (
        f"beta K=9 l1 {row['l1_error']!r} == 1/11, stick {row['stick_breaking_l1']!r}"
        f" == (1/2)^10, gamma K=9 l1 {grow['l1_error']!r} == 0.1, all bit-exact"
    ), t0)
    assert ok, line


def test_02_beta_density_consistency():
    t0 = time.perf_counter()
    grid = np.linspace(0.05, 0.95, 50)
    worst = 0.0
    for c in (0.5, 1.0, 3.0):
        for x in grid:
            x = float(x)
            # K from the geometric tail: (1-x)^K <= 1e-7 keeps the
            # remainder seven digits under the target density
            K = max(0, math.ceil(math.log(1e-7) / math.log1p(-x)))
            target = verify.levy_density("beta", {"c": c}, x)
            value = verify.decomposition_density_partial_sum(
                "beta", {"c": c}, x, K
            ).value
            worst = max(worst, abs(value - target) / target)
    ok = worst < 1e-6
    line = _report(2, ok, (
        f"max rel err {worst:.3e} < 1e-6 over 50-point grid in [0.05, 0.95], "
        "c in {0.5, 1, 3}, K per point from the geometric bound"
    ), t0)
    assert ok, line


def test_03_gamma_density_consistency():
    t0 = time.perf_counter()
    grid = np.linspace(0.05, 5.0, 50)
    K, H = 200, 60
    theta = 1.0
    rows = []
    for p in grid:
        p = float(p)
        value = verify.decomposition_density_partial_sum(
            "gamma", {"theta": theta}, p, K, H
        ).value
        # summed over all h, round k telescopes to
        # (exp(-k p/theta) - exp(-(k+1) p/theta)) / p, so rounds 1..K give
        # the target times 1 - exp(-p K/theta); the sub-rounds beyond H = 60
        # leave a Poisson tail near 1e-41, far below the tolerance
        truncated = math.exp(-p / theta) / p * -math.expm1(-p * K / theta)
        untruncated = math.exp(-p / theta) / p
        rows.append((
            abs(value - truncated) / truncated,
            (untruncated - value) / untruncated,
            p,
        ))
    worst, _, worst_p = max(rows)
    _, shortfall, short_p = max(rows, key=lambda row: row[1])
    ok = worst < 1e-6
    line = _report(3, ok, (
        f"max rel err {worst:.3e} at p={worst_p:.2f} vs tolerance 1e-6 against "
        f"the truncated density exp(-p/theta)/p * (1 - exp(-p*K/theta)) at "
        f"(K, H)=({K}, {H}); for information, the shortfall against the "
        f"untruncated target is {shortfall:.3e} at p={short_p:.2f}, where "
        f"exp(-p*K/theta) = {math.exp(-short_p * K / theta):.3e}"
    ), t0)
    assert ok, line


def test_04_moment_closure():
    t0 = time.perf_counter()
    worst = 0.0
    for c in (1.0, 3.0):
        params = beta.BetaProcessParams.homogeneous(c, 1.0)
        for boxes in (None, [(0.0, 0.3)]):
            m, v = beta.cumulative_round_moments(params, 10_000, boxes)
            em = verify.moment_oracle("beta", params, A=boxes, r=1)
            ev = verify.moment_oracle("beta", params, A=boxes, r=2)
            worst = max(worst, abs(m - em) / em, abs(v - ev) / ev)
    ok = worst < 1e-3
    line = _report(4, ok, (
        f"round sums to k=1e4 vs quadrature oracle: max rel err {worst:.3e} "
        "< 1e-3 over mean and variance, c in {1, 3}, A in {domain, [0, 0.3]}"
    ), t0)
    assert ok, line


def test_05_beta_monte_carlo_mean():
    t0 = time.perf_counter()
    params = beta.BetaProcessParams.homogeneous(1.0, 10.0)
    # replica r reads RandomStream(1005, (r,))
    masses = np.array([
        pm.total_mass for pm in beta.simulate_replicas(params, 9, RandomStream(1005), 2000)
    ])
    se = masses.std(ddof=1) / math.sqrt(masses.size)
    target = 100.0 / 11.0
    # target rederived by direct summation, independent of library code
    oracle = 10.0 * math.fsum(1.0 / ((1.0 + k) * (2.0 + k)) for k in range(10))
    ok = (
        abs(masses.mean() - target) < 3.0 * se
        and math.isclose(oracle, target, rel_tol=1e-14)
    )
    line = _report(5, ok, (
        f"2000 replicas at c=1, mass=10, K=9: mean {masses.mean():.4f} within "
        f"3*SE={3 * se:.4f} of 100/11={target:.4f} (seed 1005)"
    ), t0)
    assert ok, line


def test_06_gamma_marginal_ks():
    t0 = time.perf_counter()
    params = gamma.GammaProcessParams.homogeneous(1.0, 2.0)
    # replica r reads RandomStream(1006, (r,))
    masses = np.array([
        pm.total_mass
        for pm in gamma.simulate_replicas(params, 199, 40, RandomStream(1006), 2000)
    ])
    res = verify.ks_distance(masses, lambda x: stats.gamma.cdf(x, 2.0, scale=1.0))
    ok = res.passed
    line = _report(6, ok, (
        f"2000 replicas at shape mass 2, theta 1, K=199, H=40: KS statistic "
        f"{res.statistic:.4f} < {res.critical_value:.4f} vs Gamma(2, 1) (seed 1006)"
    ), t0)
    assert ok, line


def test_07_posterior_expectation():
    t0 = time.perf_counter()
    draws = posterior.resample_observed_jumps(
        1.0, 2, 1, 1000, RandomStream(12345), 100_000
    )
    se = draws.std(ddof=1) / math.sqrt(draws.size)
    mean_ok = abs(draws.mean() - 1.0 / 3.0) < 4.0 * se
    te = posterior.resample_truncated_expectation(1.0, 2, 3, 0)
    # direct partial sum of the round means at a = c + M = 3
    oracle = math.fsum(3.0 / ((3.0 + k) * (4.0 + k)) for k in range(1))
    exact_ok = te == 0.25 and oracle == 0.25
    ok = mean_ok and exact_ok
    line = _report(7, ok, (
        f"1e5 resampled jumps at c=1, M=2, m_i=1, K=1000: mean {draws.mean():.6f} "
        f"within 4*SE={4 * se:.2e} of 1/3 (seed 12345); truncated expectation at "
        f"K=0, m_i=3 is {te!r} == 0.25 == direct sum"
    ), t0)
    assert ok, line


def test_08_ibp_limit():
    t0 = time.perf_counter()
    grid = np.arange(1, 10) / 10.0

    def max_err(n):
        errs = []
        for x in grid:
            x = float(x)
            target = verify.levy_density("beta", {"c": 1.0}, x)
            approx = float(beta.ibp_levy_density(n, 1.0, 1.0, x))
            errs.append(abs(approx - target) / target)
        return max(errs)

    errs = [max_err(n) for n in (10**3, 10**4, 10**5, 10**6)]
    decreasing = all(a > b for a, b in zip(errs, errs[1:]))
    ok = errs[-1] < 1e-3 and decreasing
    line = _report(8, ok, (
        f"finite-object density vs limit at N=1e6: max rel err {errs[-1]:.3e} "
        f"< 1e-3 over pi in 0.1..0.9, strictly decreasing across N=1e3..1e6 "
        f"({', '.join(f'{e:.1e}' for e in errs)})"
    ), t0)
    assert ok, line


def test_09_symmetric_gamma_moments():
    t0 = time.perf_counter()
    params = gamma.GammaProcessParams.homogeneous(1.0, 1.0)
    # replica r reads RandomStream(2009, (r,))
    draws = gamma.simulate_replicas(params, 100, 30, RandomStream(2009), 10_000, signed=True)
    masses = np.array([pm.total_mass for pm in draws])
    se = masses.std(ddof=1) / math.sqrt(masses.size)
    vtarget = gamma.symmetric_variance(params, 100, 30)
    vrel = abs(masses.var(ddof=1) - vtarget) / vtarget
    ok = abs(masses.mean()) < 4.0 * se and vrel < 0.05
    line = _report(9, ok, (
        f"1e4 replicas at theta=1, mass=1, K=100, H=30: mean {masses.mean():.4f} "
        f"within 4*SE={4 * se:.4f} of 0, variance {masses.var(ddof=1):.4f} within "
        f"5% of truncation-adjusted {vtarget:.4f} (rel {vrel:.3f}, seed 2009)"
    ), t0)
    assert ok, line


def test_10_generalized_gamma_gate():
    t0 = time.perf_counter()
    ok = True
    parts = []
    for s in (0.1, 0.5, 0.9):
        rep = verify.generalized_gamma_gate(s)
        ok = ok and (
            len(rep.points) == 50
            and all(isinstance(pt.printed_ok, bool) for pt in rep.points)
            and all(isinstance(pt.corrected_ok, bool) for pt in rep.points)
            and math.isfinite(rep.fitted_constant)
            and rep.fitted_constant > 0.0
        )
        parts.append(
            f"sigma={s}: fitted constant {rep.fitted_constant:.4f}, printed max "
            f"rel err {rep.max_rel_err_printed:.3f}, corrected max rel err "
            f"{rep.max_rel_err_corrected:.1e}"
        )
    # the gate grades the stated weights and a rescaled variant per point;
    # its red/green status is informational and never asserted here
    line = _report(10, ok, "; ".join(parts), t0)
    assert ok, line


def test_11_cli_reproducibility(tmp_path):
    t0 = time.perf_counter()

    def run(name, argv):
        out = tmp_path / name
        assert main(argv + ["--out", str(out)]) == 0
        return out.read_bytes()

    beta_argv = [
        "simulate", "--family", "beta", "--c", "2", "--mass", "3",
        "--K", "25", "--replicas", "6", "--seed", "4242",
    ]
    gamma_argv = [
        "simulate", "--family", "symmetric-gamma", "--theta", "0.5", "--mass", "2",
        "--K", "30", "--H", "inf", "--replicas", "6", "--seed", "4242",
    ]
    b1 = run("b1.jsonl", beta_argv)
    b2 = run("b2.jsonl", beta_argv)
    g1 = run("g1.jsonl", gamma_argv)
    g2 = run("g2.jsonl", gamma_argv)
    ok = b1 == b2 and g1 == g2 and len(g1.splitlines()) > 6
    line = _report(11, ok, (
        "same seed gives byte-identical output: beta and symmetric-gamma "
        "repeat runs both match "
        f"({len(g1.splitlines()) - 1} atom rows)"
    ), t0)
    assert ok, line
