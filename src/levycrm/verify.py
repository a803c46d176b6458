"""Independent numerical oracles for the decomposition library.

Everything here evaluates targets by routes the simulation code never
takes: published closed-form densities, term-by-term partial sums of the
component densities, adaptive quadrature for moments, and classical
goodness-of-fit statistics.  Agreement between these oracles and the
library is evidence, not tautology.

No scipy module loads with this module: ``scipy.special``,
``scipy.stats`` and ``scipy.integrate`` load inside the functions that
use them.  The Gamma(2, 1) CDF of the ``gamma-marginal`` check is
``gamma2_cdf``, a bit-exact port of scipy's own route in ``math``, so
that check and ``symmetric-variance`` (``monte_carlo_moments``) run
without scipy.

Density conventions.  All densities are per unit base mass (the
location-marginal factor is handled separately by callers working with
inhomogeneous parameters):

* beta:                c pi^(-1) (1-pi)^(c-1)           on (0, 1)
* stable-beta:         Gamma(c+1)/(Gamma(1-sigma)Gamma(c+sigma))
                       pi^(-sigma-1) (1-pi)^(c+sigma-1)  on (0, 1)
* gamma:               p^(-1) exp(-p/theta)             on (0, inf)
* generalized-gamma:   p^(-sigma-1) exp(-p/theta)/Gamma(1-sigma)
* symmetric-gamma:     |p|^(-1) exp(-|p|/theta)         on R minus 0
* ibp:                 (N/gamma) BetaPdf(pi; c gamma/N, c), the finite-N
                       feature-count approximation to the beta density
"""

from __future__ import annotations

import math
import warnings
from typing import NamedTuple

import numpy as np

from .measures import DomainError, OracleError, _integer

KS_SIGNIFICANCE = 1e-3
CHI2_SIGNIFICANCE = 1e-3
QUAD_ABS_TOL = 1e-9
# The generalized-gamma gate's scale and truncation, and the relative errors
# under which a point passes with the printed and the corrected weights.
GATE_THETA, GATE_K, GATE_H = 1.0, 200, 60
GATE_PRINTED_TOL, GATE_CORRECTED_TOL = 1e-3, 1e-6


class VerificationReport(NamedTuple):
    """One named check: target vs computed under a flagged tolerance."""

    name: str
    target: float
    computed: float
    tolerance: float
    mode: str  # "abs" or "rel"
    passed: bool
    detail: str = ""


def make_report(name, target, computed, tolerance, mode="rel", detail=""):
    if mode not in ("abs", "rel"):
        raise ValueError("tolerance mode must be 'abs' or 'rel'")
    err = abs(computed - target)
    if mode == "rel":
        scale = abs(target)
        ok = err <= tolerance * scale if scale > 0.0 else err <= tolerance
    else:
        ok = err <= tolerance
    return VerificationReport(
        name=name,
        target=float(target),
        computed=float(computed),
        tolerance=float(tolerance),
        mode=mode,
        passed=bool(ok),
        detail=detail,
    )


def _req(params, *keys):
    out = []
    for key in keys:
        if key not in params:
            raise ValueError(f"family parameters need {key!r}")
        out.append(float(params[key]))
    return out[0] if len(out) == 1 else out


def levy_density(family: str, params: dict, jump: float) -> float:
    """Closed-form jump-part density of the named family at one point.

    Boundary or out-of-support jumps raise DomainError rather than
    returning 0 or inf: callers probing the support edge are always
    making a mistake worth surfacing.
    """
    from scipy import special, stats
    x = _jump(family, jump)
    if family == "beta":
        c = _req(params, "c")
        return c * (1.0 - x) ** (c - 1.0) / x
    if family == "stable-beta":
        c, s = _req(params, "c", "sigma")
        return math.exp(
            _stable_log_norm(c, s)
            + (-s - 1.0) * math.log(x)
            + (c + s - 1.0) * math.log1p(-x)
        )
    if family == "gamma":
        theta = _req(params, "theta")
        return math.exp(-x / theta) / x
    if family == "generalized-gamma":
        theta, s = _req(params, "theta", "sigma")
        return math.exp(
            -x / theta - (s + 1.0) * math.log(x) - special.gammaln(1.0 - s)
        )
    if family == "symmetric-gamma":
        theta = _req(params, "theta")
        return math.exp(-abs(x) / theta) / abs(x)
    if family == "ibp":
        n, c, mass = _req(params, "num_objects", "c", "mass")
        return n / mass * stats.beta.pdf(x, c * mass / n, c)
    raise ValueError(f"unknown family {family!r}")


def _jump(family: str, jump) -> float:
    """``jump`` as a float, refused with DomainError outside ``family``'s support."""
    x = float(jump)
    if family in ("beta", "stable-beta", "ibp") and not 0.0 < x < 1.0:
        raise DomainError("jump must lie strictly inside (0, 1)")
    if family in ("gamma", "generalized-gamma") and x <= 0.0:
        raise DomainError(f"{family} jumps live on (0, inf)")
    if family == "symmetric-gamma" and x == 0.0:
        raise DomainError("symmetric-gamma density is undefined at 0")
    return x


def _stable_log_norm(c, s):
    from scipy import special
    # log of the stable-beta constant Gamma(c+1)/(Gamma(1-s)Gamma(c+s))
    return special.gammaln(c + 1.0) - special.gammaln(1.0 - s) - special.gammaln(c + s)


class PartialSum(NamedTuple):
    """Truncated component-density sum plus its analytic tail when known.

    For the beta, stable-beta, gamma, symmetric-gamma, and corrected
    generalized-gamma families the tail is the exact remainder of the
    series in closed form (geometric sums, and for the gamma sub-rounds a
    Poisson tail), computed without reference to the value.  The printed
    generalized-gamma series has no such closed remainder, so tail_bound
    is None there.
    """

    value: float
    tail_bound: float | None


def decomposition_density_partial_sum(
    family: str, params: dict, jump: float, K: int, H: int | None = None
) -> PartialSum:
    """Sum the component densities term by term up to (K, H).

    Terms are evaluated directly from their printed weight x pdf forms;
    no simulation machinery or library round code is involved.
    """
    from scipy import special, stats
    x = _jump(family, jump)
    if family == "beta":
        c = _req(params, "c")
        K = _integer(K, "K", 0)
        ks = np.arange(K + 1, dtype=np.float64)
        terms = (c / (c + ks)) * stats.beta.pdf(x, 1.0, c + ks)
        # remaining terms form an exact geometric series with ratio 1-x
        tail = c * (1.0 - x) ** (c + K) / x
        return PartialSum(float(terms.sum()), float(tail))
    if family == "stable-beta":
        c, s = _req(params, "c", "sigma")
        K = _integer(K, "K", 0)
        ks = np.arange(K + 1, dtype=np.float64)
        logw = (
            special.gammaln(c + s + ks)
            + special.gammaln(c + 1.0)
            - special.gammaln(c + ks + 1.0)
            - special.gammaln(c + s)
        )
        terms = np.exp(logw) * stats.beta.pdf(x, 1.0 - s, c + s + ks)
        tail = math.exp(
            _stable_log_norm(c, s)
            - (s + 1.0) * math.log(x)
            + (c + s + K + 1.0) * math.log1p(-x)
        )
        return PartialSum(float(terms.sum()), float(tail))
    if family in ("gamma", "symmetric-gamma"):
        theta = _req(params, "theta")
        x = abs(x)  # the symmetric-gamma density is even; gamma jumps are positive
        value = _gamma_partial(theta, x, K, H)
        return PartialSum(value, _gamma_remainder(theta, x, K, H))
    if family == "generalized-gamma":
        theta, s = _req(params, "theta", "sigma")
        corrected = bool(params.get("corrected", False))
        value = _generalized_partial(theta, s, x, K, H, corrected)
        if corrected:
            # each corrected term is the gamma term times p^-s / Gamma(1-s)
            scale = math.exp(-s * math.log(x) - special.gammaln(1.0 - s))
            return PartialSum(value, scale * _gamma_remainder(theta, x, K, H))
        return PartialSum(value, None)
    raise ValueError(f"unknown family {family!r}")


def _kh_grid(K, H):
    # gamma truncations need K >= 1 and a finite H >= 1
    ks = np.arange(1, _integer(K, "K", 1) + 1, dtype=np.float64)
    hs = np.arange(1, _integer(H, "H", 1) + 1, dtype=np.float64)
    return ks[:, None], hs[None, :]


def _gamma_partial(theta, p, K, H):
    from scipy import special
    # weight 1/((k+1)^h h) times Gamma(h, theta/(k+1)) pdf, in log space
    ks, hs = _kh_grid(K, H)
    logt = (
        (hs - 1.0) * math.log(p)
        - p * (ks + 1.0) / theta
        - hs * math.log(theta)
        - special.gammaln(hs)
        - np.log(hs)
    )
    return float(np.exp(logt).sum())


def _gamma_remainder(theta, p, K, H):
    from scipy import special
    # Summed over all h, round k telescopes to (e^(-kx) - e^(-(k+1)x)) / p
    # with x = p / theta, so the rounds beyond K leave e^(-(K+1)x) / p.
    # Within round k the sub-rounds beyond H leave e^(-kx) / p times the
    # Poisson(x) tail beyond H, the regularized lower incomplete gamma
    # P(H+1, x); the geometric sum over k = 1..K is kept in bounded factors.
    x = p / theta
    rounds = math.exp(-x) * math.expm1(-K * x) / math.expm1(-x)
    return (math.exp(-(K + 1) * x) + special.gammainc(H + 1, x) * rounds) / p


def _generalized_partial(theta, s, p, K, H, corrected):
    from scipy import special
    ks, hs = _kh_grid(K, H)
    if corrected:
        # weight Gamma(h-s) ((k+1)/theta)^s / (Gamma(1-s) (k+1)^h h!)
        logt = (
            (hs - s - 1.0) * math.log(p)
            - p * (ks + 1.0) / theta
            - hs * math.log(theta)
            - special.gammaln(hs)
            - np.log(hs)
            - special.gammaln(1.0 - s)
        )
    else:
        # printed weight 1/(Gamma(1-s) (k+1)^h h), jump Gamma(h-s, theta/(k+1))
        logt = (
            (hs - s - 1.0) * math.log(p)
            - p * (ks + 1.0) / theta
            + (hs - s) * (np.log1p(ks) - math.log(theta))
            - hs * np.log1p(ks)
            - np.log(hs)
            - special.gammaln(hs - s)
            - special.gammaln(1.0 - s)
        )
    return float(np.exp(logt).sum())


def _quad(fn, lo, hi):
    from scipy import integrate
    with warnings.catch_warnings():
        warnings.simplefilter("error", integrate.IntegrationWarning)
        try:
            val, err = integrate.quad(fn, lo, hi, epsabs=QUAD_ABS_TOL, limit=200)
        except integrate.IntegrationWarning as exc:
            raise OracleError(f"quadrature did not converge: {exc}") from exc
    if not math.isfinite(val):
        raise OracleError("quadrature returned a non-finite value")
    return val


def _beta_jump_integral(c, r):
    # int_0^1 pi^r c pi^(-1)(1-pi)^(c-1) dpi; substituting u = (1-pi)^c
    # removes the pi=1 singularity for c < 1 and leaves a bounded integrand
    if r == 1:
        return _quad(lambda u: 1.0, 0.0, 1.0)
    inv_c = 1.0 / c
    return _quad(lambda u: (1.0 - u**inv_c) ** (r - 1), 0.0, 1.0)


def _gamma_jump_integral(theta, r):
    # int_0^inf p^r p^(-1) e^(-p/theta) dp, bounded at 0 for r >= 1
    return _quad(lambda p: p ** (r - 1) * math.exp(-p / theta), 0.0, np.inf)


def _stable_jump_integral(c, s, r):
    const = math.exp(_stable_log_norm(c, s))

    def fn(pi):
        return const * pi ** (r - s - 1.0) * (1.0 - pi) ** (c + s - 1.0)

    return _quad(fn, 0.0, 1.0)


def _generalized_jump_integral(theta, s, r):
    from scipy import special
    lconst = -special.gammaln(1.0 - s)

    def fn(p):
        return math.exp(lconst - p / theta) * p ** (r - s - 1.0)

    return _quad(fn, 0.0, np.inf)


def moment_oracle(family: str, params, A=None, r: int = 1) -> float:
    """E (r=1) or Var (r=2) of the untruncated process mass on A.

    ``params`` is the process parameter object (beta or gamma flavor);
    the jump integral runs by adaptive quadrature per distinct parameter
    value and the location integral is exact cell arithmetic.  A Poisson
    integral's r-th cumulant is int_A int p^r nu, so r=2 is a variance.
    """
    if r not in (1, 2):
        raise ValueError("moment order must be 1 or 2")
    if family == "beta":
        return _cellwise_moment(
            params.base, params.concentration, A,
            lambda v: _beta_jump_integral(v, r),
        )
    if family == "stable-beta":
        s = params.sigma
        return _cellwise_moment(
            params.base.base, params.base.concentration, A,
            lambda v: _stable_jump_integral(v, s, r),
        )
    if family == "gamma":
        return _cellwise_moment(
            params.base, params.scale, A, lambda t: _gamma_jump_integral(t, r)
        )
    if family == "generalized-gamma":
        s = params.sigma
        return _cellwise_moment(
            params.base.base, params.base.scale, A,
            lambda t: _generalized_jump_integral(t, s, r),
        )
    if family == "symmetric-gamma":
        if r == 1:
            # the signed density is even, so the first moment vanishes
            return 0.0
        return 2.0 * _cellwise_moment(
            params.base, params.scale, A, lambda t: _gamma_jump_integral(t, r)
        )
    raise ValueError(f"unknown family {family!r}")


def _cellwise_moment(base, fn, A, jump_integral):
    """int_A jump_integral(fn(w)) base(dw), one quadrature per distinct value."""
    cache = {}

    def jvals(values):
        out = np.empty_like(values, dtype=np.float64)
        for i, v in enumerate(values.flat):
            if v not in cache:
                cache[v] = jump_integral(float(v))
            out.flat[i] = cache[v]
        return out

    return base.integral_against(fn.map(jvals), A)


class KSResult(NamedTuple):
    statistic: float
    critical_value: float
    n: int

    @property
    def passed(self) -> bool:
        return self.statistic < self.critical_value


# cephes constants of the igam route: MACHEP is 2**-53, MAXLOG is log(DBL_MAX)
_MACHEP = 1.11022302462515654042e-16
_MAXLOG = 7.09782712893383996843e2
_CF_BIG = 4.503599627370496e15
_CF_BIGINV = 2.22044604925031308085e-16
# at shape 2: 2 + lanczos_g - 0.5, and sqrt(that / e) / lanczos_sum_expg_scaled(2)
_LANCZOS_DIV = 7.524680040776729583740234375
_LANCZOS_SCALE = 7.662793320009829


def gamma2_cdf(x: float) -> float:
    """The Gamma(2, 1) CDF at one ``x >= 0``, bit for bit ``gammainc(2, x)``.

    A scalar port of the cephes ``igam`` route that ``scipy.special.gammainc``
    takes at shape 2: the power series (DLMF 8.11.4) up to ``x = 2`` and
    one minus the continued fraction (DLMF 8.9.2) above it, each times the
    prefactor ``x^2 e^-x``, taken through the Lanczos form where ``x`` is
    within 0.8 of 2.  It uses libm through ``math``, whose ``exp`` and
    ``log`` are the ones cephes calls, so ``gamma-marginal`` needs no scipy.
    """
    if x == 0.0:
        return 0.0
    if x == math.inf:
        return 1.0
    if abs(2.0 - x) > 0.8:
        t = 2.0 * math.log(x) - x  # less cephes lgam(2), which is 0
        fac = 0.0 if t < -_MAXLOG else math.exp(t)
    else:
        fac = _LANCZOS_SCALE * (math.exp(2.0 - x) * math.pow(x / _LANCZOS_DIV, 2.0))
    if x > 2.0:
        if fac == 0.0:
            return 1.0
        y = 1.0 - 2.0  # 1 - a
        z = x + y + 1.0
        c = 0.0
        pkm2, qkm2, pkm1, qkm1 = 1.0, x, x + 1.0, z * x
        ans = pkm1 / qkm1
        for _ in range(2000):
            c += 1.0
            y += 1.0
            z += 2.0
            yc = y * c
            pk = pkm1 * z - pkm2 * yc
            qk = qkm1 * z - qkm2 * yc
            if qk != 0.0:
                r = pk / qk
                t = abs((ans - r) / r)
                ans = r
            else:
                t = 1.0
            pkm2, pkm1, qkm2, qkm1 = pkm1, pk, qkm1, qk
            if abs(pk) > _CF_BIG:
                pkm2 *= _CF_BIGINV
                pkm1 *= _CF_BIGINV
                qkm2 *= _CF_BIGINV
                qkm1 *= _CF_BIGINV
            if t <= _MACHEP:
                break
        return 1.0 - ans * fac
    if fac == 0.0:
        return 0.0
    r, c, ans = 2.0, 1.0, 1.0
    for _ in range(2000):
        r += 1.0
        c *= x / r
        ans += c
        if c <= _MACHEP * ans:
            break
    return ans * fac / 2.0


def ks_distance(samples, cdf) -> KSResult:
    """Sup-norm distance between the empirical CDF and a reference CDF.

    The companion critical value is the large-sample one-sample bound
    sqrt(ln(2/a)/2)/sqrt(n) at significance a = ``KS_SIGNIFICANCE``.
    """
    x = np.sort(np.asarray(samples, dtype=np.float64))
    # below 4 samples the critical value is at least 1, which no statistic
    # (at most 1) reaches: such a test could not fail
    n = _integer(x.size, "KS sample size", 4)
    f = np.asarray(cdf(x), dtype=np.float64)
    grid = np.arange(1, n + 1, dtype=np.float64) / n
    d_plus = float(np.max(grid - f))
    d_minus = float(np.max(f - (grid - 1.0 / n)))
    stat = max(d_plus, d_minus)
    crit = math.sqrt(math.log(2.0 / KS_SIGNIFICANCE) / 2.0) / math.sqrt(n)
    return KSResult(statistic=stat, critical_value=crit, n=n)


class ChiSquareResult(NamedTuple):
    statistic: float
    critical_value: float
    dof: int

    @property
    def passed(self) -> bool:
        return self.statistic < self.critical_value


def chi_square_gof(counts, probs) -> ChiSquareResult:
    """Pearson chi-square against given cell probabilities, at significance
    ``CHI2_SIGNIFICANCE``."""
    from scipy import stats
    obs = np.asarray(counts, dtype=np.float64)
    p = np.asarray(probs, dtype=np.float64)
    if obs.shape != p.shape or obs.ndim != 1 or obs.size < 2:
        raise ValueError("counts and probs must be matching vectors, length >= 2")
    if abs(p.sum() - 1.0) > 1e-12 or np.any(p <= 0.0):
        raise ValueError("probs must be positive and sum to 1")
    exp = obs.sum() * p
    stat = float(np.sum((obs - exp) ** 2 / exp))
    dof = obs.size - 1
    crit = float(stats.chi2.ppf(1.0 - CHI2_SIGNIFICANCE, dof))
    return ChiSquareResult(statistic=stat, critical_value=crit, dof=dof)


class MomentSummary(NamedTuple):
    mean: float
    variance: float
    se_mean: float
    se_variance: float
    n: int


def monte_carlo_moments(values) -> MomentSummary:
    """Sample mean/variance with standard errors for both.

    The variance uses the unbiased n-1 divisor; its standard error comes
    from the fourth central moment, Var(s^2) ~ (m4 - (n-3)/(n-1) s^4)/n.
    """
    x = np.asarray(values, dtype=np.float64)
    if x.ndim != 1 or x.size < 2:
        raise ValueError("need at least 2 replica values")
    n = x.size
    mean = float(x.mean())
    var = float(x.var(ddof=1))
    centered = x - mean
    m4 = float(np.mean(centered**4))
    var_of_var = (m4 - (n - 3.0) / (n - 1.0) * var * var) / n
    return MomentSummary(
        mean=mean,
        variance=var,
        se_mean=math.sqrt(var / n),
        se_variance=math.sqrt(max(var_of_var, 0.0)),
        n=n,
    )


class GatePoint(NamedTuple):
    jump: float
    target: float
    printed: float
    corrected: float
    rel_err_printed: float
    rel_err_corrected: float
    printed_ok: bool
    corrected_ok: bool


class GateReport(NamedTuple):
    """Printed vs corrected generalized-gamma sums against the target.

    The printed component weights do not reproduce the displayed density
    (see gamma module notes); this report records the per-point status
    of both variants plus the best-fit constant multiplier
    exp(mean(log(target/printed))), and is informational: it never fails
    a verification run.
    """

    sigma: float
    theta: float
    K: int
    H: int
    fitted_constant: float
    max_rel_err_printed: float
    max_rel_err_corrected: float
    printed_all_ok: bool
    corrected_all_ok: bool
    points: tuple = ()


def generalized_gamma_gate(sigma, grid=None) -> GateReport:
    """The gate at scale ``GATE_THETA`` and truncation ``GATE_K``, ``GATE_H``,
    on ``grid`` (default 50 jumps from 0.05 to 5)."""
    if grid is None:
        grid = np.linspace(0.05, 5.0, 50)
    theta, K, H = GATE_THETA, GATE_K, GATE_H
    pts = []
    ratios = []
    for p in np.asarray(grid, dtype=np.float64):
        target = levy_density(
            "generalized-gamma", {"theta": theta, "sigma": sigma}, p
        )
        printed = decomposition_density_partial_sum(
            "generalized-gamma", {"theta": theta, "sigma": sigma}, p, K, H
        ).value
        corrected = decomposition_density_partial_sum(
            "generalized-gamma",
            {"theta": theta, "sigma": sigma, "corrected": True},
            p,
            K,
            H,
        ).value
        rp = abs(printed - target) / target
        rc = abs(corrected - target) / target
        ratios.append(math.log(target / printed))
        pts.append(
            GatePoint(
                jump=float(p),
                target=target,
                printed=printed,
                corrected=corrected,
                rel_err_printed=rp,
                rel_err_corrected=rc,
                printed_ok=rp < GATE_PRINTED_TOL,
                corrected_ok=rc < GATE_CORRECTED_TOL,
            )
        )
    return GateReport(
        sigma=float(sigma),
        theta=float(theta),
        K=int(K),
        H=int(H),
        fitted_constant=math.exp(float(np.mean(ratios))),
        max_rel_err_printed=max(pt.rel_err_printed for pt in pts),
        max_rel_err_corrected=max(pt.rel_err_corrected for pt in pts),
        printed_all_ok=all(pt.printed_ok for pt in pts),
        corrected_all_ok=all(pt.corrected_ok for pt in pts),
        points=tuple(pts),
    )
