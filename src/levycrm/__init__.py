"""Round-decomposed simulation of beta and gamma completely random measures.

The library splits improper beta/gamma Levy measures into countably many
proper components ("rounds", and "sub-rounds" for the gamma family),
simulates each component as a finite-rate Poisson process, bounds what
truncation throws away, performs conjugate beta-process posterior
updates, and ships independent numerical oracles that verify every
decomposition against its closed-form density.

Modules
-------
streams     counter-based splittable random streams
measures    domains, piecewise-constant functions, base/point measures
beta        beta-process rounds, stable-beta variant, feature-count limit
gamma       gamma-process sub-rounds, symmetric and generalized variants
truncation  L1/marginal truncation bounds and atom-count budgets
posterior   beta-process conjugate update and posterior resampling
verify      densities, partial sums, quadrature moments, KS/chi-square
cli         command-line front end (simulate / truncation-table /
            posterior / verify)

``verify`` and its re-exported names load on first access, so that
importing the package (and the CLI) does not import scipy.
"""

__version__ = "0.1.0"

from . import beta, gamma, measures, posterior, streams, truncation
from .beta import (
    BetaProcessParams,
    BetaRound,
    StableBetaParams,
    cumulative_round_moments,
    ibp_levy_density,
    round_measure,
    simulate_beta_process,
    simulate_round,
    stable_round_measure,
)
from .gamma import (
    GammaProcessParams,
    GammaSubround,
    GeneralizedGammaParams,
    generalized_subround,
    generalized_weight_correction,
    simulate_gamma_process,
    simulate_subround,
    simulate_symmetric_gamma,
    subround_rate,
    subround_spec,
    symmetric_variance,
)
from .measures import (
    BaseMeasure,
    Domain,
    DomainError,
    OracleError,
    PiecewiseConst,
    PointMeasure,
    UnsupportedParameterError,
    WeightedAtom,
    sample_locations,
)
from .posterior import (
    InvalidPriorError,
    ObservationSet,
    PosteriorBetaParams,
    posterior_params,
    resample_observed_jump,
    resample_observed_jumps,
    resample_truncated_expectation,
    sample_bernoulli_data,
    sample_new_jump,
    sample_new_jumps,
)
from .streams import RandomStream
from .truncation import (
    TruncationReport,
    beta_l1_error,
    beta_marginal_bound,
    beta_truncation_report,
    crossover_ranges,
    expected_atoms_and_round_budget,
    gamma_expected_atoms,
    gamma_l1_error,
    gamma_truncation_report,
    stick_breaking_bounds,
    stick_breaking_report,
)

_VERIFY_NAMES = frozenset(
    {
        "ChiSquareResult",
        "GateReport",
        "KSResult",
        "MomentSummary",
        "PartialSum",
        "VerificationReport",
        "chi_square_gof",
        "decomposition_density_partial_sum",
        "generalized_gamma_gate",
        "ks_distance",
        "levy_density",
        "make_report",
        "moment_oracle",
        "monte_carlo_moments",
    }
)


def __getattr__(name):
    # PEP 562: import verify (and with it scipy) only when it is asked for.
    if name == "verify" or name in _VERIFY_NAMES:
        from importlib import import_module

        verify = import_module(".verify", __name__)
        return verify if name == "verify" else getattr(verify, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# round_mean_and_variance exists in both beta and gamma flavors; use the
# module-qualified names to keep the pair unambiguous.
