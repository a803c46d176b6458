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

Names are reached through their modules (``levycrm.beta.round_measure``);
the package itself holds only the submodules.  ``verify`` loads on first
access, so that importing the package (and the CLI) does not import scipy.
"""

__version__ = "0.1.0"

from . import beta, gamma, measures, posterior, streams, truncation


def __getattr__(name):
    # PEP 562: import verify (and with it scipy) only when it is asked for.
    if name == "verify":
        from importlib import import_module

        return import_module(".verify", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
