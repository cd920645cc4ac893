"""Reference totals of the two mixture priors, for the mass-accounting tests.

Each sums the masses a prior hands out over its hypotheses; a prior that
accounts correctly totals exactly 1.
"""

import math

import numpy as np

from transbound.hypergeom import log_binomial
from transbound import priors
from transbound.priors import compression_complexity

_LN2 = math.log(2.0)


def compression_mixture_log_total(m: int, u: int) -> float:
    """ln of the compression mixture's total mass, all terms kept in log space.

    Sums |H_tau| * p(h) over tau = 1..m, with |H_tau| = 2^tau C(m+u, tau) the
    worst-case dichotomy count and ln p(h) = -``compression_complexity(tau, m,
    u, "exact")`` the mass a size-tau hypothesis is charged; the result should
    be ln 1 = 0 up to rounding.
    """
    terms = [tau * _LN2 + log_binomial(m + u, tau) - compression_complexity(tau, m, u, "exact")
             for tau in range(1, m + 1)]
    return float(np.logaddexp.reduce(terms))


def clustering_mixture_total(c: int) -> float:
    """Total mass of the clustering prior: sum of 2^tau * exp(-``clustering_complexity``).

    Each term is exp(tau ln 2 - ``clustering_complexity(tau, c)``), the exact
    ln(1/p(h)) of one clusterer, so 2^tau is never a float and no c
    overflows; a prior that charges other than tau ln 2 per cluster moves the
    total away from 1.  The complexity is read from the module, where a test
    may replace it.
    """
    return sum(math.exp(tau * _LN2 - priors.clustering_complexity(tau, c))
               for tau in range(1, c + 1))
