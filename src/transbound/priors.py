"""Data-dependent priors built from the unlabelled full sample.

Seeing the full sample before labels arrive lets the prior concentrate on
hypotheses that a compression scheme or a clustering sweep could actually
output.  Two constructions live here:

* a uniform mixture over compression sizes tau = 1..m, each sub-prior
  uniform over the (worst case) 2^tau * C(m+u, tau) dichotomies of
  tau-subsets, and
* per-cluster-count sub-priors p_tau(h) = 2^-tau mixed uniformly over
  tau = 1..c (times 1/k for an ensemble of k clusterers).

Each construction exposes the complexity term ln(1/p(h)) its bound consumes,
in both the published form and the tighter form the mass actually implies.
"""

from dataclasses import dataclass
import math

import numpy as np

from .hypergeom import HypergeomSpec, log_binomial
from .records import BoundValue, _check_choice, _check_probability, _check_size, _check_unit

_LN2 = math.log(2.0)


@dataclass(frozen=True)
class CompressionPrior:
    """Mixture prior over compression sizes for an m + u point full sample."""

    m: int
    u: int
    max_tau: int | None = None

    def __post_init__(self):
        HypergeomSpec(self.m, self.u, 0)  # validates m and u
        tau = self.m if self.max_tau is None else self.max_tau
        object.__setattr__(self, "max_tau", tau)
        if not 1 <= tau <= self.m:
            raise ValueError("max_tau must lie in 1..m")

    def log_subprior_size(self, tau: int) -> float:
        """ln of the worst-case dichotomy count 2^tau C(m+u, tau)."""
        if not 1 <= tau <= self.max_tau:
            raise ValueError("tau out of range")
        return tau * _LN2 + log_binomial(self.m + self.u, tau)

    def log_mass(self, s: int) -> float:
        """ln of the mixture mass guaranteed to one size-s hypothesis."""
        return -(math.log(self.max_tau) + self.log_subprior_size(s))


@dataclass(frozen=True)
class ClusteringPrior:
    """Sub-priors 2^-tau over cluster labelings, mixed over tau = 1..c."""

    c: int
    k_ensemble: int = 1

    def __post_init__(self):
        if self.c < 1:
            raise ValueError("cluster budget c must be >= 1")
        clustering_complexity(1, self.c, self.k_ensemble)  # validates k_ensemble

    def log_inverse_mass(self, tau: int) -> float:
        """ln(1/p(h)) for a hypothesis constant on tau clusters."""
        return clustering_complexity(tau, self.c, self.k_ensemble, variant="exact")


def compression_complexity(s: int, m: int, u: int, variant: str = "relaxed") -> float:
    """Complexity ln(m / p_s(h)) of a hypothesis with compression size s.

    ``relaxed`` is the closed form s ln(2e(m+u)/s) + ln m obtained from
    C(m+u, s) <= (e(m+u)/s)^s; ``exact`` is ln m + s ln 2 + ln C(m+u, s).
    """
    if not 1 <= s <= m:
        raise ValueError("compression size must lie in 1..m")
    if variant == "relaxed":
        return s * math.log(2.0 * math.e * (m + u) / s) + math.log(m)
    if variant == "exact":
        return math.log(m) + s * _LN2 + log_binomial(m + u, s)
    raise ValueError(f"unknown variant {variant!r}")


def _serfling_bound(emp_risk: float, complexity: float, m: int, u: int, delta: float,
                    denom: float, name: str) -> BoundValue:
    """R + sqrt((m+u)/u (u+1)/u (complexity + ln(1/delta)) / denom), binary loss."""
    _check_probability("delta", delta)
    _check_unit("emp_risk", emp_risk)
    _check_size("m", m)
    _check_size("u", u)
    comp = complexity + math.log(1.0 / delta)
    raw = emp_risk + math.sqrt((m + u) / u * (u + 1) / u * comp / denom)
    return BoundValue(raw=raw, clamped=min(raw, 1.0), name=name)


def compression_bound(emp_risk: float, s: int, m: int, u: int, delta: float,
                      variant: str = "derived") -> BoundValue:
    """Test-risk bound for a compression scheme with observed size s.

    ``printed`` divides the complexity by m; ``derived`` substitutes it into
    the Serfling-type bound verbatim, dividing by 2m, and is tighter by
    exactly sqrt(2).
    """
    _check_choice("variant", variant, ("printed", "derived"))
    return _serfling_bound(emp_risk, compression_complexity(s, m, u, "relaxed"), m, u, delta,
                           float(m) if variant == "printed" else 2.0 * m,
                           f"compression_{variant}")


def clustering_complexity(tau: int, c: int, k_ensemble: int = 1,
                          variant: str = "exact") -> float:
    """Complexity term of a tau-cluster labeling, without the ln(1/delta) part.

    ``printed``: tau + ln(kc); ``exact``: tau ln 2 + ln(kc), which equals
    ln(1/p(h)) for the mass p(h) = 2^-tau / (kc).
    """
    if not 1 <= tau <= c:
        raise ValueError("tau must lie in 1..c")
    if k_ensemble < 1:
        raise ValueError("ensemble size must be >= 1")
    if variant == "printed":
        return tau + math.log(k_ensemble * c)
    if variant == "exact":
        return tau * _LN2 + math.log(k_ensemble * c)
    raise ValueError(f"unknown variant {variant!r}")


def clustering_bound(emp_risk: float, tau: int, c: int, m: int, u: int, delta: float,
                     k_ensemble: int = 1, variant: str = "exact") -> BoundValue:
    """Test-risk bound for the cluster-then-label hypothesis on tau clusters."""
    return _serfling_bound(emp_risk, clustering_complexity(tau, c, k_ensemble, variant),
                           m, u, delta, 2.0 * m, f"clustering_{variant}")


def compression_mixture_log_total(m: int, u: int) -> float:
    """ln of the compression mixture's total mass, all terms kept in log space.

    Sums |H_tau| * p(h) over tau, with |H_tau| = 2^tau C(m+u, tau) and p(h)
    the mass ``CompressionPrior.log_mass`` gives a size-tau hypothesis; the
    result should be ln 1 = 0 up to rounding.
    """
    prior = CompressionPrior(m=m, u=u)
    terms = [prior.log_subprior_size(tau) + prior.log_mass(tau) for tau in range(1, m + 1)]
    return float(np.logaddexp.reduce(terms))


def clustering_mixture_total(c: int) -> float:
    """Total mass of the clustering prior: sum of 2^tau * exp(-``log_inverse_mass(tau)``).

    Each term is exp(tau ln 2 - ``log_inverse_mass(tau)``), so 2^tau is never
    a float and no c overflows; a prior that charges other than tau ln 2 per
    cluster moves the total away from 1.
    """
    prior = ClusteringPrior(c=c)
    return sum(math.exp(tau * _LN2 - prior.log_inverse_mass(tau)) for tau in range(1, c + 1))
