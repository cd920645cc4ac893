"""Data-dependent priors built from the unlabelled full sample.

Seeing the full sample before labels arrive lets the prior concentrate on
hypotheses that a compression scheme or a clustering sweep could actually
output.  Each prior is given by the complexity term ln(1/p(h)) it charges a
hypothesis:

* ``compression_complexity``: a uniform mixture over compression sizes
  tau = 1..m, each sub-prior uniform over the (worst case) 2^tau * C(m+u, tau)
  dichotomies of tau-subsets, and
* ``clustering_complexity``: per-cluster-count sub-priors p_tau(h) = 2^-tau
  mixed uniformly over tau = 1..c (times 1/k for an ensemble of k
  clusterers).

Each comes in the published form and in the tighter form the mass actually
implies; ``compression_bound`` and ``clustering_bound`` put them into the
Serfling-type bound.
"""

import math

from .hypergeom import log_binomial
from .records import BoundValue, _check_choice, _check_probability, _check_size, _check_unit

_LN2 = math.log(2.0)


def compression_complexity(s: int, m: int, u: int, variant: str = "relaxed") -> float:
    """Complexity ln(m / p_s(h)) of a hypothesis with compression size s.

    ``relaxed`` is the closed form s ln(2e(m+u)/s) + ln m obtained from
    C(m+u, s) <= (e(m+u)/s)^s; ``exact`` is ln m + s ln 2 + ln C(m+u, s).
    """
    m = _check_size("m", m)
    s = _check_size("s", s, 1, m)
    u = _check_size("u", u)
    if variant == "relaxed":
        return s * math.log(2.0 * math.e * (m + u) / s) + math.log(m)
    if variant == "exact":
        return math.log(m) + s * _LN2 + log_binomial(m + u, s)
    raise ValueError(f"unknown variant {variant!r}")


def _serfling_raw(emp_risk, complexity: float, m: int, u: int, delta: float,
                  m_factor: float = 2.0):
    """R + sqrt((m+u)/u (u+1)/u (complexity + ln(1/delta)) / (m_factor m)), binary loss,
    elementwise over an array of empirical risks."""
    comp = complexity + math.log(1.0 / delta)
    return emp_risk + math.sqrt((m + u) / u * (u + 1) / u * comp / (m_factor * m))


def _serfling_bound(emp_risk: float, complexity: float, m: int, u: int, delta: float,
                    name: str, m_factor: float = 2.0) -> BoundValue:
    """``_serfling_raw`` at one checked point."""
    _check_probability("delta", delta)
    _check_unit("emp_risk", emp_risk)
    m = _check_size("m", m)
    u = _check_size("u", u)
    return BoundValue(raw=_serfling_raw(emp_risk, complexity, m, u, delta, m_factor), name=name)


def compression_bound(emp_risk: float, s: int, m: int, u: int, delta: float,
                      variant: str = "derived") -> BoundValue:
    """Test-risk bound for a compression scheme with observed size s.

    ``printed`` divides the complexity by m; ``derived`` substitutes it into
    the Serfling-type bound verbatim, dividing by 2m, and is tighter by
    exactly sqrt(2).
    """
    _check_choice("variant", variant, ("printed", "derived"))
    return _serfling_bound(emp_risk, compression_complexity(s, m, u, "relaxed"), m, u, delta,
                           f"compression_{variant}", 1.0 if variant == "printed" else 2.0)


def clustering_complexity(tau: int, c: int, k_ensemble: int = 1,
                          variant: str = "exact") -> float:
    """Complexity term of a tau-cluster labeling, without the ln(1/delta) part.

    ``printed``: tau + ln(kc); ``exact``: tau ln 2 + ln(kc), which equals
    ln(1/p(h)) for the mass p(h) = 2^-tau / (kc).
    """
    c = _check_size("c", c)
    tau = _check_size("tau", tau, 1, c)
    k_ensemble = _check_size("k_ensemble", k_ensemble)
    if variant == "printed":
        return tau + math.log(k_ensemble * c)
    if variant == "exact":
        return tau * _LN2 + math.log(k_ensemble * c)
    raise ValueError(f"unknown variant {variant!r}")


def clustering_bound(emp_risk: float, tau: int, c: int, m: int, u: int, delta: float,
                     k_ensemble: int = 1, variant: str = "exact") -> BoundValue:
    """Test-risk bound for the cluster-then-label hypothesis on tau clusters."""
    return _serfling_bound(emp_risk, clustering_complexity(tau, c, k_ensemble, variant),
                           m, u, delta, f"clustering_{variant}")
