"""Closed-form tail bounds for the mean of a sample drawn without replacement.

Three bounds on Pr{Z - EZ >= eps} for the mean Z of m draws without
replacement from a finite population: the Hoeffding reduction-to-independence
bound (KL and squared forms), Serfling's sharpening by the factor
N/(N - m + 1), and a counting-argument bound for binary populations that also
sees the untouched part of the population.  Plus the binary entropy /
divergence helpers they are built from.

All logarithms are natural, including the 7*ln(N+1) slack of the counting
bound.
"""

from dataclasses import dataclass
import math

from .records import _check_choice, _check_nonnegative, _check_positive, _check_size, _check_unit


@dataclass(frozen=True)
class PopulationSummary:
    """Finite population described by its size, mean and finite positive loss range."""

    n_total: int
    mean: float
    loss_bound: float = 1.0
    binary: bool = False

    def __post_init__(self):
        _check_size("n_total", self.n_total)
        _check_positive("loss_bound", self.loss_bound)
        if not 0.0 <= self.mean <= self.loss_bound:
            raise ValueError(f"mean must lie in [0, loss_bound], got {self.mean}")
        if self.binary:
            if self.loss_bound != 1.0:
                raise ValueError("binary populations have loss bound 1")
            k = self.mean * self.n_total
            if abs(k - round(k)) > 1e-9:
                raise ValueError("binary population mean must be k/N for integer k")


@dataclass(frozen=True)
class DeviationQuery:
    """Sample size and deviation threshold for one tail query; ``eps`` is finite and >= 0."""

    m: int
    eps: float

    def __post_init__(self):
        _check_size("m", self.m)
        _check_nonnegative("eps", self.eps)


@dataclass(frozen=True)
class TailBound:
    """A tail-probability bound, clamped to [0, 1], with its log kept exact.

    ``log_value`` is the unclamped exponent, useful when two bounds must be
    compared after both underflow to 0.0.  ``valid`` is False when the bound's
    stated range condition failed, in which case value is reported as 1.
    """

    value: float
    log_value: float
    valid: bool = True


def binary_entropy(nu: float) -> float:
    """Entropy -nu*ln(nu) - (1-nu)*ln(1-nu) with the 0*ln(0) = 0 convention."""
    _check_unit("nu", nu)
    if nu in (0.0, 1.0):
        return 0.0
    return -nu * math.log(nu) - (1.0 - nu) * math.log(1.0 - nu)


def kl_binary(nu: float, mu: float) -> float:
    """Divergence nu*ln(nu/mu) + (1-nu)*ln((1-nu)/(1-mu)); +inf on a zero denominator."""
    _check_unit("nu", nu)
    _check_unit("mu", mu)
    if nu > 0.0 and mu == 0.0:
        return math.inf
    if nu < 1.0 and mu == 1.0:
        return math.inf
    out = 0.0
    if nu > 0.0:
        out += nu * math.log(nu / mu)
    if nu < 1.0:
        out += (1.0 - nu) * math.log((1.0 - nu) / (1.0 - mu))
    return out


def _clamped(log_value: float, valid: bool = True) -> TailBound:
    if not valid:
        return TailBound(value=1.0, log_value=0.0, valid=False)
    return TailBound(value=min(1.0, math.exp(min(log_value, 0.0))), log_value=log_value)


def hoeffding_bound(pop: PopulationSummary, q: DeviationQuery, form: str = "kl") -> TailBound:
    """Reduction-to-independence bound on Pr{Z - EZ >= eps}.

    ``kl`` form: exp{-m * D(c/B + eps || c/B)} with c the population mean,
    stated for eps <= 1 - c/B (eps on the B-normalised scale); outside that
    range the result is flagged invalid and reported as 1.  ``squared`` form:
    exp{-2 m eps^2 / B^2}.
    """
    _check_size("m", q.m, 1, pop.n_total)
    _check_choice("form", form, ("kl", "squared"))
    if form == "squared":
        return _clamped(-2.0 * q.m * q.eps * q.eps / (pop.loss_bound ** 2))
    ratio = pop.mean / pop.loss_bound
    if q.eps > 1.0 - ratio:
        return _clamped(0.0, valid=False)
    # roundoff can push the shifted argument a few ulp past 1
    return _clamped(-q.m * kl_binary(min(ratio + q.eps, 1.0), ratio))


def serfling_bound(pop: PopulationSummary, q: DeviationQuery) -> TailBound:
    """Without-replacement bound exp{-(2 m eps^2 / B^2) * N/(N - m + 1)}."""
    n = pop.n_total
    _check_size("m", q.m, 1, n)
    exponent = -(2.0 * q.m * q.eps * q.eps / (pop.loss_bound ** 2)) * (n / (n - q.m + 1.0))
    return _clamped(exponent)


def direct_binary_bound(pop: PopulationSummary, q: DeviationQuery) -> TailBound:
    """Counting-argument bound for binary populations.

    exp{-m D(c+eps || c) - (N-m) D(c - beta*eps/(1-beta) || c) + 7 ln(N+1)}
    with beta = m/N, valid for eps <= min(1 - c, c(1-beta)/beta); out-of-range
    eps yields a flagged result rather than an exception so curve sweeps can
    cross the validity boundary.
    """
    if not pop.binary:
        raise ValueError("counting bound requires a binary population")
    n = pop.n_total
    _check_size("m", q.m, 1, n)
    c = pop.mean
    beta = q.m / n
    if beta == 1.0:
        limit = 0.0 if c > 0 else 1.0 - c  # all points sampled: only eps = 0 makes sense
    else:
        limit = min(1.0 - c, c * (1.0 - beta) / beta)
    if q.eps > limit:
        return _clamped(0.0, valid=False)
    shifted_down = c if beta == 1.0 else max(c - beta * q.eps / (1.0 - beta), 0.0)
    exponent = (
        -q.m * kl_binary(min(c + q.eps, 1.0), c)
        - (n - q.m) * kl_binary(shifted_down, c)
        + 7.0 * math.log(n + 1.0)
    )
    return _clamped(exponent)
