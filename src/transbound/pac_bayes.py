"""Explicit PAC-Bayesian risk bounds for transduction.

Every bound here controls the test risk of a classifier chosen after seeing
the labelled half of a fixed full sample, in terms of its training risk, a
complexity term (a KL divergence to a sample-dependent prior for Gibbs
classifiers, or the log inverse prior mass for deterministic ones) and the
confidence parameter.  Two bounding routes appear throughout: reduction to
independence (Hoeffding) and direct without-replacement inequalities
(Serfling for general bounded losses, a counting bound for binary losses);
the direct route trades a sqrt((m+u)/u) factor for the reduction route's
(m+u)/u and stays meaningful even for a single test point.

``BOUNDS`` is the one map from a bound's name to its formula, written once
over arrays of empirical risks, the implicit Vapnik-style bounds included;
``det_bound``, ``gibbs_bound`` and ``evaluate_bound`` read it at one point.
"""

from dataclasses import dataclass
from functools import partial
import math

import numpy as np
from scipy.special import rel_entr

from .hypergeom import (_envelopes, _epsilon_star, _log_inverse, _vapnik_raw,
                        epsilon_star, vapnik_bound)
from .priors import _serfling_raw
from .records import (BoundValue, _check_choice, _check_mass, _check_nonnegative,
                      _check_positive, _check_probability, _check_size, _check_unit)

EVAL_BOUNDS = ("vapnik_relative", "vapnik_absolute", "serfling", "det_reduction", "det_direct",
               "gibbs_reduction", "gibbs_direct")

__all__ = [
    "BOUNDS",
    "BoundInputs",
    "BoundValue",
    "EVAL_BOUNDS",
    "GibbsEnsemble",
    "det_bound",
    "evaluate_bound",
    "full_to_test",
    "gibbs_bound",
    "gibbs_raw",
    "gibbs_risk",
    "graepel_inductive_bound",
    "invert_self_bounding",
    "kl_divergence",
    "risk_mix",
]


@dataclass(frozen=True)
class BoundInputs:
    """Arguments shared by every explicit bound.

    Exactly one of ``prior_mass`` (deterministic bounds) and ``kl_value``
    (Gibbs bounds) must be given.  ``m`` >= 2 is enforced by the variants
    that divide by m - 1, not here, because the Serfling-type bound is
    valid for m = 1.  Every float must be finite.
    """

    m: int
    u: int
    delta: float
    emp_risk: float
    prior_mass: float | None = None
    kl_value: float | None = None
    loss_bound: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "m", _check_size("m", self.m))
        object.__setattr__(self, "u", _check_size("u", self.u))
        _check_probability("delta", self.delta)
        _check_positive("loss_bound", self.loss_bound)
        if not 0.0 <= self.emp_risk <= self.loss_bound:
            raise ValueError(f"emp_risk must lie in [0, loss_bound], got {self.emp_risk}")
        if (self.prior_mass is None) == (self.kl_value is None):
            raise ValueError("exactly one of prior_mass and kl_value must be set")
        if self.prior_mass is not None:
            _check_mass("prior_mass", self.prior_mass)
        if self.kl_value is not None:
            _check_nonnegative("kl_value", self.kl_value)


@dataclass(frozen=True)
class GibbsEnsemble:
    """Finite hypothesis set (full-sample labelings) with prior and posterior."""

    hypotheses: np.ndarray  # (n_hyp, n_points), entries +-1
    posterior: np.ndarray
    prior: np.ndarray

    def __post_init__(self):
        n_hyp = self.hypotheses.shape[0]
        for name, vec in (("posterior", self.posterior), ("prior", self.prior)):
            if vec.shape != (n_hyp,):
                raise ValueError(f"{name} length must match hypothesis count")
            if abs(float(vec.sum()) - 1.0) > 1e-12:
                raise ValueError(f"{name} must sum to 1")
            if (vec < 0).any():
                raise ValueError(f"{name} must be nonnegative")


def full_to_test(full_excess: float, m: int, u: int) -> float:
    """Convert a finite bound excess over the full-sample risk into one over the test risk."""
    if not math.isfinite(full_excess):
        raise ValueError(f"full_excess must be finite, got {full_excess}")
    m = _check_size("m", m)
    u = _check_size("u", u)
    return (m + u) / u * full_excess


def risk_mix(r_m: float, r_u: float, m: int, u: int) -> float:
    """Full-sample risk as the exact convex mixture of train and test risks."""
    _check_unit("r_m", r_m)
    _check_unit("r_u", r_u)
    m = _check_size("m", m)
    u = _check_size("u", u)
    return (m * r_m + u * r_u) / (m + u)


def invert_self_bounding(a: float, b: float) -> float:
    """Upper bound a + b + sqrt(ab) for any z satisfying z <= a + sqrt(z b), a and b finite >= 0."""
    _check_nonnegative("a", a)
    _check_nonnegative("b", b)
    return a + b + math.sqrt(a * b)


def kl_divergence(posterior: np.ndarray, prior: np.ndarray) -> float | np.ndarray:
    """D(q||p) over the first axis, 0 ln 0 := 0, +inf where p = 0 < q: a float for two vectors,
    one value per column for a (hypotheses, trials) posterior against ``prior[:, None]``."""
    kl = rel_entr(posterior, prior).sum(axis=0)
    return float(kl) if kl.ndim == 0 else kl


def _reduction_complexity(kl_value, m: int, delta: float):
    return kl_value + math.log(m / delta)


def _direct_complexity(kl_value, m: int, u: int, delta: float):
    # the 7 ln(m+u+1) slack comes from the counting bound behind this route
    return kl_value + math.log(m / delta) + 7.0 * math.log(m + u + 1.0)


def gibbs_raw(variant: str, emp_risk, kl_value, m: int, u: int, delta: float):
    """Raw Gibbs bound, elementwise over arrays of empirical risks and KL values.

    ``reduction``:
        R + ((m+u)/u) (sqrt(2 R K / (m-1)) + 2 K / (m-1)),  K = D + ln(m/delta)
    ``direct`` (binary loss):
        R + sqrt((2 R (m+u)/u) T / (m-1)) + 2 T / (m-1),
        T = D + ln(m/delta) + 7 ln(m+u+1)
    """
    m = _check_size("m", m, 2)
    u = _check_size("u", u)
    r = emp_risk
    if variant == "reduction":
        k = _reduction_complexity(kl_value, m, delta)
        return r + (m + u) / u * (np.sqrt(2.0 * r * k / (m - 1)) + 2.0 * k / (m - 1))
    if variant == "direct":
        t = _direct_complexity(kl_value, m, u, delta)
        return r + np.sqrt(2.0 * r * (m + u) / u * t / (m - 1)) + 2.0 * t / (m - 1)
    raise ValueError(f"unknown variant {variant!r}")


def _serfling(emp_risk, log_inv_p: float, m: int, u: int, delta: float,
              loss_bound: float = 1.0):
    """R + B sqrt(((m+u)/u) ((u+1)/u) (ln(1/p) + ln(1/delta)) / (2m)) for a loss range B,
    valid for any m >= 1; ``log_inv_p`` stays finite even where the mass p underflows."""
    comp = (log_inv_p + math.log(1.0 / delta)) / (2.0 * m)
    return emp_risk + loss_bound * math.sqrt((m + u) / u * (u + 1) / u * comp)


def _vapnik(variant: str, emp_risk, log_inv_p: float, m: int, u: int, delta: float):
    star = _epsilon_star(log_inv_p, delta, _envelopes(m, u, (variant,))[variant], variant)
    return _vapnik_raw(variant, emp_risk, star.value, m, u)


# Every name ``eval``, ``transduce`` and ``validate`` accept, mapped to the raw bound
# f(emp_risk, complexity, m, u, delta) of one hypothesis, elementwise over empirical risks.
# The complexity is ln(1/p), or D(q||p) for ``gibbs_*`` and tau + ln(kc) for
# ``serfling_printed``; ``vapnik_*`` invert the exact tail at ln(1/p), never at the mass.
# ``det_*`` are the ``gibbs_*`` forms with D replaced by ln(1/p).  Only ``serfling`` takes
# a loss range B; the others are stated for binary losses.
BOUNDS = {
    "vapnik_relative": partial(_vapnik, "relative"),
    "vapnik_absolute": partial(_vapnik, "absolute"),
    "serfling": _serfling,
    # the ``serfling`` bound with the operations in another order: the last bit may differ
    **dict.fromkeys(("serfling_printed", "serfling_exact"), _serfling_raw),
    **dict.fromkeys(("det_reduction", "gibbs_reduction"), partial(gibbs_raw, "reduction")),
    **dict.fromkeys(("det_direct", "direct", "gibbs_direct"), partial(gibbs_raw, "direct")),
}


def _scored(name: str, inputs: BoundInputs) -> BoundValue:
    """``BOUNDS[name]`` at one checked point, charging D(q||p) for ``gibbs_*`` and ln(1/p)
    for the rest."""
    gibbs = name.startswith("gibbs_")
    if (inputs.kl_value if gibbs else inputs.prior_mass) is None:
        raise ValueError(f"{name} needs {'kl_value' if gibbs else 'prior_mass'} complexity")
    formula = BOUNDS[name]
    if name == "serfling":
        formula = partial(formula, loss_bound=inputs.loss_bound)
    elif inputs.loss_bound != 1.0:
        raise ValueError(f"{name} is stated for binary (B = 1) losses")
    complexity = inputs.kl_value if gibbs else _log_inverse(inputs.prior_mass)
    raw = formula(inputs.emp_risk, complexity, inputs.m, inputs.u, inputs.delta)
    return BoundValue(raw=float(raw), name=name, loss_bound=inputs.loss_bound)


def gibbs_bound(inputs: BoundInputs, variant: str = "direct") -> BoundValue:
    """Test-risk bound for a Gibbs classifier with complexity D(q||p); see ``gibbs_raw``."""
    _check_choice("variant", variant, ("reduction", "direct"))
    return _scored(f"gibbs_{variant}", inputs)


def det_bound(inputs: BoundInputs, variant: str = "serfling") -> BoundValue:
    """Test-risk bound for a deterministic classifier with prior mass p(h): ``serfling``,
    or ``reduction`` and ``direct``, the Gibbs forms with D replaced by ln(1/p)."""
    _check_choice("variant", variant, ("serfling", "reduction", "direct"))
    return _scored("serfling" if variant == "serfling" else f"det_{variant}", inputs)


def evaluate_bound(name: str, m: int, u: int, delta: float, emp_risk: float,
                   prior_mass: float = 1.0, kl_value: float = 0.0,
                   loss_bound: float = 1.0) -> BoundValue:
    """One bound from ``EVAL_BOUNDS`` at one point.

    The ``vapnik_*`` bounds invert the exact worst-case tail at the prior
    mass, ``serfling``/``det_*`` charge ln(1/prior_mass) and ``gibbs_*``
    charge ``kl_value``.  ``loss_bound`` scales ``serfling`` only: the
    binary-loss bounds reject any other value and ``vapnik_*`` ignores it.
    """
    _check_choice("bound", name, EVAL_BOUNDS)
    family, _, variant = name.partition("_")
    if family == "vapnik":
        star = epsilon_star(prior_mass, delta, m, u, variant)
        return vapnik_bound(emp_risk, star, m, u)
    complexity = {"kl_value": kl_value} if family == "gibbs" else {"prior_mass": prior_mass}
    return _scored(name, BoundInputs(m=m, u=u, delta=delta, emp_risk=emp_risk,
                                     loss_bound=loss_bound, **complexity))


def gibbs_risk(ensemble: GibbsEnsemble, target: np.ndarray, subset) -> float:
    """Posterior-expected 0/1 error of the ensemble over the given point ids."""
    idx = np.asarray(list(subset), dtype=int)
    if idx.size == 0:
        raise ValueError("subset must be nonempty")
    errs = (ensemble.hypotheses[:, idx] != np.asarray(target)[idx]).mean(axis=1)
    return float(np.dot(ensemble.posterior, errs))


def graepel_inductive_bound(emp_risk: float, m: int, s: int, delta: float) -> BoundValue:
    """Inductive compression-scheme baseline with s observed support vectors.

    (m/(m-s)) R + sqrt((s ln(2em/s) + ln(1/delta) + 2 ln m) / (2(m-s))),
    with the s ln(2em/s) term read as 0 at s = 0.
    """
    m = _check_size("m", m)
    s = _check_size("s", s, 0, m - 1)
    _check_unit("emp_risk", emp_risk)
    _check_probability("delta", delta)
    s_term = 0.0 if s == 0 else s * math.log(2.0 * math.e * m / s)
    raw = m / (m - s) * emp_risk + math.sqrt(
        (s_term + math.log(1.0 / delta) + 2.0 * math.log(m)) / (2.0 * (m - s))
    )
    return BoundValue(raw=raw, name="graepel_inductive")
