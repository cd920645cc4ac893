"""Empirical and exhaustive verification of every probabilistic claim.

The harness draws training subsets uniformly without replacement from a
fixed full sample, exactly the randomness model every bound in this package
quantifies over.  Each trial's seed is derived from (master_seed,
trial_index) by a SplitMix64 mix, so results are independent of execution
order and partial runs merge associatively: running trials [0, a) and
[a, b) separately and summing (trials, violations) reproduces the single
run over [0, b) bit for bit.
"""

from dataclasses import dataclass
from fractions import Fraction
import math

import numpy as np

from .concentration import (
    DeviationQuery,
    PopulationSummary,
    direct_binary_bound,
    hoeffding_bound,
    serfling_bound,
)
from .hypergeom import HypergeomSpec, epsilon_star, hypergeom_pmf
from .pac_bayes import det_raw, gibbs_raw, kl_divergence
from .transduce import ALGORITHMS, BOUND_NAMES, Dataset, ensemble_sweep, label_and_select

SCENARIOS = (
    "vapnik_absolute",
    "vapnik_relative",
    "serfling",
    "direct",
    "gibbs_reduction",
    "gibbs_direct",
    "clustering",
)

# Largest cell count of one Monte-Carlo array: trials x n_total, hypotheses x
# n_total or hypotheses x trials.  Peak resident memory grew by at most 39 MB
# per 10**6 cells (gibbs_direct, hypotheses x trials from 2*10**6 to 4*10**6;
# serfling, clustering and mc-concentration grew less), so this cap keeps a run
# near 2 GB, five times the 10**5 trials x 100 points of the README example.
MAX_MC_CELLS = 50_000_000

# SplitMix64 constants (Steele, Lea & Flood's generator): the per-trial seed
# is finalize(master_seed + (trial_index + 1) * GOLDEN) over uint64.
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_MASK = (1 << 64) - 1


def splitmix64(master_seed: int, trial_index: int) -> int:
    """Order-independent 64-bit per-trial seed."""
    z = (master_seed + (trial_index + 1) * _GOLDEN) & _MASK
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK
    return z ^ (z >> 31)


def check_mc_cells(rows: int, cols: int, what: str) -> None:
    """Reject a Monte-Carlo array of rows x cols cells above ``MAX_MC_CELLS``."""
    if rows * cols > MAX_MC_CELLS:
        raise ValueError(f"{what} = {rows} x {cols} = {rows * cols} cells exceeds the "
                         f"Monte-Carlo limit of {MAX_MC_CELLS}")


@dataclass(frozen=True)
class SplitSampler:
    """Uniform m-subsets of 0..n_total-1, one independent stream per trial."""

    n_total: int
    m: int
    master_seed: int

    def __post_init__(self):
        if not 1 <= self.m < self.n_total:
            raise ValueError("need 1 <= m < n_total")


def sample_split(sampler: SplitSampler, trial_index: int) -> np.ndarray:
    """Sorted ids of the trial's training subset; pure in (seed, index)."""
    rng = np.random.Generator(np.random.PCG64(splitmix64(sampler.master_seed, trial_index)))
    return np.sort(rng.choice(sampler.n_total, size=sampler.m, replace=False))


def _split_masks(sampler: SplitSampler, trials: int, offset: int) -> np.ndarray:
    masks = np.zeros((trials, sampler.n_total), dtype=bool)
    for t in range(trials):
        masks[t, sample_split(sampler, offset + t)] = True
    return masks


@dataclass(frozen=True)
class McReport:
    """Outcome of one Monte-Carlo validity run."""

    trials: int
    violations: int
    empirical: float
    analytic: float
    tolerance: float
    passed: bool
    boundary_hits: int = 0

    def __post_init__(self):
        if self.violations > self.trials:
            raise ValueError("violations cannot exceed trials")


def _make_report(trials: int, violations: int, analytic: float,
                 boundary_hits: int = 0) -> McReport:
    empirical = violations / trials
    tolerance = 3.0 * math.sqrt(empirical * (1.0 - empirical) / trials)
    return McReport(
        trials=trials,
        violations=violations,
        empirical=empirical,
        analytic=analytic,
        tolerance=tolerance,
        passed=empirical <= analytic + tolerance,
        boundary_hits=boundary_hits,
    )


@dataclass(frozen=True)
class ConcentrationReport:
    """One grid point of an exact-vs-empirical-vs-bounds comparison."""

    eps: float
    trials: int
    exceed_count: int
    empirical: float
    exact: float
    hoeffding_kl: float
    hoeffding_squared: float
    serfling: float
    direct_binary: float
    empirical_within_tolerance: bool
    exact_below_bounds: bool


def exact_mean_upper_tail(n_total: int, ones: int, m: int, eps: float) -> float:
    """Exact Pr{sample mean - population mean >= eps} for a binary population."""
    mean = ones / n_total
    if m == n_total:
        return 1.0 if 0.0 >= eps else 0.0
    spec = HypergeomSpec(m=m, u=n_total - m, k=ones)
    total = 0.0
    for r in range(max(ones - spec.u, 0), min(m, ones) + 1):
        if r / m - mean >= eps:
            total += hypergeom_pmf(r, spec)
    return min(total, 1.0)


def _exhaustive_error_distribution(errors, m: int) -> list[int]:
    """Count subsets of each total error weight by dynamic programming.

    dist[t] = number of m-subsets of the given 0/1 vector containing exactly
    t of its ones; pure integer counting over all subsets, no closed form.
    """
    dist = [[0] * (m + 2) for _ in range(m + 1)]  # dist[j][t], t <= j
    dist[0][0] = 1
    for e in errors:
        e = int(e)
        for j in range(m, 0, -1):
            row, prev = dist[j], dist[j - 1]
            if e:
                for t in range(j, 0, -1):
                    row[t] += prev[t - 1]
            else:
                for t in range(j, -1, -1):
                    row[t] += prev[t]
    return dist[m][: m + 1]


@dataclass(frozen=True)
class UnbiasednessReport:
    subset_average: Fraction
    full_sample_rate: Fraction
    equal: bool


def check_unbiasedness(errors, m: int) -> UnbiasednessReport:
    """Exact subset-average of the training error vs the full-sample rate.

    Enumerates (by integer counting) all C(n, m) training subsets of the
    given 0/1 error vector and compares the average training error with the
    population error rate as exact rationals.
    """
    errors = [int(e) for e in errors]
    n = len(errors)
    if not 0 < m <= n:
        raise ValueError("need 1 <= m <= n")
    if n > 25:
        raise ValueError("exhaustive check limited to n <= 25; use mc_concentration")
    if any(e not in (0, 1) for e in errors):
        raise ValueError("errors must be a 0/1 vector")
    dist = _exhaustive_error_distribution(errors, m)
    n_subsets = sum(dist)
    total_errors = sum(t * c for t, c in enumerate(dist))
    lhs = Fraction(total_errors, m * n_subsets)
    rhs = Fraction(sum(errors), n)
    return UnbiasednessReport(subset_average=lhs, full_sample_rate=rhs, equal=lhs == rhs)


def mc_concentration(population, m: int, eps_grid, trials: int, seed: int,
                     trial_offset: int = 0) -> list[ConcentrationReport]:
    """Empirical tail vs exact tail vs every closed-form bound, per eps.

    The empirical check uses three standard deviations of the exact tail
    probability; the bound check is deterministic (exact <= bound).
    """
    if trials < 1000:
        raise ValueError("need at least 1000 trials for a meaningful tolerance")
    population = np.asarray(population, dtype=np.int64)
    if not np.isin(population, (0, 1)).all():
        raise ValueError("population must be a 0/1 vector")
    n = len(population)
    if n == 0:
        raise ValueError("population must be nonempty")
    check_mc_cells(trials, n, "trials x population size")
    ones = int(population.sum())
    mean = ones / n
    pop = PopulationSummary(n_total=n, mean=mean, binary=True)

    masks = _split_masks(SplitSampler(n_total=n, m=m, master_seed=seed), trials, trial_offset)
    means = masks[:, population == 1].sum(axis=1) / m

    out = []
    for eps in eps_grid:
        eps = float(eps)
        q = DeviationQuery(m=m, eps=eps)
        exact = exact_mean_upper_tail(n, ones, m, eps)
        exceed = int((means - mean >= eps).sum())
        empirical = exceed / trials
        sigma = math.sqrt(exact * (1.0 - exact) / trials)
        bounds = {
            "hoeffding_kl": hoeffding_bound(pop, q, "kl").value,
            "hoeffding_squared": hoeffding_bound(pop, q, "squared").value,
            "serfling": serfling_bound(pop, q).value,
            "direct_binary": direct_binary_bound(pop, q).value,
        }
        out.append(
            ConcentrationReport(
                eps=eps,
                trials=trials,
                exceed_count=exceed,
                empirical=empirical,
                exact=exact,
                empirical_within_tolerance=abs(empirical - exact) <= 3.0 * sigma,
                exact_below_bounds=all(exact <= b + 1e-12 for b in bounds.values()),
                **bounds,
            )
        )
    return out


@dataclass(frozen=True, eq=False)
class FiniteHypothesisInstance:
    """Fixed full sample summarised by each hypothesis's 0/1 error vector."""

    errors: np.ndarray  # (n_hyp, n_total)
    prior: np.ndarray
    m: int

    def __post_init__(self):
        e = np.asarray(self.errors, dtype=np.int64)
        p = np.asarray(self.prior, dtype=float)
        object.__setattr__(self, "errors", e)
        object.__setattr__(self, "prior", p)
        if e.ndim != 2 or not np.isin(e, (0, 1)).all():
            raise ValueError("errors must be a 0/1 matrix")
        if p.shape != (e.shape[0],) or abs(p.sum() - 1.0) > 1e-12 or (p <= 0).any():
            raise ValueError("prior must be a positive distribution over hypotheses")
        if not 1 <= self.m < e.shape[1]:
            raise ValueError("need 1 <= m < n_total")


@dataclass(frozen=True, eq=False)
class ClusteringInstance:
    """Full sample, target labels and the ``transduce`` settings to validate."""

    points: np.ndarray
    target: np.ndarray  # +-1 per id
    m: int
    c: int
    clusterers: tuple = ("kmeans",)
    bound_name: str = "serfling_printed"

    def __post_init__(self):
        t = np.asarray(self.target, dtype=np.int64)
        object.__setattr__(self, "target", t)
        object.__setattr__(self, "points", np.asarray(self.points, dtype=float))
        object.__setattr__(self, "clusterers", tuple(self.clusterers))
        if not self.clusterers or not set(self.clusterers) <= set(ALGORITHMS):
            raise ValueError(f"clusterers must be a nonempty choice from {ALGORITHMS}")
        if not np.isin(t, (-1, 1)).all():
            raise ValueError("target labels must be +-1")
        if len(t) != len(self.points):
            raise ValueError("one target label per point required")
        if not 1 <= self.c <= self.m < len(t):
            raise ValueError("need 1 <= c <= m < n_total")
        if self.bound_name not in BOUND_NAMES:
            raise ValueError(f"unknown clustering bound {self.bound_name!r}")


def random_hypothesis_instance(n_total: int, m: int, n_hyp: int, seed: int) -> FiniteHypothesisInstance:
    """Random +-1 labelings against a random target, uniform prior."""
    if n_hyp < 1:
        raise ValueError("need at least one hypothesis")
    if not 1 <= m < n_total:
        raise ValueError("need 1 <= m < n_total")
    check_mc_cells(n_hyp, n_total, "hypotheses x n_total")
    rng = np.random.Generator(np.random.PCG64(splitmix64(seed, 0)))
    target = rng.choice([-1, 1], size=n_total)
    hyps = rng.choice([-1, 1], size=(n_hyp, n_total))
    return FiniteHypothesisInstance(
        errors=(hyps != target[None, :]).astype(np.int64),
        prior=np.full(n_hyp, 1.0 / n_hyp),
        m=m,
    )


def _risks(instance: FiniteHypothesisInstance, masks: np.ndarray):
    """Training and test risks per (hypothesis, trial) from boolean masks."""
    m = instance.m
    u = instance.errors.shape[1] - m
    train_counts = instance.errors @ masks.T.astype(np.int64)
    k = instance.errors.sum(axis=1, keepdims=True)
    r_m = train_counts / m
    r_u = (k - train_counts) / u
    return r_m, r_u


def _vapnik_violations(instance, masks, delta, variant):
    n = instance.errors.shape[1]
    m, u = instance.m, n - instance.m
    stars = {p: epsilon_star(p, delta, m, u, variant).value for p in set(instance.prior.tolist())}
    thresholds = np.array([stars[p] for p in instance.prior.tolist()])

    r_m, r_u = _risks(instance, masks)
    dev = r_u - r_m
    if variant == "relative":
        k = instance.errors.sum(axis=1, keepdims=True)
        scale = np.where(k > 0, np.sqrt(n / np.maximum(k, 1)), 0.0)
        dev = dev * scale  # the k = 0 rows are identically 0 by the convention
    violated = (dev >= thresholds[:, None]).any(axis=0)
    boundary = (dev == thresholds[:, None]).any(axis=0)
    return int(violated.sum()), int(boundary.sum())


def _det_bound_violations(instance, masks, delta, variant):
    n = instance.errors.shape[1]
    m, u = instance.m, n - instance.m
    r_m, r_u = _risks(instance, masks)
    viol = np.zeros(masks.shape[0], dtype=bool)
    for j, p in enumerate(instance.prior):
        viol |= r_u[j] > det_raw(variant, r_m[j], float(p), m, u, delta)
    return int(viol.sum())


def _gibbs_terms(instance, masks):
    """KL to the prior, training and test risk of the Gibbs posterior, one per trial."""
    r_m, r_u = _risks(instance, masks)
    # posterior after seeing labels: mass proportional to exp(-m * training error)
    logits = -instance.m * r_m
    q = np.exp(logits - logits.max(axis=0, keepdims=True))
    q /= q.sum(axis=0, keepdims=True)
    return kl_divergence(q, instance.prior[:, None]), (q * r_m).sum(axis=0), (q * r_u).sum(axis=0)


def _gibbs_violations(instance, masks, delta, variant):
    m, u = instance.m, instance.errors.shape[1] - instance.m
    kl, emp, test = _gibbs_terms(instance, masks)
    return int((test > gibbs_raw(variant, emp, kl, m, u, delta)).sum())


def _clustering_violations(instance: ClusteringInstance, masks, delta):
    n = len(instance.target)
    data = Dataset(points=instance.points, ids=np.arange(n))
    partitions = ensemble_sweep(data, instance.clusterers, instance.c)
    chosen = label_and_select(partitions, instance.target, masks, delta, instance.bound_name)
    test_errors = ((chosen.labels != instance.target) & ~masks).sum(axis=1)
    return int((test_errors / (n - instance.m) > chosen.bound).sum())


def mc_bound_validity(scenario: str, instance, delta: float, trials: int, seed: int,
                      trial_offset: int = 0) -> McReport:
    """Frequency of bound violations over seeded random splits, vs delta.

    For the implicit-threshold scenarios the violation event includes the
    boundary (deviation == eps*), matching the bound's published reading; the
    count of exact boundary hits is reported separately since only the strict
    event is controlled by the inversion.  All other scenarios use strict
    exceedance of the stated bound.
    """
    if scenario not in SCENARIOS:
        raise ValueError(f"unknown scenario {scenario!r}")
    if trials < 1:
        raise ValueError("need at least one trial")
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must be in (0, 1)")

    if scenario == "clustering":
        n = len(instance.target)
    else:
        n = instance.errors.shape[1]
        check_mc_cells(instance.errors.shape[0], trials, "hypotheses x trials")
    check_mc_cells(trials, n, "trials x n_total")
    sampler = SplitSampler(n_total=n, m=instance.m, master_seed=seed)
    masks = _split_masks(sampler, trials, trial_offset)

    boundary = 0
    if scenario in ("vapnik_absolute", "vapnik_relative"):
        variant = scenario.removeprefix("vapnik_")
        violations, boundary = _vapnik_violations(instance, masks, delta, variant)
    elif scenario == "serfling":
        violations = _det_bound_violations(instance, masks, delta, "serfling")
    elif scenario == "direct":
        violations = _det_bound_violations(instance, masks, delta, "direct")
    elif scenario in ("gibbs_reduction", "gibbs_direct"):
        violations = _gibbs_violations(instance, masks, delta, scenario.removeprefix("gibbs_"))
    else:
        violations = _clustering_violations(instance, masks, delta)
    return _make_report(trials, violations, delta, boundary)
