"""Empirical and exhaustive verification of every probabilistic claim.

The harness draws training subsets uniformly without replacement from a
fixed full sample, exactly the randomness model every bound in this package
quantifies over.  Each trial's seed is derived from (master_seed,
trial_index) by a SplitMix64 mix, so results are independent of execution
order and partial runs merge associatively: running trials [0, a) and
[a, b) separately and summing (trials, violations) reproduces the single
run over [0, b) bit for bit.

Trial t's split is defined by ``sample_split``: numpy's
``Generator(PCG64(seed)).choice(n_total, m, replace=False)``, sorted.  The
Monte-Carlo runs draw the splits through ``_split_masks``.  Where ``choice``
uses Floyd's algorithm with at most ``_KERNEL_MAX_M`` draws, an array kernel
replays its draws for every trial at once -- ``SeedSequence.generate_state``,
PCG64 seeding and its XSL-RR output, ``next_uint32`` and Lemire's bounded
draw.  A trial where numpy would reject a Lemire draw, and every trial of
any other shape, takes its split from ``sample_split`` itself.  So the
masks equal ``sample_split``'s bit for bit;
``tests/test_validation.py::TestSplitKernel`` pins that equality.
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
from .hypergeom import HypergeomSpec, _log_inverse, epsilon_star, hypergeom_pmf
from .pac_bayes import det_raw, gibbs_raw, kl_divergence
from .records import _check_choice, _check_probability
from .transduce import (
    ALGORITHMS,
    BOUND_NAMES,
    Dataset,
    _count_dtype,
    ensemble_sweep,
    label_and_select,
)

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


# The split kernel's arithmetic is uint32/uint64 and wraps exactly as numpy's
# C code does; every constant is a NumPy scalar, so NumPy 1.x value-based
# casting and NumPy 2's NEP 50 give the same dtypes.
_U32 = np.uint32
_U64 = np.uint64
_LO32 = _U64(0xFFFFFFFF)
_SHIFT16, _SHIFT32 = _U32(16), _U64(32)


def _hash_constants(start: int, mult: int, count: int) -> list:
    out = [start]
    for _ in range(count):
        out.append(out[-1] * mult & 0xFFFFFFFF)
    return [_U32(h) for h in out]


# SeedSequence's hash constants: each hashmix call xors with the current
# constant and multiplies by the next, so the sequence is data-independent.
_HASH_A = _hash_constants(0x43B0D7E5, 0x931E8875, 16)  # mix_entropy, 16 calls
_HASH_B = _hash_constants(0x8B51F9DD, 0x58F38DED, 8)   # generate_state, 8 words
_MIX_L, _MIX_R = _U32(0xCA01F9DD), _U32(0x4973F715)
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _seed_sequence_words(seeds: np.ndarray) -> list:
    """SeedSequence(seed).generate_state(8, uint32) for uint64 seeds, word by word.

    A seed below 2**32 has one entropy word; pool size 4 pads it with hashed
    zeros exactly as it pads [lo, 0], so both cases are [lo, hi, 0, 0].
    """
    def hashmix(value, call):
        value = (value ^ _HASH_A[call]) * _HASH_A[call + 1]
        return value ^ (value >> _SHIFT16)

    entropy = [(seeds & _LO32).astype(_U32), (seeds >> _SHIFT32).astype(_U32)]
    zero = np.zeros(len(seeds), dtype=_U32)
    pool = [hashmix(entropy[i] if i < 2 else zero, i) for i in range(4)]
    call = 4
    for src in range(4):
        for dst in range(4):
            if src != dst:
                r = _MIX_L * pool[dst] - _MIX_R * hashmix(pool[src], call)
                pool[dst] = r ^ (r >> _SHIFT16)
                call += 1
    words = []
    for i in range(8):
        w = (pool[i % 4] ^ _HASH_B[i]) * _HASH_B[i + 1]
        words.append((w ^ (w >> _SHIFT16)).astype(_U64))
    return words


def _mul128(ah, al, bh, bl):
    """Low 128 bits of (ah:al) * (bh:bl), each half a uint64 array."""
    a0, a1 = al & _LO32, al >> _SHIFT32
    b0, b1 = bl & _LO32, bl >> _SHIFT32
    p00, p01, p10 = a0 * b0, a0 * b1, a1 * b0
    mid = (p00 >> _SHIFT32) + (p01 & _LO32) + (p10 & _LO32)
    hi = a1 * b1 + (p01 >> _SHIFT32) + (p10 >> _SHIFT32) + (mid >> _SHIFT32) + ah * bl + al * bh
    return hi, al * bl


def _add128(ah, al, bh, bl):
    lo = al + bl
    return ah + bh + (lo < al), lo


def _jump_table(doublings: int) -> list:
    """(A, C) for 2**r LCG steps, r < doublings: 2**r steps map x to A x + C inc (mod 2**128)."""
    out, a, c = [], _PCG_MULT, 1
    for _ in range(doublings):
        out.append(tuple(_U64(v >> shift & _MASK) for v in (a, c) for shift in (64, 0)))
        a, c = a * a & (1 << 128) - 1, c * (a + 1) & (1 << 128) - 1
    return out


_JUMPS = _jump_table(64)


def _pcg_words(seeds: np.ndarray, count: int) -> np.ndarray:
    """The first ``count`` next_uint32 words of each seed's PCG64, (seeds, count).

    numpy seeds PCG64 from SeedSequence's words (state s, then increment
    seed) as state = 0; step; state += s; step, and each 64-bit output steps
    the LCG, then gives XSL-RR of the new state: its low word, then its high
    word.  Outputs 2**r .. 2**(r+1) - 1 are outputs 0 .. 2**r - 1 jumped
    2**r steps ahead.
    """
    w = _seed_sequence_words(seeds)
    s_hi, s_lo = w[0] | w[1] << _SHIFT32, w[2] | w[3] << _SHIFT32
    i_hi, i_lo = w[4] | w[5] << _SHIFT32, w[6] | w[7] << _SHIFT32
    one = _U64(1)
    inc_hi, inc_lo = (i_hi << one | i_lo >> _U64(63))[:, None], (i_lo << one | one)[:, None]

    def jump(r, hi, lo):
        """States 2**r LCG steps after ``hi:lo``: A hi:lo + C inc."""
        a_hi, a_lo, c_hi, c_lo = _JUMPS[r]
        return _add128(*_mul128(hi, lo, a_hi, a_lo), *_mul128(inc_hi, inc_lo, c_hi, c_lo))

    hi = np.empty((len(seeds), (count + 1) // 2), dtype=_U64)
    lo = np.empty_like(hi)
    # the first step leaves inc; output 0 comes two steps after adding s
    hi[:, :1], lo[:, :1] = jump(1, *_add128(inc_hi, inc_lo, s_hi[:, None], s_lo[:, None]))
    filled, r = 1, 0
    while filled < hi.shape[1]:
        width = min(filled, hi.shape[1] - filled)
        hi[:, filled:filled + width], lo[:, filled:filled + width] = jump(
            r, hi[:, :width], lo[:, :width])
        filled, r = filled + width, r + 1
    lo ^= hi  # XSL-RR: the halves' xor, rotated right by the top 6 bits
    hi >>= _U64(58)
    out = lo >> hi | lo << ((_U64(64) - hi) & _U64(63))
    return out.astype("<u8", copy=False).view("<u4")[:, :count]


# Generator.choice(n, m, replace=False) uses Floyd's algorithm unless
# n > 10000 and m > n // 50, where it shuffles the tail of arange(n).
_FLOYD_MAX_N, _TAIL_FRACTION = 10_000, 50
# The kernel loops over a chunk's m draws in Python, so its cost per trial
# grows as m**2 / _CHUNK_CELLS.  Kernel over loop time was 0.83-0.89 at
# m = 1000, 0.94-1.05 at m = 1100-1400 and 1.0-1.6 at m = 2000 (n = 2m + 1,
# 10**4 and 5 * 10**4; BENCH_15.json); with 1 << 16 cells per chunk the
# crossover fell to m = 800.
_KERNEL_MAX_M = 1000
_CHUNK_CELLS = 1 << 17  # trials x draws per chunk


def _split_masks(sampler: SplitSampler, trials: int, offset: int) -> np.ndarray:
    """Boolean training masks of trials offset .. offset + trials - 1, (trials, n_total).

    Row t marks ``sample_split(sampler, offset + t)``, which defines the
    split.  Where numpy uses Floyd's algorithm with at most
    ``_KERNEL_MAX_M`` draws, the kernel replays that call's draws for all
    trials at once (``tests/test_validation.py::TestSplitKernel`` pins the
    equality); a trial where numpy would reject a Lemire draw, and every
    trial of any other shape, takes its row from ``sample_split`` itself.
    Trial indices and seeds are uint64, wrapping as ``splitmix64``'s do.
    Trials go in chunks, so the working memory beside the masks stays near
    ``_CHUNK_CELLS`` draws.
    """
    n, m = sampler.n_total, sampler.m
    if n >= 1 << 31:
        raise ValueError("split kernel needs n_total < 2**31")
    masks = np.zeros((trials, n), dtype=bool)
    if m > _KERNEL_MAX_M or (n > _FLOYD_MAX_N and m > n // _TAIL_FRACTION):
        for t in range(trials):
            masks[t, sample_split(sampler, offset + t)] = True
        return masks

    index = _U64((offset + 1) & _MASK) + np.arange(trials, dtype=_U64)
    z = _U64(sampler.master_seed & _MASK) + index * _U64(_GOLDEN)
    z = (z ^ (z >> _U64(30))) * _U64(_MIX1)
    z = (z ^ (z >> _U64(27))) * _U64(_MIX2)
    seeds = z ^ (z >> _U64(31))
    chunk = max(1, _CHUNK_CELLS // m)
    for start in range(0, trials, chunk):
        rows = masks[start:start + chunk]
        for t in _floyd(seeds[start:start + chunk], rows, n, m).tolist():
            rows[t] = False
            rows[t, sample_split(sampler, offset + start + t)] = True
    return masks


def _floyd(seeds: np.ndarray, masks: np.ndarray, n: int, m: int) -> np.ndarray:
    """Floyd's sampling, one mask row per seed; returns the rows numpy would redraw.

    Step j draws v in [0, j] and adds v, or j if v is taken.  The draw is
    Lemire's, the high word of word * (j + 1).  numpy rejects it and draws
    again when the low word falls below 2**32 mod (j + 1); such a trial's
    row is returned, its later draws no longer numpy's.
    """
    bounds = np.arange(n - m + 1, n + 1, dtype=_U64)
    p = _pcg_words(seeds, m) * bounds
    rejected = ((p & _LO32) < (_U64(1 << 32) - bounds) % bounds).any(axis=1)
    base = np.arange(len(masks)) * n
    drawn = (p >> _SHIFT32).T.astype(np.intp, order="C")
    drawn += base
    flat = masks.reshape(-1)
    for v, j in zip(drawn, np.arange(n - m, n)[:, None] + base):
        flat[np.where(flat[v], j, v)] = True
    return np.flatnonzero(rejected)


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

    # masks in chunks of trials: only each trial's count of ones outlives its chunk
    sampler = SplitSampler(n_total=n, m=m, master_seed=seed)
    chunk = max(1, _RISK_CELLS // n)
    counts = np.concatenate([
        _split_masks(sampler, min(chunk, trials - start), trial_offset + start)[:, population == 1]
        .sum(axis=1) for start in range(0, trials, chunk)])
    means = counts / m

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
        SplitSampler(n_total=e.shape[1], m=self.m, master_seed=0)  # validates m


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
        if not self.clusterers:
            raise ValueError("need at least one clustering algorithm")
        for algo in self.clusterers:
            _check_choice("clustering algorithm", algo, ALGORITHMS)
        if not np.isin(t, (-1, 1)).all():
            raise ValueError("target labels must be +-1")
        if len(t) != len(self.points):
            raise ValueError("one target label per point required")
        if not 1 <= self.c <= self.m < len(t):
            raise ValueError("need 1 <= c <= m < n_total")
        _check_choice("clustering bound", self.bound_name, BOUND_NAMES)


def random_hypothesis_instance(n_total: int, m: int, n_hyp: int, seed: int) -> FiniteHypothesisInstance:
    """Random +-1 labelings against a random target, uniform prior."""
    if n_hyp < 1:
        raise ValueError("need at least one hypothesis")
    SplitSampler(n_total=n_total, m=m, master_seed=seed)  # validates m
    check_mc_cells(n_hyp, n_total, "hypotheses x n_total")
    rng = np.random.Generator(np.random.PCG64(splitmix64(seed, 0)))
    target = rng.choice([-1, 1], size=n_total)
    hyps = rng.choice([-1, 1], size=(n_hyp, n_total))
    return FiniteHypothesisInstance(
        errors=(hyps != target[None, :]).astype(np.int64),
        prior=np.full(n_hyp, 1.0 / n_hyp),
        m=m,
    )


# trials x n_total mask cells held per step: converted to the count dtype per
# product in ``_risks`` (16 MB as float32), since converting all the masks at
# once would hold a float copy of every mask, 4 or 8 bytes per cell, next to
# the masks; and drawn per chunk of ``mc_concentration``'s trials.
_RISK_CELLS = 1 << 22


def _risks(instance: FiniteHypothesisInstance, masks: np.ndarray):
    """Training and test risks per (hypothesis, trial) from boolean masks.

    The training error counts are exact float BLAS products of the 0/1 error
    and mask matrices (see ``transduce._count_dtype``).
    """
    n_hyp, n = instance.errors.shape
    m, u = instance.m, n - instance.m
    dtype = _count_dtype(n)
    errors = instance.errors.astype(dtype)
    step = max(1, _RISK_CELLS // n)
    train_counts = np.empty((n_hyp, masks.shape[0]))
    for t in range(0, masks.shape[0], step):
        train_counts[:, t:t + step] = errors @ masks[t:t + step].T.astype(dtype)
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
        viol |= r_u[j] > det_raw(variant, r_m[j], _log_inverse(float(p)), m, u, delta)
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
    _check_choice("scenario", scenario, SCENARIOS)
    if trials < 1:
        raise ValueError("need at least one trial")
    _check_probability("delta", delta)

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
    elif scenario in ("serfling", "direct"):
        violations = _det_bound_violations(instance, masks, delta, scenario)
    elif scenario in ("gibbs_reduction", "gibbs_direct"):
        violations = _gibbs_violations(instance, masks, delta, scenario.removeprefix("gibbs_"))
    else:
        violations = _clustering_violations(instance, masks, delta)
    return _make_report(trials, violations, delta, boundary)
