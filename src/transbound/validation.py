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
``tests/test_validation.py::TestSplitKernel`` pins that equality.  The last
batch stays held, read-only, so scenarios validated on one seed share a draw,
and with it the error counts and Gibbs terms derived from it (``_per_batch``).
"""

from dataclasses import dataclass
from fractions import Fraction
import functools
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
from .pac_bayes import BOUNDS, kl_divergence
from .records import _check_choice, _check_integer, _check_labels, _check_probability, _check_size
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
# n_total or hypotheses x trials, five times the 10**5 trials x 100 points of
# the README example.  At the cap (ru_maxrss), 500 hypotheses x 10**5 trials
# (n = 40) peak at 360 MB under serfling, vapnik_absolute and gibbs_direct, and
# the clustering scenario (c = 10, k-means) at 156 MB with n = 100 and 121 MB
# with n = 2000.  Per 10**6 hypotheses x trials the peak grew by 6 MB (39 MB
# when float64 risks were held).
# Between calls ``_split_masks`` holds the last batch of masks, at most 50 MB, and
# ``_per_batch`` the training error counts (2 bytes per hypothesis x trial where
# m < 2**15) and Gibbs terms (24 per trial) derived from it.
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
        object.__setattr__(self, "n_total", _check_size("n_total", self.n_total, 2))
        object.__setattr__(self, "m", _check_size("m", self.m, 1, self.n_total - 1))
        object.__setattr__(self, "master_seed", _check_integer("master_seed", self.master_seed))


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
# PCG64's multiplier as its high word, its low word and the low word's 32-bit halves
_MULT_HI, _MULT_LO = _U64(_PCG_MULT >> 64), _U64(_PCG_MULT & _MASK)
_MULT_B0, _MULT_B1 = _U64(_PCG_MULT & 0xFFFFFFFF), _U64(_PCG_MULT >> 32 & 0xFFFFFFFF)


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


# Generator.choice(n, m, replace=False) uses Floyd's algorithm unless
# n > 10000 and m > n // 50, where it shuffles the tail of arange(n).
_FLOYD_MAX_N, _TAIL_FRACTION = 10_000, 50
# The kernel makes about 25 numpy calls per draw, each over a whole chunk of
# trials, so it pays off once a chunk holds enough trials.  Kernel over loop
# CPU time (n = 2m + 1, medians of 5 on one CPU of a shared x86-64 machine):
#   trials   m = 500   m = 1000   m = 2000
#   300      1.06      1.37       1.91
#   1000     0.45      0.70       1.01
#   10**4    0.37      0.49       0.74
# At m = 2000 the kernel needs 1000 trials to break even, so the limit stays.
# Chunks of 8192 to 32 768 trials drew 10**4 or 4 * 10**4 masks at (n, m) =
# (40, 20) and (100, 50) within 10 % of each other; 4096 took 1.1-1.2 times
# as long.
_KERNEL_MAX_M = 1000
_CHUNK_TRIALS = 1 << 14  # trials per chunk
_held = None  # ((sampler, trials, offset), read-only masks) of the last batch drawn
_derived = None  # (held masks, {(instance, function): read-only result}), see ``_per_batch``


def _split_masks(sampler: SplitSampler, trials: int, offset: int) -> np.ndarray:
    """Boolean training masks of trials offset .. offset + trials - 1, (trials, n_total).

    Row t marks ``sample_split(sampler, offset + t)``, which defines the
    split.  Where numpy uses Floyd's algorithm with at most
    ``_KERNEL_MAX_M`` draws, the kernel replays that call's draws for all
    trials at once (``tests/test_validation.py::TestSplitKernel`` pins the
    equality); a trial where numpy would reject a Lemire draw, and every
    trial of any other shape, takes its row from ``sample_split`` itself.
    Trial indices and seeds are uint64, wrapping as ``splitmix64``'s do.
    Trials go in chunks of at most ``_CHUNK_TRIALS``, and the kernel's
    working memory beside the masks grows with the chunk, not with m.
    A call with the held batch's key gets that read-only array back undrawn.
    """
    global _held, _derived
    held = _held  # a local, so a thread that swaps the slot meanwhile changes no return
    if held is None or held[0] != (sampler, trials, offset):
        _held = _derived = held = None  # drop the old batch first: two never live at once
        held = (sampler, trials, offset), _draw_masks(sampler, trials, offset)
        held[1].flags.writeable = False
        _held, _derived = held, (held[1], {})
    return held[1]


def _draw_masks(sampler: SplitSampler, trials: int, offset: int) -> np.ndarray:
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
    # chunks of equal size: a short last chunk would pay each pass's calls for few trials
    chunk = max(1, -(-trials // max(1, -(-trials // _CHUNK_TRIALS))))
    for start in range(0, trials, chunk):
        rows = masks[start:start + chunk]
        for t in _floyd(seeds[start:start + chunk], rows, n, m).tolist():
            rows[t] = False
            rows[t, sample_split(sampler, offset + start + t)] = True
    return masks


def _floyd(seeds: np.ndarray, masks: np.ndarray, n: int, m: int) -> np.ndarray:
    """Floyd's sampling, one mask row per seed; returns the rows numpy would redraw.

    numpy seeds PCG64 from SeedSequence's words (state s, then increment
    seed) as state = 0; step; state += s; step, so the state is inc + s,
    stepped once.  Each 64-bit output steps the LCG, state * MULT + inc
    (mod 2**128), then gives XSL-RR of the new state: its low word, then its
    high word.  The loop keeps each trial's state in two uint64 vectors and
    steps it in place, so its memory grows with the trials, not with m.

    Floyd's step j draws v in [0, j] and adds v, or j if v is taken.  The
    draw is Lemire's, the high word of word * (j + 1).  numpy rejects it and
    draws again when the low word falls below 2**32 mod (j + 1); such a
    trial's row is returned, its later draws no longer numpy's.
    """
    w = _seed_sequence_words(seeds)
    s_hi, s_lo = w[0] | w[1] << _SHIFT32, w[2] | w[3] << _SHIFT32
    i_hi, i_lo = w[4] | w[5] << _SHIFT32, w[6] | w[7] << _SHIFT32
    one = _U64(1)
    inc_hi, inc_lo = i_hi << one | i_lo >> _U64(63), i_lo << one | one
    inc0, inc1 = inc_lo & _LO32, inc_lo >> _SHIFT32
    lo = s_lo + inc_lo  # state = inc + s
    hi = s_hi + inc_hi + (lo < inc_lo)
    a0, a1, t, x = (np.empty_like(lo) for _ in range(4))
    flag, rejected = np.empty(len(lo), dtype=bool), np.zeros(len(lo), dtype=bool)
    drawn = a1.view(np.int64)  # a draw is below 2**31
    row = np.arange(len(lo), dtype=np.int64) * np.int64(n)
    j = row + np.int64(n - m)
    flat = masks.reshape(-1)

    for first in range(-2, m, 2):
        # state = state * MULT + inc (mod 2**128).  t becomes the high word of
        # lo * MULT_LO + inc_lo, summed in 32-bit halves that cannot overflow
        np.bitwise_and(lo, _LO32, out=a0)
        np.right_shift(lo, _SHIFT32, out=a1)
        np.multiply(a0, _MULT_B0, out=t)
        t += inc0
        t >>= _SHIFT32
        np.multiply(a1, _MULT_B0, out=x)
        t += x
        t += inc1
        a0 *= _MULT_B1
        np.bitwise_and(t, _LO32, out=x)
        x += a0
        x >>= _SHIFT32
        t >>= _SHIFT32
        t += x
        a1 *= _MULT_B1
        t += a1
        hi *= _MULT_LO
        hi += t
        np.multiply(lo, _MULT_HI, out=t)
        hi += t
        hi += inc_hi
        lo *= _MULT_LO
        lo += inc_lo
        if first < 0:
            continue  # the step before output 0
        np.bitwise_xor(hi, lo, out=x)  # XSL-RR: hi ^ lo rotated right by hi's top 6 bits
        np.right_shift(hi, _U64(58), out=t)
        np.right_shift(x, t, out=a0)
        np.subtract(_U64(64), t, out=t)
        t &= _U64(63)
        x <<= t
        x |= a0
        for k in range(first, min(first + 2, m)):  # the output's low word, then its high word
            if k == first:
                np.bitwise_and(x, _LO32, out=a1)
            else:
                np.right_shift(x, _SHIFT32, out=a1)
            bound = _U64(n - m + k + 1)
            a1 *= bound
            np.bitwise_and(a1, _LO32, out=t)
            np.less(t, (_U64(1 << 32) - bound) % bound, out=flag)
            rejected |= flag
            a1 >>= _SHIFT32
            drawn += row
            np.take(flat, drawn, out=flag)
            np.copyto(drawn, j, where=flag)
            flat[drawn] = True
            j += np.int64(1)
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
    errors = _check_labels("errors", errors, (0, 1)).tolist()
    n = len(errors)
    m = _check_size("m", m, 1, n)
    if n > 25:
        raise ValueError("exhaustive check limited to n <= 25; use mc_concentration")
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
    probability; the bound check is deterministic (exact <= bound).  The last
    chunk of split masks stays referenced until a draw of other splits.
    """
    trials = _check_size("trials", trials, 1000)  # fewer give no meaningful tolerance
    seed = _check_integer("seed", seed)
    population = _check_labels("population", population, (0, 1))
    n = len(population)
    if n == 0:
        raise ValueError("population must be nonempty")
    check_mc_cells(trials, n, "trials x population size")
    ones = int(population.sum())
    mean = ones / n
    pop = PopulationSummary(n_total=n, mean=mean, binary=True)

    # masks in chunks of trials: only the counts of ones and the held last chunk outlive them
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
        e = _check_labels("errors", self.errors, (0, 1))
        p = np.array(self.prior, dtype=float)
        # both are this instance's own copies, read-only: risks derived from them stay valid
        e.flags.writeable = p.flags.writeable = False
        object.__setattr__(self, "errors", e)
        object.__setattr__(self, "prior", p)
        if e.ndim != 2:
            raise ValueError("errors must be a 0/1 matrix")
        if p.shape != (e.shape[0],) or abs(p.sum() - 1.0) > 1e-12 or (p <= 0).any():
            raise ValueError("prior must be a positive distribution over hypotheses")
        object.__setattr__(self, "m", _check_size("m", self.m, 1, e.shape[1] - 1))


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
        t = _check_labels("target", self.target, (-1, 1))
        object.__setattr__(self, "target", t)
        object.__setattr__(self, "points", np.asarray(self.points, dtype=float))
        object.__setattr__(self, "clusterers", tuple(self.clusterers))
        if not self.clusterers:
            raise ValueError("need at least one clustering algorithm")
        for algo in self.clusterers:
            _check_choice("clustering algorithm", algo, ALGORITHMS)
        if len(t) != len(self.points):
            raise ValueError("one target label per point required")
        object.__setattr__(self, "m", _check_size("m", self.m, 1, len(t) - 1))
        object.__setattr__(self, "c", _check_size("c", self.c, 1, self.m))
        _check_choice("clustering bound", self.bound_name, BOUND_NAMES)


def random_hypothesis_instance(n_total: int, m: int, n_hyp: int, seed: int) -> FiniteHypothesisInstance:
    """Random +-1 labelings against a random target, uniform prior."""
    n_total = _check_size("n_total", n_total, 2)
    m = _check_size("m", m, 1, n_total - 1)
    n_hyp = _check_size("n_hyp", n_hyp)
    seed = _check_integer("seed", seed)
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
# product in ``_train_counts`` (16 MB as float32), since converting all the masks at
# once would hold a float copy of every mask, 4 or 8 bytes per cell, next to
# the masks; and drawn per chunk of ``mc_concentration``'s trials.
_RISK_CELLS = 1 << 22


def _per_batch(func):
    """``func(instance, masks)``, a read-only array, computed once per instance on the
    held batch: scenarios on one batch share it.  Other masks, writable ones included,
    recompute on every call."""
    @functools.wraps(func)
    def per_batch(instance, masks):
        derived = _derived  # a local, as in ``_split_masks``
        memo = derived[1] if derived is not None and derived[0] is masks else {}
        if (instance, func) not in memo:
            memo[instance, func] = func(instance, masks)
            memo[instance, func].flags.writeable = False
        return memo[instance, func]
    return per_batch


@_per_batch
def _train_counts(instance: FiniteHypothesisInstance, masks: np.ndarray):
    """Training error count per (hypothesis, trial) from boolean masks, int16 where m < 2**15.

    The counts are exact float BLAS products of the 0/1 error and mask
    matrices (see ``transduce._count_dtype``).
    """
    n_hyp, n = instance.errors.shape
    dtype = _count_dtype(n)
    errors = instance.errors.astype(dtype)
    step = max(1, _RISK_CELLS // n)
    counts = np.empty((n_hyp, len(masks)), np.int16 if instance.m < 1 << 15 else np.int64)
    for t in range(0, masks.shape[0], step):
        counts[:, t:t + step] = errors @ masks[t:t + step].T.astype(dtype)
    return counts


def _fail_tables(instance, delta, scenario):
    """(hypotheses, m + 1) boolean tables over a hypothesis's training errors j = 0..m.

    A hypothesis with k errors fails on a split through j alone, so its row
    is computed from r_m = j / m and r_u = (k - j) / u: for ``vapnik_*``
    where r_u - r_m (times sqrt(n / k) for ``relative``) reaches eps* at its
    prior mass p, then where it equals eps*, a boundary hit; for the rest
    where r_u exceeds ``BOUNDS[scenario]`` charged ln(1/p).
    """
    n = instance.errors.shape[1]
    m, u = instance.m, n - instance.m
    k = instance.errors.sum(axis=1, keepdims=True)
    r_m, r_u = np.arange(m + 1) / m, (k - np.arange(m + 1)) / u
    if scenario.startswith("vapnik_"):
        variant = scenario.removeprefix("vapnik_")
        stars = {p: epsilon_star(p, delta, m, u, variant).value
                 for p in set(instance.prior.tolist())}
        thresholds = np.array([stars[p] for p in instance.prior.tolist()])[:, None]
        dev = r_u - r_m
        if variant == "relative":  # the k = 0 rows are identically 0 by the convention
            dev = dev * np.where(k > 0, np.sqrt(n / np.maximum(k, 1)), 0.0)
        return [dev >= thresholds, dev == thresholds]
    return [np.array([r_u[h] > BOUNDS[scenario](r_m, _log_inverse(float(p)), m, u, delta)
                      for h, p in enumerate(instance.prior)])]


def _violations(instance, masks, delta, scenario):
    """Trials on which a hypothesis scenario fails, and those with a boundary hit: the
    Gibbs posterior charged D(q||p), or each hypothesis's ``_fail_tables`` at its count."""
    if scenario.startswith("gibbs_"):
        m, u = instance.m, instance.errors.shape[1] - instance.m
        kl, emp, test = _gibbs_terms(instance, masks)
        return int((test > BOUNDS[scenario](emp, kl, m, u, delta)).sum()), 0
    counts = _train_counts(instance, masks)
    hits = [int(functools.reduce(np.logical_or, map(np.take, table, counts)).sum())
            for table in _fail_tables(instance, delta, scenario)]
    return hits[0], sum(hits[1:])  # only vapnik_* has a table of boundary hits


_GIBBS_CELLS = 1 << 13  # hypotheses x trials per chunk: some 0.6 MB of float temporaries


@_per_batch
def _gibbs_terms(instance, masks):
    """Rows of KL to the prior, training and test risk of the Gibbs posterior, one column
    per trial, in chunks of trials.  No chunk holds one trial unless the batch does:
    numpy sums a (hypotheses, 1) array pairwise, and a wider one row by row."""
    counts = _train_counts(instance, masks)
    n_hyp, trials = counts.shape
    m, u = instance.m, instance.errors.shape[1] - instance.m
    k = instance.errors.sum(axis=1, keepdims=True)
    terms = np.empty((3, trials))
    starts = range(0, max(trials - 1, 1), max(2, _GIBBS_CELLS // n_hyp))
    for start, stop in zip(starts, [*starts[1:], trials]):
        train = counts[:, start:stop].astype(float)
        r_m, r_u = train / m, (k - train) / u
        # posterior after seeing labels: mass proportional to exp(-m * training error)
        logits = -m * r_m
        q = np.exp(logits - logits.max(axis=0, keepdims=True))
        q /= q.sum(axis=0, keepdims=True)
        terms[:, start:stop] = (kl_divergence(q, instance.prior[:, None]),
                                (q * r_m).sum(axis=0), (q * r_u).sum(axis=0))
    return terms


def _test_errors(partitions, target, masks, chosen) -> np.ndarray:
    """Test errors per mask of the labels ``label_and_select`` chose over ``partitions``.

    A winner's test errors are its errors on the full sample, from the
    target's sign counts per cluster, less its training errors.  Under a mask
    with no winner every id is labelled +1, so its test errors are the test
    ids with target -1.  Both are counted in chunks of ``_RISK_CELLS`` // n
    masks, so no temporary grows as masks x n.
    """
    rows, n = masks.shape
    negative = target == -1
    step = max(1, _RISK_CELLS // n)
    test_errors = np.empty(rows, dtype=np.int64)
    for j in np.unique(chosen.candidate):
        at = np.flatnonzero(chosen.candidate == j)
        if j >= 0:
            p = partitions[j]
            neg = np.bincount(p.assignment[negative], minlength=p.tau)
            pos = np.bincount(p.assignment[~negative], minlength=p.tau)
        for start in range(0, len(at), step):
            some = at[start:start + step]
            if j < 0:
                test_errors[some] = np.count_nonzero(negative > masks[some], axis=1)
            else:
                errors = np.where(chosen.cluster_labels[some, :p.tau] == 1, neg, pos).sum(axis=1)
                test_errors[some] = errors - chosen.train_errors[some]
    return test_errors


def _clustering_violations(instance: ClusteringInstance, masks, delta):
    n = len(instance.target)
    data = Dataset(points=instance.points, ids=np.arange(n))
    partitions = ensemble_sweep(data, instance.clusterers, instance.c)
    chosen = label_and_select(partitions, instance.target, masks, delta, instance.bound_name)
    test_errors = _test_errors(partitions, instance.target, masks, chosen)
    return int((test_errors / (n - instance.m) > chosen.bound).sum())


def mc_bound_validity(scenario: str, instance, delta: float, trials: int, seed: int,
                      trial_offset: int = 0) -> McReport:
    """Frequency of bound violations over seeded random splits, vs delta.

    For the implicit-threshold scenarios the violation event includes the
    boundary (deviation == eps*), matching the bound's published reading; the
    count of exact boundary hits is reported separately since only the strict
    event is controlled by the inversion.  All other scenarios use strict
    exceedance of the stated bound.  Until other splits are drawn, the split
    masks (trials x n bytes) stay held for the next call on the same splits,
    and so do the instance's training error counts (2 bytes per hypothesis x
    trial where m < 2**15, else 8) and, after a ``gibbs_*`` scenario, its
    Gibbs terms (24 bytes per trial): every later scenario on that instance
    and batch reads them.  The clustering scenario scores the masks in
    bounded chunks (``transduce.label_and_select``): beside them it holds
    about 24 bytes of running best and c bytes of cluster labels per trial,
    and counts each trial's test errors per cluster, so nothing of trials x n
    bytes exists but the masks.
    """
    _check_choice("scenario", scenario, SCENARIOS)
    trials = _check_size("trials", trials)
    seed = _check_integer("seed", seed)
    _check_probability("delta", delta)

    if scenario == "clustering":
        n = len(instance.target)
    else:
        n = instance.errors.shape[1]
        check_mc_cells(instance.errors.shape[0], trials, "hypotheses x trials")
    check_mc_cells(trials, n, "trials x n_total")
    sampler = SplitSampler(n_total=n, m=instance.m, master_seed=seed)
    masks = _split_masks(sampler, trials, trial_offset)

    if scenario == "clustering":
        violations, boundary = _clustering_violations(instance, masks, delta), 0
    else:
        violations, boundary = _violations(instance, masks, delta, scenario)
    return _make_report(trials, violations, delta, boundary)
