"""Exact hypergeometric machinery for random train/test splits of a fixed sample.

A classifier that makes k errors on a fixed sample of N = m + u points, of
which a uniformly random m-subset becomes the training set, makes a
hypergeometrically distributed number of training errors.  Everything here
is computed from that distribution exactly (in log space); no normal or
Poisson approximation is used anywhere.

The implicit transductive bound machinery on top of it (the threshold
epsilon*(h) and the resulting risk bounds, both the relative-deviation and
the absolute-deviation flavours) follows Vapnik's classical construction
with a prior mass p(h) on the hypothesis.
"""

from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache
import math

import numpy as np
from scipy.special import gammaln

from ._fork import forked, second_cpu
from .records import (BoundValue, _check_choice, _check_mass, _check_nonnegative,
                      _check_probability, _check_size, _check_unit)

VARIANTS = ("relative", "absolute")

# Above this n, differences of math.lgamma values lose too much to
# cancellation for the 1e-10 accuracy contract; switch to 30-digit arithmetic.
_LGAMMA_SAFE_N = 20000

# Largest m*u whose worst-case-tail envelope is built.  The build works
# through about m*u/2 deviation pairs, block by block, so its time grows as
# m*u while its memory stays small.  One pass builds both variants, on two
# CPUs from ``_FORK_MIN_MU`` up.  One cold build per fresh process, medians
# of 3, two CPUs against one (``taskset -c 0``), time.perf_counter on a
# 2-vCPU x86-64 machine shared with other tenants:
#   (m, u)            both variants     absolute alone
#   (7000, 7000)      2.3 s / 4.4 s     1.7 s / 3.1 s
#   (500, 99 500)     5.3 s / 10.5 s    3.9 s / 6.8 s
#   (250, 199 750)    6.4 s / 11.8 s
# Skewed shapes build more slowly per pair, so the cap keeps a cold build
# within about 6.5 s on two CPUs and 12 s on one, and within 2.5 s and 4.5 s
# for m near u.  These ran in a slow phase of the machine: in a quiet one,
# one CPU built both variants at 7000 in 2.6 s and at (500, 99 500) in 6.0 s.
# Both variants at 7000 peaked at 96 MB resident in the caller and 86 MB in
# the worker, 105 MB on one CPU.
MAX_ENVELOPE_MU = 50_000_000

# Largest m + u whose envelope is built.  The log-pmf error grows with n (as
# about n ln n ulps): against 40-digit arithmetic, the largest over sampled
# (k, r) was 4.1e-11 at m = u = 5000, 2.2e-10 at (m, u) = (1000, 49 000),
# 3.7e-10 at (10, 99 990), 7.0e-10 at (10, 199 990) and 3.6e-9 at (10, 10**6),
# so the cap holds it below 1e-9.  An envelope keeps about one change point
# per k (24 bytes each; 16 shapes cached, both variants each); with m <= 10
# a build of both variants at the cap took 0.7-0.8 s on the machine above.
MAX_ENVELOPE_N = 200_000

# Fewest rows of k per block of the envelope build (a row holds at most
# m*u/(m+u) + 1 cells).  Building both variants at m = u = 2000 on two CPUs
# took 0.243 s with 32 rows, 0.205 s with 64 and 0.212 s with 128 (medians
# of 9 cold builds in one process), and 128 rows raised the caller's
# tracemalloc peak from 5.3 MB to 8.5 MB.
_BLOCK_ROWS = 64

# Smallest m*u at which ``_envelopes`` builds the upper k-range in a forked
# worker while the caller builds the lower one.  Starting, reaping and
# copy-on-write cost the fork 5-15 ms, and at m*u = 2.5e5 and 3.6e5 the
# forked build was slower.  Both variants cold, in-process against forked,
# medians of 15-21 alternating calls in one process (ms, 2 vCPUs):
#   (m, u)  (250, 62)  (500, 500)  (1000, 250)  (600, 600)  (650, 650)
#           4.2 / 11   32 / 52     33 / 52      44 / 62     48 / 40
#   (m, u)  (700, 700) (1000, 500) (250, 2000)  (1000, 1000) (2000, 500) (2000, 2000)
#           59 / 46    58 / 47     63 / 50      102 / 70     111 / 72     396 / 218
# While another tenant held the second vCPU, both processes ran at half
# speed: at (1000, 1000) the caller's lower range took 83-119 ms beside the
# worker against 39-55 ms alone, and forking gained nothing.
_FORK_MIN_MU = 500_000

# Cells per row segment that ``_merge`` tests at once, against its floor at
# the segment's first cell, before the exact test of each cell left.
_SEGMENT = 16


@dataclass(frozen=True)
class HypergeomSpec:
    """Population of m + u points containing k errors, sampled m at a time."""

    m: int
    u: int
    k: int

    def __post_init__(self):
        _check_size("m", self.m)
        _check_size("u", self.u)
        if not 0 <= self.k <= self.m + self.u:
            raise ValueError(f"k={self.k} outside 0..{self.m + self.u}")

    @property
    def n_total(self) -> int:
        return self.m + self.u


@dataclass(frozen=True)
class EpsilonStar:
    """Minimal deviation threshold whose worst-case tail drops below p(h)*delta.

    ``achieving_k`` is the (smallest) full-sample error count attaining the
    max in the worst-case tail at ``value``.
    """

    value: float
    variant: str
    achieving_k: int

    def __post_init__(self):
        _check_choice("variant", self.variant, VARIANTS)
        _check_nonnegative("epsilon*", self.value)


def log_binomial(n: int, r: int) -> float:
    """Natural log of the binomial coefficient C(n, r).

    Absolute error is below 1e-10 for n up to 1e6: small n goes through
    math.lgamma, large n through 30-digit mpmath so the only error left is
    the final rounding to a double.
    """
    if n < 0 or r < 0 or r > n:
        raise ValueError(f"need 0 <= r <= n, got n={n}, r={r}")
    if r == 0 or r == n:
        return 0.0
    if n <= _LGAMMA_SAFE_N:
        return math.lgamma(n + 1) - math.lgamma(r + 1) - math.lgamma(n - r + 1)
    import mpmath  # about 30 ms of import time, paid only on this branch

    with mpmath.workdps(30):
        v = mpmath.loggamma(n + 1) - mpmath.loggamma(r + 1) - mpmath.loggamma(n - r + 1)
        return float(v)


def _log_pmf(log_fact, n: int, m: int, k, r):
    """ln C(k, r) + ln C(n-k, m-r) - ln C(n, m), given log_fact(j) = ln j!."""
    return (log_fact(k) - log_fact(r) - log_fact(k - r)
            + (log_fact(n - k) - log_fact(m - r) - log_fact(n - k - m + r))
            - (log_fact(n) - log_fact(m) - log_fact(n - m)))


@lru_cache(maxsize=4096)
def _log_factorial(j: int) -> float:
    """ln j!, the same ``gammaln`` value ``_envelopes`` tabulates; repeated calls reuse it."""
    return float(gammaln(j + 1))


def _gammaln_factorial(j):
    """ln j! elementwise: the ``gammaln`` value ``_envelopes`` tabulates, without the table."""
    return gammaln(j + 1)


def hypergeom_pmf(r: int, spec: HypergeomSpec) -> float:
    """Probability that exactly r of the k errors land in the training set.

    Zero outside the feasible range max(k-u, 0) <= r <= min(m, k); computed
    in log space and exponentiated.
    """
    k, m, u = spec.k, spec.m, spec.u
    if r < max(k - u, 0) or r > min(m, k):
        return 0.0
    return math.exp(_log_pmf(_log_factorial, m + u, m, k, r))


def deviation_tail(eps: float, spec: HypergeomSpec) -> float:
    """Exact Pr{R(test) - R(train) > eps}, finite eps >= 0, over uniform random splits."""
    _check_nonnegative("eps", eps)
    k = np.array([[spec.k]], dtype=np.int64)
    neg, log_tail, keep = _pairs(spec.m, spec.u, k, _gammaln_factorial)
    neg, log_tail = neg[keep], log_tail[keep]
    j = int(np.searchsorted(neg, -eps, side="left"))
    return math.exp(log_tail[j - 1]) if j else 0.0


def _pairs(m: int, u: int, k: np.ndarray, log_fact):
    """(-d, L, keep) over the pairs (k, r), k over the column ``k``: the pair kernel.

    The pairs sit in 2-D arrays, a row per k over r = max(k-u, 0), ..., as
    wide as the longest positive-deviation prefix r < k*m/(m+u) among the
    rows; the deviation d = (k-r)/u - r/m is strictly decreasing in r, so
    every tail {deviation > eps >= 0} is such a prefix.  L is the row's
    cumulative log-tail, from ``log_fact(j) = ln j!`` and one
    ``logaddexp.accumulate`` along the rows, so every value has the bits the
    same expressions give on one row at a time.  ``keep`` marks the cells
    with d > 0; the pad cells after each row's prefix are not.
    """
    n = m + u
    lo = np.maximum(k - u, 0)
    width = int((-(-k * m // n) - lo).max())  # ceil(k*m/n) - lo pairs in the longest prefix
    r = lo + np.arange(width, dtype=np.int64)
    neg = -((k - r) / u - r / m)
    # rounding only shortens a prefix: a computed deviation is never positive
    # where the exact one is not
    keep = neg < 0
    log_pmf = _log_pmf(log_fact, n, m, k, np.where(keep, r, lo))
    tail = np.logaddexp.accumulate(np.where(keep, log_pmf, -np.inf), axis=1)
    return neg, tail, keep


def _change_points(neg, log_tail, ks, n: int):
    """Change points of the worst case over pairs (-d, L, k): the running
    maximum of L over the pairs sorted by -d, with the smallest k attaining it.

    Returns arrays (-d ascending, L, k) with one entry wherever the maximum or
    its k changes; pairs of equal d never straddle a query, so their order
    does not matter.  Change points are pairs themselves: those of a set, with
    more pairs added, reduce to the change points of the set with them added.
    """
    if not len(neg):  # a k-range without a positive-deviation pair
        return neg, log_tail, ks
    order = np.argsort(neg)
    neg, log_tail, ks = neg[order], log_tail[order], ks[order]
    best = np.maximum.accumulate(log_tail)
    # Smallest k with L equal to the running max: a running min of k over
    # the attaining pairs that restarts whenever the max rises, done in one
    # pass by offsetting each level's keys below every earlier level's.
    level = np.cumsum(np.r_[True, best[1:] > best[:-1]])
    key = np.where(log_tail == best, ks, n + 1) - level * (n + 1)
    ks = np.minimum.accumulate(key) + level * (n + 1)

    ends = np.r_[neg[1:] != neg[:-1], True]
    neg, best, ks = neg[ends], best[ends], ks[ends]
    change = np.r_[True, (best[1:] != best[:-1]) | (ks[1:] != ks[:-1])]
    return neg[change], best[change], ks[change]


def _merge(kept, neg, log_tail, keep, k, n: int):
    """``kept`` change points with a block of ``_pairs`` cells (k above all of kept's) merged in.

    A cell never shows if its L is no higher than the kept envelope at its
    -d (a kept point of smaller k attains at least as much there) or lower
    than the block's last row at its -d (a cell of that row beats it
    wherever it counts), so only the other cells are merged.  Along a row
    -d rises and that floor never falls, so a whole ``_SEGMENT``-cell row
    segment is first tested against the floor at its first cell, and only
    the cells it leaves get the exact test.
    """
    # The floor at -d is the running max over the breakpoints of both step
    # functions up to -d (both are sorted runs: a stable sort merges them);
    # the last row's L is taken one float lower, so that a tie keeps the cell.
    at = np.concatenate((kept[0], neg[-1][keep[-1]]))
    order = np.argsort(at, kind="stable")
    at = at[order]
    floor = np.concatenate((kept[1], np.nextafter(log_tail[-1][keep[-1]], -np.inf)))[order]
    floor = np.r_[-np.inf, np.maximum.accumulate(floor)]  # floor[i]: at -d in [at[i-1], at[i])
    seg = floor[np.searchsorted(at, neg[:, ::_SEGMENT], side="right")]
    live = keep & (log_tail > np.repeat(seg, _SEGMENT, axis=1)[:, :neg.shape[1]])
    neg, log_tail, ks = neg[live], log_tail[live], np.broadcast_to(k, live.shape)[live]
    live = log_tail > floor[np.searchsorted(at, neg, side="right")]
    block = (neg[live], log_tail[live], ks[live])
    return _change_points(*map(np.concatenate, zip(kept, block)), n)


def _build(m: int, u: int, variants: tuple[str, ...], k_first: int, k_last: int, table):
    """Change points of each of ``variants`` over the pairs with k_first <= k <= k_last.

    One pass over blocks of ascending k computes each block's pairs once
    (``_pairs``, from ``table[j] = ln j!``) and merges them into every
    variant's change points (``_merge``), so memory stays
    O(_BLOCK_ROWS * min(m, u) + change points).  ``relative`` scales the
    deviation by sqrt((m+u)/k), which keeps the same cells and L.
    """
    n = m + u
    width = m * u // n + 1  # no row's positive-deviation prefix is longer
    empty = (np.empty(0), np.empty(0), np.empty(0, dtype=np.int64))
    kept = dict.fromkeys(variants, empty)
    k0 = k_first
    while k0 <= k_last:
        # A block has at least as many cells as any variant keeps points, so
        # merging them in costs no more than the block itself.
        rows = max(_BLOCK_ROWS, max(len(e[0]) for e in kept.values()) // width)
        k = np.arange(k0, min(k0 + rows, k_last + 1), dtype=np.int64)[:, None]
        neg, log_tail, keep = _pairs(m, u, k, table.__getitem__)
        for variant, env in kept.items():
            scaled = neg * np.sqrt(n / k) if variant == "relative" else neg
            kept[variant] = _merge(env, scaled, log_tail, keep, k, n)
        k0 += rows
    return kept


def _split_k(m: int, u: int) -> int:
    """First k of the upper range: the k that halves the estimated cost of ``_build``.

    Row k costs its positive-deviation cells plus, for merging into the
    change points kept so far, 0.7 - 0.3 k/(m+u) row widths: the lower rows
    keep more change points.  The two weights were fitted to the k that
    balanced the two ranges' measured build times on ten shapes from
    (1000, 1000) to (20 000, 500) and (200, 50 000), and place it within
    2.2 % of m + u on each (halving the cells alone missed by up to 14 %).
    """
    n = m + u
    k = np.arange(1, n + 1, dtype=np.int64)
    cells = -(-k * m // n) - np.maximum(k - u, 0)  # ceil(k*m/n) - max(k-u, 0), as in _pairs
    cost = np.cumsum(cells + (m * u // n + 1) * (0.7 - 0.3 * k / n))
    return int(np.searchsorted(cost, cost[-1] / 2)) + 1


@lru_cache(maxsize=16)
def _envelopes(m: int, u: int, variants: tuple[str, ...]) -> dict[str, tuple]:
    """The worst-case-over-k tail of each of ``variants``, as a step function of the threshold.

    Every pair (k >= 1, r) with positive (scaled) deviation d contributes
    its cumulative log-tail L, the log of Pr{deviation > eps} for eps just
    below d.  The worst case at eps is the largest L over pairs with
    d > eps.  Only its change points are kept, as arrays (-d ascending, L,
    smallest k attaining L), keyed by variant, built by ``_build``.  Steps
    whose tails underflow (exp(L) = 0) are kept for ``epsilon_star``'s
    log-space rule.

    Where m*u is at least ``_FORK_MIN_MU`` and a ``second_cpu`` is usable,
    a forked worker builds the k from ``_split_k`` up while the caller builds
    the k below, and one ``_change_points`` call merges each variant's two
    sets of change points: those of the union are those of the parts'
    change points together, so the bits are those of one build.  Fork is
    safe here: the worker runs NumPy's elementwise kernels and sorts,
    pickling and one pipe write, so it makes no BLAS call and takes no lock
    another thread of the caller could hold.  If the worker cannot start or
    dies, the caller builds the upper range too.

    L sums ``gammaln`` table values, whose cancellation grows with n, so the
    log-tails are held to an absolute error of 1e-9 (measured at
    ``MAX_ENVELOPE_N``), not to ``log_binomial``'s 1e-10.  A shape with m*u
    above ``MAX_ENVELOPE_MU`` or m + u above ``MAX_ENVELOPE_N`` raises
    ValueError before any table is built.
    """
    HypergeomSpec(m, u, 0)  # validates m and u
    n = m + u
    if m * u > MAX_ENVELOPE_MU or n > MAX_ENVELOPE_N:
        raise ValueError(f"m={m}, u={u} is too large for the exact worst-case tail: m*u = "
                         f"{m * u} (limit {MAX_ENVELOPE_MU}), m+u = {n} (limit {MAX_ENVELOPE_N})")
    table = gammaln(np.arange(1, n + 2, dtype=np.float64))  # table[j] = ln j!
    if m * u < _FORK_MIN_MU or not second_cpu():
        return _build(m, u, variants, 1, n, table)
    split = _split_k(m, u)
    with forked(_build, m, u, variants, split, n, table) as worker:
        lower = _build(m, u, variants, 1, split - 1, table)
        upper = worker() if worker else None
    if upper is None:
        upper = _build(m, u, variants, split, n, table)
    return {v: _change_points(*map(np.concatenate, zip(lower[v], upper[v])), n)
            for v in variants}


def gamma(eps: float, m: int, u: int, variant: str = "absolute") -> float:
    """Worst case over k of the exact deviation tail at a finite eps >= 0.

    ``absolute`` maximises Pr{deviation > eps} itself; ``relative`` scales the
    threshold by sqrt(k/(m+u)) before taking the tail, which is the form the
    relative-deviation bound inverts.  k = 0 contributes 0 either way.
    """
    _check_nonnegative("eps", eps)
    _check_choice("variant", variant, VARIANTS)
    neg, log_tail, _ = _envelopes(m, u, VARIANTS)[variant]
    j = int(np.searchsorted(neg, -eps, side="left"))
    return math.exp(log_tail[j - 1]) if j else 0.0


def _log_inverse(prior_mass: float) -> float:
    """ln(1/p) of a given prior mass p in (0, 1]: -ln p only where 1/p overflows."""
    return -math.log(prior_mass) if 1.0 / prior_mass == math.inf else math.log(1.0 / prior_mass)


def epsilon_star(prior_mass: float, delta: float, m: int, u: int,
                 variant: str = "absolute") -> EpsilonStar:
    """Exact minimal eps with gamma(eps) <= prior_mass * delta.

    The worst-case tail is a right-continuous step function that only jumps
    at the finitely many attainable (scaled) deviations, so the minimiser is
    the deviation of the first envelope step whose tail exceeds
    prior_mass * delta (0 if none does); no root finding is involved.
    Where prior_mass * delta is a normal float, the tails exp(L) are compared
    with it (tails that underflow read as 0 and name no ``achieving_k``);
    below that, L itself is compared with ln(delta) - ln(1/prior_mass).
    """
    _check_mass("prior_mass", prior_mass)
    _check_probability("delta", delta)
    _check_choice("variant", variant, VARIANTS)
    return _epsilon_star(_log_inverse(prior_mass), delta, _envelopes(m, u, VARIANTS)[variant],
                         variant, prior_mass)


def _epsilon_star(log_inv_p: float, delta: float, envelope, variant: str,
                  prior_mass: float | None = None) -> EpsilonStar:
    """``epsilon_star`` at ln(1/p) = ``log_inv_p`` on ``variant``'s envelope from ``_envelopes``,
    with p = exp(-ln(1/p)) unless given; delta must be in (0, 1)."""
    neg, log_tail, ks = envelope
    level = (math.exp(-log_inv_p) if prior_mass is None else prior_mass) * delta
    if level >= np.finfo(float).tiny:  # the smallest normal float
        j = bisect_right(log_tail, level, key=math.exp)
        lo = bisect_right(log_tail, 0.0, key=math.exp)  # steps gamma reads as 0
    else:
        j = bisect_right(log_tail, math.log(delta) - log_inv_p)
        lo = 0
    value = float(-neg[j]) if j < len(neg) else 0.0
    return EpsilonStar(value=value, variant=variant, achieving_k=int(ks[j - 1]) if j > lo else 0)


def vapnik_bound(emp_risk: float, eps_star: EpsilonStar, m: int, u: int) -> BoundValue:
    """Test-risk bound implied by an inverted deviation threshold.

    Relative variant: R + e^2 u / (2(m+u)) + e * sqrt(R + (e u / (2(m+u)))^2)
    with e = eps_star.value; absolute variant: R + e.
    """
    _check_unit("emp_risk", emp_risk)
    e = eps_star.value
    if eps_star.variant == "absolute":
        raw = emp_risk + e
        name = "vapnik_absolute"
    else:
        half = e * u / (2.0 * (m + u))
        raw = emp_risk + e * half + e * math.sqrt(emp_risk + half * half)
        name = "vapnik_relative"
    return BoundValue(raw=raw, clamped=min(raw, 1.0), name=name)
