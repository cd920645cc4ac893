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

from ._fork import beside, second_cpu
from .records import (BoundValue, _check_choice, _check_integer, _check_mass, _check_nonnegative,
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
#   (7000, 7000)      2.2 s / 4.5 s     1.6 s / 3.5 s
#   (500, 99 500)     3.3 s / 7.1 s     2.1 s / 5.2 s
#   (250, 199 750)    3.7 s / 8.7 s
# So the cap keeps a cold build within about 4 s on two CPUs and 9 s on one.
# Both variants at 7000 peaked at 84 MB resident in the caller and 57 MB in
# the worker, 81 MB on one CPU.
MAX_ENVELOPE_MU = 50_000_000

# Largest m + u whose envelope is built.  The log-pmf error grows with n (as
# about n ln n ulps): against 40-digit arithmetic, the largest over sampled
# (k, r) was 4.1e-11 at m = u = 5000, 2.2e-10 at (m, u) = (1000, 49 000),
# 3.7e-10 at (10, 99 990), 7.0e-10 at (10, 199 990) and 3.6e-9 at (10, 10**6),
# so the cap holds it below 1e-9.  An envelope keeps 24 bytes per change
# point, and the count per k depends on the shape: absolute and relative kept
# 0.85 and 4.3 per k at m = u = 2000, 0.86 and 6.8 at 7000, and 1.0-1.1 each
# at (250, 199 750) and (100, 199 900).  A cached shape holds both variants:
# 0.5 MB at 2000, 2.6 MB at 7000 and at most 10.1 MB (at (250, 199 750)) of
# the shapes measured, so the 16-shape cache stays near or below 160 MB.
# With m <= 10 a build of both variants at the cap took 0.3-0.4 s on the
# machine above.
MAX_ENVELOPE_N = 200_000

# Pair cells per block of the envelope build: max(1, _BLOCK_CELLS // w) rows
# of k, for rows at most w = m*u/(m+u) + 1 cells wide.  A merge costs its
# block and survivors, not the points kept, so memory sets the size (a build
# peaks near 45 bytes per cell).  Both variants cold on one CPU, medians of 7
# alternating builds in one process:
#   cells      (1000, 1000)  (2000, 2000)  (500, 20 000)  tracemalloc peak at 1000 / 2000
#   50 000     57 ms         238 ms        0.85 s         2.2 / 2.9 MB
#   100 000    59 ms         224 ms        0.76 s         4.2 / 4.5 MB
#   200 000    66 ms         217 ms        0.69 s         8.1 / 8.4 MB
_BLOCK_CELLS = 100_000

# Smallest m*u at which ``_envelopes`` builds the even k in a forked worker
# while the caller builds the odd k.  Starting, reaping and copy-on-write
# cost the fork 5-15 ms.  Both variants cold, in-process against forked,
# medians of 15 alternating calls in one process (ms, 2 vCPUs):
#   (m, u)  (250, 62)  (500, 500)  (1000, 250)  (600, 600)  (650, 650)
#           4.1 / 17   31 / 50     34 / 53      41 / 40     47 / 45
#   (m, u)  (700, 700) (1000, 500) (250, 2000)  (1000, 1000) (2000, 500) (2000, 2000)
#           44 / 43    51 / 44     54 / 46      85 / 57      86 / 68      322 / 179
# Below 5e5 the fork gains at most 3 ms, less than the 20 ms a fork can
# cost in a long-lived process.  While another tenant held the second vCPU,
# both processes ran at half speed, and forking gained nothing.
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
        object.__setattr__(self, "m", _check_size("m", self.m))
        object.__setattr__(self, "u", _check_size("u", self.u))
        object.__setattr__(self, "k", _check_size("k", self.k, 0, self.m + self.u))


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
    n = _check_size("n", n, 0)
    r = _check_size("r", r, 0, n)
    if r == 0 or r == n:
        return 0.0
    if n <= _LGAMMA_SAFE_N:
        return math.lgamma(n + 1) - math.lgamma(r + 1) - math.lgamma(n - r + 1)
    import mpmath  # about 30 ms of import time, paid only on this branch

    with mpmath.workdps(30):
        v = mpmath.loggamma(n + 1) - mpmath.loggamma(r + 1) - mpmath.loggamma(n - r + 1)
        return float(v)


def _log_pmf(log_fact, n: int, m: int, k, r, k_r=None):
    """ln C(k, r) + ln C(n-k, m-r) - ln C(n, m), given log_fact(j) = ln j! and k_r = k - r;
    each term is read where it is used, so arrays of pairs need two temporaries."""
    k_r = k - r if k_r is None else k_r
    y = log_fact(n - k) - log_fact(m - r)
    y -= log_fact(n - m - k_r)  # n-k-m+r
    x = log_fact(k) - log_fact(r)
    x -= log_fact(k_r)
    x += y
    x -= log_fact(n) - log_fact(m) - log_fact(n - m)
    return x


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
    in log space and exponentiated.  A fractional r raises a ValueError.
    """
    r = _check_integer("r", r)
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
    j = np.arange(width, dtype=np.int64)
    # Pad cells past a row's support lo <= r <= min(k, m) read its end
    # instead, so every ln j! read is in the table; their d stays <= 0.
    if k[-1, 0] <= u:  # r = j on every row: ln r! and ln(m-r)! are one row each
        r, k_r = j, np.maximum(k - j, 0)
    elif k[0, 0] > u:  # k-r = u-j on every row: ln(k-r)! and ln(n-k-m+r)! = ln j! too
        r, k_r = np.minimum(lo + j, m), u - j
    else:
        r = np.minimum(lo + j, np.minimum(k, m))
        k_r = k - r
    neg = -(k_r / u - r / m)
    # rounding only shortens a prefix: a computed deviation is never positive
    # where the exact one is not
    keep = neg < 0
    log_pmf = _log_pmf(log_fact, n, m, k, r, k_r)
    log_pmf[~keep] = -np.inf
    return neg, np.logaddexp.accumulate(log_pmf, axis=1, out=log_pmf), keep


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
    level = np.cumsum(np.r_[True, best[1:] > best[:-1]]) * (n + 1)
    ks = np.where(log_tail == best, ks, n + 1) - level
    del order, log_tail  # a build peaks in memory around here
    ks = np.minimum.accumulate(ks, out=ks) + level

    ends = np.r_[neg[1:] != neg[:-1], True]
    neg, best, ks = neg[ends], best[ends], ks[ends]
    change = np.r_[True, (best[1:] != best[:-1]) | (ks[1:] != ks[:-1])]
    return neg[change], best[change], ks[change]


def _merge(kept, neg, log_tail, keep, k, n: int):
    """``kept`` change points with a block of ``_pairs`` cells (k above all of kept's) merged in.

    A cell never shows if its L is no higher than the kept envelope at its
    -d (a kept point of smaller k attains at least as much there) or lower
    than the block's last row at its -d (a cell of that row beats it
    wherever it counts), so only the other cells, the survivors, are merged.
    Along a row -d rises and that floor never falls, so a whole
    ``_SEGMENT``-cell row segment is first tested against the floor at its
    first cell, and only the cells it leaves get the exact test.  A survivor
    lies above every kept point at or before its -d, so each of the
    survivors' change points replaces the kept points from its -d up to the
    next one's whose L is below its own (one of equal L stays: its k is smaller).
    """
    # The floor at -d is the running max over the breakpoints of both step
    # functions up to -d: the last row's, inserted among the kept points, with
    # L taken one float lower, so that a tie keeps the cell.
    row = neg[-1][keep[-1]]
    at = np.searchsorted(kept[0], row, side="right")
    floor = np.insert(kept[1], at, np.nextafter(log_tail[-1][keep[-1]], -np.inf))
    at = np.insert(kept[0], at, row)
    floor = np.r_[-np.inf, np.maximum.accumulate(floor)]  # floor[i]: at -d in [at[i-1], at[i])
    seg = floor[np.searchsorted(at, neg[:, ::_SEGMENT], side="right")]
    live = keep & (log_tail > np.repeat(seg, _SEGMENT, axis=1)[:, :neg.shape[1]])
    live[live] = log_tail[live] > floor[np.searchsorted(at, neg[live], side="right")]
    neg, log_tail, ks = _change_points(neg[live], log_tail[live],
                                       np.broadcast_to(k, live.shape)[live], n)
    if not len(neg):
        return kept
    start = np.searchsorted(kept[0], neg, side="left")  # first kept point at or after its -d
    below = np.searchsorted(kept[1], log_tail, side="left")  # kept points with L below its own
    # every kept point before start has L below the survivor's, so below >= start
    run = np.minimum(np.r_[start[1:], len(kept[0])], below) - start
    at = start + run - np.cumsum(run)  # each survivor's place among the kept points left
    rest = np.ones(len(kept[0]), dtype=bool)
    rest[np.repeat(at, run) + np.arange(run.sum())] = False
    return tuple(np.insert(a[rest], at, b) for a, b in zip(kept, (neg, log_tail, ks)))


def _build(m: int, u: int, variants: tuple[str, ...], part: int, parts: int, table):
    """Change points of each of ``variants`` over the pairs with k = part + 1 (mod parts).

    One pass over blocks of ascending k, none straddling k = u, computes the
    pairs of each block's rows of this part once (``_pairs``, from
    ``table[j] = ln j!``) and merges them into every variant's change points
    (``_merge``), so memory stays O(_BLOCK_CELLS + change points).  A block
    spans ``parts`` times as many k as one part builds rows of, so each part
    keeps the cell budget; with parts = 1 every k is built.  Adjacent rows
    cost nearly the same, so the parts of one shape cost nearly the same.
    ``relative`` scales the deviation by sqrt((m+u)/k), which keeps the same
    cells and L.
    """
    n = m + u
    width = m * u // n + 1  # no row's positive-deviation prefix is longer
    empty = (np.empty(0), np.empty(0), np.empty(0, dtype=np.int64))
    kept = dict.fromkeys(variants, empty)
    span = parts * max(1, _BLOCK_CELLS // width)
    k0 = 1
    while k0 <= n:
        k_end = min(k0 + span, u + 1 if k0 <= u else n + 1)
        k = np.arange(k0 + (part + 1 - k0) % parts, k_end, parts, dtype=np.int64)[:, None]
        if len(k):  # a block of fewer than ``parts`` k may hold none of this part's
            neg, log_tail, keep = _pairs(m, u, k, table.__getitem__)
            for variant, env in kept.items():
                kept[variant] = _merge(env, neg * np.sqrt(n / k) if variant == "relative" else neg,
                                       log_tail, keep, k, n)
            del neg, log_tail, keep  # before the next block's pairs are made
        k0 = k_end
    return kept


@lru_cache(maxsize=16, typed=True)  # typed: 10.0 must not read the entry of 10
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
    the caller builds the odd k while a forked worker builds the even k
    (``_fork.beside``), and one ``_change_points`` call merges each
    variant's two sets of change points: those of the union are those of the
    parts' change points together, so the bits are those of one build.

    L sums ``gammaln`` table values, whose cancellation grows with n, so the
    log-tails are held to an absolute error of 1e-9 (measured at
    ``MAX_ENVELOPE_N``), not to ``log_binomial``'s 1e-10.  A shape with m*u
    above ``MAX_ENVELOPE_MU`` or m + u above ``MAX_ENVELOPE_N`` raises
    ValueError before any table is built.
    """
    m = _check_size("m", m)
    u = _check_size("u", u)
    n = m + u
    if m * u > MAX_ENVELOPE_MU or n > MAX_ENVELOPE_N:
        raise ValueError(f"m={m}, u={u} is too large for the exact worst-case tail: m*u = "
                         f"{m * u} (limit {MAX_ENVELOPE_MU}), m+u = {n} (limit {MAX_ENVELOPE_N})")
    table = gammaln(np.arange(1, n + 2, dtype=np.float64))  # table[j] = ln j!
    if m * u < _FORK_MIN_MU or not second_cpu():
        return _build(m, u, variants, 0, 1, table)
    # the worker builds the even k
    odd, even = beside(lambda: _build(m, u, variants, 0, 2, table),
                       lambda: _build(m, u, variants, 1, 2, table))
    return {v: _change_points(*map(np.concatenate, zip(odd[v], even[v])), n) for v in variants}


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


def _vapnik_raw(variant: str, emp_risk, e: float, m: int, u: int):
    """Test-risk bound at deviation threshold e, elementwise over an array of empirical risks.

    Relative variant: R + e^2 u / (2(m+u)) + e * sqrt(R + (e u / (2(m+u)))^2);
    absolute variant: R + e.
    """
    if variant == "absolute":
        return emp_risk + e
    half = e * u / (2.0 * (m + u))
    return emp_risk + e * half + e * np.sqrt(emp_risk + half * half)


def vapnik_bound(emp_risk: float, eps_star: EpsilonStar, m: int, u: int) -> BoundValue:
    """Test-risk bound implied by an inverted deviation threshold; see ``_vapnik_raw``."""
    _check_unit("emp_risk", emp_risk)
    m = _check_size("m", m)
    u = _check_size("u", u)
    raw = float(_vapnik_raw(eps_star.variant, emp_risk, eps_star.value, m, u))
    return BoundValue(raw=raw, name=f"vapnik_{eps_star.variant}")
