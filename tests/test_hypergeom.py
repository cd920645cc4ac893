"""Exact-tail machinery checked against brute-force split enumeration."""

import errno
import functools
import itertools
import math
import multiprocessing
import os
import time
import tracemalloc
import warnings
from bisect import bisect_right
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import gammaln

from transbound import hypergeom
from transbound.hypergeom import (
    EpsilonStar,
    HypergeomSpec,
    deviation_tail,
    epsilon_star,
    gamma,
    hypergeom_pmf,
    log_binomial,
    vapnik_bound,
)


def enumerate_splits(m, u, k):
    """Training-error counts r over all C(m+u, m) splits; errors sit at 0..k-1."""
    n = m + u
    for subset in itertools.combinations(range(n), m):
        yield sum(1 for i in subset if i < k)


def brute_pmf(r, m, u, k):
    counts = [rr for rr in enumerate_splits(m, u, k)]
    return Fraction(sum(1 for rr in counts if rr == r), len(counts))


def brute_tail(eps, m, u, k):
    total = hits = 0
    for r in enumerate_splits(m, u, k):
        total += 1
        if (k - r) / u - r / m > eps:
            hits += 1
    return Fraction(hits, total)


@functools.cache
def _ref_envelope(m, u, variant):
    """The single-sort envelope build: every positive-deviation pair, one argsort.

    Kept as the reference the block-by-block ``hypergeom._envelopes`` must
    equal bit for bit.
    """
    n = m + u
    table = gammaln(np.arange(1, n + 2, dtype=np.float64))
    negs, tails, counts = [], [], []
    for k in range(1, n + 1):
        r = np.arange(max(k - u, 0), min(m, k) + 1, dtype=np.int64)
        dev = (k - r) / u - r / m
        log_pmf = hypergeom._log_pmf(table.__getitem__, n, m, k, r)
        neg = -dev * math.sqrt(n / k) if variant == "relative" else -dev
        j = int(np.searchsorted(neg, 0.0, side="left"))
        negs.append(neg[:j])
        tails.append(np.logaddexp.accumulate(log_pmf[:j]))
        counts.append(j)
    neg = np.concatenate(negs)
    order = np.argsort(neg)
    neg, log_tail = neg[order], np.concatenate(tails)[order]
    ks = np.repeat(np.arange(1, n + 1), counts)[order]

    best = np.maximum.accumulate(log_tail)
    level = np.cumsum(np.r_[True, best[1:] > best[:-1]])
    key = np.where(log_tail == best, ks, n + 1) - level * (n + 1)
    ks = np.minimum.accumulate(key) + level * (n + 1)

    ends = np.r_[neg[1:] != neg[:-1], True]
    neg, best, ks = neg[ends], best[ends], ks[ends]
    change = np.r_[True, (best[1:] != best[:-1]) | (ks[1:] != ks[:-1])]
    return neg[change], best[change], ks[change]


def positive_deviations(m, u, variant):
    """Ascending distinct positive deviations (k-r)/u - r/m over k >= 1, scaled
    by sqrt((m+u)/k) for the relative variant: the points where gamma jumps."""
    n = m + u
    out = set()
    for k in range(1, n + 1):
        for r in range(max(k - u, 0), min(m, k) + 1):
            dev = (k - r) / u - r / m
            if variant == "relative":
                dev = dev * math.sqrt(n / k)
            if dev > 0:
                out.add(dev)
    return sorted(out)


class TestLogBinomial:
    def test_small_exact(self):
        assert log_binomial(4, 2) == pytest.approx(math.log(6), abs=1e-12)

    @pytest.mark.parametrize("n,r", [(17, 0), (17, 17), (0, 0)])
    def test_edges(self, n, r):
        assert log_binomial(n, r) == 0.0

    def test_against_exact_integers(self):
        for n in range(0, 61):
            for r in range(0, n + 1):
                assert log_binomial(n, r) == pytest.approx(
                    math.log(math.comb(n, r)), abs=1e-11
                )

    @pytest.mark.parametrize(
        "n,r",
        [(10 ** 6, 500_000), (10 ** 6, 123_456), (10 ** 6, 3), (54_321, 10_000)],
    )
    def test_large_n_accuracy(self, n, r):
        import mpmath

        with mpmath.workdps(40):
            want = float(
                mpmath.loggamma(n + 1) - mpmath.loggamma(r + 1) - mpmath.loggamma(n - r + 1)
            )
        assert abs(log_binomial(n, r) - want) <= 1e-10

    @pytest.mark.parametrize("n,r", [(3, 4), (-1, 0), (5, -2)])
    def test_domain_errors(self, n, r):
        with pytest.raises(ValueError):
            log_binomial(n, r)


class TestPmf:
    def test_two_thirds(self):
        spec = HypergeomSpec(m=2, u=2, k=2)
        want = brute_pmf(1, 2, 2, 2)
        assert want == Fraction(2, 3)
        assert hypergeom_pmf(1, spec) == pytest.approx(float(want), rel=1e-13)

    def test_no_errors(self):
        assert hypergeom_pmf(0, HypergeomSpec(m=5, u=3, k=0)) == pytest.approx(1.0)

    def test_outside_support_is_zero(self):
        spec = HypergeomSpec(m=3, u=2, k=4)
        assert hypergeom_pmf(0, spec) == 0.0  # k - u = 2 > 0
        assert hypergeom_pmf(4, spec) == 0.0  # r > m

    def test_r_must_be_an_integer(self):
        # a fractional r lies outside the support too, but is an input error
        spec = HypergeomSpec(m=5, u=5, k=3)
        for bad in (0.5, 1.0, np.float64(2.5)):
            with pytest.raises(ValueError, match=rf"^r must be an integer, got {bad}$"):
                hypergeom_pmf(bad, spec)
        assert hypergeom_pmf(-1, spec) == 0.0
        assert hypergeom_pmf(np.int32(1), spec) == hypergeom_pmf(1, spec) > 0.0

    @pytest.mark.parametrize("m,u,k", [(3, 4, 2), (5, 5, 7), (2, 6, 0), (4, 4, 8)])
    def test_matches_enumeration(self, m, u, k):
        for r in range(0, m + 1):
            want = brute_pmf(r, m, u, k)
            assert hypergeom_pmf(r, HypergeomSpec(m, u, k)) == pytest.approx(
                float(want), abs=1e-13
            )

    def test_normalisation(self):
        for m, u in [(7, 9), (20, 40), (30, 30)]:
            for k in range(0, m + u + 1):
                spec = HypergeomSpec(m, u, k)
                s = sum(hypergeom_pmf(r, spec) for r in range(max(k - u, 0), min(m, k) + 1))
                assert abs(s - 1.0) < 1e-12

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            HypergeomSpec(m=0, u=2, k=0)
        with pytest.raises(ValueError):
            HypergeomSpec(m=2, u=2, k=5)


class TestDeviationTail:
    def test_small_case(self):
        want = brute_tail(0.5, 2, 2, 2)
        assert want == Fraction(1, 6)
        assert deviation_tail(0.5, HypergeomSpec(2, 2, 2)) == pytest.approx(
            float(want), rel=1e-12
        )

    def test_zero_errors(self):
        assert deviation_tail(0.1, HypergeomSpec(4, 4, 0)) == 0.0

    def test_above_max_deviation(self):
        for k in range(0, 9):
            spec = HypergeomSpec(4, 4, k)
            assert deviation_tail(k / 4, spec) == 0.0

    @pytest.mark.parametrize("m,u,k", [(3, 5, 4), (4, 4, 3), (5, 3, 6)])
    def test_matches_enumeration_on_grid(self, m, u, k):
        spec = HypergeomSpec(m, u, k)
        for eps in np.linspace(0.0, 1.5, 40):
            want = float(brute_tail(float(eps), m, u, k))
            assert deviation_tail(float(eps), spec) == pytest.approx(want, abs=1e-12)

    def test_nonincreasing_in_eps(self):
        spec = HypergeomSpec(6, 10, 9)
        grid = np.linspace(0, 1, 60)
        vals = [deviation_tail(float(e), spec) for e in grid]
        assert all(a >= b - 1e-15 for a, b in zip(vals, vals[1:]))

    def test_rejects_negative_eps(self):
        with pytest.raises(ValueError):
            deviation_tail(-0.1, HypergeomSpec(2, 2, 1))

    @pytest.mark.parametrize("m,u", [(1, 1), (3, 7), (50, 13)])
    def test_no_scale_at_either_end(self, m, u):
        # k = 0 and k = m + u leave no positive deviation; reading the row
        # must form no sqrt((m+u)/k), where k = 0 would give 0 * inf = NaN
        with warnings.catch_warnings(), np.errstate(all="raise"):
            warnings.simplefilter("error")
            for k in (0, m + u):
                for eps in (0.0, 0.5, 2.0):
                    assert deviation_tail(eps, HypergeomSpec(m, u, k)) == 0.0

    @pytest.mark.parametrize("m,u", [(1, 1), (3, 7), (20, 20), (50, 13), (90, 150)])
    def test_equals_the_tabulated_row_on_every_k(self, m, u):
        # deviation_tail reads gammaln of its row's own arguments; the envelope's
        # pairs read the same values from a table of m + u + 2 entries
        table = gammaln(np.arange(1, m + u + 2, dtype=np.float64))
        neg, log_tail, keep = hypergeom._pairs(m, u, np.arange(m + u + 1)[:, None],
                                               table.__getitem__)
        for k in range(m + u + 1):
            spec = HypergeomSpec(m, u, k)
            row, tail = neg[k][keep[k]], log_tail[k][keep[k]]
            dev = -row
            for eps in [0.0, *dev[::4], *np.nextafter(dev, -1.0)[::4]]:
                j = int(np.searchsorted(row, -eps, side="left"))
                want = math.exp(tail[j - 1]) if j else 0.0
                assert deviation_tail(float(eps), spec) == want


class TestGamma:
    def test_huge_eps_is_zero(self):
        assert gamma(5.0, 4, 4, "absolute") == 0.0
        assert gamma(5.0, 4, 4, "relative") == 0.0

    def test_absolute_at_zero_small_case(self):
        # brute force over every k of Pr{deviation > 0} on the 4-point sample
        want = max(float(brute_tail(0.0, 2, 2, k)) for k in range(5))
        assert want == 0.5
        assert gamma(0.0, 2, 2, "absolute") == pytest.approx(want, rel=1e-12)

    def test_relative_matches_scaled_tails(self):
        m, u = 4, 6
        n = m + u
        for eps in [0.0, 0.3, 0.8, 1.4]:
            want = max(
                float(brute_tail(math.sqrt(k / n) * eps, m, u, k)) for k in range(1, n + 1)
            )
            assert gamma(eps, m, u, "relative") == pytest.approx(want, abs=1e-12)

    def test_nonincreasing(self):
        grid = np.linspace(0, 2, 50)
        for variant in ("absolute", "relative"):
            vals = [gamma(float(e), 3, 5, variant) for e in grid]
            assert all(a >= b - 1e-15 for a, b in zip(vals, vals[1:]))


class TestEpsilonStar:
    def test_small_case_absolute(self):
        # thresholds on the 4-point sample are {0, 0.5, 1}; gamma(0) = 1/2,
        # gamma(0.5) = 1/6 <= 0.2, so the minimiser is 0.5 (attained at k=2)
        star = epsilon_star(1.0, 0.2, 2, 2, "absolute")
        assert star.value == pytest.approx(0.5, abs=1e-15)
        assert star.achieving_k == 2

    def test_trivial_when_constraint_already_met(self):
        g0 = gamma(0.0, 2, 2, "absolute")
        star = epsilon_star(1.0, min(0.99, g0 + 0.3), 2, 2, "absolute")
        assert star.value == 0.0

    def test_nonincreasing_in_delta(self):
        deltas = [0.01, 0.05, 0.1, 0.3, 0.6]
        vals = [epsilon_star(0.5, d, 5, 7, "absolute").value for d in deltas]
        assert all(a >= b - 1e-15 for a, b in zip(vals, vals[1:]))
        vals = [epsilon_star(0.5, d, 5, 7, "relative").value for d in deltas]
        assert all(a >= b - 1e-15 for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("variant", ["absolute", "relative"])
    @pytest.mark.parametrize("p,delta", [(1.0, 0.1), (0.25, 0.05), (0.03, 0.3)])
    def test_minimality(self, variant, p, delta):
        m, u = 6, 8
        star = epsilon_star(p, delta, m, u, variant)
        assert gamma(star.value, m, u, variant) <= p * delta + 1e-15
        if star.value > 0:
            # every candidate threshold strictly below the result must fail
            below = [c for c in positive_deviations(m, u, variant) if c < star.value]
            prev = below[-1] if below else 0.0
            assert gamma(prev, m, u, variant) > p * delta

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            epsilon_star(0.0, 0.1, 2, 2)
        with pytest.raises(ValueError):
            epsilon_star(0.5, 1.0, 2, 2)

    @pytest.mark.parametrize("m,u", [(0, 5), (-3, 5), (5, 0), (4, -1)])
    def test_nonpositive_sizes(self, m, u):
        for variant in ("absolute", "relative"):
            with pytest.raises(ValueError):
                epsilon_star(0.5, 0.1, m, u, variant)
            with pytest.raises(ValueError):
                gamma(0.1, m, u, variant)

    @pytest.mark.parametrize("m,u", [(100_000, 100_000), (7072, 7072), (2, 30_000_000)])
    def test_oversized_rejected_before_building(self, m, u):
        # without the cap, 10**5 x 10**5 would try to hold 5e9 deviation pairs
        for variant in ("absolute", "relative"):
            with pytest.raises(ValueError, match=f"m={m}, u={u}"):
                epsilon_star(0.5, 0.1, m, u, variant)
            with pytest.raises(ValueError, match="m\\*u"):
                gamma(0.1, m, u, variant)

    def test_population_cap_checked_before_any_table(self, monkeypatch):
        # m*u = 5e7 passes the pair cap; n = m + u does not
        monkeypatch.setattr(hypergeom, "gammaln", lambda j: pytest.fail("table was built"))
        for variant in ("absolute", "relative"):
            with pytest.raises(ValueError, match="m\\+u = 50000001"):
                epsilon_star(0.5, 0.1, 1, 50_000_000, variant)


class TestEnvelopeReference:
    """gamma and epsilon_star equal a brute-force reference bit for bit.

    The reference maximises deviation_tail over k one k at a time (smallest k
    on ties) and scans every attainable threshold in ascending order.
    """

    SHAPES = [(1, 1), (1, 4), (4, 1), (2, 2), (3, 5), (5, 3), (6, 8), (10, 10),
              (7, 17), (17, 7), (12, 12), (20, 9)]
    MASSES = [1.0, 0.3, 0.05, 1e-3, 1e-6, 1e-12]
    DELTAS = [0.01, 0.05, 0.3, 0.9]

    @staticmethod
    def ref_tail(eps, m, u, k, variant):
        """Pr{(scaled) deviation > eps} through deviation_tail on the same r-prefix."""
        if variant == "absolute":
            return deviation_tail(eps, HypergeomSpec(m, u, k))
        # the scaled prefix ends at the first r whose scaled deviation is <= eps;
        # every r before it has a positive deviation, so the unscaled cut works
        n = m + u
        for r in range(max(k - u, 0), min(m, k) + 1):
            dev = (k - r) / u - r / m
            if not dev * math.sqrt(n / k) > eps:
                return deviation_tail(max(dev, 0.0), HypergeomSpec(m, u, k))
        return deviation_tail(0.0, HypergeomSpec(m, u, k))

    def ref_gamma(self, eps, m, u, variant):
        best, best_k = 0.0, 0
        for k in range(1, m + u + 1):
            t = self.ref_tail(eps, m, u, k, variant)
            if t > best:
                best, best_k = t, k
        return best, best_k

    @pytest.mark.parametrize("variant", ["absolute", "relative"])
    @pytest.mark.parametrize("m,u", SHAPES)
    def test_bit_identical(self, m, u, variant):
        cands = [0.0] + positive_deviations(m, u, variant)
        ref = [self.ref_gamma(c, m, u, variant) for c in cands]
        between = [(a + b) / 2 for a, b in zip(cands, cands[1:])] + [cands[-1] + 1.0]
        for c, (g, _) in zip(cands, ref):
            assert gamma(c, m, u, variant) == g
        for e in between:
            assert gamma(e, m, u, variant) == self.ref_gamma(e, m, u, variant)[0]
        for p in self.MASSES:
            for d in self.DELTAS:
                i = next(i for i, (g, _) in enumerate(ref) if g <= p * d)
                star = epsilon_star(p, d, m, u, variant)
                assert (star.value, star.achieving_k) == (cands[i], ref[i][1])

    @pytest.mark.parametrize("rows", [1, 3])
    @pytest.mark.parametrize("variant", ["absolute", "relative"])
    @pytest.mark.parametrize("m,u", SHAPES)
    def test_bit_identical_in_small_blocks(self, m, u, variant, rows, monkeypatch):
        # every shape then spans several blocks: equal deviations fall into
        # different blocks, and ties in L across blocks decide achieving_k
        monkeypatch.setattr(hypergeom, "_BLOCK_CELLS", rows * _row_cells(m, u))
        hypergeom._envelopes.cache_clear()
        try:
            self.test_bit_identical(m, u, variant)
        finally:
            hypergeom._envelopes.cache_clear()


def _same_bits(got, want):
    return all(a.dtype == b.dtype and a.tobytes() == b.tobytes() for a, b in zip(got, want))


def _row_cells(m, u):
    """Cells ``_build`` counts per row of k: a budget of ``rows`` times this makes blocks of ``rows``."""
    return m * u // (m + u) + 1


class TestEnvelopeBlocks:
    """The block-by-block envelope build against the single-sort reference."""

    @pytest.mark.parametrize("variant", ["absolute", "relative"])
    @pytest.mark.parametrize("m,u", [(250, 250), (500, 125), (125, 500), (97, 131),
                                     (1000, 1000), (1, 1), (1, 7), (7, 1), (2, 300), (50, 2000)])
    def test_equals_the_single_sort_build(self, m, u, variant, monkeypatch):
        # the variant alone, as transduce asks for it, and next to the other
        # variant in one pass, in the default blocks and in blocks of 1 and 3
        # rows; (50, 2000) keeps many change points on narrow rows
        want = _ref_envelope(m, u, variant)
        for cells in (hypergeom._BLOCK_CELLS, _row_cells(m, u), 3 * _row_cells(m, u)):
            monkeypatch.setattr(hypergeom, "_BLOCK_CELLS", cells)
            hypergeom._envelopes.cache_clear()
            assert _same_bits(hypergeom._envelopes(m, u, (variant,))[variant], want)
            assert _same_bits(hypergeom._envelopes(m, u, hypergeom.VARIANTS)[variant], want)
        hypergeom._envelopes.cache_clear()

    @pytest.mark.parametrize("variant", ["absolute", "relative"])
    def test_cold_build_memory(self, variant, monkeypatch):
        # the single sort peaked at 31-34 MB per variant here; one pass over
        # blocks of k builds the variant alone, or both variants, in a few MB;
        # one usable CPU keeps the whole build in this process, where it is traced
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        for variants in ((variant,), hypergeom.VARIANTS):
            hypergeom._envelopes.cache_clear()
            tracemalloc.start()
            try:
                hypergeom._envelopes(1000, 1000, variants)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
                hypergeom._envelopes.cache_clear()
            assert peak <= 12 * 2**20, variants

    def test_log_pmf_accuracy_at_n_50000(self):
        # MAX_ENVELOPE_N's comment gives 2.2e-10 here, the largest error over
        # 20 000 sampled (k, r) against 40-digit arithmetic; these 1000 samples
        # must stay within 2.5e-10, a margin for other scipy builds of gammaln
        m, u = 1000, 49_000
        n = m + u
        table = gammaln(np.arange(1, n + 2, dtype=np.float64))
        rng = np.random.default_rng(7)
        worst = 0.0
        with mpmath.workdps(40):
            lf = lambda j: mpmath.loggamma(j + 1)
            for k in rng.integers(1, n + 1, size=1000).tolist():
                r = int(rng.integers(max(k - u, 0), min(m, k) + 1))
                want = (lf(k) - lf(r) - lf(k - r) + (lf(n - k) - lf(m - r) - lf(n - k - m + r))
                        - (lf(n) - lf(m) - lf(n - m)))
                got = hypergeom._log_pmf(table.__getitem__, n, m, k, r)
                worst = max(worst, abs(float(mpmath.mpf(float(got)) - want)))
        assert worst <= 2.5e-10


class TestEnvelopeWorker:
    """The even k built in a forked worker, with the m*u threshold patched down."""

    @pytest.fixture
    def builds(self, monkeypatch):
        """The (part, parts) built in this process: not the worker's."""
        monkeypatch.setattr(hypergeom, "_FORK_MIN_MU", 0)
        made = []

        def counted(m, u, variants, part, parts, table, build=hypergeom._build):
            made.append((part, parts))
            return build(m, u, variants, part, parts, table)

        monkeypatch.setattr(hypergeom, "_build", counted)
        hypergeom._envelopes.cache_clear()
        yield made
        hypergeom._envelopes.cache_clear()

    BOTH_PARTS = [(0, 2), (1, 2)]  # both built in this process

    @staticmethod
    def _check(m, u, variants=hypergeom.VARIANTS):
        hypergeom._envelopes.cache_clear()
        got = hypergeom._envelopes(m, u, variants)
        assert all(_same_bits(got[v], _ref_envelope(m, u, v)) for v in variants)
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("m,u", [(1, 1), (1, 7), (7, 1), (2, 300), (97, 131), (250, 250),
                                     (1000, 1000)])
    def test_equals_the_single_sort_build(self, m, u, builds):
        # each variant alone, as transduce asks for it, and both in one pass
        for variants in (("absolute",), ("relative",), hypergeom.VARIANTS):
            builds.clear()
            self._check(m, u, variants)
            assert builds == [(0, 2)]

    @pytest.mark.parametrize("rows", [1, 3])
    @pytest.mark.parametrize("m,u", [(1, 1), (1, 7), (7, 1), (2, 300), (97, 131), (50, 2000)])
    def test_bit_identical_in_small_blocks(self, m, u, rows, builds, monkeypatch):
        # blocks of 1 and 3 rows per part: a block cut short at k = u or
        # k = m + u may hold no row of one part
        monkeypatch.setattr(hypergeom, "_BLOCK_CELLS", rows * _row_cells(m, u))
        self._check(m, u)
        assert builds == [(0, 2)]

    @pytest.mark.parametrize("rows", [1, 3, 1000])
    @pytest.mark.parametrize("m,u", [(1, 1), (1, 7), (7, 1), (2, 300), (97, 131), (50, 2000)])
    def test_parts_build_every_k_once(self, m, u, rows, monkeypatch):
        monkeypatch.setattr(hypergeom, "_BLOCK_CELLS", rows * _row_cells(m, u))
        ks = []

        def counted(m, u, k, log_fact, pairs=hypergeom._pairs):
            assert len(k) == 1 or np.all(np.diff(k[:, 0]) == 2)
            last = int(k[-1, 0])
            assert k[0, 0] > u or last <= u  # no block straddles k = u
            # a part's block holds its rows unless k = u or k = m + u cuts it short
            assert len(k) == rows or (len(k) < rows and last + 2 > (u if last <= u else m + u))
            ks.extend(k[:, 0].tolist())
            return pairs(m, u, k, log_fact)

        monkeypatch.setattr(hypergeom, "_pairs", counted)
        table = gammaln(np.arange(1, m + u + 2, dtype=np.float64))
        hypergeom._build(m, u, hypergeom.VARIANTS, 0, 2, table)
        assert all(k % 2 == 1 for k in ks)
        odd = len(ks)
        hypergeom._build(m, u, hypergeom.VARIANTS, 1, 2, table)
        assert all(k % 2 == 0 for k in ks[odd:])
        assert sorted(ks) == list(range(1, m + u + 1))

    def test_a_part_without_positive_deviations_keeps_nothing(self):
        # at (1, 1) only k = 1 has a pair with d > 0
        table = gammaln(np.arange(1, 4, dtype=np.float64))
        for env in hypergeom._build(1, 1, hypergeom.VARIANTS, 1, 2, table).values():
            assert [len(a) for a in env] == [0, 0, 0]

    def test_one_usable_cpu_builds_in_process(self, builds, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked"))
        self._check(97, 131)
        assert builds == [(0, 1)]

    def test_failed_fork_builds_in_process(self, builds, monkeypatch):
        def no_fork():
            raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")

        monkeypatch.setattr(os, "fork", no_fork)
        self._check(250, 250)
        assert builds == self.BOTH_PARTS

    def test_daemonic_process_builds_in_process(self, builds, monkeypatch):
        # a multiprocessing pool worker is daemonic and may not start a child
        monkeypatch.setattr(multiprocessing.current_process(), "daemon", True)
        monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked"))
        self._check(250, 250)
        assert builds == self.BOTH_PARTS

    def test_dead_worker_builds_in_process(self, builds, monkeypatch):
        caller = os.getpid()

        def dies_in_worker(m, u, variants, part, parts, table, build=hypergeom._build):
            if os.getpid() != caller:
                os._exit(1)
            return build(m, u, variants, part, parts, table)

        monkeypatch.setattr(hypergeom, "_build", dies_in_worker)
        self._check(250, 250)
        assert builds == self.BOTH_PARTS

    def test_caller_error_stops_the_worker(self, builds, monkeypatch):
        caller = os.getpid()

        def stalls_in_worker(*args):
            if os.getpid() != caller:
                time.sleep(30)
            raise ValueError("no odd k")

        monkeypatch.setattr(hypergeom, "_build", stalls_in_worker)
        start = time.monotonic()
        with pytest.raises(ValueError, match="no odd k"):
            hypergeom._envelopes(250, 250, hypergeom.VARIANTS)
        assert time.monotonic() - start < 10
        assert multiprocessing.active_children() == []


def test_one_pair_pass_serves_both_variants(envelope_work, monkeypatch):
    monkeypatch.setattr(hypergeom, "_BLOCK_CELLS", 8 * _row_cells(61, 47))
    epsilon_star(0.1, 0.05, 61, 47, "relative")
    blocks = envelope_work["_pairs"]
    assert blocks > 1 and envelope_work["_merge"] == 2 * blocks
    epsilon_star(0.1, 0.05, 61, 47, "absolute")
    gamma(0.2, 61, 47, "relative")
    assert envelope_work == {"_pairs": blocks, "_merge": 2 * blocks}


def _check_row_indices(table):
    """``table.__getitem__`` that fails on an index outside the table, as a wrapped one would be."""
    def read(j):
        assert np.all((0 <= np.asarray(j)) & (np.asarray(j) < len(table))), j
        return table[j]
    return read


class TestPairBlocks:
    """``_pairs`` on blocks wholly below u, wholly above u and straddling u, row by row."""

    @staticmethod
    def _row(m, u, k, table):
        """Row k on its own, as ``_ref_envelope`` makes it: (-d, L) over its positive prefix."""
        r = np.arange(max(k - u, 0), min(m, k) + 1, dtype=np.int64)
        neg = -((k - r) / u - r / m)
        j = int(np.searchsorted(neg, 0.0, side="left"))
        log_pmf = hypergeom._log_pmf(table.__getitem__, m + u, m, k, r)
        return neg[:j], np.logaddexp.accumulate(log_pmf[:j])

    @pytest.mark.parametrize("m,u", [(1, 1), (1, 6), (6, 1), (7, 3), (3, 7), (20, 9), (9, 20),
                                     (13, 13)])
    def test_blocks_equal_their_rows(self, m, u):
        n = m + u
        table = gammaln(np.arange(1, n + 2, dtype=np.float64))
        # below u, above u, straddling u, all of k, and one row on either side
        for k0, k1 in [(1, u), (u + 1, n), (max(u - 2, 1), min(u + 2, n)), (1, n), (u, u),
                       (u + 1, u + 1)]:
            k = np.arange(k0, k1 + 1, dtype=np.int64)[:, None]
            neg, log_tail, keep = hypergeom._pairs(m, u, k, _check_row_indices(table))
            for row, kk in enumerate(k[:, 0].tolist()):
                want_neg, want_tail = self._row(m, u, kk, table)
                w = len(want_neg)
                assert keep[row, :w].all() and not keep[row, w:].any(), (k0, k1, kk)
                assert _same_bits((neg[row, :w], log_tail[row, :w]), (want_neg, want_tail))

    @pytest.mark.parametrize("m,u", [(1, 1), (1, 9), (9, 1), (7, 3), (3, 7), (40, 40)])
    def test_one_row_tail_raises_no_float_warning(self, m, u):
        # deviation_tail reads gammaln of its own arguments: an argument below 0
        # would read inf there, and inf - inf warns
        with warnings.catch_warnings(), np.errstate(all="raise"):
            warnings.simplefilter("error")
            for k in range(m + u + 1):
                for eps in (0.0, 0.3, 1.5):
                    deviation_tail(eps, HypergeomSpec(m, u, k))


@st.composite
def _merge_cases(draw):
    """kept change points of rows k < k0 and a block of rows k0, k0+1, ... in ``_pairs``' layout.

    -d and L come from coarse grids, so kept points and block cells share -d
    and rows share L; the kept rows may be none, and the block's L may sit
    below every kept L, so that nothing survives.
    """
    levels = draw(st.integers(2, 8))  # distinct deviations d in {1, ..., levels} / levels
    width = draw(st.integers(1, 40))

    def row(low):
        cells = draw(st.integers(0, width))
        d = sorted(draw(st.lists(st.integers(1, levels), min_size=cells, max_size=cells)),
                   reverse=True)
        steps = draw(st.lists(st.integers(0, 2), min_size=cells, max_size=cells))
        return -np.array(d, dtype=float) / levels, low + np.cumsum(steps, dtype=float) / 2

    n = 100
    earlier = draw(st.integers(0, 5))
    k0 = earlier + 1
    pairs = [row(draw(st.integers(-8, 0))) for _ in range(earlier)]
    kept = hypergeom._change_points(
        np.concatenate([p[0] for p in pairs] + [np.empty(0)]),
        np.concatenate([p[1] for p in pairs] + [np.empty(0)]),
        np.repeat(np.arange(1, k0, dtype=np.int64), [len(p[0]) for p in pairs]),
        n)
    low = draw(st.sampled_from([-8, -4, 0, 2, -100]))  # -100: below every kept L
    rows = [row(low + draw(st.integers(0, 4))) for _ in range(draw(st.integers(1, 4)))]
    neg = np.full((len(rows), width), 1.0)  # pad cells: d < 0, any L
    log_tail = np.full((len(rows), width), -np.inf)
    for i, (row_neg, row_tail) in enumerate(rows):
        neg[i, :len(row_neg)], log_tail[i, :len(row_tail)] = row_neg, row_tail
        log_tail[i, len(row_tail):] = row_tail[-1] if len(row_tail) else -np.inf
    k = np.arange(k0, k0 + len(rows), dtype=np.int64)[:, None]
    return kept, neg, log_tail, neg < 0, k, n


@given(case=_merge_cases())
@settings(derandomize=True, max_examples=400, deadline=None, database=None)
def test_merge_splices_like_one_sort(case):
    # the reference: the change points of the kept points and all of the
    # block's cells together, in one sort (the floor only drops cells that
    # never show)
    kept, neg, log_tail, keep, k, n = case
    cells = (neg[keep], log_tail[keep], np.broadcast_to(k, keep.shape)[keep])
    want = hypergeom._change_points(*map(np.concatenate, zip(kept, cells)), n)
    assert _same_bits(hypergeom._merge(kept, neg, log_tail, keep, k, n), want)


class TestLogSpaceInversion:
    """``epsilon_star`` at m = u = 600, where the envelope's smallest tails underflow.

    Where prior_mass * delta is below the smallest normal float, the result
    must be a scan of the reference envelope for the first log-tail above
    ln(delta) - ln(1/p); where it is normal, the float comparison over the
    steps whose tails do not underflow, as before those steps were kept.
    """

    @pytest.mark.parametrize("variant", ["absolute", "relative"])
    def test_subnormal_level_equals_a_scan(self, variant):
        neg, log_tail, ks = _ref_envelope(600, 600, variant)
        assert math.exp(log_tail[0]) == 0.0
        for p, delta in [(5e-324, 0.5), (1e-320, 0.05), (1e-306, 0.01), (2.3e-308, 0.9)]:
            assert p * delta < np.finfo(float).tiny
            level = math.log(delta) - hypergeom._log_inverse(p)
            i = next((i for i, v in enumerate(log_tail) if v > level), len(log_tail))
            star = epsilon_star(p, delta, 600, 600, variant)
            assert star.value == (float(-neg[i]) if i < len(neg) else 0.0)
            assert star.achieving_k == (int(ks[i - 1]) if i else 0)
            assert star.value > 0.0

    @pytest.mark.parametrize("variant", ["absolute", "relative"])
    def test_normal_level_reads_underflowing_tails_as_zero(self, variant):
        neg, log_tail, ks = _ref_envelope(600, 600, variant)
        lo = bisect_right(log_tail, 0.0, key=math.exp)
        assert lo > 0
        neg, log_tail, ks = neg[lo:], log_tail[lo:], ks[lo:]
        for p, delta in [(1.0, 0.05), (1e-12, 0.05), (1e-300, 0.5), (3e-308, 0.9)]:
            j = bisect_right(log_tail, p * delta, key=math.exp)
            star = epsilon_star(p, delta, 600, 600, variant)
            assert star.value == (float(-neg[j]) if j < len(neg) else 0.0)
            assert star.achieving_k == (int(ks[j - 1]) if j else 0)


class TestVapnikBound:
    def test_zero_everything(self):
        star = EpsilonStar(value=0.0, variant="relative", achieving_k=0)
        assert vapnik_bound(0.0, star, 3, 3).raw == 0.0

    def test_absolute_is_additive(self):
        star = EpsilonStar(value=0.1, variant="absolute", achieving_k=1)
        out = vapnik_bound(0.2, star, 10, 10)
        assert out.raw == pytest.approx(0.3)
        assert out.name == "vapnik_absolute"

    def test_relative_realizable_identity(self):
        # with zero training error and m = u the bound collapses to e^2 / 2
        e = 0.37
        star = EpsilonStar(value=e, variant="relative", achieving_k=5)
        out = vapnik_bound(0.0, star, 50, 50)
        assert out.raw == pytest.approx(e * e / 2.0, rel=1e-12)

    def test_clamping(self):
        star = EpsilonStar(value=3.0, variant="absolute", achieving_k=1)
        out = vapnik_bound(0.9, star, 5, 5)
        assert out.raw == pytest.approx(3.9)
        assert out.clamped == 1.0


class TestImplicitBoundGuarantee:
    """Exhaustive delta-validity of the inverted thresholds on a small sample.

    What the inversion provably controls is the strict-exceedance event
    {deviation > eps*}: its probability is bounded by the worst-case tail,
    which is what was inverted.  The boundary {deviation == eps*} is an atom
    that can carry real mass on a sample this small (e.g. 29% of the 252
    splits below for the absolute variant), so it is excluded here; the
    Monte-Carlo harness tracks it separately as boundary_hits.
    """

    def _random_instance(self, n, n_hyp, seed):
        rng = np.random.default_rng(seed)
        target = rng.choice([-1, 1], size=n)
        hyps = rng.choice([-1, 1], size=(n_hyp, n))
        return target, hyps

    @pytest.mark.parametrize("variant", ["absolute", "relative"])
    def test_exhaustive_split_validity(self, variant):
        n, m, n_hyp, delta = 10, 5, 8, 0.3
        u = n - m
        target, hyps = self._random_instance(n, n_hyp, seed=20240817)
        errors = (hyps != target[None, :]).astype(int)
        k_h = errors.sum(axis=1)
        star = epsilon_star(1.0 / n_hyp, delta, m, u, variant)

        violations = total = 0
        for subset in itertools.combinations(range(n), m):
            mask = np.zeros(n, dtype=bool)
            mask[list(subset)] = True
            bad = False
            for j in range(n_hyp):
                r = int(errors[j, mask].sum())
                dev = (k_h[j] - r) / u - r / m
                if variant == "relative":
                    dev = 0.0 if k_h[j] == 0 else dev * math.sqrt(n / k_h[j])
                if dev > star.value:
                    bad = True
                    break
            violations += bad
            total += 1
        assert violations / total <= delta
