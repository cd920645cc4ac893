"""Priors: mass accounting, complexity variants, bound shapes."""

import math

import pytest

from mixture_totals import clustering_mixture_total, compression_mixture_log_total
from transbound import priors
from transbound.priors import (
    clustering_bound,
    clustering_complexity,
    compression_bound,
    compression_complexity,
)


class TestCompressionComplexity:
    def test_exact_small_case(self):
        # ln 10 + ln 2 + ln C(20, 1) = ln 400
        got = compression_complexity(1, 10, 10, "exact")
        assert got == pytest.approx(math.log(400), rel=1e-12)

    def test_relaxed_at_full_size(self):
        m, u = 37, 21
        want = m * math.log(2 * math.e * (m + u) / m) + math.log(m)
        assert compression_complexity(m, m, u, "relaxed") == pytest.approx(want, rel=1e-12)

    def test_exact_below_relaxed(self):
        for m in [1, 3, 10, 50, 200]:
            for u in [1, 7, 60, 200]:
                for s in range(1, m + 1, max(1, m // 9)):
                    exact = compression_complexity(s, m, u, "exact")
                    relaxed = compression_complexity(s, m, u, "relaxed")
                    assert exact <= relaxed + 1e-9

    def test_domain(self):
        with pytest.raises(ValueError):
            compression_complexity(0, 10, 10)
        with pytest.raises(ValueError):
            compression_complexity(11, 10, 10)


class TestCompressionBound:
    def test_sqrt2_ratio_of_excesses(self):
        for emp in [0.0, 0.2]:
            for (s, m, u, d) in [(1, 20, 10, 0.1), (5, 100, 100, 0.05), (40, 50, 200, 0.01)]:
                printed = compression_bound(emp, s, m, u, d, "printed").raw - emp
                derived = compression_bound(emp, s, m, u, d, "derived").raw - emp
                assert printed / derived == pytest.approx(math.sqrt(2), rel=1e-12)

    def test_frozen_printed_value(self):
        # m = u = 100, s = 5, delta = 0.05, via 30-digit arithmetic
        out = compression_bound(0.0, 5, 100, 100, 0.05, "printed")
        assert out.raw == pytest.approx(0.83493887188512915, rel=1e-12)
        out = compression_bound(0.0, 5, 100, 100, 0.05, "derived")
        assert out.raw == pytest.approx(0.59039093818622085, rel=1e-12)

    def test_vacuous_case_clamps(self):
        out = compression_bound(0.0, 30, 30, 1, 0.05, "derived")
        assert out.raw > 1.0
        assert out.clamped == 1.0


class TestClusteringComplexity:
    def test_exact_value(self):
        got = clustering_complexity(2, 10, 1, "exact")
        assert got == pytest.approx(2 * math.log(2) + math.log(10), rel=1e-12)

    def test_printed_minimal(self):
        assert clustering_complexity(1, 1, 1, "printed") == pytest.approx(1.0)

    def test_exact_below_printed(self):
        for c in [1, 4, 20]:
            for tau in range(1, c + 1):
                assert clustering_complexity(tau, c, 2, "exact") <= clustering_complexity(
                    tau, c, 2, "printed"
                )

    def test_ensemble_grows_complexity(self):
        assert clustering_complexity(3, 10, 2) == pytest.approx(
            clustering_complexity(3, 10, 1) + math.log(2), rel=1e-12
        )

    def test_domain(self):
        with pytest.raises(ValueError):
            clustering_complexity(11, 10)


class TestClusteringBound:
    def test_equal_sizes_identity(self):
        # when m = u the bound is emp + sqrt((1 + 1/m)(complexity + ln(1/d))/m)
        for m in [10, 50, 200]:
            for tau, c in [(1, 5), (3, 5), (5, 5)]:
                delta = 0.05
                got = clustering_bound(0.1, tau, c, m, m, delta, 1, "printed").raw
                comp = clustering_complexity(tau, c, 1, "printed") + math.log(1 / delta)
                want = 0.1 + math.sqrt((1 + 1 / m) * comp / m)
                assert got == pytest.approx(want, rel=1e-12)

    def test_frozen_printed_value(self):
        out = clustering_bound(0.0, 2, 20, 50, 50, 0.05, 1, "printed")
        assert out.raw == pytest.approx(0.40376463039870497, rel=1e-12)

    def test_frozen_two_blob_selection_values(self):
        # the end-to-end fixture's winning bound, both complexity variants
        assert clustering_bound(0.0, 2, 10, 50, 50, 0.05, 1, "printed").raw == pytest.approx(
            0.38585706456870781, rel=1e-12
        )
        assert clustering_bound(0.0, 2, 10, 50, 50, 0.05, 1, "exact").raw == pytest.approx(
            0.36927778059940963, rel=1e-12
        )

    def test_nondecreasing_in_tau(self):
        vals = [clustering_bound(0.1, t, 12, 40, 60, 0.05).raw for t in range(1, 13)]
        assert all(a <= b for a, b in zip(vals, vals[1:]))

    def test_exact_below_printed(self):
        for tau in [1, 3, 7]:
            a = clustering_bound(0.2, tau, 8, 30, 30, 0.1, 1, "exact").raw
            b = clustering_bound(0.2, tau, 8, 30, 30, 0.1, 1, "printed").raw
            assert a <= b


class TestMassAccounting:
    @pytest.mark.parametrize("m,u", [(1, 1), (3, 5), (10, 10), (19, 1), (5, 15)])
    def test_compression_mixture_is_probability(self, m, u):
        assert abs(compression_mixture_log_total(m, u)) < 1e-12

    @pytest.mark.parametrize("c", [1, 2, 7, 50, 1024, 1100, 5000])
    def test_clustering_mixture_exactly_one(self, c):
        assert abs(clustering_mixture_total(c) - 1.0) < 1e-12

    @pytest.mark.parametrize("c", [2, 50, 1100])
    def test_clustering_mixture_catches_a_wrong_charge(self, c, monkeypatch):
        # a prior charging tau nats per cluster, not tau ln 2, has mass (2/e)^tau / c
        exact = priors.clustering_complexity
        monkeypatch.setattr(priors, "clustering_complexity",
                            lambda tau, c, k_ensemble=1: exact(tau, c, k_ensemble, "printed"))
        assert abs(clustering_mixture_total(c) - 1.0) > 0.3

    def test_clustering_prior_mass(self):
        # p(h) = 2^-3 / (2 * 10) for a 3-cluster labelling among k = 2 clusterers at c = 10
        complexity = clustering_complexity(3, 10, 2)
        assert math.exp(-complexity) == pytest.approx(1 / (2 * 10 * 8), rel=1e-12)
        assert complexity == pytest.approx(math.log(160), rel=1e-12)
