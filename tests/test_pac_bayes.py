"""Explicit bound formulas: frozen values, orderings and structural checks."""

import itertools
import math

import numpy as np
import pytest

from transbound.hypergeom import _log_inverse, epsilon_star, vapnik_bound
from transbound.pac_bayes import (
    BOUNDS,
    EVAL_BOUNDS,
    BoundInputs,
    GibbsEnsemble,
    _direct_complexity,
    _reduction_complexity,
    det_bound,
    evaluate_bound,
    full_to_test,
    gibbs_bound,
    gibbs_raw,
    gibbs_risk,
    graepel_inductive_bound,
    invert_self_bounding,
    kl_divergence,
    risk_mix,
)
from transbound.priors import clustering_bound, clustering_complexity, compression_bound
from transbound.transduce import BOUND_NAMES, LabeledSubset, Partition, select_by_bound
from transbound.validation import SCENARIOS


class TestConversions:
    def test_full_to_test_zero(self):
        assert full_to_test(0.0, 10, 5) == 0.0

    def test_full_to_test_equal_sizes(self):
        assert full_to_test(0.3, 7, 7) == pytest.approx(0.6)

    def test_full_to_test_value(self):
        assert full_to_test(0.05, 100, 10) == pytest.approx(0.55)

    def test_risk_mix_fixed_point(self):
        assert risk_mix(0.3, 0.3, 11, 4) == pytest.approx(0.3)

    def test_risk_mix_half(self):
        assert risk_mix(0.0, 1.0, 6, 6) == pytest.approx(0.5)

    def test_risk_mix_value(self):
        assert risk_mix(0.1, 0.4, 30, 10) == pytest.approx(0.175)

    def test_roundtrip(self):
        # excess over the mixture converts back to the test-risk excess
        r_m, r_u, m, u = 0.15, 0.35, 40, 20
        full = risk_mix(r_m, r_u, m, u)
        assert r_m + full_to_test(full - r_m, m, u) == pytest.approx(r_u)


class TestInvertSelfBounding:
    def test_a_zero(self):
        assert invert_self_bounding(0.0, 1.0) == 1.0

    def test_b_zero(self):
        assert invert_self_bounding(0.7, 0.0) == pytest.approx(0.7)

    def test_one_one(self):
        out = invert_self_bounding(1.0, 1.0)
        assert out == pytest.approx(3.0)
        exact = ((1 + math.sqrt(5)) / 2) ** 2  # fixed point of z = 1 + sqrt(z)
        assert exact <= out

    def test_dominates_fixed_point(self):
        for a in np.linspace(0, 2, 15):
            for b in np.linspace(0, 2, 15):
                z_star = ((math.sqrt(b) + math.sqrt(b + 4 * a)) / 2) ** 2
                assert z_star <= invert_self_bounding(float(a), float(b)) + 1e-12


class TestBoundInputs:
    def test_requires_exactly_one_complexity(self):
        with pytest.raises(ValueError):
            BoundInputs(m=10, u=10, delta=0.1, emp_risk=0.0)
        with pytest.raises(ValueError):
            BoundInputs(m=10, u=10, delta=0.1, emp_risk=0.0, prior_mass=0.5, kl_value=1.0)

    def test_range_checks(self):
        with pytest.raises(ValueError):
            BoundInputs(m=10, u=10, delta=1.5, emp_risk=0.0, kl_value=0.0)
        with pytest.raises(ValueError):
            BoundInputs(m=10, u=10, delta=0.1, emp_risk=2.0, kl_value=0.0)
        with pytest.raises(ValueError):
            BoundInputs(m=10, u=10, delta=0.1, emp_risk=0.1, prior_mass=0.0)

    @pytest.mark.parametrize("kl,loss", [(math.nan, 1.0), (math.inf, 1.0), (-1.0, 1.0),
                                         (0.0, math.inf), (0.0, math.nan), (0.0, 0.0)])
    def test_non_finite_complexity_and_loss_bound(self, kl, loss):
        with pytest.raises(ValueError, match="finite"):
            BoundInputs(m=10, u=10, delta=0.1, emp_risk=0.0, kl_value=kl, loss_bound=loss)


class TestGibbsBound:
    def test_reduction_realizable_form(self):
        m, u, delta, d = 50, 25, 0.05, 0.7
        out = gibbs_bound(
            BoundInputs(m=m, u=u, delta=delta, emp_risk=0.0, kl_value=d), "reduction"
        )
        want = (m + u) / u * 2 * (d + math.log(m / delta)) / (m - 1)
        assert out.raw == pytest.approx(want, rel=1e-12)

    def test_reduction_diverges_with_single_test_point(self):
        # realizable case, u = 1: the factor (m+1) * 2 ln(m/delta) / (m-1) grows
        vals = [
            gibbs_bound(
                BoundInputs(m=m, u=1, delta=0.01, emp_risk=0.0, kl_value=0.0), "reduction"
            ).raw
            for m in [10, 100, 10_000, 1_000_000]
        ]
        assert all(v > 1.0 for v in vals)
        assert vals[-1] > vals[1]

    def test_direct_converges_with_single_test_point(self):
        ms = [100, 1000, 10_000, 100_000, 1_000_000]
        vals = [
            gibbs_bound(
                BoundInputs(m=m, u=1, delta=0.01, emp_risk=0.0, kl_value=0.0), "direct"
            ).raw
            for m in ms
        ]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        assert vals[-1] < 0.001

    def test_direct_frozen_value(self):
        out = gibbs_bound(
            BoundInputs(m=100, u=100, delta=0.01, emp_risk=0.0, kl_value=0.0), "direct"
        )
        # 2 (ln 10^4 + 7 ln 201) / 99, via 30-digit arithmetic
        assert out.raw == pytest.approx(0.93602979249272147, rel=1e-12)

    def test_requires_kl(self):
        with pytest.raises(ValueError):
            gibbs_bound(BoundInputs(m=10, u=10, delta=0.1, emp_risk=0.0, prior_mass=1.0))

    def test_requires_binary_loss(self):
        with pytest.raises(ValueError):
            gibbs_bound(
                BoundInputs(m=10, u=10, delta=0.1, emp_risk=0.0, kl_value=0.0, loss_bound=2.0)
            )


class TestDetBound:
    def test_serfling_complexity_vanishes(self):
        out = det_bound(
            BoundInputs(m=100, u=50, delta=1 - 1e-12, emp_risk=0.23, prior_mass=1.0),
            "serfling",
        )
        assert out.raw == pytest.approx(0.23, abs=1e-6)

    def test_serfling_frozen_value(self):
        out = det_bound(
            BoundInputs(m=100, u=100, delta=0.01, emp_risk=0.0, prior_mass=1.0), "serfling"
        )
        assert out.raw == pytest.approx(0.21566691651358982, rel=1e-12)

    def test_serfling_admits_m1_and_general_loss(self):
        out = det_bound(
            BoundInputs(m=1, u=9, delta=0.1, emp_risk=0.5, prior_mass=0.5, loss_bound=2.0),
            "serfling",
        )
        assert out.raw > 0.5
        assert out.clamped <= 1.0

    @pytest.mark.parametrize("loss_bound", [0.5, 2.0, 3.0])
    def test_serfling_scales_with_the_loss_range(self, loss_bound):
        m, u, delta, p = 60, 40, 0.05, 0.1
        for emp_risk in (0.0, 0.5 * loss_bound, loss_bound):
            out = det_bound(BoundInputs(m=m, u=u, delta=delta, emp_risk=emp_risk, prior_mass=p,
                                        loss_bound=loss_bound), "serfling")
            comp = (math.log(1.0 / p) + math.log(1.0 / delta)) / (2.0 * m)
            want = emp_risk + loss_bound * math.sqrt((m + u) / u * (u + 1) / u * comp)
            assert out.raw == want
            assert out.clamped == min(want / loss_bound, 1.0)

    def test_direct_frozen_value(self):
        out = det_bound(
            BoundInputs(m=100, u=100, delta=0.01, emp_risk=0.2, prior_mass=1.0), "direct"
        )
        assert out.raw == pytest.approx(1.747921872027249, rel=1e-12)
        assert out.clamped == 1.0

    def test_reduction_matches_gibbs_with_log_inv_p(self):
        p = 0.125
        a = det_bound(
            BoundInputs(m=60, u=30, delta=0.05, emp_risk=0.1, prior_mass=p), "reduction"
        )
        b = gibbs_bound(
            BoundInputs(m=60, u=30, delta=0.05, emp_risk=0.1, kl_value=math.log(1 / p)),
            "reduction",
        )
        assert a.raw == pytest.approx(b.raw, rel=1e-14)

    def test_monotone_in_delta_and_complexity(self):
        for variant in ("serfling", "reduction", "direct"):
            vals = [
                det_bound(
                    BoundInputs(m=80, u=40, delta=d, emp_risk=0.1, prior_mass=0.5), variant
                ).raw
                for d in [0.01, 0.05, 0.2, 0.5]
            ]
            assert all(a >= b for a, b in zip(vals, vals[1:]))
            vals = [
                det_bound(
                    BoundInputs(m=80, u=40, delta=0.05, emp_risk=0.1, prior_mass=p), variant
                ).raw
                for p in [0.01, 0.1, 0.5, 1.0]
            ]
            assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_gibbs_monotone_in_delta_and_kl(self):
        for variant in ("reduction", "direct"):
            vals = [
                gibbs_bound(
                    BoundInputs(m=80, u=40, delta=d, emp_risk=0.1, kl_value=1.0), variant
                ).raw
                for d in [0.01, 0.05, 0.2, 0.5]
            ]
            assert all(a >= b for a, b in zip(vals, vals[1:]))
            vals = [
                gibbs_bound(
                    BoundInputs(m=80, u=40, delta=0.05, emp_risk=0.1, kl_value=kl), variant
                ).raw
                for kl in [0.0, 0.5, 2.0, 5.0]
            ]
            assert all(a <= b for a, b in zip(vals, vals[1:]))


class TestRealizableRates:
    def test_direct_beats_serfling_at_large_m_equal_u(self):
        small = {
            v: det_bound(
                BoundInputs(m=100, u=100, delta=0.01, emp_risk=0.0, prior_mass=1.0), v
            ).raw
            for v in ("serfling", "direct")
        }
        large = {
            v: det_bound(
                BoundInputs(m=100_000, u=100_000, delta=0.01, emp_risk=0.0, prior_mass=1.0), v
            ).raw
            for v in ("serfling", "direct")
        }
        assert small["serfling"] < small["direct"]
        assert large["direct"] < large["serfling"]

    def test_fixed_u_serfling_saturates_direct_vanishes(self):
        # with u fixed the Serfling-type complexity tends to a positive constant
        # sqrt(((u+1)/u) ln(1/delta) / (2u)) while the direct route still -> 0
        delta, u = 0.01, 10
        limit = math.sqrt((u + 1) / u * math.log(1 / delta) / (2 * u))
        assert limit == pytest.approx(math.sqrt(0.055 * math.log(1 / delta)), rel=1e-12)
        serf_big = det_bound(
            BoundInputs(m=100_000, u=u, delta=delta, emp_risk=0.0, prior_mass=1.0), "serfling"
        ).raw
        assert serf_big == pytest.approx(limit, rel=0.01)
        small = {
            v: det_bound(
                BoundInputs(m=100, u=u, delta=delta, emp_risk=0.0, prior_mass=1.0), v
            ).raw
            for v in ("serfling", "direct")
        }
        big = {
            v: det_bound(
                BoundInputs(m=100_000, u=u, delta=delta, emp_risk=0.0, prior_mass=1.0), v
            ).raw
            for v in ("serfling", "direct")
        }
        assert small["serfling"] < small["direct"]
        assert big["direct"] < big["serfling"]


class TestSqrtFactorStructure:
    def test_route_factor_ratio(self):
        # the sqrt complexity term carries (m+u)/u on the reduction route and
        # sqrt((m+u)/u) on the direct route once the counting slack is taken off
        m, u, delta, d, r = 200, 50, 0.05, 1.3, 0.21
        k = _reduction_complexity(d, m, delta)
        red_sqrt = (m + u) / u * math.sqrt(2 * r * k / (m - 1))
        t = _direct_complexity(d, m, u, delta) - 7.0 * math.log(m + u + 1.0)
        dir_sqrt = math.sqrt(2 * r * (m + u) / u * t / (m - 1))
        assert t == pytest.approx(k, rel=1e-12)  # slack off, complexities align
        assert red_sqrt / dir_sqrt == pytest.approx(math.sqrt((m + u) / u), rel=1e-12)


class TestGibbsRisk:
    def _ensemble(self, hyps, q):
        h = np.array(hyps)
        q = np.array(q, dtype=float)
        p = np.full(len(q), 1.0 / len(q))
        return GibbsEnsemble(hypotheses=h, posterior=q, prior=p)

    def test_point_mass(self):
        target = np.array([1, 1, -1, -1])
        ens = self._ensemble([[1, 1, 1, 1], [1, 1, -1, -1]], [1.0, 0.0])
        assert gibbs_risk(ens, target, range(4)) == pytest.approx(0.5)

    def test_identical_hypotheses(self):
        target = np.array([1, -1, 1, -1])
        ens = self._ensemble([[1, 1, 1, 1]] * 3, [0.2, 0.3, 0.5])
        assert gibbs_risk(ens, target, range(4)) == pytest.approx(0.5)

    def test_mixture(self):
        target = np.array([1, 1, 1, 1])
        ens = self._ensemble([[1, 1, 1, 1], [1, 1, -1, -1]], [0.5, 0.5])
        assert gibbs_risk(ens, target, range(4)) == pytest.approx(0.25)

    def test_empty_subset_rejected(self):
        target = np.array([1, 1])
        ens = self._ensemble([[1, 1]], [1.0])
        with pytest.raises(ValueError):
            gibbs_risk(ens, target, [])

    def test_ensemble_validation(self):
        with pytest.raises(ValueError):
            GibbsEnsemble(
                hypotheses=np.array([[1, 1]]),
                posterior=np.array([0.5]),
                prior=np.array([1.0]),
            )


class TestKlDivergence:
    def test_zero_on_equal(self):
        q = np.array([0.2, 0.3, 0.5])
        assert kl_divergence(q, q) == 0.0

    def test_matches_binary(self):
        from transbound.concentration import kl_binary

        assert kl_divergence(np.array([0.3, 0.7]), np.array([0.6, 0.4])) == pytest.approx(
            kl_binary(0.3, 0.6), rel=1e-12
        )

    def test_infinite_off_support(self):
        assert kl_divergence(np.array([0.5, 0.5]), np.array([1.0, 0.0])) == math.inf

    def test_zero_mass_off_support_counts_zero(self):
        out = kl_divergence(np.array([0.0, 1.0]), np.array([0.0, 1.0]))
        assert type(out) is float and out == 0.0

    def test_columns_are_per_trial_divergences(self):
        rng = np.random.default_rng(3)
        prior = np.array([0.4, 0.3, 0.2, 0.1, 0.0])
        q = rng.dirichlet(np.ones(5), size=6).T
        q[4, :5] = 0.0
        q[3, 1] = 0.0
        q /= q.sum(axis=0)
        cols = kl_divergence(q, prior[:, None])
        assert cols.shape == (6,)
        assert np.isinf(cols[5]) and np.isfinite(cols[:5]).all()
        for t in range(6):
            assert cols[t] == pytest.approx(kl_divergence(q[:, t], prior), rel=1e-12)


class TestGraepel:
    def test_s_zero(self):
        out = graepel_inductive_bound(0.0, 100, 0, 0.01)
        want = math.sqrt((math.log(100) + 2 * math.log(100)) / 200)
        assert out.raw == pytest.approx(want, rel=1e-12)

    def test_frozen_value(self):
        out = graepel_inductive_bound(0.0, 100, 10, 0.01)
        assert out.raw == pytest.approx(0.54656926618836694, rel=1e-12)

    def test_monotone_in_s(self):
        vals = [graepel_inductive_bound(0.1, 100, s, 0.05).raw for s in range(0, 100)]
        assert all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))

    def test_domain(self):
        with pytest.raises(ValueError):
            graepel_inductive_bound(0.1, 100, 100, 0.05)

    @pytest.mark.parametrize("emp_risk", [-1.0, 2.0, math.nan])
    def test_emp_risk_outside_unit_interval(self, emp_risk):
        # -1.0 once gave a raw bound of -0.31 and 2.0 one of 3.44
        with pytest.raises(ValueError, match="^emp_risk "):
            graepel_inductive_bound(emp_risk, 10, 2, 0.05)


class TestArrayFormulas:
    """The scalar bounds are the array formulas at one point, bit for bit."""

    SHAPES = list(itertools.product((2, 3, 17, 500, 4000), (1, 9, 500, 3000), (1e-4, 0.05, 0.5)))
    RISKS = np.concatenate([[0.0, 1.0], np.random.default_rng(7).uniform(0.0, 1.0, 40)])

    @staticmethod
    def _same_bits(a, b):
        return np.array_equal(np.asarray(a).view(np.int64), np.asarray(b).view(np.int64))

    def test_det_bound_is_the_array_formula(self):
        for (m, u, delta), p, (variant, name) in itertools.product(
                self.SHAPES, (1.0, 0.3, 1e-9),
                (("serfling", "serfling"), ("reduction", "det_reduction"),
                 ("direct", "det_direct"))):
            scalar = [
                det_bound(BoundInputs(m=m, u=u, delta=delta, emp_risk=float(r), prior_mass=p),
                          variant).raw
                for r in self.RISKS
            ]
            log_inv_p = math.log(1.0 / p)
            assert self._same_bits(BOUNDS[name](self.RISKS, log_inv_p, m, u, delta), scalar)

    def test_gibbs_bound_is_gibbs_raw(self):
        kls = np.random.default_rng(8).uniform(0.0, 30.0, len(self.RISKS))
        kls[0] = 0.0
        for (m, u, delta), variant in itertools.product(self.SHAPES, ("reduction", "direct")):
            scalar = [
                gibbs_bound(BoundInputs(m=m, u=u, delta=delta, emp_risk=float(r),
                                        kl_value=float(kl)), variant).raw
                for r, kl in zip(self.RISKS, kls)
            ]
            assert self._same_bits(gibbs_raw(variant, self.RISKS, kls, m, u, delta), scalar)

    def test_raw_is_a_python_float(self):
        # an np.float64 would print as np.float64(...) in reprs of the results
        inputs = BoundInputs(m=50, u=50, delta=0.05, emp_risk=0.1, prior_mass=0.5)
        for variant in ("serfling", "reduction", "direct"):
            out = det_bound(inputs, variant)
            assert type(out.raw) is float and type(out.clamped) is float
        gibbs_in = BoundInputs(m=50, u=50, delta=0.05, emp_risk=0.1, kl_value=1.0)
        assert type(gibbs_bound(gibbs_in, "direct").raw) is float


class TestEvaluateBound:
    def test_every_name_reaches_its_formula(self):
        for name in EVAL_BOUNDS:
            out = evaluate_bound(name, 60, 40, 0.05, 0.1, prior_mass=0.2, kl_value=0.7)
            assert out.name == name
            assert type(out.raw) is float
        want = det_bound(BoundInputs(m=60, u=40, delta=0.05, emp_risk=0.1, prior_mass=0.2),
                         "direct")
        assert evaluate_bound("det_direct", 60, 40, 0.05, 0.1, prior_mass=0.2) == want

    def test_loss_bound_scales_serfling_only(self):
        out = evaluate_bound("serfling", 60, 40, 0.05, 0.2, loss_bound=2.0)
        assert out.raw < 2.0
        assert out.clamped == out.raw / 2.0
        with pytest.raises(ValueError):
            evaluate_bound("det_direct", 60, 40, 0.05, 0.1, loss_bound=2.0)

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            evaluate_bound("hoeffding", 60, 40, 0.05, 0.1)


class TestBoundTable:
    """``BOUNDS`` holds every accepted name and keeps each route's bits."""

    SHAPES = [(2, 1, 0.5), (5, 7, 0.05), (40, 40, 0.01), (100, 13, 0.2), (300, 500, 1e-4)]
    RISKS = np.array([0.0, 0.1, 0.5, 1.0])
    KLS = np.array([0.0, 0.3, 7.5, 0.3])
    MASSES = (1.0, 0.3, 1e-5, 1e-300, 5e-324)  # the last one subnormal
    DET = {"serfling": "serfling", "det_reduction": "reduction", "det_direct": "direct",
           "direct": "direct"}

    def test_every_accepted_name_has_an_entry(self):
        accepted = set(EVAL_BOUNDS) | set(BOUND_NAMES) | (set(SCENARIOS) - {"clustering"})
        assert set(BOUNDS) == accepted

    def test_det_entries_are_det_bound(self):
        for (m, u, delta), p, (name, variant) in itertools.product(
                self.SHAPES, self.MASSES, self.DET.items()):
            want = [det_bound(BoundInputs(m=m, u=u, delta=delta, emp_risk=float(r),
                                          prior_mass=p), variant).raw for r in self.RISKS]
            got = BOUNDS[name](self.RISKS, _log_inverse(p), m, u, delta)
            assert np.asarray(got).tobytes() == np.array(want).tobytes(), (name, m, u, p)

    def test_gibbs_entries_are_gibbs_bound(self):
        for (m, u, delta), variant in itertools.product(self.SHAPES, ("reduction", "direct")):
            want = [gibbs_bound(BoundInputs(m=m, u=u, delta=delta, emp_risk=float(r),
                                            kl_value=float(kl)), variant).raw
                    for r, kl in zip(self.RISKS, self.KLS)]
            got = BOUNDS[f"gibbs_{variant}"](self.RISKS, self.KLS, m, u, delta)
            assert got.tobytes() == np.array(want).tobytes(), (variant, m, u)

    def test_clustering_serfling_entries_are_clustering_bound(self):
        for (m, u, delta), variant in itertools.product(self.SHAPES, ("printed", "exact")):
            c = min(m, 5)
            for tau, k in itertools.product(range(1, c + 1), (1, 3)):
                want = [clustering_bound(float(r), tau, c, m, u, delta, k, variant).raw
                        for r in self.RISKS]
                got = BOUNDS[f"serfling_{variant}"](
                    self.RISKS, clustering_complexity(tau, c, k, variant), m, u, delta)
                assert got.tobytes() == np.array(want).tobytes(), (variant, m, u, tau, k)

    def test_vapnik_entries_are_vapnik_bound(self):
        # the entries take ln(1/p); where exp(-ln(1/p)) is p itself they invert at p
        masses = [p for p in self.MASSES if math.exp(-_log_inverse(p)) == p]
        assert 5e-324 in masses
        for (m, u, delta), p, variant in itertools.product(
                self.SHAPES, masses, ("relative", "absolute")):
            star = epsilon_star(p, delta, m, u, variant)
            want = [vapnik_bound(float(r), star, m, u).raw for r in self.RISKS]
            got = BOUNDS[f"vapnik_{variant}"](self.RISKS, _log_inverse(p), m, u, delta)
            assert np.asarray(got).tobytes() == np.array(want).tobytes(), (variant, m, u, p)


def _certificate_bound(minority_share: float):
    """The certificate's bound for one cluster over 20 points, 10 of them labelled."""
    n_minus = round(10 * minority_share)
    labeled = LabeledSubset(indices=np.arange(10), labels=[1] * (10 - n_minus) + [-1] * n_minus)
    partition = Partition(tau=1, assignment=np.zeros(20, dtype=np.int64), clusterer_id=0)
    return select_by_bound([partition], labeled, 0.05).bound


_STAR = epsilon_star(0.5, 0.05, 50, 50, "absolute")
# producer: (empirical risk -> BoundValue, loss range B, empirical risks giving raw < 1 and > 1)
PRODUCERS = {
    "det_bound": (lambda r: det_bound(BoundInputs(m=100, u=100, delta=0.01, emp_risk=r,
                                                  prior_mass=1.0), "direct"), 1.0, (0.0, 0.2)),
    "det_bound-serfling-B2": (lambda r: det_bound(BoundInputs(
        m=60, u=40, delta=0.05, emp_risk=r, prior_mass=0.1, loss_bound=2.0), "serfling"),
        2.0, (0.2, 1.0, 1.9)),
    "gibbs_bound": (lambda r: gibbs_bound(BoundInputs(m=100, u=100, delta=0.01, emp_risk=r,
                                                      kl_value=0.3), "direct"), 1.0, (0.0, 0.3)),
    "vapnik_bound": (lambda r: vapnik_bound(r, _STAR, 50, 50), 1.0, (0.0, 0.9)),
    "clustering_bound": (lambda r: clustering_bound(r, 1, 2, 100, 100, 0.05), 1.0, (0.0, 0.95)),
    "compression_bound": (lambda r: compression_bound(r, 1, 100, 100, 0.05), 1.0, (0.0, 0.9)),
    "graepel_inductive_bound": (lambda r: graepel_inductive_bound(r, 100, 0, 0.05), 1.0,
                                (0.0, 0.9)),
    **{f"evaluate_bound-{name}": (
        lambda r, name=name: evaluate_bound(name, 100, 100, 0.01, r, prior_mass=0.5, kl_value=0.3),
        1.0, (0.0, 0.9)) for name in EVAL_BOUNDS},
    "evaluate_bound-serfling-B3": (lambda r: evaluate_bound("serfling", 60, 40, 0.05, r,
                                                           loss_bound=3.0), 3.0, (0.0, 0.5, 2.9)),
    "select_by_bound": (_certificate_bound, 1.0, (0.0, 0.4)),
}


@pytest.mark.parametrize("producer", PRODUCERS)
def test_clamped_is_raw_over_the_loss_range_capped_at_one(producer):
    make, loss_bound, risks = PRODUCERS[producer]
    outs = [make(r) for r in risks]
    assert min(out.raw for out in outs) < 1.0 < max(out.raw for out in outs)
    for out in outs:
        assert out.clamped == min(out.raw / loss_bound, 1.0)
        assert out.valid is True
