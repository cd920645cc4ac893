"""Acceptance suite: one criterion per test, one pass/fail line per criterion.

Every expected value is either computed here by an independent oracle
(subset enumeration, integer counting, bitmask popcounts) or frozen from a
30-digit arithmetic evaluation of the published formula.  Run with
``pytest tests/test_acceptance.py -v -s`` to see the per-criterion lines.
"""

import itertools
import json
import math
from fractions import Fraction

import numpy as np
import pytest

from mixture_totals import clustering_mixture_total, compression_mixture_log_total
from transbound.cli import main
from transbound.hypergeom import HypergeomSpec, hypergeom_pmf
from transbound.concentration import (
    DeviationQuery,
    PopulationSummary,
    direct_binary_bound,
    hoeffding_bound,
    serfling_bound,
)
from transbound.pac_bayes import BoundInputs, det_bound, gibbs_bound
from transbound.priors import compression_bound
from transbound.validation import (
    ClusteringInstance,
    check_unbiasedness,
    exact_mean_upper_tail,
    mc_bound_validity,
    random_hypothesis_instance,
)


def _report(num: int, desc: str, ok: bool):
    print(f"\ncriterion {num} ({desc}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} ({desc}) failed"


def split_count_table(n: int, k: int) -> list[list[int]]:
    """counts[m][r] = number of m-subsets of 0..n-1 containing r of the first k.

    Pure integer counting over all subsets via element-by-element dynamic
    programming; no binomial formula involved.
    """
    counts = [[0] * (k + 1) for _ in range(n + 1)]
    counts[0][0] = 1
    for i in range(n):
        err = i < k
        for j in range(min(i + 1, n), 0, -1):
            row, prev = counts[j], counts[j - 1]
            if err:
                for t in range(k, 0, -1):
                    row[t] += prev[t - 1]
            else:
                for t in range(k, -1, -1):
                    row[t] += prev[t]
    return counts


class TestCriterion1Exactness:
    def test_pmf_exact_and_normalised(self):
        # literal enumeration for n <= 12 cross-checks the counting DP
        for n in range(2, 13):
            for m in range(1, n):
                for k in range(0, n + 1):
                    table = split_count_table(n, k)[m]
                    literal = [0] * (k + 1)
                    for subset in itertools.combinations(range(n), m):
                        literal[sum(1 for i in subset if i < k)] += 1
                    assert literal == table

        # exact-rational agreement for every (m, u, k) with m + u <= 25
        for n in range(2, 26):
            for k in range(0, n + 1):
                tables = split_count_table(n, k)
                for m in range(1, n):
                    counts = tables[m]
                    total = sum(counts)
                    spec = HypergeomSpec(m=m, u=n - m, k=k)
                    for r in range(max(k - (n - m), 0), min(m, k) + 1):
                        want = Fraction(counts[r], total)
                        formula = Fraction(
                            math.comb(k, r) * math.comb(n - k, m - r), math.comb(n, m)
                        )
                        assert formula == want
                        assert hypergeom_pmf(r, spec) == pytest.approx(
                            float(want), rel=5e-13, abs=1e-300
                        )

        # normalisation within 1e-12 up to m + u = 60
        worst = 0.0
        for n in range(2, 61):
            for m in range(1, n):
                u = n - m
                for k in range(0, n + 1):
                    spec = HypergeomSpec(m=m, u=u, k=k)
                    s = sum(
                        hypergeom_pmf(r, spec)
                        for r in range(max(k - u, 0), min(m, k) + 1)
                    )
                    worst = max(worst, abs(s - 1.0))
        assert worst < 1e-12
        _report(1, "exact pmf vs enumeration, normalisation to 60", True)


class TestCriterion2Dominance:
    def test_exact_tail_below_every_bound(self):
        ok = True
        for n in (20, 60, 100):
            for k in sorted({0, 1, n // 4, n // 2, 3 * n // 4, n - 1, n}):
                pop = PopulationSummary(n_total=n, mean=k / n, binary=True)
                for m in sorted({1, 2, n // 4, n // 2, 3 * n // 4, n - 1}):
                    for eps in np.linspace(0.0, 1.0 - k / n, 100):
                        q = DeviationQuery(m=m, eps=float(eps))
                        exact = exact_mean_upper_tail(n, k, m, float(eps))
                        ok &= exact <= hoeffding_bound(pop, q, "kl").value + 1e-12
                        ok &= exact <= hoeffding_bound(pop, q, "squared").value + 1e-12
                        ok &= exact <= serfling_bound(pop, q).value + 1e-12
                        ok &= exact <= direct_binary_bound(pop, q).value + 1e-12
                        if m >= 2 and eps > 0:
                            # strict domination, compared in log space so it
                            # still holds after both values underflow
                            ok &= (
                                serfling_bound(pop, q).log_value
                                < hoeffding_bound(pop, q, "squared").log_value
                            )
        _report(2, "exact tail dominated by all four bounds", ok)


class TestCriterion3Unbiasedness:
    def test_identity_for_all_vectors(self):
        # bitmask enumeration: for every n <= 12, every 0/1 error vector and
        # every m, the average training error over all C(n, m) subsets must
        # equal the population rate exactly (integer cross-multiplication)
        ok = True
        for n in range(1, 13):
            masks = np.arange(1 << n, dtype=np.uint32)
            popcnt = np.zeros(1 << n, dtype=np.int64)
            for b in range(n):
                popcnt += (masks >> b) & 1
            by_size = {m: masks[popcnt == m] for m in range(1, n + 1)}
            for m, subsets in by_size.items():
                n_subsets = len(subsets)
                # (subsets x vectors) intersection sizes, summed over subsets
                inter = popcnt[subsets[:, None] & masks[None, :]]
                totals = inter.sum(axis=0, dtype=np.int64)
                ks = popcnt  # vector E has popcount(E) errors
                # identity: totals / (m * C) == k / n  <=>  n * totals == m * C * k
                ok &= bool((n * totals == m * n_subsets * ks).all())
        # the library's exhaustive checker agrees on a sample of vectors
        rng = np.random.default_rng(23)
        for _ in range(40):
            n = int(rng.integers(1, 13))
            m = int(rng.integers(1, n + 1))
            vec = rng.integers(0, 2, size=n).tolist()
            ok &= check_unbiasedness(vec, m).equal
        _report(3, "subset-average identity exact for all vectors to n=12", ok)


class TestCriterion4DeltaValidity:
    TRIALS = 10_000
    DELTA = 0.05

    def test_all_scenarios(self, two_blob):
        limit = self.DELTA + 3 * math.sqrt(self.DELTA * (1 - self.DELTA) / self.TRIALS)
        inst = random_hypothesis_instance(n_total=40, m=20, n_hyp=16, seed=42)
        results = {}
        for scenario in ("vapnik_absolute", "vapnik_relative", "serfling",
                         "direct", "gibbs_direct"):
            rep = mc_bound_validity(scenario, inst, self.DELTA, self.TRIALS, seed=1234)
            results[scenario] = rep.empirical
            assert rep.empirical <= limit, f"{scenario}: {rep.empirical} > {limit}"
        data, _, truth = two_blob
        # every certificate transduce can emit: its default bound, the direct
        # bound, and a two-clusterer ensemble
        for label, extra in [
            ("clustering", {}),
            ("clustering/direct", {"bound_name": "direct"}),
            ("clustering/ensemble", {"clusterers": ("kmeans", "agglomerative_complete")}),
        ]:
            cinst = ClusteringInstance(points=data.points, target=truth, m=50, c=10, **extra)
            rep = mc_bound_validity("clustering", cinst, self.DELTA, self.TRIALS, seed=99)
            results[label] = rep.empirical
            assert rep.passed and rep.empirical <= limit, f"{label}: {rep.empirical} > {limit}"
        _report(4, f"delta-validity at 1e4 trials {results}", True)


class TestCriterion5FigureRegimes:
    def test_regime_values_and_crossovers(self):
        # frozen from 30-digit evaluation of the published formulas
        serf = det_bound(
            BoundInputs(m=100, u=100, delta=0.01, emp_risk=0.0, prior_mass=1.0), "serfling"
        ).raw
        direct = det_bound(
            BoundInputs(m=100, u=100, delta=0.01, emp_risk=0.0, prior_mass=1.0), "direct"
        ).raw
        assert serf == pytest.approx(0.21566691651358982, rel=1e-6)
        assert direct == pytest.approx(0.93602979249272147, rel=1e-6)
        assert serf < direct

        # fixed u = 10: the ordering flips somewhere between m = 100 and 1e5
        def pair(m):
            return tuple(
                det_bound(
                    BoundInputs(m=m, u=10, delta=0.01, emp_risk=0.0, prior_mass=1.0), v
                ).raw
                for v in ("serfling", "direct")
            )

        s_small, d_small = pair(100)
        s_big, d_big = pair(100_000)
        assert s_small < d_small
        assert d_big < s_big

        # empirical risk 0.2: the Serfling-type excess is unchanged, the
        # counting route exceeds 1 and clamps
        out = det_bound(
            BoundInputs(m=100, u=100, delta=0.01, emp_risk=0.2, prior_mass=1.0), "serfling"
        )
        assert out.raw - 0.2 == pytest.approx(0.21566691651358982, rel=1e-6)
        out = det_bound(
            BoundInputs(m=100, u=100, delta=0.01, emp_risk=0.2, prior_mass=1.0), "direct"
        )
        assert out.raw == pytest.approx(1.747921872027249, rel=1e-6)
        assert out.raw > 1.0 and out.clamped == 1.0
        _report(5, "figure-regime values and crossovers", True)


class TestCriterion6RealizableRates:
    def test_single_test_point_rates(self):
        ms = [100, 316, 1000, 3162, 10_000, 31_623, 100_000, 316_228, 1_000_000]
        direct_vals = [
            gibbs_bound(
                BoundInputs(m=m, u=1, delta=0.01, emp_risk=0.0, kl_value=0.0), "direct"
            ).raw
            for m in ms
        ]
        assert all(a > b for a, b in zip(direct_vals, direct_vals[1:]))
        assert direct_vals[-1] < 1e-3

        reduction_vals = [
            gibbs_bound(
                BoundInputs(m=m, u=1, delta=0.01, emp_risk=0.0, kl_value=0.0), "reduction"
            ).raw
            for m in ms + [2, 10, 50]
        ]
        assert all(v > 1.0 for v in reduction_vals)
        _report(6, "realizable rates: direct converges at u=1, reduction stays vacuous", True)


class TestCriterion7PriorAccounting:
    def test_mixture_masses_and_variant_ratio(self):
        ok = True
        for n in range(2, 21):
            for m in range(1, n):
                ok &= abs(compression_mixture_log_total(m, n - m)) < 1e-12
        for c in (1, 2, 5, 20, 64, 1100):
            ok &= abs(clustering_mixture_total(c) - 1.0) < 1e-12
        for emp in (0.0, 0.15):
            for (s, m, u, d) in [(1, 10, 10, 0.2), (7, 60, 40, 0.05), (25, 100, 30, 0.01)]:
                printed = compression_bound(emp, s, m, u, d, "printed").raw - emp
                derived = compression_bound(emp, s, m, u, d, "derived").raw - emp
                ok &= abs(printed / derived - math.sqrt(2)) < 1e-12
        _report(7, "prior mass accounting and sqrt(2) variant ratio", ok)


class TestCriterion8EndToEnd:
    def test_two_blob_certificate(self, tmp_path):
        args = [
            "transduce", "--data", "tests/data/two_blob_features.csv",
            "--labels", "tests/data/two_blob_labels.csv",
            "--clusterer", "kmeans", "--max-clusters", "10",
            "--delta", "0.05",
        ]
        outputs = []
        for i in range(2):
            pred = tmp_path / f"pred{i}.csv"
            cert = tmp_path / f"cert{i}.json"
            code = main(args + ["--predictions-out", str(pred),
                                "--certificate-out", str(cert)])
            assert code == 0
            outputs.append((pred.read_bytes(), cert.read_bytes()))
        assert outputs[0] == outputs[1], "outputs not byte-identical across runs"

        doc = json.loads(outputs[0][1])
        assert doc["chosen_tau"] == 2
        assert doc["emp_risk"] == 0.0
        assert 0.3 < doc["bound_raw"] < 0.5
        assert doc["bound_raw"] == pytest.approx(0.38585706456870781, rel=1e-6)

        wrong = 0
        for line in outputs[0][0].decode().strip().split("\n")[1:]:
            i, lab = line.split(",")
            truth = "+1" if int(i) % 2 == 0 else "-1"
            wrong += lab != truth
        assert wrong == 0
        _report(8, "two-blob end-to-end: tau*=2, zero test error, bound 0.386", True)
