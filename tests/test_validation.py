"""Harness self-checks: seeding, exhaustive counting, MC agreement, validity."""

import functools
import importlib
import itertools
import math
import tracemalloc
import weakref
from fractions import Fraction

import numpy as np
import pytest
from scipy.stats import chi2

from transbound.hypergeom import HypergeomSpec, _log_inverse, deviation_tail, epsilon_star
from transbound import validation
from transbound.pac_bayes import BOUNDS, BoundInputs, det_bound, gibbs_raw
from transbound.priors import clustering_complexity
from transbound.validation import (
    ClusteringInstance,
    FiniteHypothesisInstance,
    SplitSampler,
    check_unbiasedness,
    exact_mean_upper_tail,
    mc_bound_validity,
    mc_concentration,
    random_hypothesis_instance,
    sample_split,
    splitmix64,
)

# the package re-exports the function ``transduce`` under the module's name
transduce_module = importlib.import_module("transbound.transduce")


class TestSampleSplit:
    def test_deterministic(self):
        s = SplitSampler(n_total=30, m=12, master_seed=99)
        assert np.array_equal(sample_split(s, 7), sample_split(s, 7))
        assert not np.array_equal(sample_split(s, 7), sample_split(s, 8))

    def test_mix_is_order_free(self):
        a = [splitmix64(5, i) for i in range(10)]
        b = [splitmix64(5, i) for i in reversed(range(10))]
        assert a == list(reversed(b))

    def test_complement_of_near_full_sample(self):
        s = SplitSampler(n_total=5, m=4, master_seed=3)
        trials = 20_000
        left_out = np.argmin(validation._split_masks(s, trials, 0), axis=1)
        counts = np.bincount(left_out, minlength=5).astype(float)
        expected = trials / 5
        stat = ((counts - expected) ** 2 / expected).sum()
        assert stat < chi2.ppf(0.999, df=4)

    def test_uniform_over_all_subsets(self):
        s = SplitSampler(n_total=6, m=3, master_seed=123)
        trials = 100_000
        _, seen = np.unique(validation._split_masks(s, trials, 0), axis=0, return_counts=True)
        assert len(seen) == 20
        expected = trials / 20
        stat = sum((c - expected) ** 2 / expected for c in seen)
        assert stat < chi2.ppf(0.999, df=19)

    def test_sampler_validation(self):
        with pytest.raises(ValueError):
            SplitSampler(n_total=5, m=5, master_seed=0)


def loop_masks(sampler, trials, offset):
    """The definition: trial t's mask marks sample_split(sampler, offset + t)."""
    masks = np.zeros((trials, sampler.n_total), dtype=bool)
    for t in range(trials):
        masks[t, sample_split(sampler, offset + t)] = True
    return masks


def assert_kernel_matches_loop(sampler, trials, offset=0):
    validation._held = None  # a fresh draw, not a batch held from an earlier call
    masks = validation._split_masks(sampler, trials, offset)
    assert masks.dtype == bool and masks.shape == (trials, sampler.n_total)
    assert np.array_equal(masks, loop_masks(sampler, trials, offset))


U64 = np.uint64
MASK64 = (1 << 64) - 1


def _unshift(y, k):
    """Inverse of y = x ^ (x >> k) over 64-bit words."""
    x = y
    for _ in range(64 // k):
        x = y ^ (x >> k)
    return x


def master_seed_for(trial_seed, trial_index):
    """A master seed whose SplitMix64 seed at trial_index is trial_seed."""
    z = _unshift(trial_seed, 31)
    z = _unshift(z * pow(validation._MIX2, -1, 1 << 64) & MASK64, 27)
    z = _unshift(z * pow(validation._MIX1, -1, 1 << 64) & MASK64, 30)
    return (z - (trial_index + 1) * validation._GOLDEN) & MASK64


def lemire_rejections(sampler, trial_index):
    """Rejected draws of Floyd's steps, replayed on numpy's own PCG64 word stream."""
    n, m = sampler.n_total, sampler.m
    bitgen = np.random.PCG64(splitmix64(sampler.master_seed, trial_index))
    raw = bitgen.random_raw(m + 64)  # each output is a low and a high 32-bit word
    words = np.stack((raw & U64(0xFFFFFFFF), raw >> U64(32)), axis=1).reshape(-1)
    rejected, pos = 0, 0
    for j in range(n - m, n):
        bound = U64(j + 1)
        threshold = (U64(1 << 32) - bound) % bound
        while (words[pos] * bound) & U64(0xFFFFFFFF) < threshold:
            rejected, pos = rejected + 1, pos + 1
        pos += 1
    return rejected


class TestSplitKernel:
    """``_split_masks`` replays ``sample_split`` for all trials at once."""

    @pytest.mark.parametrize("n, m, trials", [
        (10_000, 200, 12),   # Floyd: n at numpy's 10000 limit
        (10_001, 200, 12),   # Floyd: m = n // 50
        (10_001, 201, 12),   # tail shuffle: m = n // 50 + 1
        (12_000, 6_000, 6),  # tail shuffle
        (20_000, 19_999, 2),
        (50, 1, 200),
        (50, 49, 200),
        (40, 20, 300),
        (2, 1, 50),
    ])
    def test_shapes_on_both_sides_of_the_method_switch(self, n, m, trials):
        assert_kernel_matches_loop(SplitSampler(n_total=n, m=m, master_seed=17), trials)

    @pytest.mark.parametrize("seed", [0, -1, 2**63 + 5, 2**64 + 5, 10**30])
    def test_master_seeds(self, seed):
        assert_kernel_matches_loop(SplitSampler(n_total=30, m=11, master_seed=seed), 100)

    @pytest.mark.parametrize("offset", [2**63 + 11, 2**64 - 5])
    def test_trial_offsets_past_int64(self, offset):
        # indices offset + t run in uint64 and wrap past 2**64 as splitmix64's do
        assert_kernel_matches_loop(SplitSampler(n_total=30, m=11, master_seed=4), 10, offset)

    @pytest.mark.parametrize("trial_seed", [0, 1, 12345, 2**32 - 1, 2**32])
    def test_trial_seeds_with_one_entropy_word(self, trial_seed):
        # SeedSequence sees one uint32 entropy word below 2**32, two from 2**32 on
        master = master_seed_for(trial_seed, 0)
        assert splitmix64(master, 0) == trial_seed
        assert_kernel_matches_loop(SplitSampler(n_total=25, m=9, master_seed=master), 3)

    @pytest.mark.parametrize("seed", [pytest.param(6, id="0"), pytest.param(10, id="2")])
    def test_lemire_rejections(self, monkeypatch, seed):
        # 3 and 4 of these 10 trials reject a draw; exactly those come from sample_split
        s = SplitSampler(n_total=4_000_000, m=1000, master_seed=seed)
        rejecting = [t for t in range(10) if lemire_rejections(s, t) > 0]
        assert 0 < len(rejecting) < 10
        called = []

        def recording(sampler, trial_index):
            called.append(trial_index)
            return sample_split(sampler, trial_index)

        monkeypatch.setattr(validation, "sample_split", recording)
        assert_kernel_matches_loop(s, 10)
        assert called == rejecting

    def test_tail_shapes_call_sample_split(self, monkeypatch):
        def no_kernel(seeds, masks, n, m):
            raise AssertionError("tail shapes take no kernel words")

        monkeypatch.setattr(validation, "_floyd", no_kernel)
        assert_kernel_matches_loop(SplitSampler(n_total=10_001, m=201, master_seed=17), 12)

    @pytest.mark.parametrize("extra", [0, 1])
    def test_kernel_draw_limit(self, monkeypatch, extra):
        # Floyd shapes on both sides of the limit: the kernel's words only up to it
        m = validation._KERNEL_MAX_M + extra
        floyd, counts = validation._floyd, []

        def recording(seeds, masks, n, count):
            counts.append(count)
            return floyd(seeds, masks, n, count)

        monkeypatch.setattr(validation, "_floyd", recording)
        assert_kernel_matches_loop(SplitSampler(n_total=2 * m + 1, m=m, master_seed=3), 40)
        assert counts == ([] if extra else [m])

    def test_floyd_without_rejections_skips_sample_split(self, monkeypatch):
        def no_fallback(sampler, trial_index):
            raise AssertionError("no trial of this shape rejects a draw")

        monkeypatch.setattr(validation, "sample_split", no_fallback)
        assert_kernel_matches_loop(SplitSampler(n_total=40, m=20, master_seed=17), 300)

    @pytest.mark.parametrize("n, m", [(40, 20), (300, 299), (10_001, 300)])
    def test_many_chunks_and_odd_passes(self, monkeypatch, n, m):
        # chunks of 3 trials (the last one short) or of 1, odd and even words per trial
        for chunk in (3, 1):
            monkeypatch.setattr(validation, "_CHUNK_TRIALS", chunk)
            assert_kernel_matches_loop(SplitSampler(n_total=n, m=m, master_seed=8), 11, 5)

    def test_kernel_memory_does_not_grow_with_m(self, monkeypatch):
        # beside the masks the kernel keeps a few vectors per trial, none per draw
        def no_fallback(sampler, trial_index):
            raise AssertionError("no trial of these shapes rejects a draw")

        def peak_beside_masks(n, m, trials=200):
            tracemalloc.start()
            try:
                validation._split_masks(SplitSampler(n_total=n, m=m, master_seed=5), trials, 0)
                return tracemalloc.get_traced_memory()[1] - trials * n
            finally:
                tracemalloc.stop()

        monkeypatch.setattr(validation, "sample_split", no_fallback)
        assert peak_beside_masks(2001, 1000) < peak_beside_masks(41, 20) + 4096

    @pytest.mark.parametrize("offset", [0, 2**63 - 3])
    def test_partial_runs_stack(self, offset):
        s = SplitSampler(n_total=60, m=25, master_seed=21)
        a, b = 37, 55
        stacked = np.vstack([validation._split_masks(s, a, offset),
                             validation._split_masks(s, b, offset + a)])
        assert np.array_equal(stacked, validation._split_masks(s, a + b, offset))

    def test_no_trials(self):
        s = SplitSampler(n_total=10, m=3, master_seed=0)
        assert validation._split_masks(s, 0, 0).shape == (0, 10)


class TestUnbiasedness:
    def test_all_zero(self):
        rep = check_unbiasedness([0] * 8, 3)
        assert rep.equal and rep.subset_average == 0

    def test_all_one(self):
        rep = check_unbiasedness([1] * 8, 3)
        assert rep.equal and rep.subset_average == 1

    def test_small_case(self):
        rep = check_unbiasedness([1, 1, 0, 0, 0, 0], 3)
        assert rep.subset_average == Fraction(1, 3)
        assert rep.full_sample_rate == Fraction(1, 3)
        assert rep.equal

    def test_counting_matches_literal_enumeration(self):
        rng = np.random.default_rng(5)
        for n, m in [(7, 3), (9, 4), (10, 7)]:
            errors = rng.integers(0, 2, size=n).tolist()
            total = count = 0
            for subset in itertools.combinations(range(n), m):
                total += 1
                count += sum(errors[i] for i in subset)
            rep = check_unbiasedness(errors, m)
            assert rep.subset_average == Fraction(count, m * total)
            assert rep.equal

    def test_identity_over_random_vectors(self):
        rng = np.random.default_rng(17)
        for _ in range(25):
            n = int(rng.integers(2, 26))
            m = int(rng.integers(1, n + 1))
            errors = rng.integers(0, 2, size=n).tolist()
            assert check_unbiasedness(errors, m).equal

    def test_too_large_rejected(self):
        with pytest.raises(ValueError):
            check_unbiasedness([0] * 26, 5)


class TestMcConcentration:
    def test_empirical_tracks_exact(self):
        pop = np.zeros(100, dtype=int)
        pop[:30] = 1
        reports = mc_concentration(pop, m=50, eps_grid=[0.0, 0.05, 0.1, 0.2], trials=100_000, seed=11)
        for r in reports:
            assert r.empirical_within_tolerance
            assert r.exact_below_bounds

    def test_constant_population_never_exceeds(self):
        pop = np.ones(40, dtype=int)
        reports = mc_concentration(pop, m=10, eps_grid=[0.01, 0.5], trials=1000, seed=1)
        for r in reports:
            assert r.exceed_count == 0
            assert r.exact == 0.0

    def test_eps_zero_sanity(self):
        pop = np.zeros(50, dtype=int)
        pop[:20] = 1
        (r,) = mc_concentration(pop, m=25, eps_grid=[0.0], trials=5000, seed=2)
        assert r.empirical > 0.3  # Pr{Z >= EZ} is near 1/2 here

    def test_merge_invariance(self):
        pop = np.zeros(60, dtype=int)
        pop[:15] = 1
        full = mc_concentration(pop, m=20, eps_grid=[0.1], trials=2000, seed=9)[0]
        first = mc_concentration(pop, m=20, eps_grid=[0.1], trials=1000, seed=9)[0]
        second = mc_concentration(pop, m=20, eps_grid=[0.1], trials=1000, seed=9, trial_offset=1000)[0]
        assert full.exceed_count == first.exceed_count + second.exceed_count

    def test_requires_enough_trials(self):
        with pytest.raises(ValueError):
            mc_concentration(np.zeros(10, dtype=int), 5, [0.1], trials=10, seed=0)

    def test_requires_nonempty_population(self):
        with pytest.raises(ValueError):
            mc_concentration(np.zeros(0, dtype=int), 1, [0.1], trials=1000, seed=0)

    def test_exceed_counts_match_per_trial_splits(self):
        pop = np.zeros(30, dtype=int)
        pop[[1, 4, 5, 11, 17, 18, 29]] = 1
        grid = [0.0, 0.05, 0.1, 0.2]
        reports = mc_concentration(pop, m=12, eps_grid=grid, trials=3000, seed=5,
                                   trial_offset=7)
        sampler = SplitSampler(n_total=30, m=12, master_seed=5)
        means = np.array([pop[sample_split(sampler, 7 + t)].mean() for t in range(3000)])
        for r, eps in zip(reports, grid):
            assert r.exceed_count == int((means - pop.mean() >= eps).sum())


class TestExactMeanTail:
    def test_matches_deviation_tail_complement_arithmetic(self):
        # cross-check the two exact-tail views of the same split distribution:
        # the sample-mean tail at eps equals the train-test deviation tail
        # restated, both computed from the same pmf
        n, m, k = 30, 12, 9
        u = n - m
        spec = HypergeomSpec(m=m, u=u, k=k)
        for eps in np.linspace(0, 1, 20):
            direct = exact_mean_upper_tail(n, k, m, float(eps))
            brute = sum(
                (math.comb(k, r) * math.comb(n - k, m - r)) / math.comb(n, m)
                for r in range(max(k - u, 0), min(m, k) + 1)
                if r / m - k / n >= eps
            )
            assert direct == pytest.approx(brute, abs=1e-12)

    def test_monte_carlo_agreement_with_deviation_tail(self):
        # MC frequency of the test-minus-train deviation event vs the exact tail
        n, m, k, trials = 24, 10, 7, 100_000
        u = n - m
        spec = HypergeomSpec(m=m, u=u, k=k)
        errors = np.zeros(n, dtype=int)
        errors[:k] = 1
        s = SplitSampler(n_total=n, m=m, master_seed=77)
        r = validation._split_masks(s, trials, 0)[:, errors == 1].sum(axis=1)
        for eps in [0.0, 0.15, 0.3]:
            exact = deviation_tail(eps, spec)
            hits = int((((k - r) / u - r / m) > eps).sum())
            emp = hits / trials
            sigma = math.sqrt(max(exact * (1 - exact), 1e-12) / trials)
            assert abs(emp - exact) <= 3 * sigma + 1e-9


def small_instance(seed=0, n=12, m=6, n_hyp=4):
    return random_hypothesis_instance(n_total=n, m=m, n_hyp=n_hyp, seed=seed)


class TestMcBoundValidity:
    def test_target_only_hypothesis_never_violates(self):
        inst = FiniteHypothesisInstance(
            errors=np.zeros((1, 20), dtype=int), prior=np.array([1.0]), m=10
        )
        for scenario in ["vapnik_absolute", "serfling", "direct", "gibbs_direct"]:
            rep = mc_bound_validity(scenario, inst, delta=0.05, trials=500, seed=4)
            assert rep.violations == 0
            assert rep.passed

    @pytest.mark.parametrize(
        "scenario",
        ["vapnik_absolute", "vapnik_relative", "serfling", "direct",
         "gibbs_reduction", "gibbs_direct"],
    )
    def test_delta_validity_small_instance(self, scenario):
        inst = small_instance(seed=21, n=16, m=8, n_hyp=8)
        rep = mc_bound_validity(scenario, inst, delta=0.1, trials=3000, seed=13)
        assert rep.passed

    def test_determinism(self):
        inst = small_instance(seed=2)
        a = mc_bound_validity("serfling", inst, delta=0.1, trials=1500, seed=8)
        validation._held = None
        b = mc_bound_validity("serfling", inst, delta=0.1, trials=1500, seed=8)
        assert a == b

    def test_merge_invariance(self):
        inst = small_instance(seed=2)
        full = mc_bound_validity("vapnik_absolute", inst, delta=0.2, trials=2000, seed=5)
        head = mc_bound_validity("vapnik_absolute", inst, delta=0.2, trials=800, seed=5)
        tail = mc_bound_validity(
            "vapnik_absolute", inst, delta=0.2, trials=1200, seed=5, trial_offset=800
        )
        assert full.violations == head.violations + tail.violations
        assert full.trials == head.trials + tail.trials

    def test_exhaustive_mc_agreement(self):
        # N small enough to enumerate every split: the MC frequency must sit
        # within sampling tolerance of the exhaustive violation fraction
        inst = small_instance(seed=31, n=12, m=6, n_hyp=4)
        delta = 0.2
        n = 12
        u = n - inst.m
        exhaustive = total = 0
        for subset in itertools.combinations(range(n), inst.m):
            mask = np.zeros(n, dtype=bool)
            mask[list(subset)] = True
            bad = False
            for j in range(inst.errors.shape[0]):
                r_m = inst.errors[j, mask].mean()
                r_u = inst.errors[j, ~mask].mean()
                bound = det_bound(
                    BoundInputs(m=inst.m, u=u, delta=delta, emp_risk=float(r_m),
                                prior_mass=float(inst.prior[j])),
                    "serfling",
                ).raw
                if r_u > bound:
                    bad = True
                    break
            exhaustive += bad
            total += 1
        exact = exhaustive / total
        rep = mc_bound_validity("serfling", inst, delta=delta, trials=20_000, seed=3)
        sigma = math.sqrt(max(exact * (1 - exact), 1e-12) / rep.trials)
        assert abs(rep.empirical - exact) <= 3 * sigma + 1e-9

    def test_clustering_scenario(self, two_blob):
        data, _, truth = two_blob
        inst = ClusteringInstance(points=data.points, target=truth, m=50, c=5)
        rep = mc_bound_validity("clustering", inst, delta=0.05, trials=1000, seed=6)
        assert rep.passed
        assert rep.violations == 0  # separable blobs: certificate never fails

    def test_clustering_scenario_with_implicit_bound(self, two_blob):
        data, _, truth = two_blob
        inst = ClusteringInstance(
            points=data.points, target=truth, m=50, c=5, bound_name="vapnik_absolute"
        )
        rep = mc_bound_validity("clustering", inst, delta=0.05, trials=500, seed=6)
        assert rep.passed
        with pytest.raises(ValueError):
            ClusteringInstance(points=data.points, target=truth, m=50, c=5,
                               bound_name="tightest")

    def test_clustering_instance_checks_clusterers(self, two_blob):
        data, _, truth = two_blob
        for bad in ((), ("kmeans", "spectral")):
            with pytest.raises(ValueError):
                ClusteringInstance(points=data.points, target=truth, m=50, c=5, clusterers=bad)
        inst = ClusteringInstance(points=data.points, target=truth, m=50, c=5,
                                  clusterers=["kmeans", "kmeans"])
        assert inst.clusterers == ("kmeans", "kmeans")

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("cells", [1, 120, 1 << 22])
    def test_test_errors_equal_the_label_matrix_count(self, monkeypatch, seed, cells):
        # each candidate's masks counted in chunks of 1, 2 and every mask
        monkeypatch.setattr(validation, "_RISK_CELLS", cells)
        rng = np.random.default_rng(seed)
        n, rows = 60, 45
        blob = rng.integers(0, 3, size=n)
        points = rng.normal(size=(n, 2)) + 4.0 * blob[:, None]
        # blob 0 mostly +1, blob 1 a coin flip, blob 2 mostly -1
        target = np.where(rng.random(n) < np.array([0.1, 0.5, 0.9])[blob], -1, 1)
        partitions = transduce_module.ensemble_sweep(
            transduce_module.Dataset(points=points, ids=np.arange(n)),
            ("kmeans", "agglomerative_single"), 6)
        plain = transduce_module.BOUNDS["serfling_printed"]
        one = clustering_complexity(1, 6, 2, "printed")

        def bound(emp, complexity, m, *rest):  # by training errors % 3: none, tau 1, any tau
            phase = np.rint(emp * m) % 3
            return np.where((phase == 0) | ((phase == 1) & (complexity != one)), np.inf,
                            plain(emp, complexity, m, *rest))

        monkeypatch.setitem(transduce_module.BOUNDS, "serfling_printed", bound)
        # 8 training ids of each sign in every other mask, 16 of any sign in the rest
        masks = np.zeros((rows, n), dtype=bool)
        for r, row in enumerate(masks):
            for ids in ([np.flatnonzero(target == sign) for sign in (-1, 1)] if r % 2 else
                        [np.arange(n), np.arange(n)]):
                row[rng.choice(ids[~row[ids]], size=8, replace=False)] = True
        chosen = transduce_module.label_and_select(partitions, target, masks, 0.05)
        labels = np.ones((rows, n), dtype=np.int8)
        ties = 0
        for r in np.flatnonzero(chosen.candidate >= 0):
            p = partitions[chosen.candidate[r]]
            labels[r] = chosen.cluster_labels[r, p.assignment]
            train = p.assignment[masks[r]]
            pos = np.bincount(train[target[masks[r]] == 1], minlength=p.tau)
            ties += int(((pos > 0) & (2 * pos == np.bincount(train, minlength=p.tau))).sum())
        phase = np.where(chosen.tau > 0, chosen.train_errors % 3, 0)
        assert ties > 0 and ((phase == 2) | (chosen.tau < 2)).all()
        assert set(chosen.tau[phase < 2].tolist()) == {0, 1} and (chosen.tau[phase == 2] > 1).any()
        want = ((labels != target) & ~masks).sum(axis=1)  # the label-matrix count
        got = validation._test_errors(partitions, target, masks, chosen)
        assert (got.dtype, got.tobytes()) == (want.dtype, want.tobytes())

    def test_unknown_scenario(self):
        with pytest.raises(ValueError):
            mc_bound_validity("bootstrap", small_instance(), delta=0.1, trials=10, seed=0)

    def test_monte_carlo_arrays_are_capped_before_allocation(self, monkeypatch):
        monkeypatch.setattr(validation, "MAX_MC_CELLS", 400)
        inst = small_instance(n=20, m=10, n_hyp=4)  # 4 x 20 cells
        assert mc_bound_validity("serfling", inst, 0.1, trials=20, seed=0).trials == 20
        with pytest.raises(ValueError, match="trials x n_total = 21 x 20 = 420 cells"):
            mc_bound_validity("serfling", inst, 0.1, trials=21, seed=0)
        with pytest.raises(ValueError, match="hypotheses x n_total"):
            random_hypothesis_instance(n_total=20, m=10, n_hyp=21, seed=0)
        with pytest.raises(ValueError, match="trials x population size"):
            mc_concentration(np.zeros(20, dtype=int), 10, [0.1], trials=1000, seed=0)

    @pytest.mark.parametrize("cells", [1, 40, 41, 1 << 22])
    def test_risks_counted_in_chunks_of_trials(self, monkeypatch, cells):
        # chunks of one trial, of exactly one trial's cells, of a trial and a
        # bit, and the default one chunk give the int64 product's counts, in
        # float64 (float32 limit 40 at n_total = 40) and in float32 (limit 41)
        monkeypatch.setattr(validation, "_RISK_CELLS", cells)
        inst = small_instance(seed=5, n=40, m=15, n_hyp=6)
        masks = np.random.default_rng(3).random((57, 40)) < 0.4
        counts = inst.errors @ masks.T.astype(np.int64)
        used = []
        monkeypatch.setattr(validation, "_count_dtype",
                            lambda n: used.append(transduce_module._count_dtype(n)) or used[-1])
        for below, dtype in ((40, np.float64), (41, np.float32)):
            monkeypatch.setattr(transduce_module, "_FLOAT32_COUNTS_BELOW", below)
            got = validation._train_counts(inst, masks)
            assert used.pop() == dtype and not used
            assert got.dtype == np.int16 and np.array_equal(got, counts)

    def test_random_instance_needs_a_hypothesis(self):
        with pytest.raises(ValueError):
            random_hypothesis_instance(n_total=10, m=5, n_hyp=0, seed=0)


def counting_floyd(monkeypatch):
    """Patch ``_floyd`` to record each kernel draw's (n, m); returns the record."""
    floyd, draws = validation._floyd, []

    def counted(seeds, masks, n, m):
        draws.append((n, m))
        return floyd(seeds, masks, n, m)

    monkeypatch.setattr(validation, "_floyd", counted)
    return draws


class TestHeldBatch:
    """``_split_masks`` holds its last batch; a call with an equal key gets it back."""

    def test_scenarios_on_one_seed_draw_each_shape_once(self, monkeypatch):
        # the benchmark's shapes: every scenario and mc_concentration on one seed
        rng = np.random.default_rng(7)
        hypotheses = random_hypothesis_instance(n_total=40, m=20, n_hyp=16, seed=11)
        points = np.concatenate([rng.normal(size=(50, 2)), rng.normal(size=(50, 2)) + 3.0])
        target = np.where(rng.random(100) < 0.9, 1, -1) * np.repeat([1, -1], 50)
        clustering = ClusteringInstance(points=points, target=target, m=50, c=10)
        population = np.zeros(100, dtype=np.int64)
        population[:30] = 1
        trials, seed = 10_000, 3
        runs = [functools.partial(mc_bound_validity, scenario,
                                  clustering if scenario == "clustering" else hypotheses,
                                  0.05, trials, seed) for scenario in validation.SCENARIOS]
        runs.append(functools.partial(mc_concentration, population, 50,
                                      [i * 0.07 for i in range(11)], trials, seed))
        draws = counting_floyd(monkeypatch)
        fresh = []
        for run in runs:
            validation._held = None
            fresh.append(run())
        assert len(draws) == len(runs)
        validation._held = None
        draws.clear()
        assert [run() for run in runs] == fresh
        assert draws == [(40, 20), (100, 50)]

    def test_held_batch_is_read_only(self):
        s = SplitSampler(n_total=10, m=3, master_seed=0)
        masks = validation._split_masks(s, 5, 0)
        assert validation._split_masks(s, 5, 0) is masks
        with pytest.raises(ValueError):
            masks[0, 0] = True

    @pytest.mark.parametrize("sampler, trials, offset", [
        (SplitSampler(n_total=30, m=11, master_seed=5), 50, 0),
        (SplitSampler(n_total=31, m=11, master_seed=4), 50, 0),
        (SplitSampler(n_total=30, m=12, master_seed=4), 50, 0),
        (SplitSampler(n_total=30, m=11, master_seed=4), 49, 0),
        (SplitSampler(n_total=30, m=11, master_seed=4), 50, 1),
    ], ids=["seed", "n_total", "m", "trials", "offset"])
    def test_another_key_drops_the_held_batch_before_drawing(self, monkeypatch, sampler,
                                                             trials, offset):
        held = weakref.ref(
            validation._split_masks(SplitSampler(n_total=30, m=11, master_seed=4), 50, 0))
        floyd, alive = validation._floyd, []

        def checked(*args):
            alive.append(held() is not None)
            return floyd(*args)

        monkeypatch.setattr(validation, "_floyd", checked)
        masks = validation._split_masks(sampler, trials, offset)
        assert alive == [False]
        assert np.array_equal(masks, loop_masks(sampler, trials, offset))

    @pytest.mark.parametrize("swapped", ["emptied", "other batch"])
    def test_a_slot_swapped_during_the_key_check_returns_the_callers_batch(
            self, monkeypatch, swapped):
        # another thread may run while SplitSampler.__eq__ (Python code) compares keys
        own = validation._split_masks(SplitSampler(n_total=30, m=11, master_seed=4), 50, 0)
        other = SplitSampler(n_total=12, m=5, master_seed=1)
        other_held = ((other, 7, 0), np.ones((7, 12), dtype=bool))
        eq = SplitSampler.__eq__

        def swapping(a, b):
            validation._held = None if swapped == "emptied" else other_held
            return eq(a, b)

        monkeypatch.setattr(SplitSampler, "__eq__", swapping)
        equal = SplitSampler(n_total=30, m=11, master_seed=4)  # not the held key's object
        assert validation._split_masks(equal, 50, 0) is own

    def test_partial_runs_sum_over_shared_batches(self, monkeypatch):
        inst = small_instance(seed=2)
        scenarios = ("vapnik_absolute", "serfling", "gibbs_direct")
        spans = ((0, 2000), (0, 800), (800, 1200))  # (offset, trials): full, head, tail
        draws = counting_floyd(monkeypatch)
        runs = {(span, scenario): mc_bound_validity(scenario, inst, 0.2, span[1], 5,
                                                    trial_offset=span[0])
                for span in spans for scenario in scenarios}
        assert len(draws) == len(spans)
        for scenario in scenarios:
            full, head, tail = (runs[span, scenario] for span in spans)
            assert full.violations == head.violations + tail.violations
            assert full.boundary_hits == head.boundary_hits + tail.boundary_hits


def counting(monkeypatch, name):
    """Patch ``validation.<name>`` to record each call; returns the record."""
    real, made = getattr(validation, name), []
    monkeypatch.setattr(validation, name, lambda *args: made.append(args) or real(*args))
    return made


class TestPerBatch:
    """``_train_counts`` and ``_gibbs_terms`` run once per instance on the held batch of masks."""

    SAMPLER = SplitSampler(n_total=30, m=12, master_seed=3)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_seven_scenarios_on_one_batch_match_fresh_runs(self, monkeypatch, two_blob, seed):
        data, _, truth = two_blob  # n = 100, as the hypotheses: one batch serves all seven
        hypotheses = random_hypothesis_instance(n_total=100, m=50, n_hyp=16, seed=seed + 7)
        clustering = ClusteringInstance(points=data.points, target=truth, m=50, c=5)
        runs = [functools.partial(mc_bound_validity, scenario,
                                  clustering if scenario == "clustering" else hypotheses,
                                  0.05, 2000, seed) for scenario in validation.SCENARIOS]
        fresh = []
        for run in runs:
            validation._held = None
            fresh.append(run())
        validation._held = None
        counts = counting(monkeypatch, "_count_dtype")  # once in each _train_counts computation
        gibbs = counting(monkeypatch, "kl_divergence")  # once per chunk of a _gibbs_terms one
        assert [run() for run in runs] == fresh
        # 16 hypotheses: chunks of 8192 // 16 = 512 trials, four for 2000 trials
        assert (len(counts), len(gibbs)) == (1, 4)

    def test_two_instances_on_one_batch_get_their_own(self):
        a, b = (small_instance(seed=seed, n=30, m=12, n_hyp=5) for seed in (1, 2))
        masks = validation._split_masks(self.SAMPLER, 200, 0)
        for derive in (validation._train_counts, validation._gibbs_terms):
            for inst in (a, b, a, b):
                got, want = derive(inst, masks), derive(inst, masks.copy())
                assert got.tobytes() == want.tobytes()
                assert got is derive(inst, masks)
                assert not got.flags.writeable
            assert not np.array_equal(derive(a, masks), derive(b, masks))

    def test_writable_masks_are_never_memoized(self):
        inst = small_instance(seed=4, n=30, m=12, n_hyp=5)
        held = validation._split_masks(self.SAMPLER, 200, 0)
        masks = held.copy()
        for derive in (validation._train_counts, validation._gibbs_terms):
            before = derive(inst, masks)
            masks[:] = masks[::-1]  # the same rows in reverse order
            after = derive(inst, masks)
            masks[:] = held
            assert np.array_equal(after, before[:, ::-1])
        read_only = held.copy()
        read_only.flags.writeable = False  # not the held batch either
        assert (validation._train_counts(inst, read_only)
                is not validation._train_counts(inst, read_only))
        assert validation._derived == (held, {})

    def test_a_new_draw_frees_the_old_batch_and_what_was_derived(self, monkeypatch):
        inst = small_instance(seed=4, n=30, m=12, n_hyp=5)
        masks = validation._split_masks(self.SAMPLER, 200, 0)
        derived = validation._train_counts(inst, masks), validation._gibbs_terms(inst, masks)
        old = [weakref.ref(array) for array in (masks,) + derived]
        del masks, derived
        draws = []
        floyd = validation._floyd

        def checked(*args):
            draws.append([ref() is None for ref in old])
            return floyd(*args)

        monkeypatch.setattr(validation, "_floyd", checked)
        validation._split_masks(SplitSampler(n_total=30, m=12, master_seed=4), 200, 0)
        assert draws == [[True] * 3]

    def test_instance_owns_read_only_copies(self):
        errors, prior = np.array([[0, 1, 1, 0], [1, 0, 0, 0]]), np.array([0.25, 0.75])
        inst = FiniteHypothesisInstance(errors=errors, prior=prior, m=2)
        for own, given in ((inst.errors, errors), (inst.prior, prior)):
            with pytest.raises(ValueError, match="read-only"):
                own[0] = 1
            assert given.flags.writeable and not np.shares_memory(own, given)


# The Gibbs scenarios once computed each trial's KL and posterior-weighted risks
# in a Python loop, one masked KL sum and two dot products per trial.  That loop
# is the reference for the column-wise form; sums in another order may differ in
# the last bits only, so the tolerance is fixed here, independent of the code.
GIBBS_RTOL = 1e-12


def loop_gibbs_posterior(instance, r_m):
    logits = -instance.m * r_m
    q = np.exp(logits - logits.max(axis=0, keepdims=True))
    return q / q.sum(axis=0, keepdims=True)


def loop_risks(instance, counts):
    """Training and test risk per (hypothesis, trial), from float64 training error counts
    or from the masks' int64 error count product."""
    if counts.dtype == bool:
        counts = (instance.errors @ counts.T.astype(np.int64)).astype(float)
    n, m = instance.errors.shape[1], instance.m
    return counts / m, (instance.errors.sum(axis=1, keepdims=True) - counts) / (n - m)


def loop_gibbs_terms(instance, masks):
    r_m, r_u = loop_risks(instance, masks)
    q = loop_gibbs_posterior(instance, r_m)
    trials = masks.shape[0]
    kl, emp, test = np.empty(trials), np.empty(trials), np.empty(trials)
    for t in range(trials):
        qt = q[:, t]
        nz = qt > 0
        kl[t] = np.sum(qt[nz] * np.log(qt[nz] / instance.prior[nz]))
        emp[t] = qt @ r_m[:, t]
        test[t] = qt @ r_u[:, t]
    return kl, emp, test


def _with_prior(inst, prior):
    return FiniteHypothesisInstance(errors=inst.errors, prior=prior / prior.sum(), m=inst.m)


def _single_error_instance(n, n_hyp, seed):
    """u = 1 and hypothesis j errs on point j only: the direct Gibbs bound can fail."""
    errors = np.zeros((n_hyp, n), dtype=np.int64)
    errors[np.arange(n_hyp), np.arange(n_hyp)] = 1
    prior = np.random.default_rng(seed).uniform(0.5, 2.0, size=n_hyp)
    return _with_prior(FiniteHypothesisInstance(errors=errors, prior=np.full(n_hyp, 1 / n_hyp),
                                                m=n - 1), prior)


def _underflow_instance():
    """A perfect and an always-wrong hypothesis: exp(-m) underflows to exactly 0."""
    errors = np.zeros((3, 1200), dtype=np.int64)
    errors[1] = 1
    errors[2, ::3] = 1
    return FiniteHypothesisInstance(errors=errors, prior=np.array([0.2, 0.5, 0.3]), m=1000)


def gibbs_cases():
    """(id, instance) pairs: uniform and non-uniform priors, u = 1, underflow."""
    cases = []
    for seed, (n, m, n_hyp) in enumerate([(12, 6, 4), (16, 8, 8), (40, 20, 16), (30, 5, 3),
                                          (30, 25, 10), (60, 30, 1), (25, 12, 40),
                                          (80, 60, 20)]):
        inst = random_hypothesis_instance(n_total=n, m=m, n_hyp=n_hyp, seed=seed)
        cases.append((f"uniform-{n}-{m}-{n_hyp}", inst))
        dirichlet = np.random.default_rng(seed).dirichlet(np.full(n_hyp, 0.5))
        cases.append((f"dirichlet-{n}-{m}-{n_hyp}", _with_prior(inst, dirichlet + 1e-3)))
    for n, n_hyp in [(101, 1), (201, 1), (301, 2), (401, 2)]:
        cases.append((f"single-error-{n}-{n_hyp}", _single_error_instance(n, n_hyp, n)))
    cases.append(("underflow", _underflow_instance()))
    return cases


GIBBS_CASES = gibbs_cases()


GIBBS_TRIALS, GIBBS_SEED, GIBBS_DELTA = 1000, 5, 0.05


@functools.lru_cache(maxsize=None)
def gibbs_case(name):
    """The case's instance, split masks and loop reference terms, computed once."""
    inst = dict(GIBBS_CASES)[name]
    sampler = SplitSampler(n_total=inst.errors.shape[1], m=inst.m, master_seed=GIBBS_SEED)
    masks = validation._split_masks(sampler, GIBBS_TRIALS, 0)
    return inst, masks, loop_gibbs_terms(inst, masks)


def loop_violations(name, variant):
    inst, _, (kl, emp, test) = gibbs_case(name)
    n, m = inst.errors.shape[1], inst.m
    return int((test > gibbs_raw(variant, emp, kl, m, n - m, GIBBS_DELTA)).sum())


class TestGibbsAgainstLoop:
    @pytest.mark.parametrize("name", [c[0] for c in GIBBS_CASES])
    def test_terms_match_loop(self, name):
        inst, masks, reference = gibbs_case(name)
        for new, old in zip(validation._gibbs_terms(inst, masks), reference):
            np.testing.assert_allclose(new, old, rtol=GIBBS_RTOL, atol=0.0)

    @pytest.mark.parametrize("name", [c[0] for c in GIBBS_CASES])
    @pytest.mark.parametrize("variant", ["reduction", "direct"])
    def test_violation_counts_match_loop(self, name, variant):
        inst = gibbs_case(name)[0]
        rep = mc_bound_validity(f"gibbs_{variant}", inst, GIBBS_DELTA, GIBBS_TRIALS, GIBBS_SEED)
        assert rep.violations == loop_violations(name, variant)

    def test_cases_reach_violations_and_underflow(self):
        # the count comparison can fail only where the reference sees violations
        assert sum(loop_violations(name, "direct") for name, _ in GIBBS_CASES) >= 10
        inst, masks, _ = gibbs_case("underflow")
        q = loop_gibbs_posterior(inst, loop_risks(inst, masks)[0])
        assert (q == 0.0).any()


def per_cell_events(instance, counts, delta, scenario):
    """Each hypothesis scenario's events per (hypothesis, trial), from float64 risks
    per cell, as they were counted before the count tables: for ``vapnik_*`` the
    deviation reaching eps* and equalling it, else the test risk above the bound."""
    r_m, r_u = loop_risks(instance, counts)
    n = instance.errors.shape[1]
    m, u = instance.m, n - instance.m
    if scenario.startswith("vapnik_"):
        variant = scenario.removeprefix("vapnik_")
        thresholds = np.array([epsilon_star(p, delta, m, u, variant).value
                               for p in instance.prior.tolist()])
        dev = r_u - r_m
        if variant == "relative":
            k = instance.errors.sum(axis=1, keepdims=True)
            scale = np.where(k > 0, np.sqrt(n / np.maximum(k, 1)), 0.0)
            dev = dev * scale
        return [dev >= thresholds[:, None], dev == thresholds[:, None]]
    return [np.array([r_u[j] > BOUNDS[scenario](r_m[j], _log_inverse(float(p)), m, u, delta)
                      for j, p in enumerate(instance.prior)])]


def table_instances():
    """Sixteen random hypotheses on 20 points, m = 10 (boundary hits at delta 0.05); the
    same with a perfect and an always-wrong hypothesis under a Dirichlet prior; and two
    hypotheses with one error each and u = 1, where ``direct`` fails."""
    plain = random_hypothesis_instance(n_total=20, m=10, n_hyp=16, seed=0)
    errors = np.vstack([plain.errors, np.zeros(20, dtype=np.int64), np.ones(20, dtype=np.int64)])
    prior = np.random.default_rng(1).dirichlet(np.full(18, 0.5)) + 1e-3
    return (plain, FiniteHypothesisInstance(errors=errors, prior=prior / prior.sum(), m=10),
            _single_error_instance(201, 2, 201))


TABLE_SCENARIOS = ("vapnik_absolute", "vapnik_relative", "serfling", "direct")


class TestCountTables:
    """Every deterministic hypothesis scenario reads a table over the training errors."""

    @pytest.mark.parametrize("delta", [0.05, 0.5, 0.999])
    @pytest.mark.parametrize("scenario", TABLE_SCENARIOS)
    def test_tables_match_the_per_cell_expression(self, scenario, delta):
        for inst in table_instances():
            every = np.tile(np.arange(inst.m + 1.0), (inst.errors.shape[0], 1))  # j = 0..m
            tables = validation._fail_tables(inst, delta, scenario)
            want = per_cell_events(inst, every, delta, scenario)
            assert len(tables) == len(want)
            for got, event in zip(tables, want):
                assert (got.dtype, got.shape) == (bool, event.shape)
                assert got.tobytes() == event.tobytes()

    @pytest.mark.parametrize("scenario", TABLE_SCENARIOS)
    def test_reports_match_the_per_cell_count(self, scenario):
        for inst in table_instances():
            n = inst.errors.shape[1]
            masks = validation._split_masks(SplitSampler(n_total=n, m=inst.m, master_seed=0),
                                            4000, 0)
            for delta in (0.05, 0.5, 0.999):
                events = [event.any(axis=0).sum() for event in
                          per_cell_events(inst, masks, delta, scenario)] + [0]
                rep = mc_bound_validity(scenario, inst, delta, 4000, 0)
                assert (rep.violations, rep.boundary_hits) == tuple(events[:2])

    def test_cases_reach_every_event(self):
        # the comparisons above can fail only where the events occur
        reps = {(scenario, inst, delta): mc_bound_validity(scenario, inst, delta, 4000, 0)
                for scenario in TABLE_SCENARIOS for inst in table_instances()
                for delta in (0.05, 0.5, 0.999)}
        for scenario in TABLE_SCENARIOS:
            assert any(rep.violations for key, rep in reps.items() if key[0] == scenario)
            assert (any(rep.boundary_hits for key, rep in reps.items() if key[0] == scenario)
                    == scenario.startswith("vapnik_"))

    @pytest.mark.parametrize("m, dtype", [((1 << 15) - 1, np.int16), (1 << 15, np.int64)])
    def test_counts_are_int16_below_m_2_15(self, m, dtype):
        inst = random_hypothesis_instance(n_total=m + 2, m=m, n_hyp=3, seed=2)
        masks = validation._split_masks(SplitSampler(n_total=m + 2, m=m, master_seed=1), 3, 0)
        counts = validation._train_counts(inst, masks)
        assert counts.dtype == dtype
        assert np.array_equal(counts, inst.errors @ masks.T.astype(np.int64))

    @pytest.mark.parametrize("trials", [1, 2, 3, 5, 600])
    def test_gibbs_terms_in_chunks_equal_one_pass(self, monkeypatch, trials):
        # chunks of 2, 3 and 45 trials with no last chunk of one trial, and
        # one pass; the Gibbs terms of the whole batch as they were computed
        # before the counts were chunked
        inst = table_instances()[1]
        masks = validation._split_masks(SplitSampler(n_total=20, m=10, master_seed=3), trials, 0)
        r_m, r_u = loop_risks(inst, masks)
        logits = -inst.m * r_m
        q = np.exp(logits - logits.max(axis=0, keepdims=True))
        q /= q.sum(axis=0, keepdims=True)
        whole = np.array([validation.kl_divergence(q, inst.prior[:, None]),
                          (q * r_m).sum(axis=0), (q * r_u).sum(axis=0)]).reshape(3, trials)
        for cells in (1, 18 * 3, 18 * 45, 1 << 30):
            monkeypatch.setattr(validation, "_GIBBS_CELLS", cells)
            assert validation._gibbs_terms(inst, masks.copy()).tobytes() == whole.tobytes()
