"""Clustering kernels: bit-identical to the direct NumPy formulation.

The ``_ref_*`` functions are the straightforward implementations the fast
kernels replaced (a broadcast (n, tau, d) distance array, one boolean mask
per cluster mean, a Python relabelling loop and a replay of every merge).
The fast kernels must reproduce them exactly, not within a tolerance,
because the clustering prior is only well defined on a deterministic sweep.
"""

import math

import numpy as np
import pytest
from scipy.cluster.hierarchy import linkage
from scipy.spatial.distance import pdist

from transbound import clustering
from transbound.clustering import (
    KMEANS_MAX_ITER,
    KMEANS_TOL,
    agglomerative_sweep,
    canonical_labels,
    kmeans_labels,
)


def _ref_canonical_labels(labels: np.ndarray) -> np.ndarray:
    """Relabel clusters by order of first appearance so output ids are stable."""
    mapping: dict[int, int] = {}
    out = np.empty(len(labels), dtype=np.int64)
    for i, lab in enumerate(labels):
        lab = int(lab)
        if lab not in mapping:
            mapping[lab] = len(mapping)
        out[i] = mapping[lab]
    return out


def _ref_seeds(points: np.ndarray, tau: int) -> list:
    """Farthest-first seeds: the point nearest the centroid, then the farthest ones."""
    centroid = points.mean(axis=0)
    first = int(np.argmin(((points - centroid) ** 2).sum(axis=1)))
    seeds = [first]
    nearest = ((points - points[first]) ** 2).sum(axis=1)
    while len(seeds) < tau:
        nxt = int(np.argmax(nearest))
        seeds.append(nxt)
        nearest = np.minimum(nearest, ((points - points[nxt]) ** 2).sum(axis=1))
    return seeds


def _ref_kmeans_labels(points: np.ndarray, tau: int, repairs: list | None = None) -> np.ndarray:
    """Lloyd's algorithm with farthest-first seeding, fully deterministic.

    Appends to ``repairs`` the Lloyd iteration (0 for the first) of each
    empty-cluster repair.
    """
    n = len(points)
    if tau == 1:
        return np.zeros(n, dtype=np.int64)

    centers = points[_ref_seeds(points, tau)].astype(float).copy()

    labels = np.zeros(n, dtype=np.int64)
    for it in range(KMEANS_MAX_ITER):
        dists = ((points[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        labels = np.argmin(dists, axis=1).astype(np.int64)
        for j in range(tau):
            if not (labels == j).any():
                sizes = np.bincount(labels, minlength=tau)
                big = int(np.argmax(sizes))
                members = np.flatnonzero(labels == big)
                far = members[int(np.argmax(dists[members, big]))]
                labels[far] = j
                if repairs is not None:
                    repairs.append(it)
        new_centers = np.stack([points[labels == j].mean(axis=0) for j in range(tau)])
        moved = np.sqrt(((new_centers - centers) ** 2).sum(axis=1)).max()
        centers = new_centers
        if moved <= KMEANS_TOL:
            break
    return _ref_canonical_labels(labels)


def _ref_agglomerative_sweep(points: np.ndarray, c: int, method: str) -> dict[int, np.ndarray]:
    """Cut one single- or complete-linkage dendrogram at every level 1..c."""
    if method not in ("single", "complete"):
        raise ValueError(f"unknown linkage {method!r}")
    n = len(points)
    merges = linkage(pdist(points), method=method)
    labels = np.arange(n, dtype=np.int64)
    out: dict[int, np.ndarray] = {}
    if n <= c:
        out[n] = _ref_canonical_labels(labels)
    for i in range(n - 1):
        a, b = int(merges[i, 0]), int(merges[i, 1])
        labels[(labels == a) | (labels == b)] = n + i
        live = n - 1 - i
        if live <= c:
            out[live] = _ref_canonical_labels(labels)
    return out


def _scalar_pairwise(values: list[float]) -> float:
    """NumPy's pairwise summation of a contiguous float64 run, one Python float at a time."""
    n = len(values)
    if n < 8:
        total = -0.0
        for v in values:
            total += v
        return total
    if n <= 128:
        r = list(values[:8])
        for i in range(8, n - n % 8, 8):
            for j in range(8):
                r[j] += values[i + j]
        total = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
        for v in values[n - n % 8:]:
            total += v
        return total
    half = n // 2 - (n // 2) % 8
    return _scalar_pairwise(values[:half]) + _scalar_pairwise(values[half:])


def _assert_same(got, want):
    assert got.dtype == want.dtype == np.int64
    assert got.shape == want.shape
    assert np.array_equal(got, want)


def _points(kind: str, n: int, d: int, rng) -> np.ndarray:
    if kind == "gauss":
        return rng.normal(size=(n, d)) * 10.0 ** rng.uniform(-3, 3, size=d)
    if kind == "grid":  # rounded, so many exact ties in distances
        return np.round(rng.normal(size=(n, d)) * 2.0) / 2.0
    base = rng.normal(size=(max(n // 4, 2), d))  # duplicate rows
    return base[rng.integers(0, len(base), size=n)]


def _blobs(n: int, d: int, rng) -> np.ndarray:
    """n points around 6 unit-variance centres drawn from [-8, 8]^d."""
    centres = rng.uniform(-8.0, 8.0, size=(6, d))
    return centres[rng.integers(0, 6, size=n)] + rng.normal(size=(n, d))


def _argmin_axes(monkeypatch, points: np.ndarray, tau: int):
    """``kmeans_labels`` and the ``axis`` of every ``np.argmin`` call it made."""
    axes = []
    argmin = np.argmin

    def counting(a, axis=None, **kwargs):
        axes.append(axis)
        return argmin(a, axis=axis, **kwargs)

    with monkeypatch.context() as m:
        m.setattr(clustering.np, "argmin", counting)
        labels = kmeans_labels(points, tau)
    return labels, axes


DIMS = (1, 2, 3, 7, 8, 9, 16, 17)
KINDS = ("gauss", "grid", "dup")


class TestSummationOrder:
    @pytest.mark.parametrize("d", list(range(1, 21)) + [64, 127, 128, 129, 130, 257])
    def test_sq_dists_match_scalar_reference_and_numpy(self, d):
        rng = np.random.default_rng(d)
        # magnitudes spread over 12 decades make every summation order visible
        points = rng.normal(size=(40, d)) * 10.0 ** rng.uniform(-6, 6, size=d)
        centers = rng.normal(size=(5, d)) * 10.0 ** rng.uniform(-6, 6, size=d)
        got = clustering._sq_dists(points.T[:, None, :], centers.T[:, :, None])
        assert got.shape == (5, 40)
        diff2 = (points[:, None, :] - centers[None]) ** 2
        scalar = np.array([[_scalar_pairwise(diff2[i, k].tolist()) for i in range(40)]
                           for k in range(5)])
        assert np.array_equal(got.view(np.int64), scalar.view(np.int64))
        assert np.array_equal(got.T.view(np.int64), diff2.sum(axis=2).view(np.int64))
        own = np.arange(40) % 5  # each point against one center
        paired = clustering._sq_dists(points.T, centers[own].T)
        assert np.array_equal(paired.view(np.int64), scalar[own, np.arange(40)].view(np.int64))

    def test_order_is_not_sequential(self):
        # the scalar reference would not catch a plain left-to-right sum
        rng = np.random.default_rng(130)
        values = (rng.normal(size=(200, 130)) * 10.0 ** rng.uniform(-6, 6, size=130)) ** 2
        sequential = [sum(row, -0.0) for row in values.tolist()]
        pairwise = [_scalar_pairwise(row) for row in values.tolist()]
        assert sequential != pairwise


class TestKmeans:
    """k-means against the reference.

    Scales 1e-170 and 1e-160 make every squared distance subnormal or zero;
    at 1e153 and 1e154 the squared distances straddle the float maximum, and
    at 1e300 every squared difference overflows.
    """

    @pytest.mark.parametrize("d", DIMS)
    @pytest.mark.parametrize("kind", KINDS)
    def test_matches_reference(self, d, kind):
        rng = np.random.default_rng([d, KINDS.index(kind)])
        points = _points(kind, 120, d, rng)
        distinct = len(np.unique(points, axis=0))
        for tau in sorted({1, 2, 3, 7, min(20, distinct)}):
            _assert_same(kmeans_labels(points, tau), _ref_kmeans_labels(points, tau))

    def test_empty_cluster_repair(self):
        # tau = 3 exceeds the 2 distinct points, so farthest-first seeding
        # picks points 0, 3 and 0 again; ties go to the lower cluster, so the
        # first assignment leaves cluster 2 empty and the repair must fill it.
        points = np.array([[0.0], [0.0], [0.0], [1.0]])
        first = np.argmin(((points[:, None, :] - points[[0, 3, 0]][None]) ** 2).sum(axis=2),
                          axis=1)
        assert 2 not in first
        got = kmeans_labels(points, 3)
        _assert_same(got, _ref_kmeans_labels(points, 3))
        assert got.tolist() == [0, 1, 1, 2]

    def test_repair_on_duplicates_matches_reference(self):
        rng = np.random.default_rng(7)
        points = rng.normal(size=(5, 2))[rng.integers(0, 5, size=60)]
        for tau in (6, 9, 12):
            _assert_same(kmeans_labels(points, tau), _ref_kmeans_labels(points, tau))

    @pytest.mark.parametrize("seed,tau", [(0, 7), (332, 6), (16, 7)])
    def test_repair_after_the_first_iteration_matches_reference(self, seed, tau):
        # 40 copies of 4 points, more clusters than points: clusters empty in
        # later Lloyd iterations too; at seed 16 the cluster a repair takes a
        # point from would otherwise keep a stale mean
        rng = np.random.default_rng(seed)
        points = rng.normal(size=(4, 2))[rng.integers(0, 4, size=40)]
        repairs = []
        want = _ref_kmeans_labels(points, tau, repairs=repairs)
        assert max(repairs) >= 1
        _assert_same(kmeans_labels(points, tau), want)

    @pytest.mark.parametrize("d", [1, 2, 8])
    @pytest.mark.parametrize("kind", KINDS)
    def test_float32_points_match_reference(self, d, kind):
        # k-means converts its points to float64 on entry, so float32 points
        # get the labels of their float64 values
        rng = np.random.default_rng([d, KINDS.index(kind), 32])
        points = _points(kind, 120, d, rng).astype(np.float32)
        distinct = len(np.unique(points, axis=0))
        for tau in sorted({2, 3, 7, min(20, distinct)}):
            _assert_same(kmeans_labels(points, tau),
                         _ref_kmeans_labels(points.astype(np.float64), tau))

    def test_float16_points_match_their_float64_reference(self):
        # float16 points, whose own-precision means once gave other labels
        # than the reference on 40 of 600 inputs, take their float64 values'
        for d in (1, 2, 8):
            for kind in KINDS:
                rng = np.random.default_rng([d, KINDS.index(kind), 16])
                points = _points(kind, 120, d, rng).astype(np.float16)
                distinct = len(np.unique(points, axis=0))
                for tau in sorted({2, 3, 7, min(20, distinct)}):
                    _assert_same(kmeans_labels(points, tau),
                                 _ref_kmeans_labels(points.astype(np.float64), tau))

    @pytest.mark.parametrize("seed", [0, 100_000])
    def test_negative_zero_coordinate_matches_reference(self, seed):
        # every member of the first blob holds -0.0 in coordinate 0: the
        # summed center reads +0.0, where a mean that starts its sum from the
        # first row gives -0.0
        rng = np.random.default_rng(seed)
        points = np.concatenate([rng.normal(size=(40, 2)), rng.normal(size=(40, 2)) + 6.0])
        points[:40, 0] = -0.0
        blob = (np.arange(80) >= 40).astype(np.int64)
        center = clustering._updated_centers(points, points.T.copy(), blob, np.bincount(blob))
        assert center[0, 0] == 0.0 and not np.signbit(center[0, 0])
        for tau in (2, 3, 5):
            _assert_same(kmeans_labels(points, tau), _ref_kmeans_labels(points, tau))

    @pytest.mark.parametrize("bad", [None, np.nan, np.inf, -np.inf])
    def test_argmin_only_where_a_distance_is_nan(self, monkeypatch, bad):
        # an inf coordinate gives inf - inf = NaN distances once a center holds it
        points = _blobs(60, 2, np.random.default_rng(11))
        if bad is not None:
            points[[3, 40], [0, 1]] = bad
        with np.errstate(invalid="ignore", over="ignore"):
            for tau in (2, 4, 7):
                got, axes = _argmin_axes(monkeypatch, points, tau)
                _assert_same(got, _ref_kmeans_labels(points, tau))
                assert (0 in axes) == (bad is not None)

    @pytest.mark.parametrize("d", [1, 2, 8])
    @pytest.mark.parametrize("scale", [1e-170, 1e-160, 1e153, 1e154, 1e300])
    def test_extreme_scales_match_reference(self, d, scale):
        rng = np.random.default_rng([d, round(math.log10(scale)) + 400])
        points = _blobs(150, d, rng) * scale
        with np.errstate(over="ignore", under="ignore", invalid="ignore"):
            for tau in (2, 5, 12):
                _assert_same(kmeans_labels(points, tau), _ref_kmeans_labels(points, tau))

    def test_integer_and_fortran_inputs(self):
        rng = np.random.default_rng(3)
        ints = rng.integers(-5, 6, size=(80, 9))
        for points in (ints, np.asfortranarray(ints.astype(float))):
            for tau in (2, 5, 11):
                _assert_same(kmeans_labels(points, tau), _ref_kmeans_labels(points, tau))

    @pytest.mark.parametrize("d", [2, 8])
    def test_blobs_sweep_matches_reference(self, d):
        # the transduce sweep: tau = 1..20 over 2000 Gaussian-blob points
        points = _blobs(2000, d, np.random.default_rng([d, 2000]))
        for tau in range(1, 21):
            _assert_same(kmeans_labels(points, tau), _ref_kmeans_labels(points, tau))


class TestPrunedKmeans:
    """Inputs that once ran k-means with its distance pruning forced on.

    That pruning is gone; each iteration now keeps the distance rows of the
    centers that did not move.  These inputs check the labels against the
    reference, and the kept matrix against fresh distances.
    """

    @pytest.mark.parametrize("d", DIMS)
    @pytest.mark.parametrize("kind", KINDS)
    def test_matches_reference(self, d, kind):
        rng = np.random.default_rng([d, KINDS.index(kind), 2])
        points = _points(kind, 120, d, rng)
        distinct = len(np.unique(points, axis=0))
        for tau in sorted({2, 3, 7, min(20, distinct)}):
            _assert_same(kmeans_labels(points, tau), _ref_kmeans_labels(points, tau))

    def test_repair_and_integer_inputs_match_reference(self):
        rng = np.random.default_rng(7)
        dup = rng.normal(size=(5, 2))[rng.integers(0, 5, size=60)]
        ints = rng.integers(-5, 6, size=(80, 9))
        for points, taus in ((dup, (6, 9, 12)), (ints, (2, 5, 11))):
            for tau in taus:
                _assert_same(kmeans_labels(points, tau), _ref_kmeans_labels(points, tau))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_coordinates_match_reference(self, monkeypatch, bad):
        # non-finite values in several points and coordinates, d = 8: NaN
        # distances and NaN or inf centers take the argmin fallback
        points = _blobs(150, 8, np.random.default_rng(12))
        points[[3, 40, 41, 97], [0, 1, 5, 7]] = bad
        with np.errstate(invalid="ignore", over="ignore"):
            for tau in (2, 5, 12):
                got, axes = _argmin_axes(monkeypatch, points, tau)
                _assert_same(got, _ref_kmeans_labels(points, tau))
                assert 0 in axes

    @staticmethod
    def _kept_and_fresh(monkeypatch, points: np.ndarray, tau: int):
        """Each iteration's distance matrix and a fresh ``_sq_dists`` of its centers."""
        kept, centers = [], []
        nearest, updated = clustering._nearest, clustering._updated_centers

        def recording_nearest(dists):
            kept.append(dists.copy())
            return nearest(dists)

        def recording_centers(*args):
            centers.append(updated(*args))
            return centers[-1]

        with monkeypatch.context() as m:
            m.setattr(clustering, "_nearest", recording_nearest)
            m.setattr(clustering, "_updated_centers", recording_centers)
            labels = kmeans_labels(points, tau)
        coords = points.T[:, None, :]
        fresh = [clustering._sq_dists(coords, at.T[:, :, None])
                 for at in [points[_ref_seeds(points, tau)]] + centers[:len(kept) - 1]]
        return labels, kept, fresh

    def test_no_skip_when_every_distance_overflows(self, monkeypatch):
        # at 1e300 every squared difference overflows; a NaN point makes its
        # cluster's center NaN, whose row is rebuilt in every iteration; and
        # coordinates over 12 decades make every summation order visible.
        # The matrix each iteration reads equals a fresh _sq_dists of its
        # centers bit for bit, NaN payloads included, whichever rows were kept.
        for kind in ("overflow", "nan", "decades"):
            for d in (1, 2, 7, 8, 9, 15, 16, 17):
                rng = np.random.default_rng([d, 5])
                points = _blobs(150, d, rng)
                if kind == "overflow":
                    points *= 1e300
                elif kind == "nan":
                    points[[3, 40, 97], rng.integers(0, d, size=3)] = np.nan
                else:
                    points *= 10.0 ** rng.uniform(-6, 6, size=d)
                with np.errstate(over="ignore", invalid="ignore"):
                    want = _ref_kmeans_labels(points, 5)
                    got, kept, fresh = self._kept_and_fresh(monkeypatch, points, 5)
                _assert_same(got, want)
                assert len(kept) > 1, (kind, d)
                for t, (a, b) in enumerate(zip(kept, fresh)):
                    assert np.array_equal(a.view(np.uint64), b.view(np.uint64)), (kind, d, t)


class TestAgglomerative:
    @pytest.mark.parametrize("method", ["single", "complete"])
    @pytest.mark.parametrize("d", DIMS)
    @pytest.mark.parametrize("kind", KINDS)
    def test_matches_reference(self, method, d, kind):
        rng = np.random.default_rng([d, KINDS.index(kind), 1])
        points = _points(kind, 90, d, rng)
        for c in (1, 2, 20):
            got = agglomerative_sweep(points, c, method)
            want = _ref_agglomerative_sweep(points, c, method)
            assert list(got) == list(want)
            for tau in want:
                _assert_same(got[tau], want[tau])

    @pytest.mark.parametrize("method", ["single", "complete"])
    @pytest.mark.parametrize("n", [2, 5, 20])
    def test_every_level_when_n_equals_c(self, method, n):
        points = np.random.default_rng(n).normal(size=(n, 3))
        got = agglomerative_sweep(points, n, method)
        want = _ref_agglomerative_sweep(points, n, method)
        assert list(got) == list(want) == list(range(n, 0, -1))
        for tau in want:
            _assert_same(got[tau], want[tau])
        _assert_same(got[n], np.arange(n))

    @pytest.mark.parametrize("method", ["single", "complete"])
    @pytest.mark.parametrize("c", [40, 300])
    def test_every_level_of_tied_grid_points(self, method, c):
        # 300 points rounded to a half-unit grid: many equal merge heights
        # and duplicate points, every level down from c
        points = _points("grid", 300, 2, np.random.default_rng([c, 3]))
        got = agglomerative_sweep(points, c, method)
        want = _ref_agglomerative_sweep(points, c, method)
        assert list(got) == list(want) == list(range(c, 0, -1))
        for tau in want:
            _assert_same(got[tau], want[tau])

    @pytest.mark.parametrize("method", ["single", "complete"])
    def test_one_point(self, method):
        # no pair to merge: the one level puts the point in cluster 0
        got = agglomerative_sweep(np.zeros((1, 3)), 5, method)
        assert list(got) == [1]
        _assert_same(got[1], np.zeros(1, dtype=np.int64))

    def test_oversized_input_rejected_before_allocating(self):
        # 10**6 points would need a 3.64 TiB condensed distance matrix
        points = np.broadcast_to(np.zeros(1), (10 ** 6, 1))
        with pytest.raises(ValueError, match="n=1000000"):
            agglomerative_sweep(points, 5, "single")

    def test_unknown_method(self):
        with pytest.raises(ValueError, match="unknown linkage"):
            agglomerative_sweep(np.zeros((3, 1)), 2, "average")


class TestCanonicalLabels:
    def test_matches_reference(self):
        rng = np.random.default_rng(11)
        for n in (0, 1, 7, 500):
            labels = rng.integers(-4, 30, size=n) * 3
            _assert_same(canonical_labels(labels), _ref_canonical_labels(labels))


class TestCenterUpdate:
    """The center update against one boolean-mask mean per cluster.

    ``kmeans_labels`` passes its points as float64, so the integer, float32
    and float16 values here are converted as it converts them.
    """

    @pytest.mark.parametrize("dtype", [np.float64, np.int64, np.float32, np.float16])
    @pytest.mark.parametrize("d", [1, 2, 3, 8, 13])
    def test_bits_of_the_mask_mean(self, d, dtype):
        rng = np.random.default_rng([d, np.dtype(dtype).num])
        for n, tau in ((40, 3), (500, 7), (5000, 20)):
            if dtype == np.int64:
                points = rng.integers(-10 ** 6, 10 ** 6, size=(n, d))
            else:
                points = (rng.normal(size=(n, d)) * 10.0 ** rng.uniform(-3, 3, size=d)).astype(dtype)
            points = points.astype(np.float64)
            labels = rng.permutation(np.arange(n) % tau)
            got = clustering._updated_centers(points, np.ascontiguousarray(points.T), labels,
                                              np.bincount(labels))
            want = np.array([points[labels == j].mean(axis=0) for j in range(tau)])
            assert np.array_equal(got.view(np.int64), want.view(np.int64))
