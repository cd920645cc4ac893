"""Cluster-then-label pipeline: determinism, vote rules, bound selection."""

import errno
import functools
import importlib
import math
import multiprocessing
import os
import sys
import time

import numpy as np
import pytest
from scipy.spatial.distance import pdist

from children import no_child_left
from transbound import _fork, clustering
from transbound.hypergeom import epsilon_star, vapnik_bound
from transbound.pac_bayes import BoundInputs, det_bound
from transbound.priors import clustering_bound, clustering_complexity
from transbound.transduce import (
    BOUND_NAMES,
    Certificate,
    Dataset,
    LabeledSubset,
    Partition,
    TransduceConfig,
    cluster_sweep,
    ensemble_sweep,
    label_and_select,
    select_by_bound,
    transduce,
)

ALGOS = ["kmeans", "agglomerative_single", "agglomerative_complete"]
# the package re-exports the function ``transduce`` under the module's name
transduce_module = importlib.import_module("transbound.transduce")


class TestRecords:
    def test_dataset_ids_must_cover_range(self):
        with pytest.raises(ValueError):
            Dataset(points=np.zeros((3, 2)), ids=np.array([0, 1, 3]))

    def test_dataset_rejects_nonfinite(self):
        pts = np.zeros((2, 2))
        pts[0, 0] = np.nan
        with pytest.raises(ValueError):
            Dataset(points=pts, ids=np.array([0, 1]))

    def test_labeled_subset_validation(self):
        with pytest.raises(ValueError):
            LabeledSubset(indices=np.array([0, 0]), labels=np.array([1, 1]))
        with pytest.raises(ValueError):
            LabeledSubset(indices=np.array([0, 1]), labels=np.array([1, 2]))

    def test_partition_range_check(self):
        with pytest.raises(ValueError):
            Partition(tau=2, assignment=np.array([0, 1, 2]), clusterer_id=0)


class TestClusterSweep:
    @pytest.mark.parametrize("algo", ALGOS)
    def test_tau_one_is_single_cluster(self, two_blob, algo):
        data, _, _ = two_blob
        parts = cluster_sweep(data, algo, c=3)
        assert parts[0].tau == 1
        assert (parts[0].assignment == 0).all()

    @pytest.mark.parametrize("algo", ALGOS)
    def test_two_blobs_recovered(self, two_blob, algo):
        data, _, _ = two_blob
        parts = cluster_sweep(data, algo, c=2)
        two = parts[1].assignment
        blob = np.arange(100) % 2
        # same partition up to cluster renaming
        assert (two == two[0]).sum() == 50
        agree = (two == blob).all() or (two == 1 - blob).all()
        assert agree

    @pytest.mark.parametrize("algo", ALGOS)
    def test_deterministic(self, two_blob, algo):
        data, _, _ = two_blob
        a = cluster_sweep(data, algo, c=6)
        b = cluster_sweep(data, algo, c=6)
        for pa, pb in zip(a, b):
            assert np.array_equal(pa.assignment, pb.assignment)

    @pytest.mark.parametrize("algo", ALGOS)
    def test_presentation_order_irrelevant(self, two_blob, algo):
        data, _, _ = two_blob
        rng = np.random.default_rng(3)
        perm = rng.permutation(100)
        shuffled = Dataset(points=data.points[perm], ids=data.ids[perm])
        for pa, pb in zip(cluster_sweep(data, algo, c=4), cluster_sweep(shuffled, algo, c=4)):
            assert np.array_equal(pa.assignment, pb.assignment)

    def test_too_many_clusters_rejected(self):
        # six rows, three distinct; five labels, so c = 4 passes the training-size check
        pts = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [1.0, 1.0], [2.0, 2.0]])
        data = Dataset(points=pts, ids=np.arange(6))
        labeled = LabeledSubset(indices=np.arange(5), labels=np.array([1, 1, -1, 1, -1]))
        message = "cannot form 4 clusters from 3 distinct points"
        for algo in ALGOS:
            with pytest.raises(ValueError, match=message):
                cluster_sweep(data, algo, c=4)
        with pytest.raises(ValueError, match=message):
            ensemble_sweep(data, tuple(ALGOS), 4)
        with pytest.raises(ValueError, match=message):
            transduce(data, labeled, TransduceConfig(tuple(ALGOS), c=4, delta=0.05))
        assert len(ensemble_sweep(data, tuple(ALGOS), 3)) == 9

    def test_sweep_covers_every_tau(self, two_blob):
        data, _, _ = two_blob
        parts = cluster_sweep(data, "agglomerative_complete", c=10)
        assert [p.tau for p in parts] == list(range(1, 11))
        for p in parts:
            assert len(np.unique(p.assignment)) == p.tau


def _labels_alone(partition, labeled):
    """Every id's label when ``partition`` alone is scored on the one mask ``labeled``.

    The partition must win with a finite bound, and its labels must match
    the ``_ref_votes`` majority of each cluster.
    """
    n = len(partition.assignment)
    target = np.zeros(n, dtype=np.int64)
    target[labeled.indices] = labeled.labels
    chosen = label_and_select([partition], target, target[None, :] != 0, 0.05)
    assert chosen.tau[0] == partition.tau and np.isfinite(chosen.bound[0])
    label_pos, _ = _ref_votes(partition, 0, labeled.indices, labeled.labels == 1, 1)
    assert np.array_equal(chosen.labels[0], np.where(label_pos[0], 1, -1)[partition.assignment])
    return chosen.labels[0]


class TestMajorityLabel:
    def _partition(self, assignment, tau):
        return Partition(tau=tau, assignment=np.array(assignment), clusterer_id=0)

    def test_majority_wins(self):
        part = self._partition([0, 0, 0, 1, 1], tau=2)
        labeled = LabeledSubset(indices=np.array([0, 1, 2]), labels=np.array([1, 1, -1]))
        hyp = _labels_alone(part, labeled)
        assert (hyp[[0, 1, 2]] == 1).all()
        cert = select_by_bound([part], labeled, 0.05)
        assert cert.emp_risk == 1 / 3 and (cert.predictions == 1).all()

    def test_tie_goes_positive(self):
        part = self._partition([0, 0, 1], tau=2)
        labeled = LabeledSubset(indices=np.array([0, 1]), labels=np.array([1, -1]))
        assert (_labels_alone(part, labeled)[[0, 1]] == 1).all()

    def test_empty_cluster_goes_positive(self):
        part = self._partition([0, 0, 1, 1], tau=2)
        labeled = LabeledSubset(indices=np.array([0, 1]), labels=np.array([-1, -1]))
        hyp = _labels_alone(part, labeled)
        assert (hyp[[0, 1]] == -1).all()
        assert (hyp[[2, 3]] == 1).all()
        cert = select_by_bound([part], labeled, 0.05)
        assert cert.test_ids.tolist() == [2, 3] and (cert.predictions == 1).all()

    def test_constant_on_clusters(self, two_blob):
        data, labeled, _ = two_blob
        for part in cluster_sweep(data, "kmeans", c=7):
            hyp = _labels_alone(part, labeled)
            for j in range(part.tau):
                vals = hyp[part.assignment == j]
                assert (vals == vals[0]).all()


class TestSelectByBound:
    def test_single_partition(self, two_blob):
        data, labeled, _ = two_blob
        part = cluster_sweep(data, "kmeans", c=2)[1]
        cert = select_by_bound([part], labeled, delta=0.05)
        assert cert.chosen_tau == 2
        assert cert.emp_risk == 0.0
        assert cert.k_ensemble == 1 and cert.c == 2

    def test_tie_prefers_smaller_tau(self):
        # two partitions with identical tau-independent risk: tau=1 must win
        # only if its bound is no worse, so give both zero training error
        pts = np.array([[0.0, 0.0], [0.1, 0.0], [5.0, 5.0], [5.1, 5.0]])
        data = Dataset(points=pts, ids=np.arange(4))
        labeled = LabeledSubset(indices=np.array([0, 1]), labels=np.array([1, 1]))
        parts = cluster_sweep(data, "kmeans", c=2)
        cert = select_by_bound(parts, labeled, delta=0.1)
        assert cert.chosen_tau == 1  # same emp risk, smaller complexity

    @pytest.mark.parametrize(
        "bound_name,expected",
        [
            ("serfling_printed", 0.38585706456870781),
            ("serfling_exact", 0.36927778059940963),
        ],
    )
    def test_two_blob_bound_values(self, two_blob, bound_name, expected):
        data, labeled, _ = two_blob
        parts = cluster_sweep(data, "kmeans", c=10)
        cert = select_by_bound(parts, labeled, delta=0.05, bound_name=bound_name)
        assert cert.chosen_tau == 2
        assert cert.emp_risk == 0.0
        assert cert.bound.raw == pytest.approx(expected, rel=1e-12)
        assert cert.bound_name == cert.bound.name == bound_name

    def test_two_blob_vapnik_and_direct(self, two_blob):
        data, labeled, truth = two_blob
        parts = cluster_sweep(data, "kmeans", c=10)

        cert = select_by_bound(parts, labeled, delta=0.05, bound_name="vapnik_absolute")
        assert cert.emp_risk == 0.0
        assert (cert.predictions == truth[cert.test_ids]).all()
        # the implicit threshold inversion is the tightest certificate here
        assert cert.bound.raw == pytest.approx(0.32, abs=1e-12)

        cert = select_by_bound(parts, labeled, delta=0.05, bound_name="direct")
        assert cert.emp_risk == 0.0
        assert (cert.predictions == truth[cert.test_ids]).all()
        # the counting route's 7 ln(m+u+1) slack makes it vacuous at n = 100
        assert cert.bound.raw == pytest.approx(1.7511215653463221, rel=1e-12)
        assert cert.bound.clamped == 1.0

    def test_unknown_bound_rejected(self, two_blob):
        data, labeled, _ = two_blob
        parts = cluster_sweep(data, "kmeans", c=2)
        with pytest.raises(ValueError):
            select_by_bound(parts, labeled, delta=0.05, bound_name="tightest")


def _scalar_choice(partitions, labeled, delta, bound_name):
    """(tau, clusterer id, emp risk, raw bound) from one scalar bound call per partition.

    The empirical risk comes from the ``_ref_votes`` bincount, and the bound
    from the public mass path: each hypothesis's prior mass exp(-ln(1/p))
    into ``det_bound`` and ``epsilon_star``.
    """
    m = labeled.m
    u = len(partitions[0].assignment) - m
    c = max(p.tau for p in partitions)
    k = len({p.clusterer_id for p in partitions})
    best = None
    for p in sorted(partitions, key=lambda p: (p.tau, p.clusterer_id)):
        _, errors = _ref_votes(p, 0, labeled.indices, labeled.labels == 1, 1)
        emp = float(errors[0]) / m
        mass = math.exp(-clustering_complexity(p.tau, c, k, "exact"))
        if bound_name == "direct":
            raw = det_bound(BoundInputs(m=m, u=u, delta=delta, emp_risk=emp,
                                        prior_mass=mass), "direct").raw
        elif bound_name == "vapnik_absolute":
            star = epsilon_star(mass, delta, m, u, "absolute")
            raw = vapnik_bound(emp, star, m, u).raw
        else:
            raw = clustering_bound(emp, p.tau, c, m, u, delta, k,
                                   bound_name.removeprefix("serfling_")).raw
        if best is None or raw < best[3]:
            best = (p.tau, p.clusterer_id, emp, raw)
    return best


class TestEnsembleSweep:
    @pytest.mark.parametrize("algorithms", [
        ("kmeans", "agglomerative_single", "agglomerative_complete"),
        ("agglomerative_complete", "kmeans", "agglomerative_single"),
        ("agglomerative_single", "agglomerative_single"),
    ])
    def test_one_distance_matrix_same_partitions(self, two_blob, monkeypatch, algorithms):
        data = two_blob[0]
        want = [p for i, algo in enumerate(algorithms)
                for p in cluster_sweep(data, algo, 9, clusterer_id=i)]
        built = []
        monkeypatch.setattr(clustering, "pdist", lambda pts: built.append(1) or pdist(pts))
        got = ensemble_sweep(data, algorithms, 9)
        assert len(built) == 1
        assert [(p.tau, p.clusterer_id) for p in got] == [(p.tau, p.clusterer_id) for p in want]
        assert all(np.array_equal(a.assignment, b.assignment) for a, b in zip(got, want))

    @pytest.mark.parametrize("algorithms", [
        ("kmeans", "kmeans"),
        ("agglomerative_single", "kmeans", "agglomerative_single", "kmeans", "kmeans"),
    ])
    def test_a_clusterer_listed_twice_sweeps_once(self, two_blob, monkeypatch, algorithms):
        data = two_blob[0]
        want = [p for i, algo in enumerate(algorithms)
                for p in cluster_sweep(data, algo, 9, clusterer_id=i)]
        calls = {"kmeans_labels": 0, "agglomerative_sweep": 0}
        for name in calls:
            def counted(*args, real=getattr(transduce_module, name), name=name):
                calls[name] += 1
                return real(*args)
            monkeypatch.setattr(transduce_module, name, counted)
        got = ensemble_sweep(data, algorithms, 9)
        assert calls == {"kmeans_labels": 9,
                         "agglomerative_sweep": int("agglomerative_single" in algorithms)}
        assert [(p.tau, p.clusterer_id) for p in got] == [(p.tau, p.clusterer_id) for p in want]
        assert all(np.array_equal(a.assignment, b.assignment) for a, b in zip(got, want))

    def test_one_distinct_point_check(self, two_blob, monkeypatch):
        checks = []
        unique = np.unique

        def counting(ar, *args, **kwargs):
            if kwargs.get("axis") == 0:
                checks.append(len(ar))
            return unique(ar, *args, **kwargs)

        monkeypatch.setattr(np, "unique", counting)
        ensemble_sweep(two_blob[0], tuple(ALGOS), 5)
        assert checks == [100]

    def test_pair_limit_is_checked_before_the_matrix(self, two_blob, monkeypatch):
        monkeypatch.setattr(clustering, "MAX_LINKAGE_PAIRS", 100)
        monkeypatch.setattr(clustering, "pdist", lambda pts: pytest.fail("pdist was built"))
        with pytest.raises(ValueError, match="pairwise distances"):
            ensemble_sweep(two_blob[0], ("agglomerative_single", "agglomerative_complete"), 3)


@pytest.mark.skipif(sys.platform != "linux", reason="the worker is forked on Linux only")
class TestKmeansWorker:
    """Sweep jobs shared with a forked worker, with the size threshold patched down."""

    # k-means is listed twice and sweeps once: 9 k-means jobs at c = 9
    ENSEMBLE = ("agglomerative_complete", "kmeans", "agglomerative_single", "kmeans")

    @pytest.fixture
    def calls(self, monkeypatch):
        """The k-means calls made in this process, not those the worker ran."""
        monkeypatch.setattr(transduce_module, "_FORK_MIN_N", 0)
        made = []

        def counted(pts, tau):
            made.append(tau)
            return clustering.kmeans_labels(pts, tau)

        monkeypatch.setattr(transduce_module, "kmeans_labels", counted)
        return made

    def _in_process(self, data, monkeypatch):
        with monkeypatch.context() as patch:
            patch.setattr(os, "sched_getaffinity", lambda pid: {0})
            return ensemble_sweep(data, self.ENSEMBLE, 9)

    @staticmethod
    def _same(got, want):
        assert [(p.tau, p.clusterer_id) for p in got] == [(p.tau, p.clusterer_id) for p in want]
        assert all(np.array_equal(a.assignment, b.assignment) for a, b in zip(got, want))

    @staticmethod
    def _meeting(monkeypatch, calls, in_worker, name="kmeans_labels"):
        """Sweep jobs calling ``name`` that both processes run, the caller's counted in ``calls``.

        Each process's first such job waits, up to 10 s, until the other
        process has begun one, so neither can take every job.  The worker's
        jobs run ``in_worker``, the caller's ``clustering.<name>``.
        """
        context = multiprocessing.get_context("fork")
        began = {"caller": context.Event(), "worker": context.Event()}
        caller = os.getpid()

        def meeting(pts, *args):
            mine, other = ("caller", "worker") if os.getpid() == caller else ("worker", "caller")
            began[mine].set()
            began[other].wait(10)
            if mine == "worker":
                return in_worker(pts, *args)
            calls.append(args)
            return getattr(clustering, name)(pts, *args)

        monkeypatch.setattr(transduce_module, name, meeting)

    def test_worker_partitions_equal_the_in_process_ones(self, two_blob, monkeypatch, calls):
        data = two_blob[0]
        want = self._in_process(data, monkeypatch)
        assert len(calls) == 9
        calls.clear()
        self._meeting(monkeypatch, calls, clustering.kmeans_labels)
        got = ensemble_sweep(data, self.ENSEMBLE, 9)
        # the caller ran some k-means jobs and the worker returned the rest
        assert 0 < len(calls) < 9
        self._same(got, want)
        assert no_child_left()

    def test_worker_error_reaches_the_caller(self, two_blob, monkeypatch, calls):
        def failing(pts, tau):
            raise ValueError(f"k-means failed in process {os.getpid()}")

        self._meeting(monkeypatch, calls, failing)
        with pytest.raises(ValueError, match="k-means failed in process") as err:
            ensemble_sweep(two_blob[0], self.ENSEMBLE, 9)
        assert str(err.value) != f"k-means failed in process {os.getpid()}"
        assert "in failing" in str(err.value.__cause__)
        assert no_child_left()

    def test_caller_error_stops_the_worker(self, two_blob, monkeypatch, calls):
        def no_distances(pts):
            raise ValueError("no distances")

        monkeypatch.setattr(transduce_module, "kmeans_labels", lambda pts, tau: time.sleep(30))
        monkeypatch.setattr(transduce_module, "condensed_distances", no_distances)
        start = time.monotonic()
        with pytest.raises(ValueError, match="no distances"):
            ensemble_sweep(two_blob[0], self.ENSEMBLE, 9)
        assert time.monotonic() - start < 10
        assert no_child_left()

    def test_failed_fork_sweeps_in_process(self, two_blob, monkeypatch, calls):
        data = two_blob[0]
        want = self._in_process(data, monkeypatch)
        calls.clear()

        def no_fork():
            raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")

        monkeypatch.setattr(os, "fork", no_fork)
        got = ensemble_sweep(data, self.ENSEMBLE, 9)
        assert len(calls) == 9
        self._same(got, want)
        assert no_child_left()

    def test_dead_worker_sweeps_in_process(self, two_blob, monkeypatch, calls):
        data = two_blob[0]
        want = self._in_process(data, monkeypatch)
        calls.clear()
        caller = os.getpid()

        def dies_in_worker(pts, tau):
            if os.getpid() != caller:
                os._exit(1)
            calls.append(tau)
            return clustering.kmeans_labels(pts, tau)

        monkeypatch.setattr(transduce_module, "kmeans_labels", dies_in_worker)
        got = ensemble_sweep(data, self.ENSEMBLE, 9)
        assert len(calls) == 9
        self._same(got, want)
        assert no_child_left()

    def test_linkage_only_ensemble_forks(self, two_blob, monkeypatch, calls):
        data, ensemble = two_blob[0], ("agglomerative_single", "agglomerative_complete")
        want = [p for i, algo in enumerate(ensemble) for p in cluster_sweep(data, algo, 9, clusterer_id=i)]
        linkages = []
        self._meeting(monkeypatch, linkages, clustering.agglomerative_sweep, "agglomerative_sweep")
        got = ensemble_sweep(data, ensemble, 9)
        # each process ran one of the two linkage sweeps
        assert [method for c, method, dists in linkages] in (["single"], ["complete"])
        self._same(got, want)
        assert no_child_left()

    def test_kmeans_only_ensemble_never_forks(self, two_blob, monkeypatch, calls):
        monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked"))
        got = ensemble_sweep(two_blob[0], ("kmeans", "kmeans"), 9)
        assert len(calls) == 9
        self._same(got, [p for i in (0, 1) for p in cluster_sweep(two_blob[0], "kmeans", 9, clusterer_id=i)])

    @pytest.mark.parametrize("below, forks", [(1, 0), (0, 1)], ids=["below", "at"])
    def test_size_threshold(self, monkeypatch, below, forks):
        # on one CPU too: the threshold, not the machine, decides here
        n = transduce_module._FORK_MIN_N - below
        points = np.random.default_rng(n).normal(size=(n, 2))
        made = []

        def counted(fork=os.fork):
            made.append(os.getpid())
            return fork()

        monkeypatch.setattr(transduce_module, "second_cpu", lambda: True)
        monkeypatch.setattr(os, "fork", counted)
        ensemble_sweep(Dataset(points=points, ids=np.arange(n)), ALGOS, 3)
        assert len(made) == forks
        assert no_child_left()

    def test_shared_runs_each_job_once(self, tmp_path):
        # both processes append each job they run to one log; a job taken
        # twice, or by neither, would show there.  Short jobs make the two
        # processes take the next job at nearly the same time, often.
        log = tmp_path / "jobs"

        def job(i):
            with open(log, "a") as out:
                out.write(f"{i}\n")
            return i

        jobs = [functools.partial(job, i) for i in range(3000)]
        assert _fork.shared(jobs) == list(range(3000))
        assert sorted(map(int, log.read_text().split())) == list(range(3000))
        assert no_child_left()


class TestLabelAndSelect:
    @pytest.mark.parametrize("bound_name", BOUND_NAMES)
    def test_batch_matches_each_split_alone(self, two_blob, bound_name):
        data, _, truth = two_blob
        rng = np.random.default_rng(5)
        target = np.where(rng.random(100) < 0.15, -truth, truth)  # noisy: risks vary
        partitions = ensemble_sweep(data, ("kmeans", "agglomerative_single"), 8)
        masks = np.zeros((20, 100), dtype=bool)
        for row in masks:
            row[rng.choice(100, size=40, replace=False)] = True
        batch = label_and_select(partitions, target, masks, 0.05, bound_name)
        assert (batch.c, batch.k_ensemble) == (8, 2)
        for t in range(20):
            ids = np.flatnonzero(masks[t])
            labeled = LabeledSubset(indices=ids, labels=target[ids])
            cert = select_by_bound(partitions, labeled, 0.05, bound_name)
            got = (int(batch.tau[t]), int(batch.clusterer_id[t]), float(batch.emp_risk[t]),
                   float(batch.bound[t]))
            assert got == (cert.chosen_tau, cert.clusterer_id, cert.emp_risk, cert.bound.raw)
            assert got == _scalar_choice(partitions, labeled, 0.05, bound_name)
            assert np.array_equal(batch.labels[t, cert.test_ids], cert.predictions)
            assert type(cert.bound.raw) is float and type(cert.emp_risk) is float
        assert len(set(batch.emp_risk.tolist())) > 1

    def test_masks_must_share_one_size(self, two_blob):
        data, _, truth = two_blob
        partitions = cluster_sweep(data, "kmeans", 3)
        masks = np.zeros((2, 100), dtype=bool)
        masks[0, :10] = True
        masks[1, :11] = True
        with pytest.raises(ValueError):
            label_and_select(partitions, truth, masks, 0.05)
        with pytest.raises(ValueError):
            label_and_select(partitions, truth, np.ones((1, 100), dtype=bool), 0.05)


def _ref_votes(partition, row, point, positive, rows):
    """Per (mask row, cluster): is the majority of the training pairs (row, point) +1?

    Also returns each row's training errors.  Ties and clusters containing no
    training point get +1.
    """
    tau = partition.tau
    counts = np.bincount((row * tau + partition.assignment[point]) * 2 + positive,
                         minlength=2 * rows * tau).reshape(rows, tau, 2)
    neg, pos = counts[..., 0], counts[..., 1]
    label_pos = pos >= neg
    return label_pos, np.where(label_pos, neg, pos).sum(axis=1)


def _ref_label_and_select(partitions, target, masks, delta, bound_name):
    """``label_and_select`` as a running best over one ``bincount`` per partition.

    Every candidate that beats the best so far writes its labels, so the
    kernel's argmin and winner-only labels must reproduce these bytes.
    """
    rows, n = masks.shape
    m = int(masks[0].sum())
    c = max(p.tau for p in partitions)
    k = len({p.clusterer_id for p in partitions})
    variant = "printed" if bound_name == "serfling_printed" else "exact"
    row, point = np.nonzero(masks)
    positive = np.asarray(target)[point] == 1
    best = transduce_module.Selection(
        tau=np.zeros(rows, dtype=np.int64), clusterer_id=np.zeros(rows, dtype=np.int64),
        emp_risk=np.zeros(rows), bound=np.full(rows, np.inf),
        labels=np.ones((rows, n), dtype=np.int8), c=c, k_ensemble=k)
    for p in sorted(partitions, key=lambda p: (p.tau, p.clusterer_id)):
        label_pos, errors = _ref_votes(p, row, point, positive, rows)
        emp = errors / m
        complexity = clustering_complexity(p.tau, c, k, variant)
        bound = transduce_module.BOUNDS[bound_name](emp, complexity, m, n - m, delta)
        better = bound < best.bound
        best.tau[better] = p.tau
        best.clusterer_id[better] = p.clusterer_id
        best.emp_risk[better] = emp[better]
        best.bound[better] = bound[better]
        best.labels[better] = np.where(label_pos[better], np.int8(1), np.int8(-1))[:, p.assignment]
    return best


def _random_masks(rng, rows, n, m):
    masks = np.zeros((rows, n), dtype=bool)
    for row in masks:
        row[rng.choice(n, size=m, replace=False)] = True
    return masks


def _assert_same_selection(got, want):
    for field in ("tau", "clusterer_id", "emp_risk", "bound", "labels"):
        a, b = getattr(got, field), getattr(want, field)
        assert (a.dtype, a.shape) == (b.dtype, b.shape), field
        assert a.tobytes() == b.tobytes(), field
    assert (got.c, got.k_ensemble) == (want.c, want.k_ensemble)


class TestScoreTable:
    """``label_and_select`` keeps the bytes of the running-best reference."""

    @pytest.fixture(scope="class")
    def sweep(self):
        rng = np.random.default_rng(21)
        pts = np.concatenate([rng.normal(size=(20, 2)), rng.normal(size=(20, 2)) + 3.0,
                              rng.normal(size=(20, 2)) + [0.0, 6.0]])
        data = Dataset(points=pts, ids=np.arange(60))
        return ensemble_sweep(data, tuple(ALGOS), 7)

    @pytest.mark.parametrize("bound_name", BOUND_NAMES)
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_masks(self, sweep, bound_name, seed):
        rng = np.random.default_rng(seed)
        target = np.where(rng.random(60) < 0.5, 1, -1)
        # m = 1 leaves most clusters without a training point; direct needs m >= 2
        for m in (2 if bound_name == "direct" else 1, 8, 30, 59):
            masks = _random_masks(rng, 25, 60, m)
            _assert_same_selection(label_and_select(sweep, target, masks, 0.05, bound_name),
                                   _ref_label_and_select(sweep, target, masks, 0.05, bound_name))

    @pytest.mark.parametrize("bound_name", BOUND_NAMES)
    def test_a_partition_under_two_ids_ties(self, sweep, bound_name):
        rng = np.random.default_rng(4)
        target = np.where(rng.random(60) < 0.3, -1, 1)
        twice = [q for p in sweep if p.clusterer_id == 1
                 for q in (p, Partition(tau=p.tau, assignment=p.assignment, clusterer_id=3))]
        masks = _random_masks(rng, 40, 60, 20)
        got = label_and_select(twice, target, masks, 0.05, bound_name)
        _assert_same_selection(got, _ref_label_and_select(twice, target, masks, 0.05, bound_name))
        assert (got.clusterer_id == 1).all()

    @pytest.mark.parametrize("m", [1, 59])
    def test_a_single_mask(self, sweep, m):
        rng = np.random.default_rng(m)
        target = np.where(rng.random(60) < 0.4, -1, 1)
        masks = _random_masks(rng, 1, 60, m)
        want = _ref_label_and_select(sweep, target, masks, 0.05, "serfling_printed")
        _assert_same_selection(label_and_select(sweep, target, masks, 0.05), want)
        ids = np.flatnonzero(masks[0])
        labeled = LabeledSubset(indices=ids, labels=target[ids])
        for p in sweep:
            _labels_alone(p, labeled)

    def test_training_points_in_one_cluster(self, sweep):
        # every mask draws from the first cluster of the tau = 7 k-means partition
        part = next(p for p in sweep if (p.tau, p.clusterer_id) == (7, 0))
        inside = np.flatnonzero(part.assignment == 0)
        rng = np.random.default_rng(9)
        masks = np.zeros((30, 60), dtype=bool)
        for row in masks:
            row[rng.choice(inside, size=3, replace=False)] = True
        target = np.where(rng.random(60) < 0.5, -1, 1)
        for bound_name in BOUND_NAMES:
            _assert_same_selection(label_and_select(sweep, target, masks, 0.05, bound_name),
                                   _ref_label_and_select(sweep, target, masks, 0.05, bound_name))

    def test_nan_never_wins_and_no_winner_keeps_the_default(self, sweep, monkeypatch):
        # by row % 3: no candidate below +inf; tau 1 wins; tau 3 wins after two
        # NaN bounds.  Every other candidate scores +inf.
        plain = transduce_module.BOUNDS["serfling_printed"]
        phase = np.arange(30) % 3
        # the sweep holds 3 clusterers at c = 7: each tau has its own complexity
        tau_of = {clustering_complexity(tau, 7, 3, "printed"): tau for tau in range(1, 8)}

        def bound(emp, complexity, m, u, delta):
            tau = tau_of[complexity]
            if tau == 1:
                return np.where(phase == 1, plain(emp, complexity, m, u, delta), np.nan)
            if tau == 2:
                return np.full(emp.shape, np.nan)
            if tau == 3:
                return np.where(phase == 2, plain(emp, complexity, m, u, delta), np.inf)
            return np.full(emp.shape, np.inf)

        monkeypatch.setitem(transduce_module.BOUNDS, "serfling_printed", bound)
        rng = np.random.default_rng(6)
        target = np.where(rng.random(60) < 0.7, -1, 1)
        masks = _random_masks(rng, 30, 60, 15)
        got = label_and_select(sweep, target, masks, 0.05)
        _assert_same_selection(got, _ref_label_and_select(sweep, target, masks, 0.05,
                                                          "serfling_printed"))
        assert (got.tau == np.array([0, 1, 3])[phase]).all()
        assert (got.labels[phase == 0] == 1).all() and np.isinf(got.bound[phase == 0]).all()
        assert (got.labels[phase == 1] == -1).any()

    @pytest.mark.parametrize("below", [60, 61])
    def test_either_count_dtype(self, sweep, monkeypatch, below):
        # n = 60 points: float64 counts when the float32 limit is 60, float32 at 61
        monkeypatch.setattr(transduce_module, "_FLOAT32_COUNTS_BELOW", below)
        count_dtype, used = transduce_module._count_dtype, []
        monkeypatch.setattr(transduce_module, "_count_dtype",
                            lambda n: used.append(count_dtype(n)) or used[-1])
        rng = np.random.default_rng(below)
        target = np.where(rng.random(60) < 0.5, -1, 1)
        masks = _random_masks(rng, 30, 60, 24)
        for bound_name in BOUND_NAMES:
            _assert_same_selection(label_and_select(sweep, target, masks, 0.05, bound_name),
                                   _ref_label_and_select(sweep, target, masks, 0.05, bound_name))
        assert used == [np.float64 if below == 60 else np.float32] * len(BOUND_NAMES)

    def test_float32_counts_below_two_to_the_24(self):
        assert transduce_module._count_dtype(2**24 - 1) == np.float32
        assert transduce_module._count_dtype(2**24) == np.float64


class TestTransduce:
    def test_c1_constant_prediction(self, two_blob):
        data, labeled, _ = two_blob
        cert = transduce(data, labeled, TransduceConfig(("kmeans",), c=1, delta=0.05))
        assert cert.chosen_tau == 1
        # 25 positive and 25 negative training labels: tie resolves to +1
        assert (cert.predictions == 1).all()

    def test_two_blob_end_to_end(self, two_blob):
        data, labeled, truth = two_blob
        cert = transduce(data, labeled, TransduceConfig(("kmeans",), c=10, delta=0.05))
        assert cert.chosen_tau == 2
        assert (cert.predictions == truth[cert.test_ids]).all()
        assert cert.bound.raw < 0.5

    def test_vapnik_absolute_builds_no_relative_envelope(self, two_blob, envelope_work):
        # one merge per block of pairs: the relative variant is never merged
        data, labeled, _ = two_blob
        transduce(data, labeled, TransduceConfig(("kmeans",), c=10, delta=0.05,
                                                 bound_name="vapnik_absolute"))
        assert envelope_work["_pairs"] > 0 and envelope_work["_merge"] == envelope_work["_pairs"]

    def test_duplicate_ensemble_same_choice_larger_bound(self, two_blob):
        data, labeled, _ = two_blob
        one = transduce(data, labeled, TransduceConfig(("kmeans",), c=10, delta=0.05))
        two = transduce(data, labeled, TransduceConfig(("kmeans", "kmeans"), c=10, delta=0.05))
        assert two.k_ensemble == 2
        assert two.chosen_tau == one.chosen_tau
        assert np.array_equal(two.predictions, one.predictions)
        # complexity grows from ln c to ln 2c
        want = math.sqrt(
            (clustering_bound(0.0, 2, 10, 50, 50, 0.05, 2, "printed").raw ** 2)
        )
        assert two.bound.raw == pytest.approx(want, rel=1e-12)
        assert two.bound.raw > one.bound.raw

    def test_infeasible_budget_rejected(self, two_blob):
        data, labeled, _ = two_blob
        with pytest.raises(ValueError):
            transduce(data, labeled, TransduceConfig(("kmeans",), c=51, delta=0.05))

    @pytest.mark.parametrize("n", [1, 4])
    def test_every_id_labelled_rejected_before_any_sweep(self, monkeypatch, n):
        def no_sweep(*args):
            raise AssertionError("swept")

        monkeypatch.setattr(transduce_module, "ensemble_sweep", no_sweep)
        data = Dataset(points=np.arange(2.0 * n).reshape(n, 2), ids=np.arange(n))
        labeled = LabeledSubset(indices=np.arange(n), labels=np.ones(n, dtype=np.int64))
        for algo in ALGOS:
            with pytest.raises(ValueError, match="at least one unlabelled point"):
                transduce(data, labeled, TransduceConfig((algo,), c=1, delta=0.05))

    def test_singleton_training_clusters_zero_risk(self):
        # every training point isolated: the hypothesis reproduces its label
        rng = np.random.default_rng(11)
        m = 6
        train_pts = rng.uniform(-50, 50, size=(m, 2))
        test_pts = train_pts[0:1] + 0.001  # one test point hugging train point 0
        pts = np.vstack([train_pts, test_pts])
        data = Dataset(points=pts, ids=np.arange(m + 1))
        labels = np.array([1, -1, 1, -1, 1, -1])
        labeled = LabeledSubset(indices=np.arange(m), labels=labels)
        parts = cluster_sweep(data, "agglomerative_single", c=m)
        at_m = [p for p in parts if p.tau == m][0]
        hyp = _labels_alone(at_m, labeled)
        assert (hyp[labeled.indices] == labels).all()
        cert = select_by_bound([at_m], labeled, 0.05)
        assert cert.emp_risk == 0.0 and cert.predictions.tolist() == [1]

    def test_deterministic_certificates(self, two_blob):
        data, labeled, _ = two_blob
        cfg = TransduceConfig(("agglomerative_single", "kmeans"), c=8, delta=0.05)
        a = transduce(data, labeled, cfg)
        b = transduce(data, labeled, cfg)
        assert a.chosen_tau == b.chosen_tau
        assert a.bound.raw == b.bound.raw
        assert np.array_equal(a.predictions, b.predictions)
