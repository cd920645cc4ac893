"""Cluster-then-label pipeline: determinism, vote rules, bound selection."""

import errno
import functools
import importlib
import math
import multiprocessing
import os
import sys
import time
import types

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
    labels = _point_labels(chosen, [partition])[0]
    assert np.array_equal(labels, np.where(label_pos[0], 1, -1)[partition.assignment])
    return labels


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
            assert np.array_equal(_point_labels(batch, partitions)[t, cert.test_ids],
                                  cert.predictions)
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

    Every candidate that beats the best so far writes its index and every
    id's label, so the kernel's argmin and winner-only cluster labels must
    reproduce these bytes.
    """
    rows, n = masks.shape
    m = int(masks[0].sum())
    c = max(p.tau for p in partitions)
    k = len({p.clusterer_id for p in partitions})
    variant = "printed" if bound_name == "serfling_printed" else "exact"
    row, point = np.nonzero(masks)
    positive = np.asarray(target)[point] == 1
    best = types.SimpleNamespace(
        candidate=np.full(rows, -1, dtype=np.int64),
        tau=np.zeros(rows, dtype=np.int64), clusterer_id=np.zeros(rows, dtype=np.int64),
        emp_risk=np.zeros(rows), train_errors=np.zeros(rows, dtype=np.int64),
        bound=np.full(rows, np.inf), labels=np.ones((rows, n), dtype=np.int8), c=c, k_ensemble=k)
    for i in sorted(range(len(partitions)),
                    key=lambda i: (partitions[i].tau, partitions[i].clusterer_id)):
        p = partitions[i]
        label_pos, errors = _ref_votes(p, row, point, positive, rows)
        emp = errors / m
        complexity = clustering_complexity(p.tau, c, k, variant)
        bound = transduce_module.BOUNDS[bound_name](emp, complexity, m, n - m, delta)
        better = bound < best.bound
        best.candidate[better] = i
        best.tau[better] = p.tau
        best.clusterer_id[better] = p.clusterer_id
        best.emp_risk[better] = emp[better]
        best.train_errors[better] = errors[better]
        best.bound[better] = bound[better]
        best.labels[better] = np.where(label_pos[better], np.int8(1), np.int8(-1))[:, p.assignment]
    return best


def _argmin_label_and_select(partitions, target, masks, delta, bound_name):
    """``label_and_select`` as a float64 empirical risk and bound per (candidate, mask),
    an ``argmin`` over the candidates and a second pass over the chunks for the
    winners' labels: the selection before the per-tau bound tables."""
    masks = np.asarray(masks, dtype=bool)
    rows, n = masks.shape
    m = int(masks[0].sum())
    c = max(p.tau for p in partitions)
    k = len({p.clusterer_id for p in partitions})
    variant = "printed" if bound_name == "serfling_printed" else "exact"
    complexity = {p.tau: clustering_complexity(p.tau, c, k, variant) for p in partitions}
    bound_of = transduce_module.BOUNDS[bound_name]
    order = sorted(range(len(partitions)),
                   key=lambda i: (partitions[i].tau, partitions[i].clusterer_id))
    candidates = [partitions[i] for i in order]
    dtype = transduce_module._count_dtype(n)
    indicators = transduce_module._indicators(candidates, np.asarray(target) == 1, dtype)
    emp = np.empty((len(candidates), rows))
    for at, weights in transduce_module._mask_chunks(masks, dtype):
        for j, (p, indicator) in enumerate(zip(candidates, indicators)):
            counts = indicator @ weights
            emp[j, at] = np.minimum(counts[:p.tau], counts[p.tau:]).sum(axis=0)
    emp /= m
    bound = np.empty_like(emp)
    for j, p in enumerate(candidates):
        bound[j] = bound_of(emp[j], complexity[p.tau], m, n - m, delta)
    bound[np.isnan(bound)] = np.inf
    win = bound.argmin(axis=0)
    every = np.arange(rows)
    found = bound[win, every] < np.inf
    labels = np.ones((rows, c), dtype=np.int8)
    for at, weights in transduce_module._mask_chunks(masks, dtype):
        chunk_win, chunk_found, chunk_labels = win[at], found[at], labels[at]
        for j in np.unique(chunk_win[chunk_found]):
            tau, won = candidates[j].tau, chunk_found & (chunk_win == j)
            counts = indicators[j] @ (weights if won.all() else weights.compress(won, axis=1))
            chunk_labels[won, :tau] = np.where(counts[tau:] >= counts[:tau],
                                               np.int8(1), np.int8(-1)).T
    return types.SimpleNamespace(
        candidate=np.where(found, np.array(order, dtype=np.int64)[win], -1),
        tau=np.where(found, np.array([p.tau for p in candidates], dtype=np.int64)[win], 0),
        clusterer_id=np.where(found, np.array([p.clusterer_id for p in candidates],
                                              dtype=np.int64)[win], 0),
        emp_risk=np.where(found, emp[win, every], 0.0),
        bound=bound[win, every],
        cluster_labels=labels,
    )


def _random_masks(rng, rows, n, m):
    masks = np.zeros((rows, n), dtype=bool)
    for row in masks:
        row[rng.choice(n, size=m, replace=False)] = True
    return masks


def _phased_bound(monkeypatch, bound_name, c=7, k=3):
    """Patch ``BOUNDS[bound_name]`` for candidates of c clusters and k clusterers.

    By tau and training error count j: tau 1 scores where j % 3 == 2 and is
    NaN elsewhere, tau 2 is NaN, tau 3 scores 100 above the bound where
    j % 3 == 1, so that tau 1 beats it wherever both score, and is +inf
    elsewhere, and every other tau is +inf.
    """
    plain = transduce_module.BOUNDS[bound_name]
    variant = "printed" if bound_name == "serfling_printed" else "exact"
    # with more than one clusterer, each tau has its own complexity
    tau_of = {clustering_complexity(tau, c, k, variant): tau for tau in range(1, c + 1)}

    def bound(emp, complexity, m, u, delta):
        tau, phase = tau_of[complexity], np.rint(emp * m) % 3
        if tau == 1:
            return np.where(phase == 2, plain(emp, complexity, m, u, delta), np.nan)
        if tau == 2:
            return np.full(emp.shape, np.nan)
        if tau == 3:
            return np.where(phase == 1, plain(emp, complexity, m, u, delta) + 100.0, np.inf)
        return np.full(emp.shape, np.inf)

    monkeypatch.setitem(transduce_module.BOUNDS, bound_name, bound)


def _phased_taus(partitions, target, masks):
    """The tau each mask picks under ``_phased_bound``: 1 where tau 1's training errors
    are 2 mod 3, else 3 where a tau-3 candidate's are 1 mod 3 (after two NaN bounds),
    else 0, no winner."""
    row, point = np.nonzero(masks)
    positive = np.asarray(target)[point] == 1
    phase = {tau: [_ref_votes(p, row, point, positive, len(masks))[1] % 3
                   for p in partitions if p.tau == tau] for tau in (1, 3)}
    return np.where(phase[1][0] == 2, 1, np.where(np.any(np.equal(phase[3], 1), axis=0), 3, 0))


def _point_labels(selection, partitions):
    """(masks, n) labels: each mask's cluster labels read through its winner's assignment.

    A mask without a winner must hold +1 for every cluster, as must every
    column from its winner's tau on.
    """
    rows, c = selection.cluster_labels.shape
    assert selection.cluster_labels.dtype == np.int8
    unused = np.arange(c) >= selection.tau[:, None]  # every column when tau = 0
    assert (selection.cluster_labels[unused] == 1).all()
    assert ((selection.candidate < 0) == (selection.tau == 0)).all()
    labels = np.ones((rows, len(partitions[0].assignment)), dtype=np.int8)
    for r in np.flatnonzero(selection.candidate >= 0):
        labels[r] = selection.cluster_labels[r, partitions[selection.candidate[r]].assignment]
    return labels


def _assert_same_selection(got, want, partitions):
    for field in ("candidate", "tau", "clusterer_id", "emp_risk", "train_errors", "bound"):
        a, b = getattr(got, field), getattr(want, field)
        assert (a.dtype, a.shape) == (b.dtype, b.shape), field
        assert a.tobytes() == b.tobytes(), field
    assert got.cluster_labels.shape == (len(got.tau), got.c)
    assert _point_labels(got, partitions).tobytes() == want.labels.tobytes()
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
                                   _ref_label_and_select(sweep, target, masks, 0.05, bound_name),
                                   sweep)

    @pytest.mark.parametrize("bound_name", BOUND_NAMES)
    def test_a_partition_under_two_ids_ties(self, sweep, bound_name):
        rng = np.random.default_rng(4)
        target = np.where(rng.random(60) < 0.3, -1, 1)
        twice = [q for p in sweep if p.clusterer_id == 1
                 for q in (p, Partition(tau=p.tau, assignment=p.assignment, clusterer_id=3))]
        masks = _random_masks(rng, 40, 60, 20)
        got = label_and_select(twice, target, masks, 0.05, bound_name)
        _assert_same_selection(got, _ref_label_and_select(twice, target, masks, 0.05, bound_name),
                               twice)
        assert (got.clusterer_id == 1).all()

    @pytest.mark.parametrize("m", [1, 59])
    def test_a_single_mask(self, sweep, m):
        rng = np.random.default_rng(m)
        target = np.where(rng.random(60) < 0.4, -1, 1)
        masks = _random_masks(rng, 1, 60, m)
        want = _ref_label_and_select(sweep, target, masks, 0.05, "serfling_printed")
        _assert_same_selection(label_and_select(sweep, target, masks, 0.05), want, sweep)
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
                                   _ref_label_and_select(sweep, target, masks, 0.05, bound_name),
                                   sweep)

    def test_nan_never_wins_and_no_winner_keeps_the_default(self, sweep, monkeypatch):
        _phased_bound(monkeypatch, "serfling_printed")
        rng = np.random.default_rng(6)
        target = np.where(rng.random(60) < 0.7, -1, 1)
        masks = _random_masks(rng, 30, 60, 15)
        got = label_and_select(sweep, target, masks, 0.05)
        _assert_same_selection(got, _ref_label_and_select(sweep, target, masks, 0.05,
                                                          "serfling_printed"), sweep)
        tau = _phased_taus(sweep, target, masks)
        assert (got.tau == tau).all() and set(tau.tolist()) == {0, 1, 3}
        labels = _point_labels(got, sweep)
        assert (labels[tau == 0] == 1).all() and np.isinf(got.bound[tau == 0]).all()
        assert (labels[tau == 1] == -1).any()

    @pytest.mark.parametrize("bound_name", BOUND_NAMES)
    def test_chunk_boundaries(self, sweep, monkeypatch, bound_name):
        _phased_bound(monkeypatch, bound_name)
        rng = np.random.default_rng(11)
        target = np.where(rng.random(60) < 0.5, -1, 1)
        # 8 training ids of each sign in every other mask: tau 1 has 8 errors
        # there, wins, ties in its one cluster and labels it +1; 7 and 9 in the
        # rest, where tau 1 has 7 errors and a NaN bound
        masks = np.zeros((30, 60), dtype=bool)
        for r, row in enumerate(masks):
            for sign, size in ((-1, 8 - r % 2), (1, 8 + r % 2)):
                row[rng.choice(np.flatnonzero(target == sign), size=size, replace=False)] = True
        want = _ref_label_and_select(sweep, target, masks, 0.05, bound_name)
        chunk_rows, mask_chunks = [], transduce_module._mask_chunks

        def recorded(masks, dtype):
            for rows, weights in mask_chunks(masks, dtype):
                chunk_rows.append(weights.shape[1])
                yield rows, weights

        monkeypatch.setattr(transduce_module, "_mask_chunks", recorded)
        selections = []
        # 30, 1, 1, 4 and 7 masks per chunk: n = 60 cells per mask
        for cells, rows in ((30 * 60, 30), (1, 1), (60, 1), (4 * 60, 4), (8 * 60 - 1, 7)):
            monkeypatch.setattr(transduce_module, "_SELECT_CELLS", cells)
            chunk_rows.clear()
            selections.append(label_and_select(sweep, target, masks, 0.05, bound_name))
            _assert_same_selection(selections[-1], want, sweep)
            assert chunk_rows == [rows] * (30 // rows) + [30 % rows] * (30 % rows > 0)
        for got in selections[1:]:
            for field in ("candidate", "tau", "clusterer_id", "emp_risk", "train_errors", "bound",
                          "cluster_labels"):
                assert getattr(got, field).tobytes() == getattr(selections[0], field).tobytes()
        tau = _phased_taus(sweep, target, masks)
        assert (want.tau == tau).all() and set(tau.tolist()) == {0, 1, 3}
        assert (tau[::2] == 1).all() and (want.emp_risk[tau == 1] == 0.5).all()
        assert (selections[0].cluster_labels[tau != 3] == 1).all()

    @pytest.mark.parametrize("bound_name", BOUND_NAMES)
    @pytest.mark.parametrize("delta", [0.05, 0.5, 0.999])
    def test_bound_tables_match_the_per_cell_bounds(self, bound_name, delta):
        # each tau's table over j = 0..m against the bound computed, as before
        # the tables, on a float64 row of exact float32 counts divided by m in place
        rng = np.random.default_rng(7)
        bound_of = transduce_module.BOUNDS[bound_name]
        variant = "printed" if bound_name == "serfling_printed" else "exact"
        for n, m in ((60, 2 if bound_name == "direct" else 1), (60, 8), (60, 30), (60, 59),
                     (500, 250)):
            for tau, c, k in ((1, 1, 1), (3, 7, 2), (7, 7, 3), (20, 20, 1)):
                charge = clustering_complexity(tau, c, k, variant)
                table = bound_of(np.arange(m + 1) / m, charge, m, n - m, delta)
                counts = rng.permutation(np.repeat(np.arange(m + 1, dtype=np.float32), 2))
                emp = np.empty((1, len(counts)))
                emp[0] = counts
                emp /= m
                per_cell = bound_of(emp[0], charge, m, n - m, delta)
                assert table[counts.astype(np.int64)].tobytes() == per_cell.tobytes()

    @pytest.mark.parametrize("seed", range(24))
    def test_matches_the_argmin_selection(self, monkeypatch, seed):
        # random instances: 1-3 clusterers, a clusterer listed twice ties, 1-400
        # masks in chunks of 1-199, every bound and delta, and on odd seeds a
        # NaN bound at every fourth training error count
        rng = np.random.default_rng(seed)
        n = int(rng.integers(20, 121))
        centres = rng.uniform(-6.0, 6.0, size=(int(rng.integers(1, 5)), 2))
        points = centres[rng.integers(0, len(centres), size=n)] + rng.normal(size=(n, 2))
        algos = tuple(rng.choice(ALGOS, size=int(rng.integers(1, 4))))
        sweep = ensemble_sweep(Dataset(points=points, ids=np.arange(n)), algos,
                               int(rng.integers(1, 9)))
        bound_name = BOUND_NAMES[seed % len(BOUND_NAMES)]
        delta = (0.05, 0.5, 0.999)[seed % 3]
        if seed % 2:
            plain = transduce_module.BOUNDS[bound_name]

            def with_nan(emp, complexity, m, u, delta):
                return np.where(np.rint(emp * m) % 4 == 0, np.nan,
                                plain(emp, complexity, m, u, delta))

            monkeypatch.setitem(transduce_module.BOUNDS, bound_name, with_nan)
        target = np.where(rng.random(n) < rng.uniform(0.1, 0.9), -1, 1)
        rows = int(rng.choice([1, 2, rng.integers(3, 400), 400]))
        m = int(rng.integers(2 if bound_name == "direct" else 1, n))
        masks = _random_masks(rng, rows, n, m)
        monkeypatch.setattr(transduce_module, "_SELECT_CELLS", n * int(rng.integers(1, 200)))
        got = label_and_select(sweep, target, masks, delta, bound_name)
        want = _argmin_label_and_select(sweep, target, masks, delta, bound_name)
        for field in ("candidate", "tau", "clusterer_id", "emp_risk", "bound", "cluster_labels"):
            a, b = getattr(got, field), getattr(want, field)
            assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), field
        assert got.train_errors.dtype == np.int64
        assert (got.train_errors == np.rint(got.emp_risk * m)).all()

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
                                   _ref_label_and_select(sweep, target, masks, 0.05, bound_name),
                                   sweep)
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
