"""Cluster-then-label transduction with bound-driven model selection.

The pipeline clusters the full (labelled + unlabelled) sample into 1..c
clusters per clustering algorithm, labels every cluster by majority vote of
the training points it contains, evaluates a transductive risk bound for
each resulting hypothesis using the clustering prior, and returns the
hypothesis with the smallest bound together with a certificate for it.  The
prior only ever sees the unlabelled points and the bound evaluation only
ever sees training labels, so the certificate's guarantee holds over the
random choice of the training subset.
"""

from dataclasses import dataclass
from functools import partial

import numpy as np
from scipy.sparse import csc_matrix

from ._fork import second_cpu, shared
from .clustering import agglomerative_sweep, condensed_distances, kmeans_labels
from .pac_bayes import BOUNDS
from .priors import clustering_complexity
from .records import (BoundValue, _check_choice, _check_integers, _check_labels, _check_probability,
                      _check_size)

ALGORITHMS = ("kmeans", "agglomerative_single", "agglomerative_complete")
LINKAGES = ALGORITHMS[1:]
BOUND_NAMES = ("serfling_printed", "serfling_exact", "direct", "vapnik_absolute")


@dataclass(frozen=True, eq=False)
class Dataset:
    """Full sample: one feature vector per point, ids covering 0..n-1."""

    points: np.ndarray
    ids: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        ids = _check_integers("ids", self.ids)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "ids", ids)
        if pts.ndim != 2 or pts.shape[1] < 1:
            raise ValueError("points must be a (n, d) array with d >= 1")
        if not np.isfinite(pts).all():
            raise ValueError("points must be finite")
        n = len(pts)
        if ids.shape != (n,) or not np.array_equal(np.sort(ids), np.arange(n)):
            raise ValueError("ids must be a permutation of 0..n-1")

    @property
    def n_total(self) -> int:
        return len(self.ids)

    def points_by_id(self) -> np.ndarray:
        """Rows reordered so row i is the point with id i (presentation-order free)."""
        out = np.empty_like(self.points)
        out[self.ids] = self.points
        return out


@dataclass(frozen=True, eq=False)
class LabeledSubset:
    """Training ids and their +-1 labels."""

    indices: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        idx = _check_integers("indices", self.indices)
        lab = _check_labels("labels", self.labels, (-1, 1))
        object.__setattr__(self, "indices", idx)
        object.__setattr__(self, "labels", lab)
        if len(idx) < 1:
            raise ValueError("training set must be nonempty")
        if idx.min() < 0:
            raise ValueError(f"indices must be nonnegative, got {idx.min()}")
        if len(np.unique(idx)) != len(idx):
            raise ValueError("training ids must be unique")
        if lab.shape != idx.shape:
            raise ValueError("labels must be one per training id")

    @property
    def m(self) -> int:
        return len(self.indices)


@dataclass(frozen=True, eq=False)
class Partition:
    """Assignment of every id to one of tau clusters, tagged by its clusterer."""

    tau: int
    assignment: np.ndarray  # cluster index per id (position = id)
    clusterer_id: int

    def __post_init__(self):
        a = _check_integers("assignment", self.assignment)
        object.__setattr__(self, "assignment", a)
        object.__setattr__(self, "tau", _check_size("tau", self.tau))
        if a.size == 0:
            raise ValueError("assignment must be nonempty")
        if a.min() < 0 or a.max() >= self.tau:
            raise ValueError("cluster indices must lie in 0..tau-1")


@dataclass(frozen=True, eq=False)
class Certificate:
    """Chosen hypothesis, its bound, and the predicted test labels."""

    chosen_tau: int
    clusterer_id: int
    algorithm: str
    emp_risk: float
    bound: BoundValue
    delta: float
    c: int
    k_ensemble: int
    test_ids: np.ndarray
    predictions: np.ndarray

    @property
    def bound_name(self) -> str:
        return self.bound.name


@dataclass(frozen=True)
class TransduceConfig:
    algorithms: tuple
    c: int
    delta: float
    bound_name: str = "serfling_printed"

    def __post_init__(self):
        if not self.algorithms:
            raise ValueError("need at least one clustering algorithm")
        for a in self.algorithms:
            _check_choice("clustering algorithm", a, ALGORITHMS)
        _check_choice("bound", self.bound_name, BOUND_NAMES)
        object.__setattr__(self, "c", _check_size("c", self.c))
        _check_probability("delta", self.delta)


def _checked_points(data: Dataset, algorithms, c: int) -> np.ndarray:
    """The points by id, once every algorithm is known and c rows are distinct."""
    c = _check_size("c", c)
    for algo in algorithms:
        _check_choice("clustering algorithm", algo, ALGORITHMS)
    pts = data.points_by_id()
    distinct = len(np.unique(pts, axis=0))
    if c > distinct:
        raise ValueError(f"cannot form {c} clusters from {distinct} distinct points")
    return pts


def cluster_sweep(data: Dataset, algorithm: str, c: int, clusterer_id: int = 0) -> list[Partition]:
    """Partitions of the full sample into tau = 1..c clusters.

    Deterministic given (data, algorithm, c): none of the built-in algorithms
    consumes randomness.  Points are addressed by id, so presentation order
    of the dataset rows is irrelevant.
    """
    return [Partition(tau=p.tau, assignment=p.assignment, clusterer_id=clusterer_id)
            for p in ensemble_sweep(data, (algorithm,), c)]


# Smallest n at which ensemble_sweep shares its jobs with a forked worker.
# Starting and reaping the worker takes a few ms, and while both run each
# pays for the pages the other still shares.  Cold first calls, one per fresh
# process as every CLI command makes, on 6-centre blobs: in-process against
# forked, medians of 12 (n <= 1250) or 24 calls, alternating, in ms (2 vCPUs,
# one BLAS thread); "link" is single and complete linkage, "all" adds k-means:
#   n               1000      1250       1500       1750       2000
#   link d=2 c=5   39 / 41   57 / 59    69 / 72    99 / 104  145 / 113
#   link d=2 c=20  42 / 48   60 / 55    70 / 74   106 / 101  134 / 110
#   link d=8 c=5   38 / 43   56 / 60    79 / 79   125 / 100  162 / 143
#   link d=8 c=20  35 / 46   51 / 62    77 / 71   114 / 107  146 / 140
#   all  d=2 c=5   46 / 43   61 / 52    92 / 70   122 / 93   167 / 114
#   all  d=2 c=20  97 / 74  117 / 93   135 / 103  240 / 151  293 / 175
#   all  d=8 c=5   43 / 44   61 / 61    86 / 70   138 / 112  168 / 126
#   all  d=8 c=20 124 / 87  181 / 125  199 / 149  243 / 166  379 / 213
# Each side's interquartile range is 7-51 % of its median (30 % typical).
# k-means at c = 20 gains from n = 1000, but a linkage-only ensemble still
# reads slower forked at 1750, within that spread.
_FORK_MIN_N = 2000


def ensemble_sweep(data: Dataset, algorithms, c: int) -> list[Partition]:
    """``cluster_sweep`` of every algorithm, clusterer id = position in ``algorithms``.

    The points are checked for c distinct rows once.  Each distinct
    algorithm sweeps once, and every position that lists it gets that
    sweep's partitions.  The jobs are each linkage sweep, in the order of
    ``algorithms``, then each k-means tau from tau = c down.  With a linkage
    sweep and at least one other job, n >= ``_FORK_MIN_N`` and a
    ``second_cpu``, a forked worker shares them (``_fork.shared``); the
    condensed distances are then built once before the fork.  k-means alone
    sweeps in this process.  The order decides which process runs complete
    linkage and holds its copy of the distances: after single linkage, the
    worker usually reads it.  Every job is a pure function of the points.
    """
    pts = _checked_points(data, algorithms, c)
    linkages = [algo for algo in dict.fromkeys(algorithms) if algo in LINKAGES]
    taus = range(c, 0, -1) if "kmeans" in algorithms else ()
    fork = linkages and len(linkages) + len(taus) > 1 and len(pts) >= _FORK_MIN_N and second_cpu()
    dists = condensed_distances(pts) if fork or len(linkages) > 1 else None
    jobs = [partial(agglomerative_sweep, pts, c, algo.removeprefix("agglomerative_"), dists)
            for algo in linkages]
    jobs += [lambda tau=tau: {tau: kmeans_labels(pts, tau)} for tau in taus]
    by_tau = {algo: {} for algo in algorithms}
    for algo, labels in zip(linkages + ["kmeans"] * len(taus),
                            shared(jobs) if fork else [job() for job in jobs]):
        by_tau[algo].update(labels)
    return [Partition(tau=tau, assignment=by_tau[algo][tau], clusterer_id=i)
            for i, algo in enumerate(algorithms) for tau in range(1, c + 1)]


# Every summand of a count product is 0 or 1, so a float product returns the
# exact integer in any summation order and with any BLAS thread count while the
# count fits the mantissa.  Counts never exceed the sample size: float32 is
# exact below 2**24 points, float64 below 2**53.
_FLOAT32_COUNTS_BELOW = 1 << 24


def _count_dtype(n: int):
    """Float dtype whose products of 0/1 matrices count up to n ones exactly."""
    return np.float32 if n < _FLOAT32_COUNTS_BELOW else np.float64


def _cluster_counts(weights: np.ndarray, positive: np.ndarray, partition: Partition):
    """Training points per (cluster, mask row) with label -1 and with label +1.

    ``weights`` holds the masks as (n, rows) columns in ``_count_dtype(n)``;
    ``positive`` flags the ids whose target is +1.  One product of the
    partition's sparse (sign, cluster) indicator rows with the mask columns
    gives both (tau, rows) count arrays, at a cost that does not grow with
    tau.
    """
    tau, n = partition.tau, len(positive)
    # int32 indices, where they fit, spare scipy a scan for the index dtype:
    # half of the indicator's cost on one mask
    index = np.int32 if 2 * max(tau, n) <= np.iinfo(np.int32).max else np.int64
    indicator = csc_matrix((np.ones(n, dtype=weights.dtype),
                            (partition.assignment + tau * positive).astype(index),
                            np.arange(n + 1, dtype=index)), shape=(2 * tau, n))
    counts = indicator @ weights
    return counts[:tau], counts[tau:]


@dataclass(frozen=True, eq=False)
class Selection:
    """The smallest-bound hypothesis under each training mask of a batch.

    A mask on which every candidate's bound is +inf or NaN has no winner: it
    keeps tau = 0, clusterer id 0, empirical risk 0, bound +inf and +1 labels.
    """

    tau: np.ndarray
    clusterer_id: np.ndarray
    emp_risk: np.ndarray
    bound: np.ndarray  # raw bound
    labels: np.ndarray  # (masks, n) int8: the winner's +-1 majority label per id
    c: int
    k_ensemble: int


def label_and_select(partitions: list[Partition], target: np.ndarray, masks: np.ndarray,
                     delta: float, bound_name: str = "serfling_printed") -> Selection:
    """Score every partition by majority vote under each mask; keep the smallest bound.

    ``masks`` is a (batch, n) boolean array holding one training set of a
    common size m per row; of the +-1 ``target`` only the entries under a
    mask are read.  The prior's cluster budget c is the largest tau present
    and its ensemble size k is the number of distinct clusterer ids, so the
    guarantee presumes the given sequence is the full sweep.  A tau-cluster
    candidate is charged ``clustering_complexity(tau, c, k, variant)``, the
    published tau + ln(kc) for ``serfling_printed`` and ln(1/p(h)) =
    tau ln 2 + ln(kc) for every other bound, once per tau for all
    clusterers, and scored by ``BOUNDS[bound_name]``.

    A scoring pass fills a table of empirical risk and raw bound per
    (candidate, mask) from exact per-(mask, cluster, sign) training counts,
    one sparse indicator product per partition.  The winner of a mask is its
    first candidate, in (tau, clusterer id) order, whose bound is below every
    earlier one and below +inf, so ties break toward smaller tau, then
    smaller clusterer id, and a NaN bound never wins.  Labels are then
    computed for the winners only: each cluster takes the majority label of
    its training points, and a tie or a cluster with no training point gets
    +1, a fixed choice made without test labels that keeps the guarantee.
    """
    _check_choice("bound", bound_name, BOUND_NAMES)
    _check_probability("delta", delta)
    if not partitions:
        raise ValueError("need at least one partition")
    masks = np.asarray(masks, dtype=bool)
    rows, n = masks.shape
    if any(len(p.assignment) != n for p in partitions):
        raise ValueError("partitions disagree on the sample size")
    m = int(masks[0].sum())
    if not 1 <= m < n or (masks.sum(axis=1) != m).any():
        raise ValueError("every mask must select the same m training ids, 1 <= m < n")
    c = max(p.tau for p in partitions)
    k = len({p.clusterer_id for p in partitions})
    variant = "printed" if bound_name == "serfling_printed" else "exact"
    complexity = {p.tau: clustering_complexity(p.tau, c, k, variant) for p in partitions}
    bound_of = BOUNDS[bound_name]

    candidates = sorted(partitions, key=lambda p: (p.tau, p.clusterer_id))
    weights = np.ascontiguousarray(masks.T).astype(_count_dtype(n))
    positive = np.asarray(target) == 1
    emp = np.empty((len(candidates), rows))
    bound = np.empty((len(candidates), rows))
    for j, p in enumerate(candidates):
        neg, pos = _cluster_counts(weights, positive, p)
        emp[j] = np.minimum(neg, pos).sum(axis=0, dtype=np.float64) / m
        bound[j] = bound_of(emp[j], complexity[p.tau], m, n - m, delta)

    key = np.where(np.isnan(bound), np.inf, bound)
    win = key.argmin(axis=0)
    every = np.arange(rows)
    found = key[win, every] < np.inf
    labels = np.ones((rows, n), dtype=np.int8)
    for j in np.unique(win[found]):
        p = candidates[j]
        at = found & (win == j)
        neg, pos = _cluster_counts(weights.compress(at, axis=1), positive, p)
        labels[at] = np.where(pos >= neg, np.int8(1), np.int8(-1)).T[:, p.assignment]
    return Selection(
        tau=np.where(found, np.array([p.tau for p in candidates], dtype=np.int64)[win], 0),
        clusterer_id=np.where(found, np.array([p.clusterer_id for p in candidates],
                                              dtype=np.int64)[win], 0),
        emp_risk=np.where(found, emp[win, every], 0.0),
        bound=np.where(found, bound[win, every], np.inf),
        labels=labels, c=c, k_ensemble=k,
    )


def select_by_bound(partitions: list[Partition], labeled: LabeledSubset, delta: float,
                    bound_name: str = "serfling_printed",
                    algorithm_names: dict[int, str] | None = None) -> Certificate:
    """Certificate of the smallest-bound partition: ``label_and_select`` on one mask."""
    if not partitions:
        raise ValueError("need at least one partition")
    n = len(partitions[0].assignment)
    if labeled.indices.max() >= n:
        raise ValueError("training ids outside the partitioned sample")
    target = np.zeros(n, dtype=np.int64)
    target[labeled.indices] = labeled.labels
    masks = target[None, :] != 0
    chosen = label_and_select(partitions, target, masks, delta, bound_name)
    test_ids = np.flatnonzero(~masks[0])
    clusterer_id = int(chosen.clusterer_id[0])
    return Certificate(
        chosen_tau=int(chosen.tau[0]),
        clusterer_id=clusterer_id,
        algorithm=(algorithm_names or {}).get(clusterer_id, ""),
        emp_risk=float(chosen.emp_risk[0]),
        bound=BoundValue(raw=float(chosen.bound[0]), name=bound_name),
        delta=delta,
        c=chosen.c,
        k_ensemble=chosen.k_ensemble,
        test_ids=test_ids,
        predictions=chosen.labels[0, test_ids].astype(np.int64),
    )


def transduce(data: Dataset, labeled: LabeledSubset, config: TransduceConfig) -> Certificate:
    """Full pipeline: sweep every configured clusterer, label, select, certify."""
    if config.c > labeled.m:
        raise ValueError("cluster budget c must not exceed the training size")
    if labeled.indices.max() >= data.n_total:
        raise ValueError("training ids outside the dataset")
    if labeled.m == data.n_total:
        raise ValueError("every point is labelled: "
                         "transduction needs at least one unlabelled point")
    partitions = ensemble_sweep(data, config.algorithms, config.c)
    return select_by_bound(partitions, labeled, config.delta, config.bound_name,
                           dict(enumerate(config.algorithms)))
