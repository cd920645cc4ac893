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
import functools

import numpy as np

from .clustering import agglomerative_sweep, condensed_distances, kmeans_labels
from .hypergeom import _envelopes, _epsilon_star
from .pac_bayes import det_raw
from .priors import ClusteringPrior, clustering_bound
from .records import BoundValue

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
        ids = np.asarray(self.ids, dtype=np.int64)
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
        idx = np.asarray(self.indices, dtype=np.int64)
        lab = np.asarray(self.labels, dtype=np.int64)
        object.__setattr__(self, "indices", idx)
        object.__setattr__(self, "labels", lab)
        if len(idx) < 1:
            raise ValueError("training set must be nonempty")
        if len(np.unique(idx)) != len(idx):
            raise ValueError("training ids must be unique")
        if lab.shape != idx.shape or not np.isin(lab, (-1, 1)).all():
            raise ValueError("labels must be +-1, one per training id")

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
        a = np.asarray(self.assignment, dtype=np.int64)
        object.__setattr__(self, "assignment", a)
        if self.tau < 1:
            raise ValueError("tau must be >= 1")
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
    bound_name: str
    delta: float
    c: int
    k_ensemble: int
    test_ids: np.ndarray
    predictions: np.ndarray


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
            if a not in ALGORITHMS:
                raise ValueError(f"unknown clustering algorithm {a!r}")
        if self.bound_name not in BOUND_NAMES:
            raise ValueError(f"unknown bound {self.bound_name!r}")
        if self.c < 1:
            raise ValueError("c must be >= 1")
        if not 0.0 < self.delta < 1.0:
            raise ValueError("delta must be in (0, 1)")


def cluster_sweep(data: Dataset, algorithm: str, c: int, clusterer_id: int = 0,
                  dists: np.ndarray | None = None) -> list[Partition]:
    """Partitions of the full sample into tau = 1..c clusters.

    Deterministic given (data, algorithm, c): none of the built-in algorithms
    consumes randomness.  Points are addressed by id, so presentation order
    of the dataset rows is irrelevant.  A linkage reuses ``dists``, the
    ``condensed_distances`` of the points by id, when given.
    """
    if algorithm not in ALGORITHMS:
        raise ValueError(f"unknown clustering algorithm {algorithm!r}")
    pts = data.points_by_id()
    distinct = len(np.unique(pts, axis=0))
    if c > distinct:
        raise ValueError(f"cannot form {c} clusters from {distinct} distinct points")
    if algorithm == "kmeans":
        by_tau = {tau: kmeans_labels(pts, tau) for tau in range(1, c + 1)}
    else:
        method = algorithm.removeprefix("agglomerative_")
        by_tau = agglomerative_sweep(pts, c, method, dists)
    return [
        Partition(tau=tau, assignment=by_tau[tau], clusterer_id=clusterer_id)
        for tau in range(1, c + 1)
    ]


def ensemble_sweep(data: Dataset, algorithms, c: int) -> list[Partition]:
    """``cluster_sweep`` of every algorithm, clusterer id = position in ``algorithms``.

    Two or more linkages share one condensed distance matrix, built for the
    first of them and dropped after the last.
    """
    linkages = [i for i, algo in enumerate(algorithms) if algo in LINKAGES]
    partitions, dists = [], None
    for i, algo in enumerate(algorithms):
        if len(linkages) > 1 and i == linkages[0]:
            dists = condensed_distances(data.points_by_id())
        partitions += cluster_sweep(data, algo, c, clusterer_id=i, dists=dists)
        if linkages and i == linkages[-1]:
            dists = None
    return partitions


def _votes(partition: Partition, row, point, positive, rows: int):
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


def majority_label(partition: Partition, labeled: LabeledSubset) -> np.ndarray:
    """Label every point with its cluster's majority training label.

    Ties and clusters containing no training point get +1; the fixed choice
    keeps the pipeline deterministic and is made without looking at test
    labels, so it does not affect the certificate's validity.
    """
    if labeled.indices.max() >= len(partition.assignment):
        raise ValueError("training ids outside the partitioned sample")
    label_pos, _ = _votes(partition, 0, labeled.indices, labeled.labels == 1, 1)
    return np.where(label_pos[0], 1, -1)[partition.assignment]


def _tau_bound(bound_name: str, tau: int, prior: ClusteringPrior, m: int, u: int,
               delta: float):
    """Raw bound of a tau-cluster hypothesis as a function of its empirical risks."""
    if bound_name == "direct":
        return functools.partial(det_raw, "direct", log_inv_p=prior.log_inverse_mass(tau),
                                 m=m, u=u, delta=delta)
    if bound_name == "vapnik_absolute":
        envelope = _envelopes(m, u, ("absolute",))["absolute"]
        excess = _epsilon_star(prior.log_inverse_mass(tau), delta, envelope, "absolute").value
    else:
        variant = bound_name.removeprefix("serfling_")
        excess = clustering_bound(0.0, tau, prior.c, m, u, delta, prior.k_ensemble, variant).raw
    return lambda emp: emp + excess


@dataclass(frozen=True, eq=False)
class Selection:
    """The smallest-bound hypothesis under each training mask of a batch."""

    tau: np.ndarray
    clusterer_id: np.ndarray
    emp_risk: np.ndarray
    bound: np.ndarray  # raw bound
    labels: np.ndarray  # (masks, n) int8: the chosen hypothesis's +-1 label per id
    c: int
    k_ensemble: int


def label_and_select(partitions: list[Partition], target: np.ndarray, masks: np.ndarray,
                     delta: float, bound_name: str = "serfling_printed") -> Selection:
    """Label every partition by majority vote under each mask; keep the smallest bound.

    ``masks`` is a (batch, n) boolean array holding one training set of a
    common size m per row; of the +-1 ``target`` only the entries under a
    mask are read.  The prior's cluster budget is the largest tau present and
    its ensemble size is the number of distinct clusterers, so the guarantee
    presumes the given sequence is the full sweep.  Each tau's complexity
    term is computed once for all clusterers, and ties break toward smaller
    tau, then smaller clusterer id.
    """
    if bound_name not in BOUND_NAMES:
        raise ValueError(f"unknown bound {bound_name!r}")
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must be in (0, 1)")
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
    prior = ClusteringPrior(c=c, k_ensemble=len({p.clusterer_id for p in partitions}))
    bound_of = {tau: _tau_bound(bound_name, tau, prior, m, n - m, delta)
                for tau in sorted({p.tau for p in partitions})}

    row, point = np.nonzero(masks)
    positive = np.asarray(target)[point] == 1
    best = Selection(tau=np.zeros(rows, dtype=np.int64),
                     clusterer_id=np.zeros(rows, dtype=np.int64),
                     emp_risk=np.zeros(rows), bound=np.full(rows, np.inf),
                     labels=np.ones((rows, n), dtype=np.int8), c=c,
                     k_ensemble=prior.k_ensemble)
    for p in sorted(partitions, key=lambda p: (p.tau, p.clusterer_id)):
        label_pos, errors = _votes(p, row, point, positive, rows)
        emp = errors / m
        bound = bound_of[p.tau](emp)
        better = bound < best.bound
        best.tau[better] = p.tau
        best.clusterer_id[better] = p.clusterer_id
        best.emp_risk[better] = emp[better]
        best.bound[better] = bound[better]
        best.labels[better] = np.where(label_pos[better], np.int8(1), np.int8(-1))[:, p.assignment]
    return best


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
    raw = float(chosen.bound[0])
    clusterer_id = int(chosen.clusterer_id[0])
    return Certificate(
        chosen_tau=int(chosen.tau[0]),
        clusterer_id=clusterer_id,
        algorithm=(algorithm_names or {}).get(clusterer_id, ""),
        emp_risk=float(chosen.emp_risk[0]),
        bound=BoundValue(raw=raw, clamped=min(raw, 1.0), name=bound_name),
        bound_name=bound_name,
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
    partitions = ensemble_sweep(data, config.algorithms, config.c)
    return select_by_bound(partitions, labeled, config.delta, config.bound_name,
                           dict(enumerate(config.algorithms)))
