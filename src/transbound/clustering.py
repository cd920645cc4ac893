"""Deterministic clustering backends for the transductive sweep.

Determinism is load-bearing here: the prior over cluster labelings is only
well defined if the same point set always yields the same partitions, so
k-means uses farthest-first seeding (no randomness) with fixed tie-breaking
and empty-cluster repair, and the agglomerative variants cut a single
dendrogram at every level.  All distances are Euclidean.

Every output is bit-identical to the direct NumPy formulation, which the
tests keep as the reference.  Squared distances equal
``((points[:, None, :] - centers[None]) ** 2).sum(axis=2)`` bit for bit:
they are built from one array of squared differences per coordinate, added
in the order NumPy's pairwise reduction uses over a contiguous axis
(sequential below 8 terms; eight interleaved partial sums combined as
``((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7))`` up to 128 terms; halving at a
multiple of 8 above that).  Each new k-means center is the mean of its
members' rows in index order, as a boolean mask would select them.
"""

import numpy as np
from scipy.cluster.hierarchy import linkage
from scipy.spatial.distance import pdist

KMEANS_MAX_ITER = 100
KMEANS_TOL = 1e-9
# Largest condensed distance matrix agglomerative_sweep builds: 2**27 float64
# pairs (1 GiB, n of about 16 000); complete linkage holds a second copy.
MAX_LINKAGE_PAIRS = 2 ** 27


def canonical_labels(labels: np.ndarray) -> np.ndarray:
    """Relabel clusters by order of first appearance so output ids are stable."""
    _, first, inverse = np.unique(labels, return_index=True, return_inverse=True)
    rank = np.empty(len(first), dtype=np.int64)
    rank[np.argsort(first)] = np.arange(len(first))
    return rank[inverse]


def _pairwise_sum(terms: list) -> np.ndarray:
    """Elementwise sum of equal-shape arrays in NumPy's pairwise order.

    Adds in place into arrays of ``terms``, which the caller gives up.
    """
    n = len(terms)
    if n < 8:
        total = terms[0]
        for t in terms[1:]:
            total += t
        return total
    if n <= 128:
        r = terms[:8]
        for i in range(8, n - n % 8, 8):
            for j in range(8):
                r[j] += terms[i + j]
        total = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
        for t in terms[n - n % 8:]:
            total += t
        return total
    half = n // 2 - (n // 2) % 8
    return _pairwise_sum(terms[:half]) + _pairwise_sum(terms[half:])


def _sq_dists(coords: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """(k, n) squared Euclidean distances from k centers to n points.

    ``coords`` holds the points as (d, n) coordinate rows.  Each entry is
    bit-identical to the broadcast sum over the coordinate axis.
    """
    return _pairwise_sum([(row - centers[:, j, None]) ** 2 for j, row in enumerate(coords)])


def kmeans_labels(points: np.ndarray, tau: int) -> np.ndarray:
    """Lloyd's algorithm with farthest-first seeding, fully deterministic.

    The first center is the point nearest the grand centroid; each further
    center is the point farthest from its nearest chosen center (ties resolve
    to the lowest index).  Assignment ties resolve to the lowest cluster
    index; a cluster that empties is repaired by handing it the farthest
    member of the currently largest cluster.
    """
    n = len(points)
    if tau == 1:
        return np.zeros(n, dtype=np.int64)

    coords = np.ascontiguousarray(points.T)
    centroid = points.mean(axis=0)
    first = int(np.argmin(_sq_dists(coords, centroid[None])[0]))
    seeds = [first]
    nearest = _sq_dists(coords, points[[first]])[0]
    while len(seeds) < tau:
        nxt = int(np.argmax(nearest))
        seeds.append(nxt)
        nearest = np.minimum(nearest, _sq_dists(coords, points[[nxt]])[0])
    centers = points[seeds].astype(float).copy()

    labels = np.zeros(n, dtype=np.int64)
    for _ in range(KMEANS_MAX_ITER):
        dists = _sq_dists(coords, centers)
        labels = np.argmin(dists, axis=0).astype(np.int64)
        sizes = np.bincount(labels, minlength=tau)
        for j in range(tau):
            if sizes[j] == 0:
                big = int(np.argmax(sizes))
                members = np.flatnonzero(labels == big)
                far = members[int(np.argmax(dists[big, members]))]
                labels[far] = j
                sizes[big] -= 1
                sizes[j] += 1
        # A stable sort keeps each cluster's rows in index order; the narrow
        # dtype lets NumPy use its radix sort.
        grouped = points[np.argsort(labels.astype(np.min_scalar_type(tau)), kind="stable")]
        ends = np.cumsum(sizes)
        new_centers = np.stack([grouped[e - s:e].mean(axis=0) for s, e in zip(sizes, ends)])
        moved = np.sqrt(((new_centers - centers) ** 2).sum(axis=1)).max()
        centers = new_centers
        if moved <= KMEANS_TOL:
            break
    return canonical_labels(labels)


def condensed_distances(points: np.ndarray) -> np.ndarray:
    """``pdist(points)``, refused above ``MAX_LINKAGE_PAIRS`` pairs before it is built."""
    n = len(points)
    pairs = n * (n - 1) // 2
    if pairs > MAX_LINKAGE_PAIRS:
        raise ValueError(f"agglomerative clustering of n={n} points needs {pairs} "
                         f"pairwise distances, more than the limit of {MAX_LINKAGE_PAIRS}")
    return pdist(points)


def agglomerative_sweep(points: np.ndarray, c: int, method: str,
                        dists: np.ndarray | None = None) -> dict[int, np.ndarray]:
    """Cut one single- or complete-linkage dendrogram at every level 1..c.

    Returns {tau: labels} for tau = 1..min(c, n).  Merge i of the linkage
    creates node n + i, so the tau clusters are the nodes below 2n - tau
    whose parent is not; each point's cluster is found by pointer doubling
    on the parent array restricted to those nodes.  ``dists`` is the points'
    ``condensed_distances`` if already built; ``linkage`` does not modify it.
    """
    if method not in ("single", "complete"):
        raise ValueError(f"unknown linkage {method!r}")
    n = len(points)
    merges = linkage(condensed_distances(points) if dists is None else dists, method=method)
    nodes = np.arange(2 * n - 1)
    parent = nodes.copy()
    parent[merges[:, :2].astype(np.int64).ravel()] = np.repeat(nodes[n:], 2)
    out: dict[int, np.ndarray] = {}
    for tau in range(min(c, n), 0, -1):
        root = np.where(parent < 2 * n - tau, parent, nodes)
        while True:
            up = root[root]
            if np.array_equal(up, root):
                break
            root = up
        out[tau] = canonical_labels(root[:n])
    return out
