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
multiple of 8 above that); k-means keeps that matrix across its iterations
and rebuilds, in the same order, the rows of centers that moved.  Each new
k-means center equals the mean of its members' rows in index order, as a
boolean mask would select them.  k-means converts its points to float64
first.  For d >= 2 the mean is then a sequential float64 sum of the rows, so
one ``np.bincount`` per coordinate over all rows, divided by the sizes,
gives its bits; d = 1 keeps the per-cluster ``mean``, since the mean of a
contiguous column is a pairwise sum.  ``bincount`` starts from +0.0, so a
coordinate whose members all hold -0.0 reads +0.0 where a sum that starts
from the first row gives -0.0; squared differences and shifts are the same
for either zero, so no label changes.
The nearest center is the first index at each column's minimum, argmin's
tie rule; a column holding a NaN falls back to ``np.argmin``.
"""

import numpy as np
from scipy.cluster.hierarchy import linkage
from scipy.spatial.distance import pdist

from .records import _check_choice, _check_size

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
        # ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7))
        for a, b in ((0, 1), (2, 3), (4, 5), (6, 7), (0, 2), (4, 6), (0, 4)):
            r[a] += r[b]
        total = r[0]
        for t in terms[n - n % 8:]:
            total += t
        return total
    half = n // 2 - (n // 2) % 8
    total = _pairwise_sum(terms[:half])
    total += _pairwise_sum(terms[half:])
    return total


def _sq_dists(points: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances, coordinates along axis 0 of both arguments.

    The two arrays broadcast against each other: (d, 1, n) points and
    (d, k, 1) centers give the (k, n) matrix, (d, n) points and a (d, 1)
    center one row of it.  Each entry is bit-identical to the broadcast sum
    over the coordinate axis.
    """
    sq = np.subtract(points, centers)
    np.square(sq, out=sq)
    return _pairwise_sum(list(sq))


def _center_rows(coords: np.ndarray, centers: np.ndarray, bufs: np.ndarray) -> np.ndarray:
    """Rows of ``_sq_dists`` for the (k, d) ``centers``, in the first k rows of ``bufs[0]``.

    Below d = 16 each term is made in place in a (tau, n) buffer, which beats
    ``_sq_dists``' (d, k, n) temporary, and added in ``_pairwise_sum``'s
    order: in sequence, after a tree of the first eight from d = 8.
    """
    k, d = centers.shape
    if d >= 16:
        return _sq_dists(coords[:, None, :], np.ascontiguousarray(centers.T)[:, :, None])

    def tree(lo, width, out, spare):
        if width == 1:
            return np.square(np.subtract(coords[lo], centers[:, lo, None], out=out), out=out)
        tree(lo, width // 2, out, spare)
        out += tree(lo + width // 2, width // 2, spare[0], spare[1:])
        return out

    views = [buf[:k] for buf in bufs]
    head = 8 if d >= 8 else 1
    total = tree(0, head, views[0], views[1:])
    for j in range(head, d):
        total += tree(j, 1, views[1], [])
    return total


def _nearest(dists: np.ndarray) -> np.ndarray:
    """Each column's first index at its minimum; argmin where a NaN, equal to nothing, is one."""
    low = dists.min(axis=0)
    if np.isnan(low).any():
        return np.argmin(dists, axis=0)
    return (dists == low).argmax(axis=0)


def _updated_centers(points: np.ndarray, coords: np.ndarray, labels: np.ndarray,
                     sizes: np.ndarray) -> np.ndarray:
    """Row j is the mean of the points labelled j, for each j < ``len(sizes)``.

    ``points`` are float64, ``coords`` is ``points.T`` and ``sizes`` the
    label counts, none of them 0.  Each row has the bits of
    ``points[labels == j].mean(axis=0)``, up to the sign of a zero (see the
    module docstring).
    """
    tau, d = len(sizes), points.shape[1]
    out = np.empty((tau, d))
    # mean(axis=0) of d >= 2 columns is a sequential row sum, which bincount
    # reproduces; a single column is summed pairwise
    if d >= 2:
        for j in range(d):
            out[:, j] = np.bincount(labels, weights=coords[j], minlength=tau) / sizes
        return out
    # A stable sort keeps each cluster's rows in index order; the narrow
    # dtype lets NumPy use its radix sort.
    grouped = points[np.argsort(labels.astype(np.min_scalar_type(tau)), kind="stable")]
    for j, s, e in zip(range(tau), sizes, np.cumsum(sizes)):
        out[j] = grouped[e - s:e].mean(axis=0)
    return out


def kmeans_labels(points: np.ndarray, tau: int) -> np.ndarray:
    """Lloyd's algorithm with farthest-first seeding, fully deterministic.

    The first center is the point nearest the grand centroid; each further
    center is the point farthest from its nearest chosen center (ties resolve
    to the lowest index).  Assignment ties resolve to the lowest cluster
    index; a cluster that empties is repaired by handing it the farthest
    member of the currently largest cluster.

    The points are converted to float64 first, so labels of narrower or
    integer points are those of their float64 values.  The seeding fills the
    (tau, n) distance matrix, and each iteration rebuilds only the rows of
    centers whose bits changed, a NaN center's always; a zero's sign changes
    no square.  So it equals a fresh ``_sq_dists`` bit for bit, and a
    cluster whose members did not change gets the bits of its last mean.
    """
    points = np.asarray(points, dtype=np.float64)
    n, d = points.shape
    tau = _check_size("tau", tau, 1, n)
    if tau == 1:
        return np.zeros(n, dtype=np.int64)

    coords = np.ascontiguousarray(points.T)
    bufs = np.empty((2 if d < 8 else 4 if d < 16 else 0, tau, n))
    dists, nearest = np.empty((tau, n)), np.full(n, np.inf)
    seeds = [int(np.argmin(_center_rows(coords, points.mean(axis=0)[None], bufs)))]
    for j in range(tau):  # each seed is the point farthest from the seeds before it
        dists[j] = _center_rows(coords, points[seeds[-1:]], bufs)
        np.minimum(nearest, dists[j], out=nearest)
        seeds.append(int(np.argmax(nearest)))
    centers = points[seeds[:tau]]

    for _ in range(KMEANS_MAX_ITER):
        labels = _nearest(dists)
        sizes = np.bincount(labels, minlength=tau)
        for j in range(tau):
            if sizes[j] == 0:
                big = int(np.argmax(sizes))
                members = np.flatnonzero(labels == big)
                far = members[int(np.argmax(dists[big, members]))]
                labels[far] = j
                sizes[big] -= 1
                sizes[j] += 1

        new_centers = _updated_centers(points, coords, labels, sizes)
        shift = np.sqrt(((new_centers - centers) ** 2).sum(axis=1))
        moved = np.flatnonzero((new_centers != centers).any(axis=1))
        centers = new_centers
        if shift.max() <= KMEANS_TOL:
            break
        dists[moved] = _center_rows(coords, centers[moved], bufs)
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
    creates node n + i, so the top = min(c, n) clusters are the nodes below
    2n - top whose parent is not; each point's cluster is found once, by
    pointer doubling on the parent array restricted to those nodes.  Each
    lower level follows from the one above: the merge that creates node
    2n - tau - 1 joins two clusters of level tau + 1 with canonical ids
    lo < hi, so label hi becomes lo and every id above hi drops by one.
    Canonical ids follow first appearance, and the joined cluster first
    appears where lo did.  ``dists`` is the points' ``condensed_distances``
    if already built; ``linkage`` does not modify it.
    """
    _check_choice("linkage", method, ("single", "complete"))
    c = _check_size("c", c)
    n = len(points)
    if n == 1:
        return {1: np.zeros(1, dtype=np.int64)}
    merges = linkage(condensed_distances(points) if dists is None else dists, method=method)
    children = merges[:, :2].astype(np.int64)
    top = min(c, n)
    nodes = np.arange(2 * n - 1)
    parent = nodes.copy()
    parent[children.ravel()] = np.repeat(nodes[n:], 2)
    root = np.where(parent < 2 * n - top, parent, nodes)
    while True:
        up = root[root]
        if np.array_equal(up, root):
            break
        root = up
    labels = canonical_labels(root[:n])
    out = {top: labels}
    leaf = np.empty(2 * n - 1, dtype=np.int64)  # a point below each cluster's node
    leaf[root[:n]] = nodes[:n]
    for tau in range(top - 1, 0, -1):
        a, b = children[n - tau - 1]
        leaf[2 * n - tau - 1] = leaf[a]
        lo, hi = sorted((labels[leaf[a]], labels[leaf[b]]))
        joined = labels - (labels > hi)
        joined[labels == hi] = lo
        out[tau] = labels = joined
    return out
