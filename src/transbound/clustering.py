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
multiple of 8 above that).  Each new k-means center equals the mean of its
members' rows in index order, as a boolean mask would select them.  For
d >= 2 float64 or integer points that mean is a sequential float64 sum of
the rows, so one ``np.bincount`` per coordinate over the members of every
changed cluster, divided by the sizes, gives its bits.  Two cases keep the
per-cluster ``mean``: d = 1, where the mean of a contiguous column is a
pairwise sum, and float16 or float32 points, which ``mean`` accumulates in
their own precision.  ``bincount`` starts from +0.0, so a coordinate whose
members all hold -0.0 reads +0.0 where a sum that starts from the first
row gives -0.0; squared differences and shifts are the same for either
zero, so no label changes.
The nearest center is the first index at each column's minimum, argmin's
tie rule; a column holding a NaN falls back to ``np.argmin``.

k-means skips a point's distances when triangle-inequality bounds prove its
label stays (Hamerly, "Making k-means even faster", SDM 2010): an upper
bound ub on the distance to its own center below a lower bound lb on the
distance to every other center.  The skip must give the argmin of the
distances the reference would compute, ties included, so the bounds are
rounding-safe.  A computed squared distance D >= 2**-1000 of a true distance
t is a sum of d rounded squares of rounded differences, so
|D - t**2| <= g t**2 with g = (d + 2) 2**-53 / (1 - (d + 2) 2**-53), plus at
most d 2**-1075 of underflow, below 2**-70 t**2 there.  With the margin
rho = 4 (d + 4) 2**-52, far above 2g, ub bounds (1 + rho/2) t for the own
center and lb bounds t from below for every other one, so ub < lb proves
that the computed own distance is strictly below every other computed one.
Every bound that adds or subtracts a shift is rounded outward with
``np.nextafter``.  A D below 2**-1000 carries no relative precision and
gives no bound; an overflowed D = inf shows only that t is at least about
sqrt(float max), where lb is clamped; a NaN anywhere makes the comparison
False, which means "compute".
"""

import math
import sys

import numpy as np
from scipy.cluster.hierarchy import linkage
from scipy.spatial.distance import pdist

KMEANS_MAX_ITER = 100
KMEANS_TOL = 1e-9
# Largest condensed distance matrix agglomerative_sweep builds: 2**27 float64
# pairs (1 GiB, n of about 16 000); complete linkage holds a second copy.
MAX_LINKAGE_PAIRS = 2 ** 27
# A computed squared distance below 2**-1000 may hold underflowed terms, so it
# carries no relative precision: it gives no bound, and its point's distances
# are computed again.  A center shift whose computed square is that small is
# below 2**-499.5, so 2**-499 bounds it.
_SQ_TINY = 2.0 ** -1000
_SHIFT_FLOOR = 2.0 ** -499
_SQRT_MAX = math.sqrt(sys.float_info.max)
# Smallest n * tau * d (the distance work of one Lloyd iteration) at which
# k-means keeps bounds.  Their bookkeeping costs about a hundred NumPy calls
# per iteration, which the distances they save repay only on large inputs:
# on Gaussian blobs (process time, pruned over unpruned, 2-vCPU x86-64) the
# ratio was 1.36 at (n, tau, d) = (3000, 5, 2), 1.04 at (3000, 16, 2),
# 0.96 at (3000, 20, 2), 0.95 at (3000, 5, 8), 0.70 at (3000, 8, 8),
# 1.46 at (1000, 5, 8), 0.89 at (1000, 20, 8) and 0.70 at (12000, 20, 2).
_PRUNE_WORK = 100_000


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
    (d, k, 1) centers give the (k, n) matrix, (d, n) and (d, n) one distance
    per point to its own center.  Each entry is bit-identical to the
    broadcast sum over the coordinate axis.
    """
    sq = np.subtract(points, centers)
    np.square(sq, out=sq)
    return _pairwise_sum(list(sq))


def _up(x):
    """The next float up: above the exact result that ``x`` rounds."""
    return np.nextafter(x, np.inf)


def _down(x):
    """The next float down: below the exact result that ``x`` rounds."""
    return np.nextafter(x, -np.inf)


def _margin(d: int) -> float:
    """rho for d coordinates: far above twice the relative error of a squared distance."""
    return 4 * (d + 4) * 2.0 ** -52


def _dist_above(sq: np.ndarray, rho: float) -> np.ndarray:
    """At least (1 + rho/2) times any distance whose computed square is ``sq``.

    inf where ``sq`` is below ``_SQ_TINY``, inf or NaN.  The slack in rho
    covers the rounding of the square root and of the product.
    """
    return np.where(sq >= _SQ_TINY, np.sqrt(sq) * (1.0 + rho), np.inf)


def _dist_below(sq: np.ndarray, rho: float) -> np.ndarray:
    """At most any distance whose computed square is ``sq``.

    0 where ``sq`` is below ``_SQ_TINY`` or NaN.  An overflowed ``sq`` = inf
    shows only that the distance is at least about sqrt(float max), so the
    bound is clamped there.  The slack in rho covers the rounding.
    """
    return np.where(sq >= _SQ_TINY, np.minimum(np.sqrt(sq), _SQRT_MAX) * (1.0 - rho), 0.0)


def _shift_above(shift: np.ndarray, rho: float) -> np.ndarray:
    """At least (1 + rho/2) times any center shift whose computed length is ``shift``."""
    return np.maximum(_up(shift * (1.0 + rho)), _SHIFT_FLOOR)


def _key(lbk: np.ndarray, ub: np.ndarray, grow: np.ndarray) -> np.ndarray:
    """``lbk - (ub - grow)`` rounded down; NaN, which never lets a point skip, where infinities cancel."""
    with np.errstate(invalid="ignore"):
        return _down(lbk - _up(ub - grow))


def _updated_centers(points: np.ndarray, coords: np.ndarray, labels: np.ndarray,
                     changed: np.ndarray, sizes: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """``centers`` with row j, where ``changed[j]``, set to the mean of the points labelled j.

    ``coords`` is ``points.T`` and ``sizes`` the label counts.  Each new row
    has the bits of ``points[labels == j].mean(axis=0)``, up to the sign of a
    zero (see the module docstring).
    """
    tau, d = centers.shape
    fresh = np.flatnonzero(changed)
    rows = np.flatnonzero(changed[labels])  # in index order
    owner = labels[rows]
    out = centers.copy()
    # mean(axis=0) of d >= 2 float64 or integer columns is a sequential
    # float64 row sum, which bincount reproduces; a single column is summed
    # pairwise, and float16 or float32 in their own precision
    if d >= 2 and (points.dtype == np.float64 or points.dtype.kind in "biu"):
        for j in range(d):
            out[fresh, j] = np.bincount(owner, weights=coords[j, rows],
                                        minlength=tau)[fresh] / sizes[fresh]
        return out
    # A stable sort keeps each cluster's rows in index order; the narrow
    # dtype lets NumPy use its radix sort.
    grouped = points[rows[np.argsort(owner.astype(np.min_scalar_type(tau)), kind="stable")]]
    counts = sizes[fresh]
    for j, s, e in zip(fresh, counts, np.cumsum(counts)):
        out[j] = grouped[e - s:e].mean(axis=0)
    return out


def kmeans_labels(points: np.ndarray, tau: int) -> np.ndarray:
    """Lloyd's algorithm with farthest-first seeding, fully deterministic.

    The first center is the point nearest the grand centroid; each further
    center is the point farthest from its nearest chosen center (ties resolve
    to the lowest index).  Assignment ties resolve to the lowest cluster
    index; a cluster that empties is repaired by handing it the farthest
    member of the currently largest cluster.

    Each iteration skips the distances that cannot change a label (Hamerly's
    bounds, see the module docstring), so the labels are those of computing
    every distance in every iteration.  Bounds are kept only when n * tau * d
    reaches ``_PRUNE_WORK``; below it every iteration computes every
    distance, which costs less than the bookkeeping.  A point's bounds are
    kept as offsets from per-cluster running sums, so moving every bound
    costs O(tau): ``grow[j]`` sums center j's shift bounds and ``shrink[j]``
    the largest shift bound among the other centers, both rounded up.  Point
    i with label a has ``ub`` <= its ub when last set + (``grow[a]`` now -
    then) and ``lb`` >= ``lbk[i] - shrink[a]``; ``key[i] = lbk[i] - (ub -
    grow[a])`` rounded down, so ``grow[a] + shrink[a] < key[i]`` proves
    ``ub < lb``.  A point whose test fails is checked again with its exact
    distance to its own center, and only a point that fails that too gets
    its whole column of distances.  Only clusters whose members changed get
    a new mean: an unchanged cluster's mean would come out with the same
    bits.
    """
    n = len(points)
    if tau == 1:
        return np.zeros(n, dtype=np.int64)

    coords = np.ascontiguousarray(points.T)
    first = int(np.argmin(_sq_dists(coords, points.mean(axis=0)[:, None])))
    seeds = [first]
    seen = [_sq_dists(coords, coords[:, first, None])]
    nearest = seen[0]
    while len(seeds) < tau:
        nxt = int(np.argmax(nearest))
        seeds.append(nxt)
        seen.append(_sq_dists(coords, coords[:, nxt, None]))
        nearest = np.minimum(nearest, seen[-1])
    centers = points[seeds].astype(float).copy()
    # With float64 points the seeding rows are the first iteration's distances.
    seeded = np.stack(seen) if points.dtype == np.float64 else None
    del seen

    rho = _margin(points.shape[1])
    prune = n * tau * points.shape[1] >= _PRUNE_WORK
    labels = np.zeros(n, dtype=np.int64)
    grow = np.zeros(tau)  # summed shift bounds of each center
    shrink = np.zeros(tau)  # summed largest shift bounds of the other centers
    lbk = np.full(n, -np.inf)  # lb + shrink[label] when lb was last set
    key = np.full(n, -np.inf)  # lbk - (ub - grow[label]) when ub was last set
    changed = np.ones(tau, dtype=bool)  # the seeds are no cluster's mean
    full = slice(None)  # every point, unless the bounds rule some out
    for _ in range(KMEANS_MAX_ITER):
        cols = np.ascontiguousarray(centers.T)
        if prune:
            drift = _up(grow + shrink)
            todo = np.flatnonzero(~(drift[labels] < key))
            # a point with lb <= 0 cannot pass on its exact own distance
            hope = todo[lbk[todo] > shrink[labels[todo]]]
            own = labels[hope]
            ub = _dist_above(_sq_dists(coords[:, hope], cols[:, own]), rho)
            key[hope] = _key(lbk[hope], ub, grow[own])
            full = todo[~(drift[labels[todo]] < key[todo])]

        dists = _sq_dists(coords[:, None, full], cols[:, :, None]) if seeded is None else seeded
        seeded = None
        low = dists.min(axis=0)
        # the first index at the minimum is argmin's tie rule; a NaN is the
        # minimum of its column but equals nothing, so argmin takes over
        if np.isnan(low).any():
            near = np.argmin(dists, axis=0)
        else:
            near = (dists == low).argmax(axis=0)
        if prune:
            ub = _dist_above(low, rho)
            dists[near, np.arange(len(near))] = np.inf
            lbk[full] = _down(_dist_below(dists.min(axis=0), rho) + shrink[near])
            key[full] = _key(lbk[full], ub, grow[near])
        old = labels[full]
        moved = near != old
        changed[old[moved]] = True
        changed[near[moved]] = True
        labels[full] = near

        sizes = np.bincount(labels, minlength=tau)
        for j in range(tau):
            if sizes[j] == 0:
                big = int(np.argmax(sizes))
                members = np.flatnonzero(labels == big)
                far = members[int(np.argmax(_sq_dists(coords[:, members], cols[:, big, None])))]
                labels[far] = j
                lbk[far] = key[far] = -np.inf
                changed[[big, j]] = True
                sizes[big] -= 1
                sizes[j] += 1

        new_centers = _updated_centers(points, coords, labels, changed, sizes, centers)
        changed[:] = False
        shift = np.sqrt(((new_centers - centers) ** 2).sum(axis=1))
        centers = new_centers
        if shift.max() <= KMEANS_TOL:
            break
        if prune:
            step = _shift_above(shift, rho)
            top = int(np.argmax(step))
            others = np.full(tau, step[top])  # largest step of the other centers
            others[top] = np.max(step, where=np.arange(tau) != top, initial=-np.inf)
            grow = _up(grow + step)
            shrink = _up(shrink + others)
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
    if method not in ("single", "complete"):
        raise ValueError(f"unknown linkage {method!r}")
    n = len(points)
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
