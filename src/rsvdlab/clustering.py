"""Row clustering for spectral embeddings: K-means and K-medians.

Both use the same ++-style seeding from a caller-supplied stream and are
fully deterministic given that stream.  K-medians alternates nearest-
center assignment with per-cluster geometric medians computed by
Weiszfeld iteration.
"""

import numpy as np

from .rng import RngStream


class DegenerateClusteringError(RuntimeError):
    """All restarts produced an empty cluster."""


_MAX_RESTARTS = 5
_MAX_SWEEPS = 300
_WEISZFELD_TOL = 1e-9
_WEISZFELD_CAP = 200


def _plus_plus_seed(x, n_clusters, gen):
    """k-means++ seeding: centers drawn with probability proportional to
    squared distance from the chosen set."""
    n = x.shape[0]
    centers = np.empty((n_clusters, x.shape[1]))
    first = int(gen.integers(0, n))
    centers[0] = x[first]
    dist2 = np.sum((x - centers[0]) ** 2, axis=1)
    for c in range(1, n_clusters):
        total = float(np.sum(dist2))
        if total <= 0.0:
            # all points coincide with a chosen center; pick uniformly
            idx = int(gen.integers(0, n))
        else:
            r = gen.random() * total
            idx = int(np.searchsorted(np.cumsum(dist2), r, side="right"))
            idx = min(idx, n - 1)
        centers[c] = x[idx]
        dist2 = np.minimum(dist2, np.sum((x - centers[c]) ** 2, axis=1))
    return centers


def _assign(x, centers):
    d2 = (
        np.sum(x * x, axis=1)[:, None]
        - 2.0 * (x @ centers.T)
        + np.sum(centers * centers, axis=1)[None, :]
    )
    return np.argmin(d2, axis=1)


def geometric_median(points):
    """Weiszfeld iteration for the point minimizing summed Euclidean
    distances; iterates landing on a data point stay there."""
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2 or points.shape[0] == 0:
        raise ValueError("need a nonempty 2-d point set")
    y = points.mean(axis=0)
    scale = max(float(np.max(np.abs(points))), 1e-300)
    for _ in range(_WEISZFELD_CAP):
        diff = points - y
        dist = np.sqrt(np.sum(diff * diff, axis=1))
        if np.any(dist < 1e-14 * scale):
            return points[int(np.argmin(dist))].copy()
        w = 1.0 / dist
        y_new = (points * w[:, None]).sum(axis=0) / np.sum(w)
        if np.linalg.norm(y_new - y) <= _WEISZFELD_TOL * scale:
            return y_new
        y = y_new
    return y


def _lloyd(x, centers, update):
    labels = _assign(x, centers)
    for _ in range(_MAX_SWEEPS):
        new_centers = np.empty_like(centers)
        for c in range(centers.shape[0]):
            members = x[labels == c]
            if members.shape[0] == 0:
                return None  # empty cluster: caller restarts
            new_centers[c] = update(members)
        new_labels = _assign(x, new_centers)
        centers = new_centers
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
    return labels, centers


def check_clustering(n_rows, n_clusters, method):
    """The arguments cluster_rows accepts."""
    if not 1 <= n_clusters <= n_rows:
        raise ValueError("need 1 <= n_clusters <= number of rows")
    if method not in ("kmeans", "kmedians"):
        raise ValueError(f"method must be 'kmeans' or 'kmedians', got {method!r}")


def cluster_rows(x, n_clusters, stream: RngStream, method="kmeans"):
    """Cluster the rows of ``x`` into ``n_clusters`` groups.

    method: "kmeans" (Lloyd, mean centers) or "kmedians" (geometric-median
    centers).  Restarts with a derived stream when a cluster empties, up
    to 5 times.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError("x must be 2-d")
    check_clustering(x.shape[0], n_clusters, method)
    update = geometric_median if method == "kmedians" else lambda pts: pts.mean(axis=0)

    for attempt in range(_MAX_RESTARTS):
        gen = stream.child("cluster-restart", attempt).generator()
        centers = _plus_plus_seed(x, n_clusters, gen)
        result = _lloyd(x, centers, update)
        if result is not None:
            return result[0]
    raise DegenerateClusteringError(
        f"clustering left an empty cluster in all {_MAX_RESTARTS} restarts"
    )
