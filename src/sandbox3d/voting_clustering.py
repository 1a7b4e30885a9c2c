"""Multi-view consensus voting, density clustering, and oriented-box fitting.

A proxy point is reliable when enough *other* views independently place a
point of the same category nearby: point p from view v0 survives when at
least n_agree distinct views v != v0 contain a point p' with ||p' - p|| < delta
(strictly). Surviving points are split into instances with DBSCAN and each
cluster becomes an oriented box via PCA on the mean-centered covariance.

DBSCAN here has pinned labels so results are reproducible and checkable
against a brute-force reference. A core point has at least min_pts neighbors
within eps inclusive, counting itself. Clusters are the connected components
of the graph linking core points within eps of each other, numbered in order
of their smallest core index. A non-core point within eps of some core point
joins the lowest-numbered cluster among those cores; every other point is
noise (-1). These are the labels of the classic visit-in-index-order,
breadth-first expansion in which a border point joins the first cluster to
reach it.

scipy is imported inside the three functions that use it
(`filter_by_consensus`, `remove_knn_outliers`, `dbscan`), never at module
level. It loads the first time a run votes, filters or clusters, and not at
all in a process that does none of these (the baseline modes, `synth`,
`render`): its import roughly doubles the package's import time and memory.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import EmptySandboxError
from .scene_model import (
    CameraIntrinsics,
    CameraPose,
    OrientedBox3,
    ProxyCloud,
    SandboxScene,
    merge_clouds,
)


@dataclass(frozen=True)
class ConsensusParams:
    delta: float = 0.10  # agreement radius in meters, strict inequality
    n_agree: int = 2  # distinct other views required

    def __post_init__(self):
        if self.delta <= 0:
            raise ValueError("delta must be positive")
        if self.n_agree < 1:
            raise ValueError("n_agree must be at least 1")


@dataclass(frozen=True)
class ClusterParams:
    eps: float = 0.15
    min_pts: int = 5
    min_cluster_size: int = 8
    min_extent: float = 0.01

    def __post_init__(self):
        for name in ("eps", "min_pts", "min_cluster_size", "min_extent"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")


def filter_by_consensus(
    clouds: Sequence[ProxyCloud], params: ConsensusParams
) -> ProxyCloud:
    """Keep points agreed on by at least n_agree distinct other views.

    All input clouds must belong to one object category; agreement is counted
    per distinct (trajectory, step) view id, the point's own view excluded.
    """
    from scipy.spatial import cKDTree

    merged = merge_clouds(clouds)
    if len(merged) == 0:
        return merged
    view_index = _view_index(merged.view_ids)

    # One k=1 query per view, asked by every point of the other views: the
    # point's distance to that view's nearest point decides its vote.
    votes = np.zeros(len(merged), dtype=np.int64)
    for i in range(int(view_index.max()) + 1):
        own = view_index == i
        other = ~own
        dist, _ = cKDTree(merged.xyz[own]).query(merged.xyz[other], k=1)
        votes[other] += dist < params.delta
    keep = votes >= params.n_agree
    return ProxyCloud(
        merged.xyz[keep],
        merged.object_ids[keep],
        _kept_views(merged.view_ids, keep),
    )


def _kept_views(view_ids: tuple, keep: np.ndarray) -> tuple:
    return tuple(map(view_ids.__getitem__, np.flatnonzero(keep).tolist()))


def _view_index(view_ids: tuple) -> np.ndarray:
    """Index of each point's view among the distinct views, in first-seen order.

    Points of one view come in runs of the same ViewId object, so the views
    are looked up once per run, not once per point.
    """
    n = len(view_ids)
    starts = np.flatnonzero(
        np.fromiter(map(operator.is_not, view_ids[1:], view_ids[:-1]), dtype=bool, count=n - 1)
    ) + 1
    starts = np.concatenate([[0], starts])
    pos: dict = {}
    run_index = [pos.setdefault(view_ids[s], len(pos)) for s in starts.tolist()]
    return np.repeat(run_index, np.diff(starts, append=n))


def remove_knn_outliers(cloud: ProxyCloud, k: int = 8, std_ratio: float = 2.0) -> ProxyCloud:
    """Optional statistical filter: drop points whose mean k-NN distance is
    more than std_ratio standard deviations above the population mean."""
    from scipy.spatial import cKDTree

    n = len(cloud)
    if n <= k:
        return cloud
    tree = cKDTree(cloud.xyz)
    dist, _ = tree.query(cloud.xyz, k=k + 1)  # first neighbor is the point itself
    mean_d = dist[:, 1:].mean(axis=1)
    keep = mean_d <= mean_d.mean() + std_ratio * mean_d.std()
    return ProxyCloud(
        cloud.xyz[keep],
        cloud.object_ids[keep],
        _kept_views(cloud.view_ids, keep),
    )


def dbscan(points: np.ndarray, eps: float, min_pts: int) -> np.ndarray:
    """Deterministic DBSCAN; returns per-point cluster labels, -1 for noise."""
    from scipy.sparse import coo_matrix
    from scipy.sparse.csgraph import connected_components
    from scipy.spatial import cKDTree

    pts = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    n = len(pts)
    labels = np.full(n, -1, dtype=np.int64)
    if n == 0:
        return labels
    pairs = cKDTree(pts).query_pairs(eps, output_type="ndarray")  # i < j, d <= eps
    a, b = pairs[:, 0], pairs[:, 1]
    core = np.bincount(pairs.ravel(), minlength=n) + 1 >= min_pts  # +1: the point itself

    # Clusters are the connected components of the core-core graph, numbered
    # by their smallest core index.
    link = core[a] & core[b]
    ones = np.ones(int(link.sum()), dtype=np.int8)
    graph = coo_matrix((ones, (a[link], b[link])), shape=(n, n))
    _, component = connected_components(graph, directed=False)
    _, first, inverse = np.unique(component[core], return_index=True, return_inverse=True)
    rank = np.empty(len(first), dtype=np.int64)
    rank[np.argsort(first)] = np.arange(len(first))
    labels[core] = rank[inverse]

    # A border point joins the lowest-numbered cluster among its core
    # neighbours; n stands for "no core neighbour".
    border = np.full(n, n, dtype=np.int64)
    for src, dst in ((a, b), (b, a)):
        adopt = core[src] & ~core[dst]
        np.minimum.at(border, dst[adopt], labels[src[adopt]])
    reached = border < n
    labels[reached] = border[reached]
    return labels


def _eigh3(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cyclic Jacobi eigendecomposition of a symmetric 3x3 matrix.

    Returns (eigenvalues, eigenvector columns), unsorted. Chosen over a LAPACK
    call so axis orientation is reproducible across platforms.
    """
    a = np.array(m, dtype=np.float64, copy=True)
    v = np.eye(3)
    scale = max(1.0, float(np.max(np.abs(a))))
    for _ in range(64):
        off = math.sqrt(a[0, 1] ** 2 + a[0, 2] ** 2 + a[1, 2] ** 2)
        if off <= 1e-15 * scale:
            break
        for p, q in ((0, 1), (0, 2), (1, 2)):
            apq = a[p, q]
            if abs(apq) <= 1e-18 * scale:
                continue
            theta = (a[q, q] - a[p, p]) / (2.0 * apq)
            t = math.copysign(1.0, theta) / (abs(theta) + math.sqrt(theta * theta + 1.0))
            c = 1.0 / math.sqrt(t * t + 1.0)
            s = t * c
            rot = np.eye(3)
            rot[p, p] = rot[q, q] = c
            rot[p, q] = s
            rot[q, p] = -s
            a = rot.T @ a @ rot
            v = v @ rot
    return np.diag(a).copy(), v


def fit_obb(
    points: np.ndarray,
    label: str,
    instance_id: int,
    min_extent: float = 0.01,
) -> OrientedBox3:
    """PCA-fit an oriented box around a cluster.

    Axes are covariance eigenvectors sorted by descending eigenvalue. Each
    axis is sign-fixed so its largest-magnitude component is positive (first
    such component on ties); if the resulting frame is left-handed the third
    axis is flipped. Half extents are half the min/max spread per axis,
    floored at min_extent, and the center is the PCA-frame midpoint mapped
    back to world coordinates.
    """
    pts = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    if len(pts) == 0:
        raise ValueError("cannot fit a box to zero points")
    mu = pts.mean(axis=0)
    centered = pts - mu
    cov = centered.T @ centered / len(pts)
    w, vec = _eigh3(cov)
    order = np.argsort(-w, kind="stable")
    axes = vec[:, order]
    for a in range(3):
        col = axes[:, a]
        lead = int(np.argmax(np.abs(col)))
        if col[lead] < 0:
            axes[:, a] = -col
    if np.linalg.det(axes) < 0:
        axes[:, 2] = -axes[:, 2]

    proj = centered @ axes
    lo = proj.min(axis=0)
    hi = proj.max(axis=0)
    half = np.maximum((hi - lo) / 2.0, min_extent)
    center = mu + axes @ ((hi + lo) / 2.0)
    return OrientedBox3(center, axes, half, label, instance_id)


def build_sandbox(
    clouds_by_label: Mapping[str, Sequence[ProxyCloud]],
    consensus: ConsensusParams,
    cluster: ClusterParams,
    origin_pose: CameraPose,
    origin_intrinsics: CameraIntrinsics,
    up_axis=(0.0, -1.0, 0.0),
    outlier_filter: bool = False,
) -> SandboxScene:
    """Fuse per-view, per-category proxy clouds into a box scene.

    Per category: consensus filter, then the box stage of `fit_sandbox`.
    Raises EmptySandboxError when no box survives.
    """
    kept_by_label = {
        label: filter_by_consensus(clouds, consensus) for label, clouds in clouds_by_label.items()
    }
    return fit_sandbox(
        kept_by_label, cluster, origin_pose, origin_intrinsics, up_axis, outlier_filter
    )


def fit_sandbox(
    kept_by_label: Mapping[str, ProxyCloud],
    cluster: ClusterParams,
    origin_pose: CameraPose,
    origin_intrinsics: CameraIntrinsics,
    up_axis=(0.0, -1.0, 0.0),
    outlier_filter: bool = False,
) -> SandboxScene:
    """Box stage over consensus-filtered clouds, one per category.

    Per category: the optional k-NN outlier filter, DBSCAN, drop clusters
    smaller than min_cluster_size, PCA-fit the rest. Instance ids are assigned in (category, cluster size
    descending, centroid lexicographic) order. Raises EmptySandboxError
    when no box survives.
    """
    candidates = []
    for label in sorted(kept_by_label):
        kept = kept_by_label[label]
        if outlier_filter:
            kept = remove_knn_outliers(kept)
        if len(kept) == 0:
            continue
        labels = dbscan(kept.xyz, cluster.eps, cluster.min_pts)
        for cid in range(int(labels.max()) + 1 if labels.size else 0):
            member = kept.xyz[labels == cid]
            if len(member) < cluster.min_cluster_size:
                continue
            centroid = member.mean(axis=0)
            candidates.append((label, -len(member), tuple(centroid), member))

    if not candidates:
        raise EmptySandboxError("no cluster survived consensus voting")
    candidates.sort(key=lambda c: (c[0], c[1], c[2]))
    boxes = tuple(
        fit_obb(member, label, idx, cluster.min_extent)
        for idx, (label, _, _, member) in enumerate(candidates)
    )
    return SandboxScene(boxes, origin_pose, origin_intrinsics, np.asarray(up_axis, dtype=np.float64))
