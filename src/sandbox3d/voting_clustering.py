"""Multi-view consensus voting, density clustering, and oriented-box fitting.

A proxy point is reliable when enough *other* views independently place a
point of the same category nearby: point p from view v0 survives when at
least n_agree distinct views v != v0 contain a point p' with ||p' - p|| < delta
(strictly). Surviving points are split into instances with DBSCAN and each
cluster becomes an oriented box via PCA on the mean-centered covariance.

DBSCAN here has pinned iteration semantics so results are reproducible and
checkable against a brute-force reference: points are visited in ascending
index order, cluster ids are assigned in discovery order, neighbor lists are
ascending, expansion is breadth-first, and border points join the cluster
that reaches them first. A core point has at least min_pts neighbors within
eps inclusive, counting itself.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np
from scipy.spatial import cKDTree

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


def agree(p: np.ndarray, view_points: np.ndarray, delta: float) -> bool:
    """True when some point of the other view lies strictly within delta of p."""
    pts = np.asarray(view_points, dtype=np.float64).reshape(-1, 3)
    if len(pts) == 0:
        return False
    d2 = np.sum((pts - np.asarray(p, dtype=np.float64)) ** 2, axis=1)
    return bool(d2.min() < delta * delta)


def filter_by_consensus(
    clouds: Sequence[ProxyCloud], params: ConsensusParams
) -> ProxyCloud:
    """Keep points agreed on by at least n_agree distinct other views.

    All input clouds must belong to one object category; agreement is counted
    per distinct (trajectory, step) view id, the point's own view excluded.
    """
    merged = merge_clouds(clouds)
    if len(merged) == 0:
        return merged
    uniq = list(dict.fromkeys(merged.view_ids))  # stable order
    pos = {v: i for i, v in enumerate(uniq)}
    view_index = np.array([pos[v] for v in merged.view_ids])
    by_view = {v: np.flatnonzero(view_index == pos[v]) for v in uniq}
    trees = {v: cKDTree(merged.xyz[idx]) for v, idx in by_view.items()}

    votes = np.zeros(len(merged), dtype=np.int64)
    for v0, idx0 in by_view.items():
        pts0 = merged.xyz[idx0]
        for v, tree in trees.items():
            if v == v0:
                continue
            dist, _ = tree.query(pts0, k=1)
            votes[idx0] += dist < params.delta
    keep = votes >= params.n_agree
    return ProxyCloud(
        merged.xyz[keep],
        merged.object_ids[keep],
        tuple(v for v, k in zip(merged.view_ids, keep) if k),
    )


def remove_knn_outliers(cloud: ProxyCloud, k: int = 8, std_ratio: float = 2.0) -> ProxyCloud:
    """Optional statistical filter: drop points whose mean k-NN distance is
    more than std_ratio standard deviations above the population mean."""
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
        tuple(v for v, kf in zip(cloud.view_ids, keep) if kf),
    )


def dbscan(points: np.ndarray, eps: float, min_pts: int) -> np.ndarray:
    """Deterministic DBSCAN; returns per-point cluster labels, -1 for noise."""
    pts = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    n = len(pts)
    labels = np.full(n, -2, dtype=np.int64)  # -2 marks unvisited
    if n == 0:
        return labels
    tree = cKDTree(pts)
    neighbors = tree.query_ball_point(pts, r=eps, return_sorted=True)

    # A point is labelled when it is enqueued, so it enters the queue at most
    # once, where breadth-first order first reaches it. A point labelled -1
    # earlier is a non-core border: adopted, never expanded.
    cluster = 0
    for i in range(n):
        if labels[i] != -2:
            continue
        if len(neighbors[i]) < min_pts:
            labels[i] = -1
            continue
        labels[i] = cluster
        queue = deque([i])
        while queue:
            j = queue.popleft()
            if len(neighbors[j]) < min_pts:
                continue
            nb = np.asarray(neighbors[j], dtype=np.intp)
            fresh = nb[labels[nb] < 0]  # unvisited or noise: not queued yet
            labels[fresh] = cluster
            queue.extend(fresh.tolist())
        cluster += 1
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
