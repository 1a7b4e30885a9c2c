from __future__ import annotations

import numpy as np
import pytest

from sandbox3d import EmptySandboxError
from sandbox3d.scene_model import (
    CameraIntrinsics,
    CameraPose,
    ProxyCloud,
    ViewId,
    merge_clouds,
    rotation_about_axis,
)
from sandbox3d.voting_clustering import (
    ClusterParams,
    ConsensusParams,
    build_sandbox,
    dbscan,
    filter_by_consensus,
    fit_obb,
    remove_knn_outliers,
)

V0, V1, V2 = ViewId(0, 0), ViewId(0, 1), ViewId(1, 0)


def _cloud(pts, view, object_id=0):
    return ProxyCloud.single_view(np.asarray(pts, dtype=np.float64), object_id, view)


def agree(p: np.ndarray, view_points: np.ndarray, delta: float) -> bool:
    """True when some point of the other view lies strictly within delta of p."""
    pts = np.asarray(view_points, dtype=np.float64).reshape(-1, 3)
    if len(pts) == 0:
        return False
    d2 = np.sum((pts - np.asarray(p, dtype=np.float64)) ** 2, axis=1)
    return bool(d2.min() < delta * delta)


def test_agree_strict_inequality():
    p = np.zeros(3)
    assert agree(p, np.array([[0.05, 0.0, 0.0]]), 0.10)
    # exactly delta away does not count
    assert not agree(p, np.array([[0.10, 0.0, 0.0]]), 0.10)
    assert not agree(p, np.zeros((0, 3)), 0.10)


def test_consensus_identical_point_three_views_kept():
    pts = [[1.0, 2.0, 3.0]]
    kept = filter_by_consensus(
        [_cloud(pts, V0), _cloud(pts, V1), _cloud(pts, V2)],
        ConsensusParams(delta=0.10, n_agree=2),
    )
    assert len(kept) == 3


def test_consensus_single_view_point_dropped():
    kept = filter_by_consensus(
        [_cloud([[1.0, 2.0, 3.0]], V0)], ConsensusParams(delta=0.10, n_agree=2)
    )
    assert len(kept) == 0


def test_consensus_excludes_own_view():
    # two coincident points in the same view do not vouch for each other
    pts = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 1.0]])
    kept = filter_by_consensus(
        [_cloud(pts, V0)], ConsensusParams(delta=0.10, n_agree=1)
    )
    assert len(kept) == 0


def test_consensus_counts_distinct_views_not_points():
    # five nearby points in ONE other view still count as a single vote
    center = _cloud([[0.0, 0.0, 1.0]], V0)
    other = _cloud([[0.001 * i, 0.0, 1.0] for i in range(1, 6)], V1)
    kept = filter_by_consensus([center, other], ConsensusParams(delta=0.10, n_agree=2))
    assert len(kept) == 0
    kept = filter_by_consensus([center, other], ConsensusParams(delta=0.10, n_agree=1))
    assert len(kept) == 6


def test_consensus_output_subset_and_monotone():
    rng = np.random.default_rng(5)
    clouds = [
        _cloud(rng.uniform(-0.2, 0.2, size=(30, 3)), v) for v in (V0, V1, V2)
    ]
    as_set = lambda c: {row.tobytes() for row in c.xyz}
    all_pts = set().union(*[as_set(c) for c in clouds])
    base = filter_by_consensus(clouds, ConsensusParams(delta=0.10, n_agree=2))
    assert as_set(base) <= all_pts
    # tighter delta and higher n_agree can only shrink the output
    tighter = filter_by_consensus(clouds, ConsensusParams(delta=0.05, n_agree=2))
    stricter = filter_by_consensus(clouds, ConsensusParams(delta=0.10, n_agree=3))
    assert as_set(tighter) <= as_set(base)
    assert as_set(stricter) <= as_set(base)


def test_consensus_boundary_distance_excluded():
    # neighbor at exactly delta in two views: strict < drops the point
    a = _cloud([[0.0, 0.0, 1.0]], V0)
    b = _cloud([[0.10, 0.0, 1.0]], V1)
    c = _cloud([[0.0, 0.10, 1.0]], V2)
    kept = filter_by_consensus([a, b, c], ConsensusParams(delta=0.10, n_agree=2))
    assert len(kept) == 0
    # nudging delta past the boundary keeps point a (b and c, 0.141 apart
    # from each other, still have only one strict neighbor each)
    kept = filter_by_consensus([a, b, c], ConsensusParams(delta=0.1000001, n_agree=2))
    assert len(kept) == 1
    np.testing.assert_allclose(kept.xyz[0], [0.0, 0.0, 1.0])


def _consensus_reference(clouds, params):
    """Per point, count the other views that `agree` with it."""
    merged = merge_clouds(clouds)
    views = list(dict.fromkeys(merged.view_ids))
    of_view = {v: merged.xyz[[w == v for w in merged.view_ids]] for v in views}
    keep = [
        sum(agree(p, of_view[v], params.delta) for v in views if v != v0) >= params.n_agree
        for p, v0 in zip(merged.xyz, merged.view_ids)
    ]
    return merged, np.array(keep, dtype=bool)


def _consensus_case(rng):
    # grid points give duplicates and distances of exactly delta; view ids
    # repeat across clouds; clouds may be empty and may all share one view
    n_clouds = int(rng.integers(0, 9))
    view_pool = [ViewId(-1, -1), V0, V1, V2][: int(rng.choice([1, 2, 3, 4, 4]))]
    on_grid = rng.random() < 0.5
    clouds = []
    for _ in range(n_clouds):
        m = int(rng.integers(0, 15))
        if on_grid:
            pts = rng.integers(0, 4, size=(m, 3)) * 0.25
        else:
            pts = rng.uniform(0.0, 0.6, size=(m, 3))
        view = view_pool[int(rng.integers(len(view_pool)))]
        clouds.append(_cloud(pts, view, object_id=int(rng.integers(3))))
    delta = float(rng.choice([0.25, 0.5])) if on_grid else float(rng.uniform(0.05, 0.4))
    n_agree = int(rng.integers(1, max(2, len(view_pool))))
    return clouds, ConsensusParams(delta=delta, n_agree=n_agree)


def test_consensus_matches_brute_force_oracle():
    rng = np.random.default_rng(2024)
    kept_any = 0
    for _ in range(200):
        clouds, params = _consensus_case(rng)
        merged, keep = _consensus_reference(clouds, params)
        kept = filter_by_consensus(clouds, params)
        np.testing.assert_array_equal(kept.xyz, merged.xyz[keep])
        np.testing.assert_array_equal(kept.object_ids, merged.object_ids[keep])
        assert kept.view_ids == tuple(v for v, k in zip(merged.view_ids, keep) if k)
        kept_any += bool(keep.any())
    assert 20 <= kept_any <= 180  # the cases keep some points and drop others


def test_remove_knn_outliers():
    rng = np.random.default_rng(9)
    tight = rng.normal(0.0, 0.01, size=(40, 3))
    far = np.array([[5.0, 5.0, 5.0]])
    cloud = _cloud(np.vstack([tight, far]), V0)
    kept = remove_knn_outliers(cloud, k=8, std_ratio=2.0)
    assert len(kept) == 40
    assert not any(np.allclose(p, [5.0, 5.0, 5.0]) for p in kept.xyz)
    # tiny clouds pass through untouched
    small = _cloud(np.zeros((3, 3)), V0)
    assert remove_knn_outliers(small, k=8) is small


def test_dbscan_two_blobs_two_clusters():
    rng = np.random.default_rng(1)
    eps = 0.15
    a = rng.normal(0.0, 0.02, size=(20, 3))
    b = rng.normal(0.0, 0.02, size=(20, 3)) + [10 * eps, 0.0, 0.0]
    labels = dbscan(np.vstack([a, b]), eps=eps, min_pts=5)
    assert set(labels) == {0, 1}
    assert (labels == -1).sum() == 0
    # discovery order: the first point belongs to cluster 0
    assert labels[0] == 0 and labels[20] == 1


def test_dbscan_chain_links_into_one_cluster():
    # points spaced eps/2 apart chain into a single cluster at min_pts=2
    eps = 0.2
    pts = np.array([[i * eps / 2.0, 0.0, 0.0] for i in range(12)])
    labels = dbscan(pts, eps=eps, min_pts=2)
    assert set(labels) == {0}


def test_dbscan_isolated_points_are_noise():
    pts = np.array([[0.0, 0.0, 0.0], [10.0, 0.0, 0.0], [20.0, 0.0, 0.0]])
    labels = dbscan(pts, eps=0.5, min_pts=2)
    assert list(labels) == [-1, -1, -1]


def test_dbscan_border_point_adopted_by_first_cluster():
    # the middle point is within eps of one core on each side but has only 3
    # neighbors itself (min_pts is 4), so it is a border point; the cluster
    # discovered first adopts it and the second cluster cannot steal it
    xs = [0.0, 0.08, 0.16, 0.24, 0.5, 0.76, 0.84, 0.92, 1.0]
    pts = np.array([[x, 0.0, 0.0] for x in xs])
    labels = dbscan(pts, eps=0.26, min_pts=4)
    assert labels[4] == 0
    assert set(labels[:4]) == {0} and set(labels[5:]) == {1}


def _dbscan_reference(pts, eps, min_pts):
    """Dense O(n^2) rule: components of core points numbered by their lowest
    index, each border point in the lowest-numbered adjacent cluster."""
    diff = pts[:, None, :] - pts[None, :, :]
    adj = (diff * diff).sum(axis=2) <= eps * eps  # inclusive, self-adjacent
    core = adj.sum(axis=1) >= min_pts
    labels = np.full(len(pts), -1, dtype=np.int64)
    cluster = 0
    for i in np.flatnonzero(core):
        if labels[i] != -1:
            continue
        labels[i] = cluster
        stack = [i]
        while stack:
            j = stack.pop()
            for k in np.flatnonzero(adj[j] & core & (labels == -1)):
                labels[k] = cluster
                stack.append(k)
        cluster += 1
    for i in np.flatnonzero(~core):
        near = np.flatnonzero(adj[i] & core)
        if len(near):
            labels[i] = labels[near].min()
    return labels


def _dense_blob_case():
    # about the per-category cloud size of one full-mode question, where
    # re-enqueueing every neighbour of every core point was quadratic
    rng = np.random.default_rng(11)
    blob = rng.uniform(-0.3, 0.3, size=(1500, 3))
    strays = rng.uniform(-1.5, 1.5, size=(30, 3))
    return np.concatenate([strays[:15], blob, strays[15:]]), 0.25, 5, None


def _shared_border_case():
    # index 0 lies within eps of a core point of each cluster but is no core
    # itself; it is visited first (noise), then adopted by cluster 0, which
    # is the cluster on the right because its points come first
    right = [[x, 0.0, 0.0] for x in (0.76, 0.84, 0.92, 1.0)]
    left = [[x, 0.0, 0.0] for x in (0.0, 0.08, 0.16, 0.24)]
    pts = np.array([[0.5, 0.0, 0.0], *right, *left])
    return pts, 0.27, 4, [0, 0, 0, 0, 0, 1, 1, 1, 1]


def _grid_ties_case():
    # a 0.25 grid with eps one cell: axis neighbours sit at exactly eps and
    # many points coincide; about 20 clusters with border and noise points
    rng = np.random.default_rng(7)
    return rng.integers(0, 10, size=(400, 3)) * 0.25, 0.25, 4, None


def _min_pts_one_case():
    # every point is core, so clusters are the eps-graph's components
    rng = np.random.default_rng(13)
    return rng.uniform(-1.0, 1.0, size=(200, 3)), 0.2, 1, None


def _empty_case():
    return np.zeros((0, 3)), 0.25, 5, []


def _single_point_case():
    return np.array([[0.5, -0.5, 2.0]]), 0.25, 1, [0]


@pytest.mark.parametrize(
    "case",
    [
        _dense_blob_case,
        _shared_border_case,
        _grid_ties_case,
        _min_pts_one_case,
        _empty_case,
        _single_point_case,
    ],
)
def test_dbscan_matches_dense_reference(case):
    pts, eps, min_pts, expected = case()
    labels = dbscan(pts, eps, min_pts)
    np.testing.assert_array_equal(labels, _dbscan_reference(pts, eps, min_pts))
    if len(pts):
        assert (labels == 0).sum() >= min_pts  # the case is not all noise
    if expected is not None:
        assert list(labels) == expected


def test_dbscan_eps_inclusive_min_pts_counts_self():
    # two points exactly eps apart are neighbors; min_pts=2 makes both core
    pts = np.array([[0.0, 0.0, 0.0], [0.3, 0.0, 0.0]])
    labels = dbscan(pts, eps=0.3, min_pts=2)
    assert list(labels) == [0, 0]
    labels = dbscan(pts, eps=0.3, min_pts=3)
    assert list(labels) == [-1, -1]


def test_dbscan_rerun_identical():
    rng = np.random.default_rng(3)
    pts = rng.uniform(-1, 1, size=(200, 3))
    a = dbscan(pts, eps=0.3, min_pts=4)
    b = dbscan(pts, eps=0.3, min_pts=4)
    assert a.tobytes() == b.tobytes()


def _cube_surface_grid(sizes=(1.0, 1.0, 1.0), m=21):
    hx, hy, hz = np.asarray(sizes) / 2.0
    xs, ys, zs = (np.linspace(-h, h, m) for h in (hx, hy, hz))
    faces = []
    for sign in (1.0, -1.0):
        gy, gz = np.meshgrid(ys, zs, indexing="ij")
        faces.append(np.stack([np.full(gy.size, sign * hx), gy.ravel(), gz.ravel()], axis=1))
        gx, gz = np.meshgrid(xs, zs, indexing="ij")
        faces.append(np.stack([gx.ravel(), np.full(gx.size, sign * hy), gz.ravel()], axis=1))
        gx, gy = np.meshgrid(xs, ys, indexing="ij")
        faces.append(np.stack([gx.ravel(), gy.ravel(), np.full(gx.size, sign * hz)], axis=1))
    return np.concatenate(faces)


def test_fit_obb_axis_aligned_box():
    # distinct extents make the principal axes unambiguous
    pts = _cube_surface_grid((2.0, 1.0, 0.5)) + [1.0, -2.0, 3.0]
    box = fit_obb(pts, "box", 0)
    np.testing.assert_allclose(box.center, [1.0, -2.0, 3.0], atol=1e-9)
    np.testing.assert_allclose(np.abs(box.axes), np.eye(3), atol=1e-9)
    np.testing.assert_allclose(box.half_extents, [1.0, 0.5, 0.25], atol=1e-9)


def test_fit_obb_sign_convention_positive_leads():
    pts = _cube_surface_grid((2.0, 1.0, 0.5))
    box = fit_obb(pts, "box", 0)
    # each axis has its largest-magnitude component positive
    for a in range(3):
        col = box.axes[:, a]
        assert col[np.argmax(np.abs(col))] > 0
    assert np.linalg.det(box.axes) > 0


def test_fit_obb_collinear_points_use_min_extent():
    pts = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [2.0, 0.0, 0.0]])
    box = fit_obb(pts, "box", 0, min_extent=0.01)
    np.testing.assert_allclose(box.center, [1.0, 0.0, 0.0], atol=1e-12)
    assert box.half_extents[0] == pytest.approx(1.0)
    # degenerate axes floor at min_extent exactly
    assert box.half_extents[1] == 0.01
    assert box.half_extents[2] == 0.01


def test_fit_obb_containment():
    rng = np.random.default_rng(12)
    for _ in range(20):
        pts = rng.normal(size=(30, 3)) * [2.0, 1.0, 0.4]
        box = fit_obb(pts, "box", 0)
        local = (pts - box.center) @ box.axes
        assert np.all(np.abs(local) <= box.half_extents + 1e-9)


def test_fit_obb_rotated_box_recovers_axes():
    rot = rotation_about_axis((0.0, 1.0, 0.0), 30.0)
    pts = _cube_surface_grid((2.0, 1.0, 0.5)) @ rot.T
    box = fit_obb(pts, "box", 0)
    for a in range(3):
        dot = abs(float(box.axes[:, a] @ rot[:, a]))
        assert dot > np.cos(np.radians(0.01))
    np.testing.assert_allclose(box.half_extents, [1.0, 0.5, 0.25], atol=1e-9)


def test_fit_obb_rejects_empty():
    with pytest.raises(ValueError):
        fit_obb(np.zeros((0, 3)), "box", 0)


_K = CameraIntrinsics(100.0, 100.0, 64.0, 64.0, 128, 128)
_POSE = CameraPose.identity()


def _multi_view_box_clouds(center, sizes, views, n=60, seed=0, object_id=0):
    # same box surface independently sampled in every view
    rng = np.random.default_rng(seed)
    clouds = []
    h = np.asarray(sizes) / 2.0
    for view in views:
        face = rng.integers(0, 6, size=n)
        pts = rng.uniform(-1.0, 1.0, size=(n, 3)) * h
        pts[np.arange(n), face // 2] = np.where(face % 2 == 0, 1.0, -1.0) * h[face // 2]
        clouds.append(ProxyCloud.single_view(pts + center, object_id, view))
    return clouds


def test_build_sandbox_three_categories_three_boxes():
    views = (V0, V1, V2)
    by_label = {
        "box": _multi_view_box_clouds([0.0, 0.0, 2.0], [0.4, 0.4, 0.4], views, seed=1),
        "chair": _multi_view_box_clouds([2.0, 0.0, 2.0], [0.4, 0.4, 0.4], views, seed=2),
        "table": _multi_view_box_clouds([-2.0, 0.0, 2.0], [0.4, 0.4, 0.4], views, seed=3),
    }
    scene = build_sandbox(by_label, ConsensusParams(), ClusterParams(), _POSE, _K)
    assert len(scene.boxes) == 3
    assert sorted(b.label for b in scene.boxes) == ["box", "chair", "table"]
    # instance ids enumerate in sorted-category order
    assert [b.instance_id for b in scene.boxes] == [0, 1, 2]


def test_build_sandbox_two_instances_same_category():
    views = (V0, V1, V2)
    clouds = _multi_view_box_clouds([-1.0, 0.0, 2.0], [0.4, 0.4, 0.4], views, seed=4)
    clouds += _multi_view_box_clouds([1.0, 0.0, 2.0], [0.4, 0.4, 0.4], views, seed=5)
    scene = build_sandbox({"chair": clouds}, ConsensusParams(), ClusterParams(), _POSE, _K)
    assert len(scene.boxes) == 2
    assert all(b.label == "chair" for b in scene.boxes)
    centers_x = sorted(b.center[0] for b in scene.boxes)
    assert centers_x[0] == pytest.approx(-1.0, abs=0.1)
    assert centers_x[1] == pytest.approx(1.0, abs=0.1)


def test_build_sandbox_unreachable_agreement_raises():
    views = (V0, V1)  # only one "other" view available per point
    clouds = _multi_view_box_clouds([0.0, 0.0, 2.0], [0.4, 0.4, 0.4], views, seed=6)
    with pytest.raises(EmptySandboxError):
        build_sandbox(
            {"box": clouds}, ConsensusParams(n_agree=2), ClusterParams(), _POSE, _K
        )


def test_build_sandbox_small_clusters_dropped():
    views = (V0, V1, V2)
    clouds = _multi_view_box_clouds([0.0, 0.0, 2.0], [0.4, 0.4, 0.4], views, seed=7)
    # a tiny secondary clump, identical in all views so it survives consensus
    speck = np.array([[3.0, 0.0, 2.0], [3.01, 0.0, 2.0]])
    clouds += [ProxyCloud.single_view(speck, 0, v) for v in views]
    scene = build_sandbox(
        {"box": clouds},
        ConsensusParams(),
        ClusterParams(min_cluster_size=8),
        _POSE,
        _K,
    )
    assert len(scene.boxes) == 1
    assert abs(scene.boxes[0].center[0]) < 0.1


def test_build_sandbox_instance_order_by_size_then_centroid():
    views = (V0, V1, V2)
    big = _multi_view_box_clouds([1.5, 0.0, 2.0], [0.5, 0.5, 0.5], views, n=80, seed=8)
    small = _multi_view_box_clouds([-1.5, 0.0, 2.0], [0.3, 0.3, 0.3], views, n=30, seed=9)
    scene = build_sandbox(
        {"box": big + small}, ConsensusParams(), ClusterParams(), _POSE, _K
    )
    assert len(scene.boxes) == 2
    # larger cluster gets the lower instance id
    assert scene.boxes[0].center[0] == pytest.approx(1.5, abs=0.1)
    assert scene.boxes[1].center[0] == pytest.approx(-1.5, abs=0.1)


def test_params_validation():
    with pytest.raises(ValueError):
        ConsensusParams(delta=0.0)
    with pytest.raises(ValueError):
        ConsensusParams(n_agree=0)
    with pytest.raises(ValueError):
        ClusterParams(eps=-1.0)
    with pytest.raises(ValueError):
        ClusterParams(min_cluster_size=0)


def test_build_sandbox_containment_of_cluster_points():
    views = (V0, V1, V2)
    clouds = _multi_view_box_clouds([0.0, 0.0, 2.0], [0.6, 0.4, 0.5], views, n=150, seed=10)
    scene = build_sandbox({"box": clouds}, ConsensusParams(), ClusterParams(), _POSE, _K)
    assert len(scene.boxes) == 1
    box = scene.boxes[0]
    kept = filter_by_consensus(clouds, ConsensusParams())
    labels = dbscan(kept.xyz, ClusterParams().eps, ClusterParams().min_pts)
    member = kept.xyz[labels == 0]
    # every clustered point sits inside the fitted box (tiny inflation)
    local = (member - box.center) @ box.axes
    assert np.all(np.abs(local) <= box.half_extents + 1e-9)


def test_fit_obb_axes_match_lapack_eigenbasis():
    # the hand-rolled Jacobi eigensolver must agree with LAPACK geometrically
    # (same eigenlines; sign and backend-ordering freedom excluded by |dot|)
    rng = np.random.default_rng(5)
    for _ in range(200):
        m = int(rng.integers(30, 101))
        scale = float(rng.uniform(0.5, 2.0))
        pts = rng.normal(size=(m, 3)) * (scale * np.array([1.0, 0.55, 0.25]))
        pts = pts @ rotation_about_axis(rng.normal(size=3), float(rng.uniform(0, 360))).T
        box = fit_obb(pts, "x", 0)

        centered = pts - pts.mean(axis=0)
        cov = centered.T @ centered / len(pts)
        w, v = np.linalg.eigh(cov)  # ascending eigenvalues
        v = v[:, np.argsort(w)[::-1]]
        dots = np.abs((box.axes * v).sum(axis=0))
        assert np.all(dots > 1.0 - 1e-9)
