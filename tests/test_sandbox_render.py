from __future__ import annotations

import warnings

import numpy as np
import pytest

from sandbox3d import EmptySandboxError
from sandbox3d import sandbox_render as sr
from sandbox3d.sandbox_render import (
    MARKER_COLOR,
    PALETTE,
    OrthoCamera,
    PerspectiveCamera,
    RenderStyle,
    instance_color,
    legend_lines,
    render_boxes,
    render_points,
    stepback_camera,
    topdown_camera,
    topdown_camera_for_points,
)
from sandbox3d.scene_model import (
    BOX_EDGES,
    CameraIntrinsics,
    CameraPose,
    OrientedBox3,
    ProxyCloud,
    SandboxScene,
    ViewId,
    box_corners,
    rotation_about_axis,
)

_K = CameraIntrinsics(100.0, 100.0, 64.0, 64.0, 128, 128)
_UP = np.array([0.0, -1.0, 0.0])


def _box(center, half, instance_id=0, label="box", axes=None):
    return OrientedBox3(
        np.asarray(center, dtype=np.float64),
        np.eye(3) if axes is None else axes,
        np.asarray(half, dtype=np.float64),
        label,
        instance_id,
    )


def _scene(boxes):
    return SandboxScene(tuple(boxes), CameraPose.identity(), _K, up_axis=_UP)


def test_palette_cycle():
    assert instance_color(0) == PALETTE[0]
    assert instance_color(12) == PALETTE[0]
    assert instance_color(13) == PALETTE[1]
    assert PALETTE[0][0] == "red" and PALETTE[1][0] == "blue"


def test_stepback_camera_moves_against_view_axis():
    pose = CameraPose(rotation_about_axis((0.0, 1.0, 0.0), 90.0), np.array([1.0, 2.0, 3.0]))
    back = stepback_camera(pose, 2.0)
    np.testing.assert_array_equal(back.rotation, pose.rotation)
    np.testing.assert_allclose(back.translation, pose.translation - 2.0 * pose.forward(), atol=1e-12)


def test_render_is_deterministic():
    scene = _scene([_box([0.0, 0.0, 4.0], [0.5, 0.5, 0.5])])
    cam = PerspectiveCamera(CameraPose.identity(), _K)
    a = render_boxes(scene, cam, RenderStyle(width=128, height=128))
    b = render_boxes(scene, cam, RenderStyle(width=128, height=128))
    assert a.image.tobytes() == b.image.tobytes()


def test_perspective_wireframe_lands_at_projected_corners():
    # box corners at x,y = +-0.5, z in {3.5, 4.5}; front-top-left corner
    # projects to u = 100 * -0.5 / 3.5 + 64 = 49.71, v likewise
    scene = _scene([_box([0.0, 0.0, 4.0], [0.5, 0.5, 0.5])])
    cam = PerspectiveCamera(CameraPose.identity(), _K)
    view = render_boxes(scene, cam, RenderStyle(width=128, height=128, line_width=1))
    red = PALETTE[0][1]
    hits = np.argwhere(np.all(view.image == red, axis=2))
    assert len(hits) > 0
    ys, xs = hits[:, 0], hits[:, 1]
    # all strokes stay inside the projected face square (plus raster slack)
    assert xs.min() >= 49 and xs.max() <= 79
    assert ys.min() >= 49 and ys.max() <= 79
    # the outer square boundary is drawn: pixels at the projected corner
    assert np.all(view.image[50, 50] == red)
    # interior of the box image stays background (wireframe only)
    assert np.all(view.image[64, 64] == (255, 255, 255))


def test_render_far_to_near_overdraw():
    # identical footprints at different heights: the box nearer the top-down
    # camera is drawn last and owns the shared pixels
    low = _box([0.0, 0.0, 3.0], [0.5, 0.2, 0.5], instance_id=0)
    high = _box([0.0, -1.0, 3.0], [0.5, 0.2, 0.5], instance_id=1)
    scene = _scene([low, high])
    view = render_boxes(scene, topdown_camera(scene), RenderStyle(width=256, height=256))
    red, blue = PALETTE[0][1], PALETTE[1][1]
    assert np.any(np.all(view.image == blue, axis=2))
    assert not np.any(np.all(view.image == red, axis=2))


def test_legend_lines_exact_format():
    scene = _scene(
        [
            _box([0.0, 0.0, 3.0], [0.3, 0.3, 0.3], instance_id=0, label="chair"),
            _box([2.0, 0.0, 3.0], [0.3, 0.3, 0.3], instance_id=1, label="lamp"),
        ]
    )
    view = render_boxes(scene, topdown_camera(scene), RenderStyle(width=256, height=256))
    lines = legend_lines(view)
    assert lines[0] == "- red: chair (instance 0)"
    assert lines[1] == "- blue: lamp (instance 1)"
    assert lines[2] == f"Scale: 1 px = {view.meters_per_px:.6f} m."
    assert lines[3].startswith("Camera marker at pixel (")
    assert lines[3].endswith("); it looks toward image-up.")
    assert view.meters_per_px == pytest.approx(2.0 * view.camera.half_width / 256)


def test_legend_for_perspective_render_has_no_scale():
    scene = _scene([_box([0.0, 0.0, 3.0], [0.3, 0.3, 0.3], label="sofa")])
    cam = PerspectiveCamera(CameraPose.identity(), _K)
    view = render_boxes(scene, cam)
    assert view.meters_per_px is None and view.marker_px is None
    assert legend_lines(view) == ["- red: sofa (instance 0)"]


def test_topdown_requires_boxes():
    with pytest.raises(EmptySandboxError):
        topdown_camera(_scene([]))
    with pytest.raises(EmptySandboxError):
        topdown_camera_for_points(np.zeros((0, 3)), CameraPose.identity(), _UP)


def test_topdown_image_up_is_camera_forward():
    # a box straight ahead of the origin camera must appear above the marker
    scene = _scene([_box([0.0, -0.3, 4.0], [0.3, 0.3, 0.3])])
    view = render_boxes(scene, topdown_camera(scene), RenderStyle(width=256, height=256))
    red = PALETTE[0][1]
    box_rows = np.argwhere(np.all(view.image == red, axis=2))[:, 0]
    assert view.marker_px is not None
    assert box_rows.max() < view.marker_px[1]  # smaller v = higher in image


def test_topdown_marker_and_scale_read_back():
    # camera at origin, one 1x1 box footprint centered 3 m ahead
    scene = _scene([_box([0.0, -0.5, 3.0], [0.5, 0.5, 0.5])])
    cam = topdown_camera(scene)
    style = RenderStyle(width=200, height=200)
    view = render_boxes(scene, cam, style)
    s = view.meters_per_px
    red = PALETTE[0][1]
    hits = np.argwhere(np.all(view.image == red, axis=2))
    mx, my = view.marker_px
    # decode the box center from painted pixels the way prompt readers do
    u = (hits[:, 1].mean() - mx) * s
    w = (my - hits[:, 0].mean()) * s
    assert u == pytest.approx(0.0, abs=0.05)
    assert w == pytest.approx(3.0, abs=0.05)


def test_behind_camera_box_not_drawn():
    scene = _scene([_box([0.0, 0.0, -5.0], [0.5, 0.5, 0.5])])
    cam = PerspectiveCamera(CameraPose.identity(), _K)
    view = render_boxes(scene, cam)
    assert np.all(view.image == 255)


def test_box_straddling_near_plane_clips_cleanly():
    scene = _scene([_box([0.0, 0.0, 0.0], [0.3, 0.3, 0.6])])
    cam = PerspectiveCamera(CameraPose.identity(), _K)
    view = render_boxes(scene, cam, RenderStyle(width=128, height=128))
    # forward parts may paint, nothing crashes, and the render is stable
    again = render_boxes(scene, cam, RenderStyle(width=128, height=128))
    assert view.image.tobytes() == again.image.tobytes()


def test_render_points_perspective_splat():
    cloud = ProxyCloud.single_view(np.array([[0.0, 0.0, 2.0]]), 1, ViewId(0, 0))
    cam = PerspectiveCamera(CameraPose.identity(), _K)
    view = render_points(cloud, cam, RenderStyle(width=128, height=128, point_size=2))
    blue = PALETTE[1][1]
    # point projects to pixel (64, 64); the splat covers a 2x2 block
    assert np.all(view.image[64, 64] == blue)
    assert np.all(view.image[65, 65] == blue)
    assert np.all(view.image[63, 63] == (255, 255, 255))
    assert view.legend == (("blue", "object 1", 1),)


def test_render_points_labels_and_near_plane():
    pts = np.array([[0.0, 0.0, 2.0], [0.0, 0.0, 0.01]])  # second is too close
    cloud = ProxyCloud.single_view(pts, 0, ViewId(0, 0))
    cam = PerspectiveCamera(CameraPose.identity(), _K)
    view = render_points(cloud, cam, labels={0: "crate"})
    assert view.legend == (("red", "crate", 0),)
    # nothing but the one splat is painted
    painted = np.argwhere(np.any(view.image != 255, axis=2))
    assert len(painted) == RenderStyle().point_size ** 2


def test_render_points_topdown_has_scale_and_marker():
    pts = np.array([[0.0, 0.0, 3.0], [1.0, 0.0, 4.0]])
    cloud = ProxyCloud.single_view(pts, 0, ViewId(0, 0))
    cam = topdown_camera_for_points(pts, CameraPose.identity(), _UP)
    view = render_points(cloud, cam, origin=CameraPose.identity(), up_axis=_UP)
    assert view.meters_per_px == pytest.approx(2.0 * cam.half_width / 512)
    assert view.marker_px is not None
    # marker strokes use the marker color
    assert np.any(np.all(view.image == MARKER_COLOR, axis=2))


def test_grid_drawn_when_requested():
    scene = _scene([_box([0.0, -0.3, 3.0], [0.3, 0.3, 0.3])])
    cam = topdown_camera(scene)
    plain = render_boxes(scene, cam, RenderStyle(width=128, height=128))
    grid = render_boxes(scene, cam, RenderStyle(width=128, height=128, draw_axes=True))
    assert np.any(np.all(grid.image == (210, 210, 210), axis=2))
    assert not np.any(np.all(plain.image == (210, 210, 210), axis=2))


# ── Scalar reference rasterizer ────────────────────────────────────────────
# The one-segment-at-a-time and one-point-at-a-time rasterizer that the array
# code replaced. It defines the output: every render must match it byte for
# byte, legend and marker included.


def _ref_clip_near(p0, p1, near):
    z0, z1 = p0[2], p1[2]
    if z0 < near and z1 < near:
        return None
    if z0 >= near and z1 >= near:
        return p0, p1
    t = (near - z0) / (z1 - z0)
    cut = p0 + t * (p1 - p0)
    return (cut, p1) if z0 < near else (p0, cut)


def _ref_stamp(img, x, y, color, width):
    h, w = img.shape[:2]
    r0 = width // 2
    x0, x1 = x - r0, x - r0 + width
    y0, y1 = y - r0, y - r0 + width
    if x1 <= 0 or y1 <= 0 or x0 >= w or y0 >= h:
        return
    img[max(y0, 0) : min(y1, h), max(x0, 0) : min(x1, w)] = color


def _ref_draw_line(img, u0, v0, u1, v1, color, width):
    x0, y0 = int(round(u0)), int(round(v0))
    x1, y1 = int(round(u1)), int(round(v1))
    dx, dy = abs(x1 - x0), -abs(y1 - y0)
    sx = 1 if x0 < x1 else -1
    sy = 1 if y0 < y1 else -1
    err = dx + dy
    while True:
        _ref_stamp(img, x0, y0, color, width)
        if x0 == x1 and y0 == y1:
            break
        e2 = 2 * err
        if e2 >= dy:
            err += dy
            x0 += sx
        if e2 <= dx:
            err += dx
            y0 += sy


def _ref_clip2d(u0, v0, u1, v1, xmin, ymin, xmax, ymax):
    t0, t1 = 0.0, 1.0
    du, dv = u1 - u0, v1 - v0
    for p, q in ((-du, u0 - xmin), (du, xmax - u0), (-dv, v0 - ymin), (dv, ymax - v0)):
        if p == 0:
            if q < 0:
                return None
            continue
        r = q / p
        if p < 0:
            if r > t1:
                return None
            if r > t0:
                t0 = r
        else:
            if r < t0:
                return None
            if r < t1:
                t1 = r
    return u0 + t0 * du, v0 + t0 * dv, u0 + t1 * du, v0 + t1 * dv


def _ref_draw_segment_world(img, camera, a, b, color, width):
    p = sr._camera_frame(camera, np.stack([a, b]))
    clipped = _ref_clip_near(p[0], p[1], sr.NEAR_PLANE_M)
    if clipped is None:
        return
    h, w = img.shape[:2]
    u0, v0 = sr._project_cam(camera, clipped[0], w, h)
    u1, v1 = sr._project_cam(camera, clipped[1], w, h)
    if not all(np.isfinite([u0, v0, u1, v1])):
        return
    pad = float(width + 1)
    seg = _ref_clip2d(u0, v0, u1, v1, -pad, -pad, w - 1 + pad, h - 1 + pad)
    if seg is None:
        return
    _ref_draw_line(img, *seg, color, width)


def _ref_marker(img, camera, style, origin, up, floor):
    x_dir, fwd_dir = sr._ground_basis(origin, up)
    ground = origin.translation - (origin.translation @ up - floor) * up
    size = 0.12 * max(camera.half_width, camera.half_height)
    tip = ground + size * fwd_dir
    left = ground - 0.5 * size * fwd_dir - 0.45 * size * x_dir
    right = ground - 0.5 * size * fwd_dir + 0.45 * size * x_dir
    for a, b in ((tip, left), (left, right), (right, tip)):
        _ref_draw_segment_world(img, camera, a, b, sr.MARKER_COLOR, style.line_width)
    h, w = img.shape[:2]
    return sr._project_cam(camera, sr._camera_frame(camera, ground[None, :])[0], w, h)


def _ref_render_boxes(scene, camera, style):
    img = np.empty((style.height, style.width, 3), dtype=np.uint8)
    img[:] = style.background
    floor = sr._scene_floor(scene)
    if style.draw_axes and scene.boxes:
        ortho = isinstance(camera, OrthoCamera)
        extent = max(camera.half_width, camera.half_height) if ortho else 8.0
        x_dir, fwd_dir = sr._ground_basis(scene.origin_pose, scene.up_axis)
        t = scene.origin_pose.translation
        base = t - (t @ scene.up_axis - floor) * scene.up_axis
        n = int(np.ceil(extent))
        for i in range(-n, n + 1):
            a, b = base + i * x_dir - n * fwd_dir, base + i * x_dir + n * fwd_dir
            _ref_draw_segment_world(img, camera, a, b, sr.GRID_COLOR, 1)
            a, b = base + i * fwd_dir - n * x_dir, base + i * fwd_dir + n * x_dir
            _ref_draw_segment_world(img, camera, a, b, sr.GRID_COLOR, 1)

    def center_depth(box):
        return float(sr._camera_frame(camera, box.center[None, :])[0, 2])

    for box in sorted(scene.boxes, key=center_depth, reverse=True):
        corners = box_corners(box)
        rgb = instance_color(box.instance_id)[1]
        for i, j in BOX_EDGES:
            _ref_draw_segment_world(img, camera, corners[i], corners[j], rgb, style.line_width)
    legend = tuple((instance_color(b.instance_id)[0], b.label, b.instance_id) for b in scene.boxes)
    marker_px = None
    if isinstance(camera, OrthoCamera):
        marker_px = _ref_marker(img, camera, style, scene.origin_pose, scene.up_axis, floor)
    return img, legend, marker_px


def _ref_render_points(cloud, camera, style, labels=None, origin=None, up_axis=None):
    img = np.empty((style.height, style.width, 3), dtype=np.uint8)
    img[:] = style.background
    h, w = style.height, style.width
    p_cam = sr._camera_frame(camera, cloud.xyz) if len(cloud) else np.zeros((0, 3))
    for i in np.argsort(-p_cam[:, 2], kind="stable"):
        if p_cam[i, 2] < sr.NEAR_PLANE_M:
            continue
        u, v = sr._project_cam(camera, p_cam[i], w, h)
        if not (np.isfinite(u) and np.isfinite(v)):
            continue
        _, rgb = instance_color(int(cloud.object_ids[i]))
        x, y = int(round(u)), int(round(v))
        if -style.point_size < x < w and -style.point_size < y < h:
            img[max(y, 0) : y + style.point_size, max(x, 0) : x + style.point_size] = rgb
    legend = tuple(
        (instance_color(oid)[0], (labels or {}).get(oid, f"object {oid}"), oid)
        for oid in sorted(set(int(o) for o in cloud.object_ids))
    )
    marker_px = None
    if isinstance(camera, OrthoCamera) and origin is not None and up_axis is not None:
        up = np.asarray(up_axis, dtype=np.float64)
        floor = float((cloud.xyz @ up).min()) if len(cloud) else 0.0
        marker_px = _ref_marker(img, camera, style, origin, up, floor)
    return img, legend, marker_px


def _assert_matches(view, ref):
    img, legend, marker_px = ref
    assert view.image.tobytes() == img.tobytes()
    assert view.legend == legend
    assert view.marker_px == marker_px


def _random_pose(rng, spread=1.0):
    rot = rotation_about_axis(rng.normal(size=3), float(rng.uniform(-40.0, 40.0)))
    return CameraPose(rot, rng.normal(scale=spread, size=3))


def _random_camera(rng, scene_pts, origin, w, h):
    kind = rng.integers(3)
    if kind == 0:
        fx, fy = (float(f) for f in rng.uniform(40, 200, size=2))
        return PerspectiveCamera(_random_pose(rng, 0.3), CameraIntrinsics(fx, fy, w / 2, h / 2, w, h))
    if kind == 1:
        return topdown_camera_for_points(scene_pts, origin, _UP)
    half = float(rng.uniform(0.5, 6.0))
    return OrthoCamera(_random_pose(rng, 2.0), half, half * float(rng.uniform(0.5, 2.0)))


def _random_style(rng):
    w, h = (int(s) for s in rng.integers(24, 140, size=2))
    return RenderStyle(
        width=w,
        height=h,
        background=tuple(int(c) for c in rng.integers(0, 256, size=3)),
        line_width=int(rng.integers(1, 4)),
        point_size=int(rng.integers(1, 4)),
        draw_axes=bool(rng.integers(2)),
    )


def _random_scene(rng):
    boxes = []
    for iid in rng.choice(30, size=int(rng.integers(1, 5)), replace=False).tolist():
        # centers from near the camera (edges crossing z = 0.05) to far off-raster
        center = rng.normal(scale=[2.0, 0.5, 2.0]) + [0.0, 0.0, rng.choice([0.0, 2.5, 5.0])]
        if rng.random() < 0.15:
            center[0] += rng.choice([-60.0, 60.0])
        axes = rotation_about_axis((0.0, 1.0, 0.0), float(rng.uniform(0.0, 90.0)))
        boxes.append(_box(center, rng.uniform(0.05, 1.0, size=3), iid, f"thing{iid}", axes))
    return SandboxScene(tuple(boxes), _random_pose(rng, 0.2), _K, up_axis=_UP)


def test_render_boxes_matches_scalar_reference():
    rng = np.random.default_rng(20240)
    for _ in range(150):
        scene = _random_scene(rng)
        style = _random_style(rng)
        pts = np.concatenate([box_corners(b) for b in scene.boxes])
        for camera in (
            _random_camera(rng, pts, scene.origin_pose, style.width, style.height),
            topdown_camera(scene),
        ):
            ref = _ref_render_boxes(scene, camera, style)
            _assert_matches(render_boxes(scene, camera, style), ref)


def test_render_points_matches_scalar_reference():
    rng = np.random.default_rng(777)
    for _ in range(150):
        n = int(rng.integers(0, 400))
        xyz = rng.normal(scale=[1.5, 0.6, 2.0], size=(n, 3)) + [0.0, 0.0, rng.choice([0.0, 3.0])]
        ids = rng.integers(0, 20, size=n)
        if n:
            # stacks of points at one position: equal depth, the last in
            # input order is drawn last and owns the pixels
            stack = rng.integers(0, n, size=int(rng.integers(1, 6)))
            for j in stack:
                copies = int(rng.integers(2, 6))
                xyz = np.concatenate([xyz, np.repeat(xyz[j : j + 1], copies, axis=0)])
                ids = np.concatenate([ids, rng.integers(0, 20, size=copies)])
        cloud = ProxyCloud(xyz, ids, (ViewId(0, 0),) * len(ids))
        style = _random_style(rng)
        origin = _random_pose(rng, 0.2)
        extent = xyz if len(xyz) else np.zeros((1, 3))
        camera = _random_camera(rng, extent, origin, style.width, style.height)
        labels = {int(i): f"label{i}" for i in ids[::2]}
        view = render_points(cloud, camera, style, labels, origin, _UP)
        _assert_matches(view, _ref_render_points(cloud, camera, style, labels, origin, _UP))


# fx = 128 and cx = 64: x = (2j + 1) / 256 at z = 1 projects to the pixel
# boundary j + 64.5, where rounding must go half to even
_K_HALF = CameraIntrinsics(128.0, 128.0, 64.0, 64.0, 128, 128)


def _half_pixel_coords(rng, n):
    return (2 * rng.integers(-70, 70, size=n) + 1) / 256.0


def test_segments_match_scalar_reference_one_by_one():
    # endpoints exactly on, just before and behind z = near, and on pixel
    # boundaries; a quarter of the segments parallel to the near plane; in a
    # camera frame equal to the world frame
    near = sr.NEAR_PLANE_M
    zs = np.array([near, np.nextafter(near, 0), np.nextafter(near, 1), -1.0, 0.0, 0.3, 1.0, 4.0])
    rng = np.random.default_rng(5)
    cameras = [PerspectiveCamera(CameraPose.identity(), k) for k in (_K, _K_HALF)]
    for width in (1, 2, 3):
        ends = []
        for _ in range(2):
            z = rng.choice(zs, 150)
            # x/z and y/z within the field of view, so every depth lands on the raster
            xy = rng.uniform(-0.75, 0.75, size=(150, 2)) * np.abs(z)[:, None]
            ties = z == 1.0
            xy[ties] = _half_pixel_coords(rng, (int(ties.sum()), 2))
            ends.append(np.column_stack([xy, z]))
        a, b = ends
        b[::4, 2] = a[::4, 2]  # parallel to the near plane
        for cam in cameras:
            for p, q in zip(a, b):
                ref = np.full((128, 128, 3), 255, dtype=np.uint8)
                _ref_draw_segment_world(ref, cam, p, q, (0, 0, 0), width)
                img = np.full((128, 128, 3), 255, dtype=np.uint8)
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    sr._draw_strokes(img, cam, [(p[None], q[None], (0, 0, 0), width)])
                assert img.tobytes() == ref.tobytes(), (p, q, width)


def test_splats_on_pixel_boundaries_round_half_to_even():
    rng = np.random.default_rng(8)
    xy = _half_pixel_coords(rng, (300, 2))
    xyz = np.column_stack([xy, np.ones(300)])
    cloud = ProxyCloud(xyz, rng.integers(0, 12, 300), (ViewId(0, 0),) * 300)
    cam = PerspectiveCamera(CameraPose.identity(), _K_HALF)
    for size in (1, 2, 3):
        style = RenderStyle(width=128, height=128, point_size=size)
        _assert_matches(render_points(cloud, cam, style), _ref_render_points(cloud, cam, style))


def test_near_plane_crossing_and_parallel_edges_raise_no_warning():
    near = sr.NEAR_PLANE_M
    # a box straddling z = 0 has edges crossing the near plane and edges
    # parallel to it on both sides
    scene = _scene(
        [_box([0.0, 0.0, 0.0], [0.3, 0.3, 0.6]), _box([0.2, 0.0, near], [0.3, 0.3, 0.0001], 1)]
    )
    cam = PerspectiveCamera(CameraPose.identity(), _K)
    style = RenderStyle(width=128, height=128, draw_axes=True)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        view = render_boxes(scene, cam, style)
        img = np.full((128, 128, 3), 255, dtype=np.uint8)
        ends = np.array([[0.0, 0.0, near], [0.5, 0.0, near], [0.0, 0.0, 0.01]])
        sr._draw_strokes(img, cam, [(ends, ends[[1, 2, 0]], (0, 0, 0), 1)])
    _assert_matches(view, _ref_render_boxes(scene, cam, style))
    assert np.any(img != 255)


def test_far_off_raster_point_and_box_paint_nothing():
    cam = PerspectiveCamera(CameraPose.identity(), _K)
    style = RenderStyle(width=128, height=128, point_size=3)
    # u = 100 x + 64: 1e302, and just past 2**64, where an unchecked int64
    # cast would wrap
    pts = np.array([[1e300, 0.0, 1.0], [2.0**64 / 100.0, 0.0, 1.0], [0.0, -(2.0**64) / 100.0, 1.0]])
    scene = _scene(
        [_box([1e15, 0.0, 5.0], [1.0, 1.0, 1.0]), _box([0.0, 2.0**70, 5.0], [1.0, 1.0, 1.0], 1)]
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        points = render_points(ProxyCloud.single_view(pts, 0, ViewId(0, 0)), cam, style)
        boxes = render_boxes(scene, cam, style)
    assert np.all(points.image == 255)
    assert np.all(boxes.image == 255)
