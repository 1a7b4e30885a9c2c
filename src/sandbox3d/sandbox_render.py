"""Deterministic software rendering of the box abstraction.

Everything here is integer rasterization on top of the scene_model projection
math: no GPU, no external renderer, same bytes for the same inputs. Boxes are
drawn as 12-edge wireframes with Bresenham's lines and a square pen.
Segments are clipped against the near plane (0.05 m) parametrically before
projection. Box labels are conveyed by the legend that accompanies each
render, never by glyphs in the raster.

Draw order is far to near: the ground grid first, then boxes by decreasing
center depth (or proxy points by decreasing camera depth, ties in input
order), then the camera marker. Where draws overlap, the last one in draw
order owns the pixel. The rasterizer works on whole arrays (every segment
of a render, every point of a cloud) and produces exactly the pixels of
drawing them one at a time in that order.

Two camera kinds are supported and carry their own projection model:
PerspectiveCamera (pose + intrinsics) and OrthoCamera (pose + metric footprint
half sizes). The top-down constructor returns an OrthoCamera whose image `up`
is the origin camera's forward direction projected to the ground plane, so
"up in the image" reads as "ahead of the camera".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import EmptySandboxError
from .scene_model import (
    BOX_EDGES,
    CameraIntrinsics,
    CameraPose,
    ProxyCloud,
    SandboxScene,
    box_corners,
)

NEAR_PLANE_M = 0.05
DEFAULT_STEPBACK_M = 2.0

# Fixed 12-color palette; instance i uses PALETTE[i % 12] forever, so adding
# boxes never recolors existing ones.
PALETTE: tuple[tuple[str, tuple[int, int, int]], ...] = (
    ("red", (220, 50, 47)),
    ("blue", (38, 89, 235)),
    ("green", (64, 160, 43)),
    ("orange", (241, 143, 1)),
    ("purple", (136, 23, 152)),
    ("cyan", (42, 161, 152)),
    ("magenta", (211, 54, 130)),
    ("olive", (133, 153, 0)),
    ("brown", (124, 81, 61)),
    ("navy", (32, 42, 120)),
    ("teal", (0, 128, 128)),
    ("maroon", (128, 32, 64)),
)

MARKER_COLOR = (40, 40, 40)
GRID_COLOR = (210, 210, 210)

_PALETTE_RGB = np.array([rgb for _, rgb in PALETTE], dtype=np.uint8)
_EDGE_A, _EDGE_B = (np.array(ends) for ends in zip(*BOX_EDGES))


def instance_color(instance_id: int) -> tuple[str, tuple[int, int, int]]:
    return PALETTE[instance_id % len(PALETTE)]


@dataclass(frozen=True)
class RenderStyle:
    width: int = 512
    height: int = 512
    background: tuple[int, int, int] = (255, 255, 255)
    line_width: int = 2
    point_size: int = 2
    draw_axes: bool = False  # 1 m ground grid


@dataclass(frozen=True)
class PerspectiveCamera:
    pose: CameraPose
    intrinsics: CameraIntrinsics


@dataclass(frozen=True)
class OrthoCamera:
    pose: CameraPose
    half_width: float  # metric half extent mapped to the image half width
    half_height: float


RenderCamera = Union[PerspectiveCamera, OrthoCamera]


@dataclass(frozen=True)
class RenderedView:
    """A raster plus everything needed to interpret it."""

    image: np.ndarray  # (h, w, 3) uint8
    camera: RenderCamera
    legend: tuple[tuple[str, str, int], ...]  # (color name, label, instance_id)
    meters_per_px: float | None = None  # orthographic renders only
    marker_px: tuple[float, float] | None = None  # camera marker pixel, if drawn


# ── Camera constructors ────────────────────────────────────────────────────


def stepback_camera(origin: CameraPose, distance: float = DEFAULT_STEPBACK_M) -> CameraPose:
    """Same orientation, translated `distance` meters against the view axis."""
    return CameraPose(origin.rotation, origin.translation - distance * origin.forward())


def _ground_basis(origin: CameraPose, up: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(right, forward) directions in the ground plane for a top-down image."""
    fwd = origin.forward()
    proj = fwd - np.dot(fwd, up) * up
    norm = np.linalg.norm(proj)
    if norm < 1e-9:  # camera looks along the up axis; fall back to world +x
        proj = np.array([1.0, 0.0, 0.0])
        proj = proj - np.dot(proj, up) * up
        norm = np.linalg.norm(proj)
    img_up = proj / norm
    y_cam = -img_up  # image down
    z_cam = -up  # looking straight down
    x_cam = np.cross(y_cam, z_cam)
    return x_cam, img_up


def _topdown_from_points(
    pts: np.ndarray,
    origin: CameraPose,
    up: np.ndarray,
    margin: float,
) -> OrthoCamera:
    x_cam, img_up = _ground_basis(origin, up)
    u = pts @ x_cam
    v = pts @ img_up
    cu = (u.min() + u.max()) / 2.0
    cv = (v.min() + v.max()) / 2.0
    top = float((pts @ up).max())
    position = cu * x_cam + cv * img_up + (top + margin) * up

    # Footprint must cover the content and the origin camera marker, padded 10%.
    mu = float(origin.translation @ x_cam)
    mv = float(origin.translation @ img_up)
    half_w = max(np.max(np.abs(u - cu)), abs(mu - cu))
    half_h = max(np.max(np.abs(v - cv)), abs(mv - cv))
    half = max(half_w, half_h, 0.5) * 1.1
    rot = np.stack([x_cam, -img_up, -up], axis=1)
    return OrthoCamera(CameraPose(rot, position), half, half)


def topdown_camera(scene: SandboxScene, margin: float = 0.5) -> OrthoCamera:
    """Orthographic straight-down camera over the scene's boxes."""
    if not scene.boxes:
        raise EmptySandboxError("cannot place a top-down camera over zero boxes")
    pts = np.concatenate([box_corners(b) for b in scene.boxes])
    return _topdown_from_points(pts, scene.origin_pose, scene.up_axis, margin)


def topdown_camera_for_points(
    points: np.ndarray, origin: CameraPose, up_axis, margin: float = 0.5
) -> OrthoCamera:
    """Top-down camera over a raw point set (used by point-cloud renders)."""
    pts = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    if len(pts) == 0:
        raise EmptySandboxError("cannot place a top-down camera over zero points")
    return _topdown_from_points(pts, origin, np.asarray(up_axis, dtype=np.float64), margin)


# ── Projection and rasterization ───────────────────────────────────────────


def _blank(style: RenderStyle) -> np.ndarray:
    """An (h, w, 3) uint8 raster of the background colour."""
    img = np.empty((style.height, style.width, 3), dtype=np.uint8)
    # One scalar fill per channel: broadcasting the 3-vector is ~7x slower.
    img[..., 0], img[..., 1], img[..., 2] = style.background
    return img


def _camera_frame(camera: RenderCamera, pts: np.ndarray) -> np.ndarray:
    return camera.pose.inverse_transform(pts)


def _project_cam(camera: RenderCamera, p_cam: np.ndarray, w: int, h: int):
    """Camera-frame coordinates (3, ...) to continuous pixel coordinates."""
    if isinstance(camera, PerspectiveCamera):
        k = camera.intrinsics
        z = p_cam[2]
        return k.fx * p_cam[0] / z + k.cx, k.fy * p_cam[1] / z + k.cy
    u = (p_cam[0] + camera.half_width) / (2.0 * camera.half_width) * w - 0.5
    v = (p_cam[1] + camera.half_height) / (2.0 * camera.half_height) * h - 0.5
    return u, v


def _clip_near(p0: np.ndarray, p1: np.ndarray, near: float):
    """Cut camera-frame segments (n, 3) at z = near; drop those wholly behind.

    A segment with one end in front keeps that end and replaces the other by
    its crossing point. The cut is computed for crossing segments only, so a
    segment parallel to the plane never divides by zero. Returns the kept
    segments' end points and the mask of those kept.
    """
    z0, z1 = p0[:, 2], p1[:, 2]
    behind0 = z0 < near
    keep = ~(behind0 & (z1 < near))
    cross = np.flatnonzero(keep & ~((z0 >= near) & (z1 >= near)))
    if len(cross):
        a, b = p0[cross], p1[cross]
        t = (near - a[:, 2]) / (b[:, 2] - a[:, 2])
        cut = a + t[:, None] * (b - a)
        first = behind0[cross]
        p0, p1 = p0.copy(), p1.copy()
        p0[cross[first]] = cut[first]
        p1[cross[~first]] = cut[~first]
    return p0[keep], p1[keep], keep


def _clip2d(u0, v0, u1, v1, xmin, ymin, xmax, ymax):
    """Liang-Barsky clip of 2D segments to rectangles (one per segment).

    Returns the clipped end points of the segments that meet their
    rectangle, and the mask of those segments.
    """
    t0, t1 = np.zeros(len(u0)), np.ones(len(u0))
    inside = np.ones(len(u0), dtype=bool)
    du, dv = u1 - u0, v1 - v0
    for p, q in ((-du, u0 - xmin), (du, xmax - u0), (-dv, v0 - ymin), (dv, ymax - v0)):
        parallel = p == 0
        inside &= ~(parallel & (q < 0))
        r = np.divide(q, p, out=np.zeros_like(q), where=~parallel)
        entering, leaving = inside & (p < 0), inside & (p > 0)
        inside &= ~(entering & (r > t1)) & ~(leaving & (r < t0))
        t0 = np.where(inside & entering & (r > t0), r, t0)
        t1 = np.where(inside & leaving & (r < t1), r, t1)
    u0, v0, du, dv, t0, t1 = (a[inside] for a in (u0, v0, du, dv, t0, t1))
    return (u0 + t0 * du, v0 + t0 * dv, u0 + t1 * du, v0 + t1 * dv), inside


def _bresenham(x0, y0, x1, y1):
    """Pixels of Bresenham's integer lines, segment by segment.

    Closed form of the all-octant error loop (err = dx - dy with dx, dy >= 0;
    x steps when 2·err >= -dy, y steps when 2·err <= dx): with L = max(dx, dy)
    and m = min(dx, dy), step k = 0..L moves k along the major axis, x on
    ties, and (2·m·k + L) // (2·L) along the minor one. Returns the pixels'
    x, y and segment index.
    """
    dx, dy = np.abs(x1 - x0), np.abs(y1 - y0)
    major, minor = np.maximum(dx, dy), np.minimum(dx, dy)
    n = major + 1
    seg = np.repeat(np.arange(len(n)), n)
    k = np.arange(len(seg)) - np.repeat(np.cumsum(n) - n, n)
    length = major[seg]
    j = (2 * minor[seg] * k + length) // np.maximum(2 * length, 1)
    x_major = (dx >= dy)[seg]
    sx = np.where(x0 < x1, 1, -1)[seg]
    sy = np.where(y0 < y1, 1, -1)[seg]
    return x0[seg] + sx * np.where(x_major, k, j), y0[seg] + sy * np.where(x_major, j, k), seg


def _squares(xs: np.ndarray, ys: np.ndarray, off: np.ndarray, w: int, h: int):
    """In-raster pixels of the squares (xs + off) x (ys + off), square by square.

    Returns each pixel's flat index y * w + x and the index of its square.
    """
    shape = (len(xs), len(off), len(off))
    px = np.broadcast_to(xs[:, None, None] + off[None, None, :], shape)
    py = np.broadcast_to(ys[:, None, None] + off[None, :, None], shape)
    square = np.broadcast_to(np.arange(len(xs))[:, None, None], shape)
    on = (px >= 0) & (px < w) & (py >= 0) & (py < h)
    return py[on] * w + px[on], square[on]


# A stroke is a batch of world-frame segments a[i]-b[i] drawn in one colour
# with one square pen width: (a, b, color, width).
Stroke = tuple[np.ndarray, np.ndarray, tuple[int, int, int], int]


def _draw_strokes(img: np.ndarray, camera: RenderCamera, strokes: list[Stroke]) -> None:
    """Draw strokes in list order; a later stroke owns the pixels it shares.

    Every segment is cut at the near plane, projected, clipped to the raster
    padded by its pen, and drawn with Bresenham's line from its rounded end
    points. All segments go through these steps together; each stroke is
    then painted with one assignment, so order within a stroke is moot.
    """
    if not strokes:
        return
    h, w = img.shape[:2]
    counts = [len(a) for a, _, _, _ in strokes]
    stroke = np.repeat(np.arange(len(strokes)), counts)  # each segment's stroke
    pad = np.repeat([float(width + 1) for _, _, _, width in strokes], counts)
    n = len(stroke)
    p = _camera_frame(camera, np.concatenate([s[0] for s in strokes] + [s[1] for s in strokes]))
    p0, p1, kept = _clip_near(p[:n], p[n:], NEAR_PLANE_M)
    stroke, pad = stroke[kept], pad[kept]
    u0, v0 = _project_cam(camera, p0.T, w, h)
    u1, v1 = _project_cam(camera, p1.T, w, h)
    finite = np.isfinite(u0) & np.isfinite(v0) & np.isfinite(u1) & np.isfinite(v1)
    stroke, pad = stroke[finite], pad[finite]
    ends, inside = _clip2d(
        u0[finite], v0[finite], u1[finite], v1[finite], -pad, -pad, w - 1 + pad, h - 1 + pad
    )
    xs, ys, seg = _bresenham(*(np.rint(e).astype(np.int64) for e in ends))
    bounds = np.searchsorted(stroke[inside][seg], np.arange(len(strokes) + 1))
    for (_, _, color, width), lo, hi in zip(strokes, bounds[:-1], bounds[1:]):
        pixels, _ = _squares(xs[lo:hi], ys[lo:hi], np.arange(width) - width // 2, w, h)
        img.reshape(-1, 3)[pixels] = color


def _grid_stroke(floor: float, up, origin: CameraPose, extent: float) -> Stroke:
    """1 m ground grid lines around the origin camera's ground position."""
    x_dir, fwd_dir = _ground_basis(origin, up)
    base = origin.translation - (origin.translation @ up - floor) * up
    n = int(np.ceil(extent))
    i = np.arange(-n, n + 1)[:, None]
    a = np.concatenate([base + i * x_dir - n * fwd_dir, base + i * fwd_dir - n * x_dir])
    b = np.concatenate([base + i * x_dir + n * fwd_dir, base + i * fwd_dir + n * x_dir])
    return a, b, GRID_COLOR, 1


def _marker_stroke(camera: OrthoCamera, style, origin: CameraPose, up, floor: float):
    """Small triangle at the origin camera's ground position, nose forward,
    and the pixel of that ground position."""
    x_dir, fwd_dir = _ground_basis(origin, up)
    ground = origin.translation - (origin.translation @ up - floor) * up
    size = 0.12 * max(camera.half_width, camera.half_height)
    tip = ground + size * fwd_dir
    left = ground - 0.5 * size * fwd_dir - 0.45 * size * x_dir
    right = ground - 0.5 * size * fwd_dir + 0.45 * size * x_dir
    a, b = np.stack([tip, left, right]), np.stack([left, right, tip])
    stroke = (a, b, MARKER_COLOR, style.line_width)
    g_cam = _camera_frame(camera, ground[None, :])[0]
    return stroke, _project_cam(camera, g_cam, style.width, style.height)


def _scene_floor(scene: SandboxScene) -> float:
    if not scene.boxes:
        return float(scene.origin_pose.translation @ scene.up_axis)
    pts = np.concatenate([box_corners(b) for b in scene.boxes])
    return float((pts @ scene.up_axis).min())


def render_boxes(
    scene: SandboxScene, camera: RenderCamera, style: RenderStyle = RenderStyle()
) -> RenderedView:
    """Wireframe render of every box, far to near, with a color legend."""
    img = _blank(style)

    floor = _scene_floor(scene)
    strokes = []
    if style.draw_axes and scene.boxes:
        extent = max(camera.half_width, camera.half_height) if isinstance(camera, OrthoCamera) else 8.0
        strokes.append(_grid_stroke(floor, scene.up_axis, scene.origin_pose, extent))

    def center_depth(box):
        return float(_camera_frame(camera, box.center[None, :])[0, 2])

    legend = []
    for box in sorted(scene.boxes, key=center_depth, reverse=True):
        _, rgb = instance_color(box.instance_id)
        corners = box_corners(box)
        strokes.append((corners[_EDGE_A], corners[_EDGE_B], rgb, style.line_width))
    for box in scene.boxes:
        name, _ = instance_color(box.instance_id)
        legend.append((name, box.label, box.instance_id))

    meters_per_px = None
    marker_px = None
    if isinstance(camera, OrthoCamera):
        marker, marker_px = _marker_stroke(camera, style, scene.origin_pose, scene.up_axis, floor)
        strokes.append(marker)
        meters_per_px = 2.0 * camera.half_width / style.width
    _draw_strokes(img, camera, strokes)
    return RenderedView(img, camera, tuple(legend), meters_per_px, marker_px)


def render_points(
    cloud: ProxyCloud,
    camera: RenderCamera,
    style: RenderStyle = RenderStyle(),
    labels: dict[int, str] | None = None,
    origin: CameraPose | None = None,
    up_axis=None,
) -> RenderedView:
    """Splat proxy points (far to near) colored by their object category."""
    img = _blank(style)
    h, w = style.height, style.width

    p_cam = _camera_frame(camera, cloud.xyz) if len(cloud) else np.zeros((0, 3))
    order = np.argsort(-p_cam[:, 2], kind="stable")  # draw order: far to near
    order = order[~(p_cam[order, 2] < NEAR_PLANE_M)]
    u, v = _project_cam(camera, p_cam[order].T, w, h)
    finite = np.isfinite(u) & np.isfinite(v)
    order, u, v = order[finite], u[finite], v[finite]
    # Round half to even, as round() does; clipping first keeps the int64 cast exact.
    size = style.point_size
    x = np.clip(np.rint(u), -size, w).astype(np.int64)
    y = np.clip(np.rint(v), -size, h).astype(np.int64)
    shown = (-size < x) & (x < w) & (-size < y) & (y < h)
    order, x, y = order[shown], x[shown], y[shown]

    # Each splat covers size x size pixels; a pixel takes the colour of the
    # last splat in draw order that covers it.
    flat, splat = _squares(x, y, np.arange(size), w, h)
    owner = np.full(h * w, -1, dtype=np.int64)
    np.maximum.at(owner, flat, splat)  # splats are numbered in draw order
    pixels = np.flatnonzero(owner >= 0)
    colors = _PALETTE_RGB[cloud.object_ids[order] % len(PALETTE)]
    img.reshape(-1, 3)[pixels] = colors[owner[pixels]]

    legend = []
    for oid in np.unique(cloud.object_ids).tolist():
        name, _ = instance_color(oid)
        legend.append((name, (labels or {}).get(oid, f"object {oid}"), oid))

    meters_per_px = None
    marker_px = None
    if isinstance(camera, OrthoCamera):
        meters_per_px = 2.0 * camera.half_width / style.width
        if origin is not None and up_axis is not None:
            up = np.asarray(up_axis, dtype=np.float64)
            floor = float((cloud.xyz @ up).min()) if len(cloud) else 0.0
            marker, marker_px = _marker_stroke(camera, style, origin, up, floor)
            _draw_strokes(img, camera, [marker])
    return RenderedView(img, camera, tuple(legend), meters_per_px, marker_px)


def legend_lines(view: RenderedView) -> list[str]:
    """The textual key for a render, in the exact form prompts embed.

    Downstream consumers parse these lines verbatim, so the format is a
    contract: one `- <color>: <label> (instance <id>)` line per entry, then
    scale and camera-marker lines for orthographic maps.
    """
    lines = [f"- {name}: {label} (instance {iid})" for name, label, iid in view.legend]
    if view.meters_per_px is not None:
        lines.append(f"Scale: 1 px = {view.meters_per_px:.6f} m.")
    if view.marker_px is not None:
        lines.append(
            "Camera marker at pixel "
            f"({view.marker_px[0]:.1f}, {view.marker_px[1]:.1f}); it looks toward image-up."
        )
    return lines
