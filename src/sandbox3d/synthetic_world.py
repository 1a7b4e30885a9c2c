"""Analytic cuboid worlds with exact depth, masks, and relational answers.

The world frame has its ground plane at up-coordinate 0 with up = (0, -1, 0)
(the y axis points down, matching the camera convention), and every cuboid
rests on the ground. Depth is rendered by intersecting pixel rays with each
cuboid (slab method in the box frame) and with the ground plane; using the
unnormalized camera-frame direction ((x-cx)/fx, (y-cy)/fy, 1) makes the ray
parameter equal the camera-frame Z, so the nearest hit parameter IS the depth.

A cuboid's slab test runs only inside its window. When all eight corners
lie in front of the camera (z > 1e-6), the cuboid projects inside the
bounding rectangle of its projected corners, and the window is that
rectangle padded by one pixel, [floor(min) - 1, ceil(max) + 1], clipped to
the raster; a cuboid whose window is empty is skipped. When any corner is
at or behind the camera the window is the whole raster. Pixels outside the
window keep +inf, which is what the test would give there. The ground's
window is the rectangle of rows and columns that hold a ray descending in
the world (`_ground_window`); above the horizon of a level camera no ray
does. Ray directions are rotated into the world frame per window, and for
the ground per band of rows, so no full (h, w, 3) direction raster is made.

Background pixels are non-finite. A view is rendered in one pass
(`render_nearest`): each cuboid's windowed hits, in index order, then the
ground's, are folded into running depth and nearest-instance rasters, a
later layer taking a pixel only when strictly nearer, so ties go to the
lowest index (cuboids in world order, then the ground), and -1 where no
layer is finite. `instance_depths` keeps every layer as a (k+1, h, w)
stack, and `nearest_from_stack` folds a stack by the same rule, so the two
forms agree bit for bit. Depth, image and instance masks all read that one
`nearest`, so masks are pairwise disjoint by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import GenerationError
from .qa import (
    LETTERS,
    QARecord,
    TURN_BUCKET_TEXT,
    closer_side_text,
    evaluate_question,
    true_choice_spec,
    view_side_range_text,
)
from .sandbox_render import PALETTE
from .scene_model import (
    CameraIntrinsics,
    CameraPose,
    DepthGrid,
    OrientedBox3,
    rotation_about_axis,
)

UP_AXIS = np.array([0.0, -1.0, 0.0])

LABEL_VOCAB = ("box", "chair", "table", "lamp", "sofa", "crate", "plant", "stool")

GROUND_COLOR = (228, 228, 222)
SKY_COLOR = (240, 246, 250)

DEFAULT_WIDTH = 256
DEFAULT_HEIGHT = 256
DEFAULT_HFOV_DEG = 70.0


@dataclass(frozen=True)
class CuboidSpec:
    """One ground-resting cuboid: center, yaw about up, full size per axis."""

    center: tuple[float, float, float]
    yaw_deg: float
    size: tuple[float, float, float]
    label: str
    instance_id: int

    def axes(self) -> np.ndarray:
        return rotation_about_axis(UP_AXIS, self.yaw_deg)

    def box(self) -> OrientedBox3:
        """Ground-truth oriented box for comparisons with recovered scenes."""
        return OrientedBox3(
            np.array(self.center),
            self.axes(),
            np.array(self.size) / 2.0,
            self.label,
            self.instance_id,
        )


@dataclass(frozen=True)
class WorldBounds:
    """Placement volume and sampling ranges for world generation."""

    x_range: tuple[float, float] = (-2.0, 2.0)
    z_range: tuple[float, float] = (1.9, 4.4)
    size_range: tuple[float, float] = (0.3, 1.2)
    min_gap_m: float = 0.35  # minimum footprint separation between cuboids
    camera_height_m: float = 1.6
    edge_margin_px: int = 6
    max_attempts: int = 4000


# Benchmark scenes keep objects at the smaller end of the legal size range
# so the voting/clustering defaults (sized for room-scale objects sampled at
# 30 points per view) stay in their intended density regime.
BENCHMARK_BOUNDS = WorldBounds(size_range=(0.3, 0.8))


def bounds_to_dict(bounds: WorldBounds) -> dict:
    return {
        "x_range": list(bounds.x_range),
        "z_range": list(bounds.z_range),
        "size_range": list(bounds.size_range),
        "min_gap_m": bounds.min_gap_m,
        "camera_height_m": bounds.camera_height_m,
        "edge_margin_px": bounds.edge_margin_px,
        "max_attempts": bounds.max_attempts,
    }


def bounds_from_dict(d) -> WorldBounds:
    return WorldBounds(
        x_range=tuple(float(v) for v in d["x_range"]),
        z_range=tuple(float(v) for v in d["z_range"]),
        size_range=tuple(float(v) for v in d["size_range"]),
        min_gap_m=float(d["min_gap_m"]),
        camera_height_m=float(d["camera_height_m"]),
        edge_margin_px=int(d["edge_margin_px"]),
        max_attempts=int(d["max_attempts"]),
    )


@dataclass(frozen=True)
class WorldSpec:
    cuboids: tuple[CuboidSpec, ...]
    input_pose: CameraPose
    input_intrinsics: CameraIntrinsics
    seed: int

    def __post_init__(self):
        object.__setattr__(self, "cuboids", tuple(self.cuboids))

    @property
    def up_axis(self) -> np.ndarray:
        return UP_AXIS.copy()


def default_intrinsics(
    width: int = DEFAULT_WIDTH, height: int = DEFAULT_HEIGHT, hfov_deg: float = DEFAULT_HFOV_DEG
) -> CameraIntrinsics:
    return CameraIntrinsics.from_hfov(width, height, hfov_deg)


# ── World generation ───────────────────────────────────────────────────────


def _footprint_axes(yaw_deg: float) -> np.ndarray:
    th = math.radians(yaw_deg)
    return np.array([[math.cos(th), math.sin(th)], [-math.sin(th), math.cos(th)]])


def _footprints_separated(a: CuboidSpec, b: CuboidSpec, gap: float) -> bool:
    """2D separating-axis test on ground footprints, inflated by gap/2 each."""
    ca = np.array([a.center[0], a.center[2]])
    cb = np.array([b.center[0], b.center[2]])
    ha = np.array([a.size[0], a.size[2]]) / 2.0 + gap / 2.0
    hb = np.array([b.size[0], b.size[2]]) / 2.0 + gap / 2.0
    axes_a = _footprint_axes(a.yaw_deg)
    axes_b = _footprint_axes(b.yaw_deg)
    d = cb - ca
    for axis in (*axes_a, *axes_b):
        ra = ha[0] * abs(axis @ axes_a[0]) + ha[1] * abs(axis @ axes_a[1])
        rb = hb[0] * abs(axis @ axes_b[0]) + hb[1] * abs(axis @ axes_b[1])
        if abs(d @ axis) > ra + rb:
            return True
    return False


# `scene_model.box_corners` signs. Frustum tests and render windows build
# corners from them directly: an OrientedBox3 per cuboid costs ten times as much.
_CORNER_SIGNS = np.array([[1.0 if (i >> a) & 1 else -1.0 for a in range(3)] for i in range(8)])


def _corners(cub: CuboidSpec, axes: np.ndarray) -> np.ndarray:
    """`box_corners(cub.box())`, by the same float operations."""
    return np.array(cub.center) + (_CORNER_SIGNS * (np.array(cub.size) / 2.0)) @ axes.T


def _in_frustum(cuboid: CuboidSpec, pose: CameraPose, intr: CameraIntrinsics, margin: int) -> bool:
    """Every corner in front of the camera and `margin` px inside the frame.

    One array pass with `project`'s float operations per corner. The
    corners equal `box_corners(cuboid.box())`; the camera transform equals
    the per-corner one bit for bit when the rotation is a signed
    permutation, as `generate_world`'s identity pose is.
    """
    half = np.array(cuboid.size) / 2.0
    if not np.all(half > 0):
        raise ValueError("half extents must be positive")  # as cuboid.box() would
    cam = pose.inverse_transform(_corners(cuboid, cuboid.axes()))
    z = cam[:, 2]
    if not np.all(z > 0):
        return False
    u = intr.fx * cam[:, 0] / z + intr.cx
    v = intr.fy * cam[:, 1] / z + intr.cy
    inside = (margin <= u) & (u < intr.width - margin) & (margin <= v) & (v < intr.height - margin)
    return bool(inside.all())


def generate_world(seed: int, k: int, bounds: WorldBounds | None = None) -> WorldSpec:
    """Rejection-sample k cuboids that are separated, grounded, and in frame."""
    if not 1 <= k <= 8:
        raise ValueError("object count must be between 1 and 8")
    b = bounds or WorldBounds()
    rng = np.random.default_rng(seed)
    pose = CameraPose(np.eye(3), np.array([0.0, -b.camera_height_m, 0.0]))
    intr = default_intrinsics()

    cuboids: list[CuboidSpec] = []
    for i in range(k):
        for _ in range(b.max_attempts):
            size = tuple(rng.uniform(*b.size_range, size=3))
            yaw = float(rng.uniform(0.0, 360.0))
            x = float(rng.uniform(*b.x_range))
            z = float(rng.uniform(*b.z_range))
            label = str(rng.choice(LABEL_VOCAB))
            cand = CuboidSpec((x, -size[1] / 2.0, z), yaw, size, label, i)
            if not _in_frustum(cand, pose, intr, b.edge_margin_px):
                continue
            if all(_footprints_separated(cand, c, b.min_gap_m) for c in cuboids):
                cuboids.append(cand)
                break
        else:
            raise GenerationError(
                f"could not place object {i} of {k} within {b.max_attempts} attempts (seed {seed})"
            )
    return WorldSpec(tuple(cuboids), pose, intr, seed)


# ── Analytic rendering ─────────────────────────────────────────────────────


@lru_cache(maxsize=8)
def _pixel_dirs(fx: float, fy: float, cx: float, cy: float, w: int, h: int) -> np.ndarray:
    xs = (np.arange(w, dtype=np.float64) - cx) / fx
    ys = (np.arange(h, dtype=np.float64) - cy) / fy
    dirs = np.empty((h, w, 3))
    dirs[:, :, 0] = xs[None, :]
    dirs[:, :, 1] = ys[:, None]
    dirs[:, :, 2] = 1.0
    dirs.flags.writeable = False  # shared by every render at this resolution
    return dirs


def _cuboid_window(
    cub: CuboidSpec, axes: np.ndarray, pose: CameraPose, intr: CameraIntrinsics
) -> tuple[slice, slice] | None:
    """Rows and columns whose rays can hit the cuboid (see the module docstring).

    None when the padded rectangle misses the raster.
    """
    h, w = intr.height, intr.width
    cam = pose.inverse_transform(_corners(cub, axes))
    z = cam[:, 2]
    if not np.all(z > 1e-6):
        return slice(0, h), slice(0, w)
    u = intr.fx * cam[:, 0] / z + intr.cx
    v = intr.fy * cam[:, 1] / z + intr.cy
    x0, x1 = max(math.floor(u.min()) - 1, 0), min(math.ceil(u.max()) + 2, w)
    y0, y1 = max(math.floor(v.min()) - 1, 0), min(math.ceil(v.max()) + 2, h)
    if x0 >= x1 or y0 >= y1:
        return None
    return slice(y0, y1), slice(x0, x1)


# Margin of the ground window's sign test: far wider than the few ulps by
# which a computed world y can differ from its exact affine value.
_GROUND_MARGIN = 1e-9


def _ground_window(pose: CameraPose, dirs_cam: np.ndarray) -> tuple[slice, slice] | None:
    """Rows and columns whose rays can descend onto the ground (world dy > 0).

    A ray's world dy is affine in its camera direction, so along a row it
    peaks at an end column, and along a column at an end row. The rows and
    columns whose peak clears -margin form one rectangle that holds every
    descending ray. None when no ray descends.
    """
    a, b, c = pose.rotation[1]  # world y of the camera's x, y and z axes
    xs, ys = dirs_cam[0, :, 0], dirs_cam[:, 0, 1]
    rows = np.flatnonzero(b * ys + c + max(a * xs[0], a * xs[-1]) > -_GROUND_MARGIN)
    cols = np.flatnonzero(a * xs + c + max(b * ys[0], b * ys[-1]) > -_GROUND_MARGIN)
    if not len(rows) or not len(cols):
        return None
    return slice(int(rows[0]), int(rows[-1]) + 1), slice(int(cols[0]), int(cols[-1]) + 1)


def _slab_depths(
    cub: CuboidSpec, axes: np.ndarray, origin: np.ndarray, d: np.ndarray
) -> np.ndarray:
    """Slab test of rays `origin + t d` against one cuboid, per ray in `d`
    (world-frame directions, shape (rows, cols, 3)): the entry parameter of
    a hit in front of the origin, else +inf."""
    half = np.array(cub.size) / 2.0
    oo = axes.T @ (origin - np.array(cub.center))  # ray origin, box frame
    dd = d @ axes  # ray directions, box frame
    tmin = np.full(dd.shape[:2], -np.inf)
    tmax = np.full(dd.shape[:2], np.inf)
    for a in range(3):
        da = dd[:, :, a]
        with np.errstate(divide="ignore", invalid="ignore"):
            t1 = (-half[a] - oo[a]) / da
            t2 = (half[a] - oo[a]) / da
        lo = np.minimum(t1, t2)
        hi = np.maximum(t1, t2)
        parallel = da == 0.0
        inside = abs(oo[a]) <= half[a]
        lo = np.where(parallel, np.where(inside, -np.inf, np.inf), lo)
        hi = np.where(parallel, np.where(inside, np.inf, -np.inf), hi)
        tmin = np.maximum(tmin, lo)
        tmax = np.minimum(tmax, hi)
    hit = (tmin <= tmax) & (tmin > 0)
    return np.where(hit, tmin, np.inf)


# Pixels per band of ground rays: a band's world directions are a small
# temporary, never a full (h, w, 3) raster.
_GROUND_BAND_PX = 1 << 14


def _layers(world: WorldSpec, pose: CameraPose, intr: CameraIntrinsics):
    """Each instance's hit depths as `(index, window, hits)`: cuboids in
    index order inside their windows, then the ground inside its window, in
    bands of rows.

    Directions are rotated to the world frame per window or band by the
    same matrix product as for the whole raster, so every value is the one
    a full (h, w, 3) direction raster would give; a matrix-vector product
    for the ground's world y alone rounds differently.
    """
    dirs_cam = _pixel_dirs(intr.fx, intr.fy, intr.cx, intr.cy, intr.width, intr.height)
    rt = pose.rotation.T
    origin = pose.translation
    for idx, cub in enumerate(world.cuboids):
        axes = cub.axes()
        window = _cuboid_window(cub, axes, pose, intr)
        if window is not None:
            yield idx, window, _slab_depths(cub, axes, origin, dirs_cam[window] @ rt)

    # Ground plane y = 0; the camera is above it (negative y), so rays with
    # positive world dy descend onto it.
    window = _ground_window(pose, dirs_cam)
    if window is None:
        return
    rows, cols = window
    band = max(1, _GROUND_BAND_PX // (cols.stop - cols.start))
    for y in range(rows.start, rows.stop, band):
        part = slice(y, min(y + band, rows.stop)), cols
        dy = (dirs_cam[part] @ rt)[:, :, 1]
        hits = np.full(dy.shape, np.inf)
        np.divide(-origin[1], dy, out=hits, where=dy > 0)
        hits[hits <= 0] = np.inf
        yield len(world.cuboids), part, hits


def instance_depths(world: WorldSpec, pose: CameraPose, intr: CameraIntrinsics) -> np.ndarray:
    """Per-instance hit depth stack, shape (k+1, h, w); the ground is last.

    Entries are camera-frame Z of the nearest intersection with that instance
    alone, +inf where the ray misses it. Each instance's test runs only
    inside its window (`_cuboid_window`, `_ground_window`); every pixel
    outside it stays +inf. The layered form of `render_nearest`.
    """
    out = np.full((len(world.cuboids) + 1, intr.height, intr.width), np.inf)
    for idx, window, hits in _layers(world, pose, intr):
        out[idx][window] = hits
    return out


def _fold_nearest(layers, shape: tuple[int, int], count: int) -> tuple[np.ndarray, np.ndarray]:
    """Fold `(index, window, hits)` layers, in the order given, into the
    nearest depth and the index that holds it: a layer takes a pixel only
    when strictly nearer, so ties go to the earliest; -1 where nothing is
    finite. `nearest`'s dtype is the smallest signed integer that holds
    `count` indices."""
    depth = np.full(shape, np.inf)
    nearest = np.zeros(shape, dtype=np.min_scalar_type(-count))
    for index, window, hits in layers:
        closer = hits < depth[window]
        np.copyto(depth[window], hits, where=closer)
        np.copyto(nearest[window], index, where=closer)
    nearest[~np.isfinite(depth)] = -1
    return depth, nearest


def render_nearest(
    world: WorldSpec, pose: CameraPose, intr: CameraIntrinsics
) -> tuple[np.ndarray, np.ndarray]:
    """`nearest_from_stack(instance_depths(world, pose, intr))` in one pass:
    each layer's windowed hits are folded in as they are made, so no stack
    is allocated."""
    shape = (intr.height, intr.width)
    return _fold_nearest(_layers(world, pose, intr), shape, len(world.cuboids) + 1)


def nearest_from_stack(stack: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nearest depth and the layer that holds it, in one pass over the stack.

    Layers are visited in index order and a later layer takes a pixel only
    when strictly nearer, so ties go to the lowest index. `nearest` is -1
    where no layer is finite (the sky); its dtype is the smallest signed
    integer that holds the layer count.
    """
    layers = ((i, (slice(None), slice(None)), layer) for i, layer in enumerate(stack))
    return _fold_nearest(layers, stack.shape[1:], len(stack))


def color_table(world: WorldSpec) -> np.ndarray:
    """(k+2, 3) uint8 flat colours indexed by `nearest`: cuboids, ground, sky at -1."""
    cuboids = [PALETTE[c.instance_id % len(PALETTE)][1] for c in world.cuboids]
    return np.array([*cuboids, GROUND_COLOR, SKY_COLOR], dtype=np.uint8)


def depth_from_stack(stack: np.ndarray) -> DepthGrid:
    return DepthGrid(nearest_from_stack(stack)[0])


def mask_from_stack(stack: np.ndarray, index: int) -> np.ndarray:
    """Boolean raster of pixels whose nearest hit is cuboid `index`."""
    return nearest_from_stack(stack)[1] == index


def image_from_stack(world: WorldSpec, stack: np.ndarray) -> np.ndarray:
    """Flat-shaded RGB: per-instance palette colors, grey ground, pale sky."""
    return color_table(world).take(nearest_from_stack(stack)[1], axis=0)


# ── Relational ground truth ────────────────────────────────────────────────


def ground_coords(world: WorldSpec, point) -> tuple[float, float]:
    """(right, forward) ground-plane coordinates in the input camera frame."""
    up = UP_AXIS
    fwd = world.input_pose.forward()
    fwd = fwd - (fwd @ up) * up
    fwd = fwd / np.linalg.norm(fwd)
    right = np.cross(-up, fwd)  # camera y is -up, x = y cross z
    rel = np.asarray(point, dtype=np.float64) - world.input_pose.translation
    return float(rel @ right), float(rel @ fwd)


def _instance_by_id(world: WorldSpec, instance_id: int) -> CuboidSpec:
    for c in world.cuboids:
        if c.instance_id == instance_id:
            return c
    raise ValueError(f"question references unknown instance {instance_id}")


def _gold_index(world: WorldSpec, payload: dict) -> int:
    if "a" not in payload:
        raise ValueError("malformed question payload: missing role 'a'")
    pos_a = ground_coords(world, _instance_by_id(world, payload["a"]["instance_id"]).center)
    if "b" in payload:
        pos_b = ground_coords(world, _instance_by_id(world, payload["b"]["instance_id"]).center)
    else:
        pos_b = (0.0, 1.0)  # unused by single-object templates
    return evaluate_question(payload, pos_a, pos_b)


def oracle_answer(world: WorldSpec, record: QARecord) -> str:
    """Exact answer letter computed from the world specification."""
    idx = _gold_index(world, record.payload)
    if idx >= len(record.choices):
        raise ValueError("choice_specs disagree with the choice list")
    return LETTERS[idx]


# ── Question generation ────────────────────────────────────────────────────

_MARGIN_DIST_M = 0.35
_MARGIN_ANGLE_DEG = 6.0

_TEMPLATE_CATEGORY = {
    "ego_move": "EgoM",
    "object_move": "ObjectM",
    "goal_aim": "GoalAim",
    "action_consequence": "ActCons",
    "perspective": "Perspect",
}

_EGO_MOVES = (
    ("forward", (0.0, 1.0)),
    ("backward", (0.0, -1.0)),
    ("to your right", (1.0, 0.0)),
    ("to your left", (-1.0, 0.0)),
)

_OBJECT_MOVES = (
    ("to your left", (-1.0, 0.0)),
    ("to your right", (1.0, 0.0)),
    ("farther away along your viewing direction", (0.0, 1.0)),
    ("nearer along your viewing direction", (0.0, -1.0)),
)


def _closer_side_ok(payload, pos_a, pos_b) -> bool:
    """Require comfortable margins so noiseless recovery answers match."""
    try:
        spec = true_choice_spec(payload, pos_a, pos_b)
    except ValueError:
        return False
    # Recompute the post-move geometry to measure the margins directly.
    hypot = math.hypot
    if payload["template"] == "ego_move":
        du, dw = payload["move"]["right"], payload["move"]["forward"]
        pa = (pos_a[0] - du, pos_a[1] - dw)
        pb = (pos_b[0] - du, pos_b[1] - dw)
    elif payload["template"] == "object_move":
        du, dw = payload["move"]["right"], payload["move"]["forward"]
        pa = pos_a
        pb = (pos_b[0] + du, pos_b[1] + dw)
    else:  # action_consequence
        d = hypot(*pos_b)
        if d < payload["dist"] + 0.3:  # pulling it past the camera is nonsense
            if payload["action"] == "toward":
                return False
        toward = ((0.0 - pos_b[0]) / d, (0.0 - pos_b[1]) / d)
        sign = 1.0 if payload["action"] == "toward" else -1.0
        pa = pos_a
        pb = (
            pos_b[0] + sign * payload["dist"] * toward[0],
            pos_b[1] + sign * payload["dist"] * toward[1],
        )
    da, db = hypot(*pa), hypot(*pb)
    if abs(da - db) < _MARGIN_DIST_M:
        return False
    winner = pa if da < db else pb
    if abs(winner[0]) < _MARGIN_DIST_M:
        return False
    if spec["side"] not in ("left", "right"):
        return False
    return True


def _eligible_pairs(world: WorldSpec, rng) -> list[tuple[CuboidSpec, CuboidSpec]]:
    labels = [c.label for c in world.cuboids]
    unique = [c for c in world.cuboids if labels.count(c.label) == 1]
    pairs = [
        (a, b) for a in unique for b in unique if a.instance_id != b.instance_id
    ]
    rng.shuffle(pairs)
    return pairs


def _closer_side_choices(label_a: str, label_b: str):
    specs = [
        {"kind": "closer_side", "closer": "a", "side": "left"},
        {"kind": "closer_side", "closer": "a", "side": "right"},
        {"kind": "closer_side", "closer": "b", "side": "left"},
        {"kind": "closer_side", "closer": "b", "side": "right"},
    ]
    texts = [
        closer_side_text(label_a, "left"),
        closer_side_text(label_a, "right"),
        closer_side_text(label_b, "left"),
        closer_side_text(label_b, "right"),
    ]
    return specs, texts


def _generate_one(world: WorldSpec, template: str, rng) -> tuple[str, dict, list, list] | None:
    """One attempt at a question; returns (text, payload, specs, texts) or None."""
    pairs = _eligible_pairs(world, rng)
    if template == "goal_aim":
        targets = [c for c in world.cuboids if [x.label for x in world.cuboids].count(c.label) == 1]
        rng.shuffle(targets)
        for a in targets:
            pos = ground_coords(world, np.array(a.center))
            theta = math.degrees(math.atan2(pos[0], pos[1]))
            if min(abs(theta - e) for e in (-20.0, 0.0, 20.0)) < _MARGIN_ANGLE_DEG:
                continue
            payload = {
                "template": "goal_aim",
                "a": {"label": a.label, "instance_id": a.instance_id},
                "choice_specs": [{"kind": "turn_bucket", "bucket": i} for i in range(4)],
            }
            text = (
                f"You want to walk straight to the {a.label}. Relative to your current "
                "facing direction, how should you turn to face it?"
            )
            return text, payload, payload["choice_specs"], list(TURN_BUCKET_TEXT)
        return None

    if not pairs:
        return None
    for a, b in pairs:
        pos_a = ground_coords(world, np.array(a.center))
        pos_b = ground_coords(world, np.array(b.center))
        if template == "ego_move":
            name, vec = _EGO_MOVES[int(rng.integers(len(_EGO_MOVES)))]
            dist = float(rng.choice((0.75, 1.0, 1.25)))
            payload = {
                "template": "ego_move",
                "a": {"label": a.label, "instance_id": a.instance_id},
                "b": {"label": b.label, "instance_id": b.instance_id},
                "move": {"right": vec[0] * dist, "forward": vec[1] * dist},
            }
            text = (
                f"Suppose you step {dist:.2f} m {name}, keeping your current heading. "
                f"Between the {a.label} and the {b.label}, which would then be closer "
                "to you, and on which side of you would it lie?"
            )
        elif template == "object_move":
            name, vec = _OBJECT_MOVES[int(rng.integers(len(_OBJECT_MOVES)))]
            dist = float(rng.choice((0.75, 1.0, 1.25)))
            payload = {
                "template": "object_move",
                "a": {"label": a.label, "instance_id": a.instance_id},
                "b": {"label": b.label, "instance_id": b.instance_id},
                "move": {"right": vec[0] * dist, "forward": vec[1] * dist},
            }
            text = (
                f"Suppose the {b.label} slides {dist:.2f} m {name} (directions are "
                f"from your viewpoint). Between the {a.label} and the {b.label}, "
                "which would then be closer to you, and on which side of you would it lie?"
            )
        elif template == "action_consequence":
            action = "toward" if rng.integers(2) == 0 else "away"
            dist = 1.0
            payload = {
                "template": "action_consequence",
                "a": {"label": a.label, "instance_id": a.instance_id},
                "b": {"label": b.label, "instance_id": b.instance_id},
                "action": action,
                "dist": dist,
            }
            verb = (
                f"pulled the {b.label} {dist:.2f} m straight toward you"
                if action == "toward"
                else f"pushed the {b.label} {dist:.2f} m straight away from you"
            )
            text = (
                f"If you {verb}, which of the {a.label} and the {b.label} would then "
                "be closer to you, and on which side of you would it lie?"
            )
        elif template == "perspective":
            rel = (pos_a[0] - pos_b[0], pos_a[1] - pos_b[1])
            d_ab = math.hypot(*rel)
            d_b_cam = math.hypot(*pos_b)
            facing = ((0.0 - pos_b[0]) / d_b_cam, (0.0 - pos_b[1]) / d_b_cam)
            side_comp = rel[0] * facing[1] - rel[1] * facing[0]
            if abs(d_ab - d_b_cam) < _MARGIN_DIST_M or abs(side_comp) < _MARGIN_DIST_M:
                continue
            payload = {
                "template": "perspective",
                "a": {"label": a.label, "instance_id": a.instance_id},
                "b": {"label": b.label, "instance_id": b.instance_id},
            }
            specs = [
                {"kind": "view_side_range", "side": s, "range": r}
                for s in ("left", "right")
                for r in ("nearer", "farther")
            ]
            texts = [
                view_side_range_text(b.label, s, r)
                for s in ("left", "right")
                for r in ("nearer", "farther")
            ]
            text = (
                f"Imagine standing at the {b.label}, facing the spot where you stand "
                f"now. From that viewpoint, where is the {a.label}?"
            )
            payload["choice_specs"] = specs
            return text, payload, specs, texts
        else:
            raise ValueError(f"unknown template {template!r}")

        if template in ("ego_move", "object_move", "action_consequence"):
            if not _closer_side_ok(payload, pos_a, pos_b):
                continue
            specs, texts = _closer_side_choices(a.label, b.label)
            payload["choice_specs"] = specs
            return text, payload, specs, texts
    return None


def generate_questions(
    world: WorldSpec, n: int, seed: int, bounds: WorldBounds | None = None
) -> list[QARecord]:
    """Deterministically generate n questions, balanced across the templates.

    When bounds is given it is embedded in each scene dict so a consumer can
    regenerate the exact world from (seed, objects, bounds) alone.

    Raises GenerationError when the world cannot support a template (for
    example when no pair of uniquely labeled objects has safe margins).
    """
    rng = np.random.default_rng(seed)
    templates = list(_TEMPLATE_CATEGORY)
    scene = {"kind": "synthetic", "seed": int(world.seed), "objects": len(world.cuboids)}
    if bounds is not None:
        scene["bounds"] = bounds_to_dict(bounds)
    records = []
    for i in range(n):
        template = templates[i % len(templates)]
        made = None
        for _ in range(64):
            made = _generate_one(world, template, rng)
            if made is not None:
                break
        if made is None:
            raise GenerationError(
                f"world seed {world.seed} cannot support template {template}"
            )
        text, payload, specs, texts = made
        perm = list(rng.permutation(len(specs)))
        payload = dict(payload, choice_specs=[specs[j] for j in perm])
        choices = tuple(texts[j] for j in perm)
        records.append(
            QARecord(
                qid=f"s{world.seed}-q{i}",
                scene=dict(scene),
                question=text,
                choices=choices,
                gold=LETTERS[_gold_index(world, payload)],
                category=_TEMPLATE_CATEGORY[template],
                payload=payload,
            )
        )
    return records


def build_benchmark(
    n_questions: int,
    base_seed: int = 0,
    objects_range: tuple[int, int] = (2, 5),
    questions_per_world: int = 5,
    bounds: WorldBounds = BENCHMARK_BOUNDS,
) -> list[QARecord]:
    """Assemble a benchmark from consecutive world seeds; unusable worlds are
    skipped so the result stays balanced across templates."""
    records: list[QARecord] = []
    seed = base_seed
    lo, hi = objects_range
    while len(records) < n_questions:
        k = lo + (seed - base_seed) % (hi - lo + 1)
        try:
            world = generate_world(seed, k, bounds)
            take = min(questions_per_world, n_questions - len(records))
            qs = generate_questions(world, take, seed=seed + 7919, bounds=bounds)
        except GenerationError:
            seed += 1
            continue
        records.extend(qs)
        seed += 1
        if seed - base_seed > 50 * max(1, n_questions):
            raise GenerationError("benchmark budget exhausted")
    return records
