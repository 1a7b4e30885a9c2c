from __future__ import annotations

import math

import numpy as np
import pytest

from sandbox3d import synthetic_world
from sandbox3d.errors import BehindCameraError
from sandbox3d.providers import SyntheticRig
from sandbox3d.qa import evaluate_question
from sandbox3d.sandbox_render import PALETTE
from sandbox3d.scene_model import (
    CameraIntrinsics,
    CameraPose,
    ViewId,
    backproject,
    box_corners,
    project,
    rotation_about_axis,
)
from sandbox3d.synthetic_world import (
    BENCHMARK_BOUNDS,
    GROUND_COLOR,
    LABEL_VOCAB,
    SKY_COLOR,
    UP_AXIS,
    CuboidSpec,
    GenerationError,
    WorldBounds,
    WorldSpec,
    _cuboid_window,
    _ground_window,
    _pixel_dirs,
    bounds_from_dict,
    bounds_to_dict,
    build_benchmark,
    default_intrinsics,
    depth_from_stack,
    generate_questions,
    generate_world,
    ground_coords,
    image_from_stack,
    instance_depths,
    mask_from_stack,
    nearest_from_stack,
    oracle_answer,
    render_nearest,
)
from sandbox3d.trajectory_control import AbstractMotion, instantiate_trajectories


# ── Full-raster reference renderer ─────────────────────────────────────────
# The slab test on every pixel for every cuboid, and the argmin reduction,
# as the renderer computed them before windows: the oracle the windowed
# render must match bit for bit.


def _ref_instance_depths(world, pose, intr):
    xs = (np.arange(intr.width, dtype=np.float64) - intr.cx) / intr.fx
    ys = (np.arange(intr.height, dtype=np.float64) - intr.cy) / intr.fy
    dirs_cam = np.empty((intr.height, intr.width, 3))
    dirs_cam[:, :, 0] = xs[None, :]
    dirs_cam[:, :, 1] = ys[:, None]
    dirs_cam[:, :, 2] = 1.0
    d_world = dirs_cam @ pose.rotation.T
    origin = pose.translation
    h, w = intr.height, intr.width
    out = np.full((len(world.cuboids) + 1, h, w), np.inf)
    for idx, cub in enumerate(world.cuboids):
        axes = cub.axes()
        half = np.array(cub.size) / 2.0
        oo = axes.T @ (origin - np.array(cub.center))
        dd = d_world @ axes
        tmin = np.full((h, w), -np.inf)
        tmax = np.full((h, w), np.inf)
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
        out[idx] = np.where(hit, tmin, np.inf)
    dy = d_world[:, :, 1]
    with np.errstate(divide="ignore", invalid="ignore"):
        tg = -origin[1] / dy
    out[-1] = np.where((dy > 0) & (tg > 0), tg, np.inf)
    return out


def _ref_mask_from_stack(stack, index):
    return (np.argmin(stack, axis=0) == index) & np.isfinite(stack.min(axis=0))


def _ref_image_from_stack(world, stack):
    nearest = np.argmin(stack, axis=0)
    finite = np.isfinite(stack.min(axis=0))
    h, w = stack.shape[1:]
    img = np.empty((h, w, 3), dtype=np.uint8)
    img[:] = SKY_COLOR
    img[finite & (nearest == len(world.cuboids))] = GROUND_COLOR
    for idx, cub in enumerate(world.cuboids):
        img[finite & (nearest == idx)] = PALETTE[cub.instance_id % len(PALETTE)][1]
    return img


def _tall_box_world():
    # one axis-aligned cuboid dead ahead; tall enough to cross the eye ray
    cub = CuboidSpec((0.0, -1.0, 3.0), 0.0, (1.0, 2.0, 1.0), "box", 0)
    pose = CameraPose(np.eye(3), np.array([0.0, -1.6, 0.0]))
    return WorldSpec((cub,), pose, default_intrinsics(), seed=0)


def test_generate_world_deterministic():
    a = generate_world(3, 3)
    b = generate_world(3, 3)
    assert a.cuboids == b.cuboids
    c = generate_world(4, 3)
    assert c.cuboids != a.cuboids


def test_generate_world_respects_bounds():
    bounds = WorldBounds()
    for seed in range(8):
        world = generate_world(seed, 1 + seed % 5, bounds)
        assert len(world.cuboids) == 1 + seed % 5
        for cub in world.cuboids:
            x, y, z = cub.center
            assert bounds.x_range[0] <= x <= bounds.x_range[1]
            assert bounds.z_range[0] <= z <= bounds.z_range[1]
            # resting on the ground: center y is half the height above y=0
            assert y == pytest.approx(-cub.size[1] / 2.0)
            assert all(bounds.size_range[0] <= s <= bounds.size_range[1] for s in cub.size)
            assert cub.label in LABEL_VOCAB
        # pairwise ground-plane separation: centers further apart than the
        # sum of footprint circumradii is not guaranteed, but no overlap is
        for i, a in enumerate(world.cuboids):
            for b in world.cuboids[i + 1 :]:
                d = math.hypot(a.center[0] - b.center[0], a.center[2] - b.center[2])
                ra = math.hypot(a.size[0], a.size[2]) / 2.0
                rb = math.hypot(b.size[0], b.size[2]) / 2.0
                assert d + 1e-9 >= bounds.min_gap_m  # coarse sanity bound
                assert d > 0.0
                del ra, rb


def test_generate_world_objects_fully_in_frame():
    bounds = WorldBounds()
    world = generate_world(11, 4, bounds)
    intr = world.input_intrinsics
    margin = bounds.edge_margin_px
    for cub in world.cuboids:
        for corner in box_corners(cub.box()):
            (u, v), z = project(corner, intr, world.input_pose)
            assert z > 0
            assert margin <= u <= intr.width - 1 - margin
            assert margin <= v <= intr.height - 1 - margin


def test_generate_world_validates_k():
    with pytest.raises(ValueError):
        generate_world(0, 0)
    with pytest.raises(ValueError):
        generate_world(0, 9)


def _ref_in_frustum(cuboid, pose, intr, margin):
    """The per-corner frustum test: the oracle `_in_frustum` must match."""
    try:
        for corner in box_corners(cuboid.box()):
            (u, v), _ = project(corner, intr, pose)
            if not (margin <= u < intr.width - margin and margin <= v < intr.height - margin):
                return False
    except BehindCameraError:
        return False
    return True


def test_in_frustum_matches_the_per_corner_test(monkeypatch):
    # every candidate placement generate_world tries, across both bounds and
    # every object count the benchmark draws, over seeds spread across 0-1499
    fast = synthetic_world._in_frustum
    verdicts = []

    def both(cuboid, pose, intr, margin):
        got = fast(cuboid, pose, intr, margin)
        assert got is _ref_in_frustum(cuboid, pose, intr, margin), cuboid
        verdicts.append(got)
        return got

    monkeypatch.setattr(synthetic_world, "_in_frustum", both)
    for seed in range(0, 1500, 100):
        for k in range(1, 6):
            for bounds in (WorldBounds(), BENCHMARK_BOUNDS):
                try:
                    generate_world(seed, k, bounds)
                except GenerationError:  # after max_attempts candidates, all checked
                    pass
    assert len(verdicts) > 5_000 and 0 < sum(verdicts) < len(verdicts)

    # corners behind the camera, straddling it, past either side, far and near
    world = generate_world(0, 1)
    pose, intr = world.input_pose, world.input_intrinsics
    for x, z in [(0.0, -3.0), (0.0, 0.2), (-2.6, 3.0), (2.6, 3.0), (0.0, 40.0), (0.0, 2.0)]:
        cub = CuboidSpec((x, -0.4, z), 30.0, (0.5, 0.8, 0.5), "box", 0)
        for margin in (0, 6, 200):
            assert fast(cub, pose, intr, margin) is _ref_in_frustum(cub, pose, intr, margin)

    # a non-positive size fails as building the cuboid's box does
    flat = CuboidSpec((0.0, 0.0, 3.0), 0.0, (0.5, 0.0, 0.5), "box", 0)
    with pytest.raises(ValueError, match="half extents must be positive"):
        flat.box()
    with pytest.raises(ValueError, match="half extents must be positive"):
        fast(flat, pose, intr, 6)


def _input_frame(world):
    rig = SyntheticRig(world)
    return rig, rig.input_frame()


def test_depth_hand_computed_front_face():
    # center-pixel ray travels straight ahead and hits the front face at
    # z = 3.0 - 0.5 = 2.5 m
    world = _tall_box_world()
    _, frame = _input_frame(world)
    cx, cy = int(world.input_intrinsics.cx), int(world.input_intrinsics.cy)
    assert frame.depth.at(cx, cy) == pytest.approx(2.5, abs=1e-9)


def test_depth_hand_computed_ground():
    # pixel 64 rows below center: dy = 64 / fy, ground at camera height 1.6,
    # so the hit depth is 1.6 * fy / 64
    world = _tall_box_world()
    intr = world.input_intrinsics
    _, frame = _input_frame(world)
    x, y = int(intr.cx) + 90, int(intr.cy) + 64  # off to the side of the box
    expect = 1.6 * intr.fy / 64.0
    assert frame.depth.at(x, y) == pytest.approx(expect, abs=1e-9)


def test_sky_pixels_have_infinite_depth():
    world = _tall_box_world()
    _, frame = _input_frame(world)
    # straight up and to the side: no box, no ground
    assert math.isinf(frame.depth.at(5, 5))


def test_instance_depth_stack_layers():
    world = _tall_box_world()
    stack = instance_depths(world, world.input_pose, world.input_intrinsics)
    assert stack.shape == (2, 256, 256)  # one cuboid + ground
    cx, cy = 128, 128
    assert stack[0, cy, cx] == pytest.approx(2.5)
    assert math.isinf(stack[1, cy, cx])  # eye-level ray never hits the ground
    assert math.isinf(stack[0, cy + 64, cx + 90])
    assert np.isfinite(stack[1, cy + 64, cx + 90])


def test_masks_disjoint_and_match_argmin():
    world = generate_world(7, 3)
    rig = SyntheticRig(world)
    masks = [rig.mask_bits(world.input_pose, i) for i in range(3)]
    stack = instance_depths(world, world.input_pose, world.input_intrinsics)
    total = np.zeros_like(masks[0], dtype=int)
    for i, m in enumerate(masks):
        assert m.sum() > 0
        np.testing.assert_array_equal(m, _ref_mask_from_stack(stack, i))
        total += m
    assert total.max() <= 1  # occlusion resolves overlaps


def test_mask_pixels_backproject_onto_cuboid_surface():
    world = generate_world(5, 2)
    intr = world.input_intrinsics
    rig, frame = _input_frame(world)
    for idx, cub in enumerate(world.cuboids):
        ys, xs = np.nonzero(rig.mask_bits(world.input_pose, idx))
        box = cub.box()
        for x, y in list(zip(xs, ys))[:: max(1, len(xs) // 50)]:
            p = backproject((float(x), float(y)), frame.depth.at(x, y), intr, world.input_pose)
            local = np.abs((p - box.center) @ box.axes) - box.half_extents
            # on the surface: no axis beyond its extent, one axis exactly at it
            assert local.max() <= 1e-6
            assert local.max() >= -1e-6


def test_image_colors_regions():
    world = _tall_box_world()
    _, frame = _input_frame(world)
    img = frame.image
    assert tuple(img[5, 5]) == SKY_COLOR
    assert tuple(img[192, 218]) == GROUND_COLOR
    assert tuple(img[128, 128]) not in (SKY_COLOR, GROUND_COLOR)


def test_rig_frame_round_trip():
    world = _tall_box_world()
    frame = SyntheticRig(world).frame(world.input_pose, ViewId(0, 2))
    assert frame.view_id == ViewId(0, 2)
    assert frame.image.shape == (256, 256, 3)
    assert frame.depth.at(128, 128) == pytest.approx(2.5)


def test_pixel_dirs_are_read_only():
    intr = default_intrinsics()
    dirs = _pixel_dirs(intr.fx, intr.fy, intr.cx, intr.cy, intr.width, intr.height)
    with pytest.raises(ValueError):
        dirs[0, 0, 0] = 1.0
    assert dirs[0, 0, 2] == 1.0


# ── Windowed render against the full-raster reference ─────────────────────


def _look(eye, yaw_deg, pitch_deg=0.0, roll_deg=0.0) -> CameraPose:
    """Camera at `eye` turned by yaw about up, then pitch about its x, roll about its z."""
    rot = (
        rotation_about_axis(UP_AXIS, yaw_deg)
        @ rotation_about_axis((1.0, 0.0, 0.0), pitch_deg)
        @ rotation_about_axis((0.0, 0.0, 1.0), roll_deg)
    )
    return CameraPose(rot, np.asarray(eye, dtype=np.float64))


# A seed per object count whose world places on the first tries.
_WORLD_SEEDS = {1: 11, 2: 12, 3: 13, 4: 14, 5: 15, 6: 16, 7: 19, 8: 3}


def _world_with_k(k: int, intr=None) -> WorldSpec:
    world = generate_world(_WORLD_SEEDS[k], k, BENCHMARK_BOUNDS)
    if intr is None:
        return world
    return WorldSpec(world.cuboids, world.input_pose, intr, world.seed)


def _trajectory_poses(world, m, t):
    return [
        world.input_pose.compose(rel)
        for motion in AbstractMotion
        for spec in instantiate_trajectories(motion, m, t, 0.25)
        for rel in spec.poses
    ]


def _special_poses(world, rng):
    """Cameras inside, on and beside cuboids; boxes behind or off the raster."""
    poses = []
    for cub in world.cuboids[:2]:
        box = cub.box()
        yaw, pitch, roll = rng.uniform(-180, 180), rng.uniform(-40, 40), rng.uniform(-20, 20)
        inside = box.center + box.axes @ (rng.uniform(-0.9, 0.9, 3) * box.half_extents)
        poses.append(_look(inside, yaw, pitch, roll))
        a = int(rng.integers(3))
        face = box.center + box.axes[:, a] * box.half_extents[a]  # on a face
        poses.append(_look(face, yaw, pitch))
        poses.append(_look(face, cub.yaw_deg + rng.uniform(-30, 30)))
        # beside the cuboid, looking along a face, so it straddles z = 0
        along = math.degrees(math.atan2(box.axes[0, 2], box.axes[2, 2]))
        for side in (-1.0, 1.0):
            gap = box.half_extents[0] + rng.uniform(0.02, 0.3)
            beside = box.center + side * gap * box.axes[:, 0]
            poses.append(_look(beside, along + rng.uniform(-10, 10), rng.uniform(-10, 10)))
    eye = world.input_pose.translation
    poses.append(_look(eye, 180.0))  # every cuboid behind the camera
    poses.append(_look(eye, 0.0, -80.0))  # looking up: sky and nothing else
    poses.append(_look(eye, rng.choice((-1, 1)) * 75.0, 5.0))  # cuboids off to one side
    poses.append(_look(eye + np.array([40.0, 0.0, 0.0]), 0.0))  # far off-raster
    return poses


def _tied_world():
    """Two identical cuboids, and a third whose front face is coplanar with theirs."""
    cubs = (
        CuboidSpec((0.0, -0.4, 3.0), 0.0, (0.8, 0.8, 0.8), "box", 0),
        CuboidSpec((0.0, -0.4, 3.0), 0.0, (0.8, 0.8, 0.8), "crate", 1),
        CuboidSpec((0.3, -0.3, 3.1), 0.0, (0.6, 0.6, 1.0), "lamp", 2),
    )
    pose = CameraPose(np.eye(3), np.array([0.0, -1.2, 0.0]))
    return WorldSpec(cubs, pose, default_intrinsics(), seed=0)


def _render_cases():
    rng = np.random.default_rng(20261018)
    cases = []
    for k in range(1, 9):
        world = _world_with_k(k)
        poses = [world.input_pose, *_trajectory_poses(world, 1, 2), *_special_poses(world, rng)]
        cases += [(world, pose) for pose in poses]
    world = _world_with_k(4)
    cases += [(world, pose) for pose in _trajectory_poses(world, 2, 2)]
    for k in (3, 8):  # the turned fans' first steps leave cuboids wholly behind
        world = _world_with_k(k)
        cases += [
            (world, world.input_pose.compose(spec.poses[0]))
            for motion in (AbstractMotion.LEFT, AbstractMotion.RIGHT)
            for spec in instantiate_trajectories(motion, 3, 1, 0.25)
        ]
    off_centre = CameraIntrinsics(430.0, 436.5, 371.25, 198.75, 640, 480)
    for intr in (default_intrinsics(512, 512), off_centre):
        world = _world_with_k(5, intr)
        poses = [world.input_pose, *_trajectory_poses(world, 1, 1), *_special_poses(world, rng)[::2]]
        cases += [(world, pose) for pose in poses]
    tied = _tied_world()
    cases += [(tied, pose) for pose in [tied.input_pose, *_trajectory_poses(tied, 1, 2)]]
    return cases


def test_windowed_render_matches_full_raster_reference():
    cases = _render_cases()
    straddling = behind = ties = 0
    for n, (world, pose) in enumerate(cases):
        intr = world.input_intrinsics
        stack = instance_depths(world, pose, intr)
        ref = _ref_instance_depths(world, pose, intr)
        assert np.array_equal(stack, ref), n
        ref_depth = ref.min(axis=0)
        ref_nearest = np.where(np.isfinite(ref_depth), np.argmin(ref, axis=0), -1)
        depth, nearest = nearest_from_stack(stack)
        assert np.array_equal(depth, ref_depth), n
        assert np.array_equal(depth_from_stack(stack).values, ref_depth), n
        assert np.array_equal(nearest, ref_nearest), n
        one_pass = render_nearest(world, pose, intr)  # the rig's render: no stack
        assert np.array_equal(one_pass[0], ref_depth), n
        assert np.array_equal(one_pass[1], ref_nearest), n
        assert (one_pass[0].dtype, one_pass[1].dtype) == (depth.dtype, nearest.dtype), n
        ties += np.count_nonzero(np.isfinite(ref_depth) & ((ref == ref_depth).sum(axis=0) > 1))
        assert np.array_equal(image_from_stack(world, stack), _ref_image_from_stack(world, ref)), n
        for i in range(len(world.cuboids) + 1):  # _ref_mask_from_stack, one argmin per case
            assert np.array_equal(mask_from_stack(stack, i), ref_nearest == i), (n, i)
        for idx, cub in enumerate(world.cuboids):
            z = pose.inverse_transform(box_corners(cub.box()))[:, 2]
            straddling += bool(z.min() <= 1e-6 < z.max() and np.isfinite(stack[idx]).any())
            if z.max() < -1e-6:  # wholly behind: skipped, no slab test at all
                assert _cuboid_window(cub, cub.axes(), pose, intr) is None, (n, idx)
                behind += 1
    assert len(cases) > 200
    assert straddling > 10  # the full-window fallback drew visible hits
    assert behind > 200  # cuboids wholly behind the camera, turned fans among them
    assert ties > 1000  # pixels where two layers share the nearest depth


def test_ground_window_is_what_lies_below_a_level_horizon():
    world = _world_with_k(3)
    intr = world.input_intrinsics
    dirs = _pixel_dirs(intr.fx, intr.fy, intr.cx, intr.cy, intr.width, intr.height)
    # cy = 128: the rows from the horizon (world dy 0, inside the margin)
    # down, every column; pitched up 80 degrees, no ray descends
    assert _ground_window(world.input_pose, dirs) == (slice(128, 256), slice(0, 256))
    assert _ground_window(_look(world.input_pose.translation, 0.0, 80.0), dirs) is None


def test_one_pass_render_matches_the_reference_at_1080p():
    # the input pose and each motion's fan of three first steps, at 1920x1080
    world = _world_with_k(3, default_intrinsics(1920, 1080))
    intr = world.input_intrinsics
    poses = {}
    for pose in [world.input_pose, *_trajectory_poses(world, 3, 1)]:
        poses.setdefault(pose.rotation.tobytes() + pose.translation.tobytes(), pose)
    assert len(poses) > 10  # fans share some poses: forward's three headings coincide
    for n, pose in enumerate(poses.values()):
        ref = _ref_instance_depths(world, pose, intr)
        assert np.array_equal(instance_depths(world, pose, intr), ref), n
        ref_depth = ref.min(axis=0)
        ref_nearest = np.where(np.isfinite(ref_depth), np.argmin(ref, axis=0), -1)
        depth, nearest = render_nearest(world, pose, intr)
        assert np.array_equal(depth, ref_depth), n
        assert np.array_equal(nearest, ref_nearest), n
        assert (depth.dtype, nearest.dtype) == (np.float64, np.int8), n


def test_ground_coords_camera_frame():
    world = _tall_box_world()
    # the box center is 3 m straight ahead of the camera
    u, w = ground_coords(world, np.array([0.0, -0.5, 3.0]))
    assert (u, w) == pytest.approx((0.0, 3.0))
    u, w = ground_coords(world, np.array([1.5, 0.0, 2.0]))
    assert (u, w) == pytest.approx((1.5, 2.0))


def test_ground_coords_invariant_under_joint_rotation():
    world = generate_world(9, 2)
    rot = rotation_about_axis(UP_AXIS, 73.0)
    pose = world.input_pose
    new_pose = CameraPose(rot @ pose.rotation, rot @ pose.translation)
    rotated = WorldSpec(
        tuple(
            CuboidSpec(tuple(rot @ np.array(c.center)), c.yaw_deg + 73.0, c.size, c.label, c.instance_id)
            for c in world.cuboids
        ),
        new_pose,
        world.input_intrinsics,
        world.seed,
    )
    for cub, rc in zip(world.cuboids, rotated.cuboids):
        a = ground_coords(world, np.array(cub.center))
        b = ground_coords(rotated, np.array(rc.center))
        assert a == pytest.approx(b, abs=1e-9)


def test_generate_questions_deterministic_and_balanced():
    world = generate_world(2, 4)
    qs = generate_questions(world, 10, seed=99)
    again = generate_questions(world, 10, seed=99)
    assert qs == again
    cats = [q.category for q in qs]
    assert cats[:5] == ["EgoM", "ObjectM", "GoalAim", "ActCons", "Perspect"]
    assert cats[5:] == cats[:5]
    assert len({q.qid for q in qs}) == 10


def test_gold_matches_independent_evaluation():
    # recompute each gold letter from true object positions through the
    # shared predicate evaluator
    world = generate_world(2, 4)
    by_id = {c.instance_id: c for c in world.cuboids}
    for rec in generate_questions(world, 10, seed=99):
        pos_a = ground_coords(world, np.array(by_id[rec.payload["a"]["instance_id"]].center))
        if "b" in rec.payload:
            pos_b = ground_coords(world, np.array(by_id[rec.payload["b"]["instance_id"]].center))
        else:
            pos_b = (0.0, 1.0)
        assert "ABCDE"[evaluate_question(rec.payload, pos_a, pos_b)] == rec.gold
        assert oracle_answer(world, rec) == rec.gold


def test_question_margins_are_comfortable():
    # distance comparisons are generated with at least 0.35 m of slack
    world = generate_world(2, 4)
    by_id = {c.instance_id: c for c in world.cuboids}
    for rec in generate_questions(world, 10, seed=99):
        payload = rec.payload
        if payload["template"] not in ("ego_move", "object_move"):
            continue
        pos_a = ground_coords(world, np.array(by_id[payload["a"]["instance_id"]].center))
        pos_b = ground_coords(world, np.array(by_id[payload["b"]["instance_id"]].center))
        du, dw = payload["move"]["right"], payload["move"]["forward"]
        if payload["template"] == "ego_move":
            pa = (pos_a[0] - du, pos_a[1] - dw)
            pb = (pos_b[0] - du, pos_b[1] - dw)
        else:
            pa, pb = pos_a, (pos_b[0] + du, pos_b[1] + dw)
        da, db = math.hypot(*pa), math.hypot(*pb)
        assert abs(da - db) >= 0.35
        winner = pa if da < db else pb
        assert abs(winner[0]) >= 0.35


def test_questions_reference_uniquely_labeled_objects():
    world = generate_world(2, 4)
    labels = [c.label for c in world.cuboids]
    for rec in generate_questions(world, 10, seed=99):
        for role in ("a", "b"):
            if role in rec.payload:
                assert labels.count(rec.payload[role]["label"]) == 1


def test_bounds_dict_round_trip():
    assert bounds_from_dict(bounds_to_dict(BENCHMARK_BOUNDS)) == BENCHMARK_BOUNDS
    assert bounds_from_dict(bounds_to_dict(WorldBounds())) == WorldBounds()
    assert BENCHMARK_BOUNDS.size_range == (0.3, 0.8)


def test_build_benchmark_shape_and_scenes():
    records = build_benchmark(12, base_seed=0)
    assert len(records) == 12
    assert len({r.qid for r in records}) == 12
    again = build_benchmark(12, base_seed=0)
    assert records == again
    for rec in records:
        assert rec.scene["kind"] == "synthetic"
        assert 2 <= rec.scene["objects"] <= 5
        # benchmark scenes pin their generation bounds
        assert bounds_from_dict(rec.scene["bounds"]) == BENCHMARK_BOUNDS
    # worlds contribute up to questions_per_world each
    seeds = {rec.scene["seed"] for rec in records}
    assert len(seeds) >= 3


def test_generate_questions_impossible_world_raises():
    # two identical labels leave no uniquely labeled pair
    cubs = (
        CuboidSpec((-1.0, -0.25, 3.0), 0.0, (0.5, 0.5, 0.5), "box", 0),
        CuboidSpec((1.0, -0.25, 3.0), 0.0, (0.5, 0.5, 0.5), "box", 1),
    )
    pose = CameraPose(np.eye(3), np.array([0.0, -1.6, 0.0]))
    world = WorldSpec(cubs, pose, default_intrinsics(), seed=1)
    with pytest.raises(GenerationError):
        generate_questions(world, 5, seed=0)
