from __future__ import annotations

import json

import numpy as np
import pytest

from sandbox3d import BundleFormatError
from sandbox3d.bundle import load_bundle, write_bundle
from sandbox3d.scene_model import (
    CameraIntrinsics,
    CameraPose,
    DepthGrid,
    InstanceMask,
    ViewFrame,
    ViewId,
    rotation_about_axis,
)


def _frame(view_id, seed=0):
    rng = np.random.default_rng(seed)
    k = CameraIntrinsics(100.0, 90.0, 16.0, 12.0, 32, 24)
    pose = CameraPose(
        rotation_about_axis((0.0, 1.0, 0.0), 10.0 * seed), np.array([0.1 * seed, -1.6, 0.0])
    )
    depth = rng.uniform(0.5, 5.0, size=(24, 32))
    depth[0, 0] = np.inf
    return ViewFrame(
        image=rng.integers(0, 256, size=(24, 32, 3), dtype=np.uint8),
        depth=DepthGrid(depth),
        intrinsics=k,
        pose=pose,
        view_id=view_id,
    )


def test_bundle_round_trip(tmp_path):
    views = [_frame(ViewId(-1, -1), 0), _frame(ViewId(0, 0), 1), _frame(ViewId(0, 1), 2)]
    bits = np.zeros((24, 32), dtype=bool)
    bits[5:10, 5:10] = True
    masks = {
        (ViewId(0, 0), 0): InstanceMask(bits, 0, "chair"),
        (ViewId(-1, -1), 1): InstanceMask(~bits, 1, "lamp"),
    }
    manifest = write_bundle(tmp_path / "b", views, masks, scene_id="scene-7")
    assert manifest.name == "manifest.json"
    bundle = load_bundle(tmp_path / "b")
    assert bundle.scene_id == "scene-7"
    assert len(bundle.views) == 3
    got = bundle.frames_by_view()
    for view in views:
        back = got[view.view_id]
        np.testing.assert_array_equal(back.image, view.image)
        # depth survives float32 round trip exactly (it was written as f32)
        np.testing.assert_array_equal(
            back.depth.values, view.depth.values.astype(np.float32).astype(np.float64)
        )
        np.testing.assert_allclose(back.pose.rotation, view.pose.rotation, atol=1e-12)
        np.testing.assert_allclose(back.pose.translation, view.pose.translation, atol=1e-12)
        assert back.intrinsics == view.intrinsics
    assert set(bundle.masks) == set(masks)
    np.testing.assert_array_equal(bundle.masks[(ViewId(0, 0), 0)].bits, bits)
    assert bundle.masks[(ViewId(0, 0), 0)].label == "chair"
    assert bundle.input_view().view_id == ViewId(-1, -1)
    np.testing.assert_array_equal(bundle.up_axis, [0.0, -1.0, 0.0])


def test_bundle_write_deterministic(tmp_path):
    views = [_frame(ViewId(-1, -1), 0)]
    write_bundle(tmp_path / "a", views, scene_id="s")
    write_bundle(tmp_path / "b", views, scene_id="s")
    for name in ("manifest.json", "input.png", "input.f32"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_bundle_missing_manifest(tmp_path):
    with pytest.raises(BundleFormatError, match="manifest"):
        load_bundle(tmp_path / "nope")


def _write_and_mangle(tmp_path, mutate):
    root = tmp_path / "b"
    write_bundle(root, [_frame(ViewId(-1, -1), 0)], scene_id="s")
    manifest = json.loads((root / "manifest.json").read_text())
    mutate(manifest, root)
    (root / "manifest.json").write_text(json.dumps(manifest))
    return root


def test_bundle_field_errors_are_named(tmp_path):
    def drop_pose(m, root):
        del m["views"][0]["pose"]

    root = _write_and_mangle(tmp_path, drop_pose)
    with pytest.raises(BundleFormatError, match="pose"):
        load_bundle(root)


def test_bundle_bad_pose_shape(tmp_path):
    def truncate_pose(m, root):
        m["views"][0]["pose"] = m["views"][0]["pose"][:12]

    root = _write_and_mangle(tmp_path, truncate_pose)
    with pytest.raises(BundleFormatError, match="pose"):
        load_bundle(root)


def test_bundle_duplicate_view_ids(tmp_path):
    def duplicate(m, root):
        m["views"].append(dict(m["views"][0]))

    root = _write_and_mangle(tmp_path, duplicate)
    with pytest.raises(BundleFormatError, match="view_id"):
        load_bundle(root)


def test_bundle_image_size_mismatch(tmp_path):
    def shrink(m, root):
        m["views"][0]["width"] = 16

    root = _write_and_mangle(tmp_path, shrink)
    with pytest.raises(BundleFormatError):
        load_bundle(root)


def test_bundle_missing_depth_file(tmp_path):
    def remove_depth(m, root):
        (root / m["views"][0]["depth"]).unlink()

    root = _write_and_mangle(tmp_path, remove_depth)
    with pytest.raises(BundleFormatError, match="depth"):
        load_bundle(root)


def test_bundle_bad_up_axis(tmp_path):
    def mangle_up(m, root):
        m["up_axis"] = [0.0, -1.0]

    root = _write_and_mangle(tmp_path, mangle_up)
    with pytest.raises(BundleFormatError, match="up_axis"):
        load_bundle(root)


def test_bundle_mask_binarization(tmp_path):
    # mask rasters threshold at >127 on load
    root = tmp_path / "b"
    frame = _frame(ViewId(-1, -1), 0)
    bits = np.zeros((24, 32), dtype=bool)
    bits[3, 4] = True
    write_bundle(root, [frame], {(ViewId(-1, -1), 0): InstanceMask(bits, 0, "box")})
    from sandbox3d.image_io import read_png, write_png

    name = "mask_input_obj0.png"
    raster = read_png(root / name)
    assert raster.max() == 255
    raster[raster == 255] = 200  # still above threshold
    raster[0, 0] = 127  # at threshold: stays unset
    write_png(root / name, raster)
    bundle = load_bundle(root)
    np.testing.assert_array_equal(bundle.masks[(ViewId(-1, -1), 0)].bits, bits)


def test_bundle_no_input_view(tmp_path):
    root = tmp_path / "b"
    write_bundle(root, [_frame(ViewId(0, 0), 1)], scene_id="s")
    bundle = load_bundle(root)
    with pytest.raises(BundleFormatError, match="input view"):
        bundle.input_view()


def _truncate(path):
    # drops IEND and the tail of IDAT, so the zlib stream is cut short
    path.write_bytes(path.read_bytes()[:-20])


def _not_png(path):
    path.write_bytes(b"these bytes are not an image")


@pytest.mark.parametrize("damage", [_truncate, _not_png], ids=["truncated", "not_png"])
@pytest.mark.parametrize(
    "name, field",
    [("input.png", r"views\[0\]\.image"), ("mask_input_obj0.png", r"masks\[0\]\.path")],
    ids=["image", "mask"],
)
def test_bundle_undecodable_raster_is_named(tmp_path, damage, name, field):
    root = tmp_path / "b"
    bits = np.zeros((24, 32), dtype=bool)
    bits[3:9, 4:12] = True
    masks = {(ViewId(-1, -1), 0): InstanceMask(bits, 0, "box")}
    write_bundle(root, [_frame(ViewId(-1, -1), 0)], masks, scene_id="s")
    damage(root / name)
    with pytest.raises(BundleFormatError, match=rf"{field}: {name}"):
        load_bundle(root)
