from __future__ import annotations

import json
import struct
import zlib

import numpy as np
import pytest

from sandbox3d import BundleFormatError
from sandbox3d.bundle import load_bundle, write_bundle
from sandbox3d.image_io import png_bytes
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


def _up_filtered_png(image: np.ndarray) -> bytes:
    """The pixels of png_bytes(image), with every scanline Up-filtered."""
    h = image.shape[0]
    rows = image.reshape(h, -1).astype(np.int16)
    up = np.diff(rows, axis=0, prepend=0) % 256
    raw = np.hstack([np.full((h, 1), 2), up]).astype(np.uint8).tobytes()
    idat = zlib.compress(raw)
    crc = struct.pack(">I", zlib.crc32(b"IDAT" + idat))
    chunk = struct.pack(">I", len(idat)) + b"IDAT" + idat + crc
    plain = png_bytes(image)
    return plain[:33] + chunk + plain[-12:]  # signature and IHDR, then IEND


def test_bundle_frames_are_read_only(tmp_path):
    views = [_frame(ViewId(-1, -1), 0), _frame(ViewId(0, 0), 1)]
    write_bundle(tmp_path / "b", views, {})
    # an externally written frame whose rows are filtered decodes the same
    frame_path = tmp_path / "b" / "m0t0.png"
    assert frame_path.is_file()
    frame_path.write_bytes(_up_filtered_png(views[1].image))
    bundle = load_bundle(tmp_path / "b")
    for view, back in zip(views, bundle.views):
        np.testing.assert_array_equal(back.image, view.image)
        with pytest.raises(ValueError, match="read-only"):
            back.image[0, 0, 0] = 1


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
    bits = np.zeros((24, 32), dtype=bool)
    bits[3:9, 4:12] = True
    masks = {(ViewId(-1, -1), 0): InstanceMask(bits, 0, "box")}
    write_bundle(root, [_frame(ViewId(-1, -1), 0)], masks, scene_id="s")
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


def test_bundle_ppm_frame_is_a_named_format_error(tmp_path):
    frame = _frame(ViewId(-1, -1), 0)

    def to_ppm(m, root):
        header = f"P6\n{frame.intrinsics.width} {frame.intrinsics.height}\n255\n".encode()
        (root / "input.ppm").write_bytes(header + frame.image.tobytes())
        m["views"][0]["image"] = "input.ppm"

    root = _write_and_mangle(tmp_path, to_ppm)
    with pytest.raises(BundleFormatError, match=r"views\[0\]\.image: input\.ppm: not a PNG"):
        load_bundle(root)


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


def _set(path, value):
    def mutate(m, root):
        *keys, last = path
        node = m
        for key in keys:
            node = node[key]
        node[last] = value

    return mutate


@pytest.mark.parametrize(
    "path, value, field",
    [
        (("views", 0, "pose", 5), "x", r"views\[0\]\.pose\[5\]"),
        (("views", 0, "pose", 0), True, r"views\[0\]\.pose\[0\]"),
        (("views", 0, "pose", 0), float("nan"), r"views\[0\]\.pose\[0\]"),
        (("up_axis", 1), "down", r"up_axis\[1\]"),
        (("up_axis",), "0 -1 0", r"up_axis"),
        (("up_axis",), [0.0, -2.0, 0.0], r"up_axis: must be a unit vector"),
        (("up_axis",), [0.0, 0.0, 0.0], r"up_axis: must be a unit vector"),
        (("up_axis",), [0.0, -1.0 - 1e-8, 0.0], r"up_axis: must be a unit vector"),
        (("views", 0, "image"), 7, r"views\[0\]\.image: expected a file name"),
        (("views", 0, "depth"), ["input.f32"], r"views\[0\]\.depth: expected a file name"),
        (("masks", 0, "path"), None, r"masks\[0\]\.path: expected a file name"),
        (("views", 0, "width"), 32.7, r"views\[0\]\.width: expected an integer"),
        (("views", 0, "height"), "24", r"views\[0\]\.height: expected an integer"),
        (("views", 0, "width"), 1e999, r"views\[0\]\.width: expected an integer"),
        (("views", 0, "intrinsics", "fx"), float("inf"), r"views\[0\]\.intrinsics\.fx"),
        (("views", 0, "intrinsics", "cy"), "12", r"views\[0\]\.intrinsics\.cy"),
        (("views", 0, "intrinsics"), [100.0], r"views\[0\]\.intrinsics: must be an object"),
    ],
    ids=[
        "pose-str", "pose-bool", "pose-nan", "up-str-entry", "up-str", "up-long", "up-zero",
        "up-off-unit", "image-int", "depth-list", "mask-path-none", "width-float",
        "height-str", "width-inf", "fx-inf", "cy-str", "intrinsics-list",
    ],
)
def test_bundle_malformed_field_is_named(tmp_path, path, value, field):
    root = _write_and_mangle(tmp_path, _set(path, value))
    with pytest.raises(BundleFormatError, match=field):
        load_bundle(root)


def test_bundle_up_axis_within_tolerance_loads(tmp_path):
    up = [0.0, -1.0 + 1e-12, 0.0]
    root = _write_and_mangle(tmp_path, _set(("up_axis",), up))
    np.testing.assert_array_equal(load_bundle(root).up_axis, up)


def test_bundle_manifest_that_is_not_utf8_is_named(tmp_path):
    root = tmp_path / "b"
    write_bundle(root, [_frame(ViewId(-1, -1), 0)], scene_id="s")
    (root / "manifest.json").write_bytes(b'{"views": "\xff\xfe"}')
    with pytest.raises(BundleFormatError, match="manifest.json"):
        load_bundle(root)


# ── Seeded manifest fuzz ───────────────────────────────────────────────────

_ODD_VALUES = (
    None, True, 0, -1, 1.5, 2**70, float("nan"), float("inf"), "", "x", "1.0", [], {},
    [1, 2], [[0.0] * 4] * 4, {"fx": 1},
)


def _json_paths(node, prefix=()):
    """The key path of every value below `node`."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, child in items:
        yield (*prefix, key)
        if isinstance(child, (dict, list)):
            yield from _json_paths(child, (*prefix, key))


def _mutate(rng, root, manifest, files) -> str:
    """Apply one seeded mutation to the bundle at `root`; returns what it did."""
    kind = rng.choice(["replace", "delete", "truncate"])
    if kind == "truncate":
        name = rng.choice(sorted(files))
        cut = int(rng.integers(0, len(files[name])))
        (root / name).write_bytes(files[name][:cut])
        return f"truncate {name} to {cut} bytes"
    paths = list(_json_paths(manifest))
    path = paths[rng.integers(len(paths))]
    *keys, last = path
    parent = manifest
    for key in keys:
        parent = parent[key]
    if kind == "delete":
        del parent[last]
        what = f"delete {path}"
    else:
        value = _ODD_VALUES[rng.integers(len(_ODD_VALUES))]
        parent[last] = value
        what = f"set {path} = {value!r}"
    (root / "manifest.json").write_text(json.dumps(manifest))
    return what


def test_bundle_manifest_fuzz_loads_or_names_the_field(tmp_path):
    # two views with a mask each; every mutation either loads a usable
    # bundle or raises BundleFormatError, never a raw ValueError/TypeError
    bits = np.zeros((24, 32), dtype=bool)
    bits[3:9, 4:12] = True
    masks = {
        (ViewId(-1, -1), 0): InstanceMask(bits, 0, "box"),
        (ViewId(0, 0), 1): InstanceMask(~bits, 1, "lamp"),
    }
    root = tmp_path / "b"
    write_bundle(root, [_frame(ViewId(-1, -1), 0), _frame(ViewId(0, 0), 1)], masks)
    files = {p.name: p.read_bytes() for p in root.iterdir()}
    outcomes = {"loaded": 0, "named": 0}
    for seed in range(200):
        for name, blob in files.items():
            (root / name).write_bytes(blob)
        rng = np.random.default_rng(seed)
        what = _mutate(rng, root, json.loads(files["manifest.json"]), files)
        try:
            bundle = load_bundle(root)
        except BundleFormatError:
            outcomes["named"] += 1
            continue
        except Exception as err:  # name the mutation in the failure
            pytest.fail(f"seed {seed}: {what}: raw {type(err).__name__}: {err}")
        outcomes["loaded"] += 1
        assert abs(np.linalg.norm(bundle.up_axis) - 1.0) <= 1e-9, (seed, what)
        for view in bundle.views:
            k = view.intrinsics
            assert view.image.shape == (k.height, k.width, 3), (seed, what)
            assert view.depth.values.shape == (k.height, k.width), (seed, what)
    # both outcomes occur, so the mutations neither all miss nor all break
    assert outcomes["loaded"] >= 10 and outcomes["named"] >= 100, outcomes
