"""Scene bundles: a directory of views (images, depth, cameras) plus masks.

Layout: `manifest.json` listing views, each referencing an 8-bit RGB image
file and a headerless little-endian float32 row-major depth file, with
intrinsics {fx, fy, cx, cy} and a 4x4 row-major camera-to-world pose.
Optional masks are single-channel PNGs keyed by (view, object_id). Extra
fields beyond that core: a top-level `scene_id` and `up_axis`, and a
per-view `view_id` [trajectory, step] ([-1, -1] marks the input view).

Every validation failure raises BundleFormatError naming the offending
field. All writes are deterministic byte-for-byte.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import BundleFormatError, loads_json
from .image_io import freeze, read_depth_raw, read_image, write_depth_raw, write_image
from .scene_model import (
    CameraIntrinsics,
    CameraPose,
    DepthGrid,
    InstanceMask,
    ViewFrame,
    ViewId,
)

DEFAULT_UP_AXIS = (0.0, -1.0, 0.0)


@dataclass(frozen=True)
class SceneBundle:
    scene_id: str
    views: tuple[ViewFrame, ...]
    masks: dict[tuple[ViewId, int], InstanceMask]
    up_axis: np.ndarray

    def input_view(self) -> ViewFrame:
        for view in self.views:
            if view.view_id.is_input:
                return view
        raise BundleFormatError("views: bundle has no input view (view_id [-1, -1])")

    def frames_by_view(self) -> dict[ViewId, ViewFrame]:
        return {v.view_id: v for v in self.views}


def _require(mapping: dict, key: str, context: str):
    if key not in mapping:
        raise BundleFormatError(f"{context}: missing field '{key}'")
    return mapping[key]


def _integer(mapping: dict, key: str, context: str) -> int:
    value = _require(mapping, key, context)
    if not isinstance(value, int) or isinstance(value, bool):
        raise BundleFormatError(f"{context}.{key}: expected an integer")
    return value


def _finite(value, context: str) -> float:
    """A JSON number (not a boolean) that is finite as a float."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            number = float(value)
        except OverflowError:  # an integer beyond the float range
            number = math.inf
        if math.isfinite(number):
            return number
    raise BundleFormatError(f"{context}: expected a finite number, got {value!r:.40}")


def _finite_list(values, n: int, context: str) -> np.ndarray:
    if not isinstance(values, (list, tuple)) or len(values) != n:
        raise BundleFormatError(f"{context}: expected a list of {n} numbers")
    return np.array([_finite(x, f"{context}[{i}]") for i, x in enumerate(values)])


def _file(spec: dict, key: str, context: str, root: Path) -> Path:
    name = _require(spec, key, context)
    if not isinstance(name, str):
        raise BundleFormatError(f"{context}.{key}: expected a file name")
    path = root / name
    if not path.is_file():
        raise BundleFormatError(f"{context}.{key}: file not found: {path.name}")
    return path


def _pose_from_floats(values, context: str) -> CameraPose:
    m = _finite_list(values, 16, context).reshape(4, 4)
    if not np.allclose(m[3], (0.0, 0.0, 0.0, 1.0), atol=1e-9):
        raise BundleFormatError(f"{context}: last row must be [0, 0, 0, 1]")
    try:
        return CameraPose(m[:3, :3], m[:3, 3])
    except ValueError as err:
        raise BundleFormatError(f"{context}: {err}") from err


def pose_to_floats(pose: CameraPose) -> list[float]:
    """The row-major 4x4 camera-to-world matrix, as manifests store it."""
    m = np.eye(4)
    m[:3, :3] = pose.rotation
    m[:3, 3] = pose.translation
    return [float(x) for x in m.reshape(-1)]


def _view_id_from(entry, context: str) -> ViewId:
    if entry is None:
        return ViewId(-1, -1)
    if (
        isinstance(entry, (list, tuple))
        and len(entry) == 2
        and all(isinstance(x, int) and not isinstance(x, bool) for x in entry)
    ):
        return ViewId(entry[0], entry[1])
    raise BundleFormatError(f"{context}: expected [trajectory, step] integers")


def load_bundle(path) -> SceneBundle:
    root = Path(path)
    manifest_path = root / "manifest.json"
    if not manifest_path.is_file():
        raise BundleFormatError(f"manifest.json: not found under {root}")
    try:
        manifest = loads_json(manifest_path.read_text())
    except (OSError, ValueError) as err:  # unreadable, not UTF-8, or not JSON
        raise BundleFormatError(f"manifest.json: {err}") from err
    if not isinstance(manifest, dict):
        raise BundleFormatError("manifest.json: top level must be an object")

    views_spec = _require(manifest, "views", "manifest")
    if not isinstance(views_spec, list) or not views_spec:
        raise BundleFormatError("views: must be a non-empty list")

    up_axis = _finite_list(manifest.get("up_axis", DEFAULT_UP_AXIS), 3, "up_axis")
    if abs(np.linalg.norm(up_axis) - 1.0) > 1e-9:  # SandboxScene's tolerance
        raise BundleFormatError("up_axis: must be a unit vector")

    views: list[ViewFrame] = []
    seen_ids: set[ViewId] = set()
    for i, spec in enumerate(views_spec):
        ctx = f"views[{i}]"
        if not isinstance(spec, dict):
            raise BundleFormatError(f"{ctx}: must be an object")
        width = _integer(spec, "width", ctx)
        height = _integer(spec, "height", ctx)
        ictx = f"{ctx}.intrinsics"
        intr_spec = _require(spec, "intrinsics", ctx)
        if not isinstance(intr_spec, dict):
            raise BundleFormatError(f"{ictx}: must be an object")
        fx, fy, cx, cy = (
            _finite(_require(intr_spec, k, ictx), f"{ictx}.{k}") for k in ("fx", "fy", "cx", "cy")
        )
        try:
            intrinsics = CameraIntrinsics(fx, fy, cx, cy, width, height)
        except ValueError as err:
            raise BundleFormatError(f"{ictx}: {err}") from err
        pose = _pose_from_floats(_require(spec, "pose", ctx), f"{ctx}.pose")
        view_id = _view_id_from(spec.get("view_id"), f"{ctx}.view_id")
        if view_id in seen_ids:
            raise BundleFormatError(f"{ctx}.view_id: duplicate {view_id.tag()}")
        seen_ids.add(view_id)

        image_path = _file(spec, "image", ctx, root)
        try:
            image = read_image(image_path)
        except ValueError as err:
            raise BundleFormatError(f"{ctx}.image: {image_path.name}: {err}") from err
        if image.ndim != 3:
            raise BundleFormatError(f"{ctx}.image: expected an RGB raster")
        if image.shape[:2] != (intrinsics.height, intrinsics.width):
            raise BundleFormatError(
                f"{ctx}.image: size {image.shape[1]}x{image.shape[0]} does not match "
                f"{intrinsics.width}x{intrinsics.height}"
            )
        freeze(image)  # every question about the scene shares it
        depth_path = _file(spec, "depth", ctx, root)
        depth_values = read_depth_raw(depth_path, intrinsics.width, intrinsics.height)
        try:
            depth = DepthGrid(depth_values)
            views.append(ViewFrame(image, depth, intrinsics, pose, view_id))
        except ValueError as err:
            raise BundleFormatError(f"{ctx}: {err}") from err

    by_id = {v.view_id: v for v in views}
    masks: dict[tuple[ViewId, int], InstanceMask] = {}
    masks_spec = manifest.get("masks", [])
    if not isinstance(masks_spec, list):
        raise BundleFormatError("masks: must be a list")
    for i, spec in enumerate(masks_spec):
        ctx = f"masks[{i}]"
        if not isinstance(spec, dict):
            raise BundleFormatError(f"{ctx}: must be an object")
        view_id = _view_id_from(_require(spec, "view", ctx), f"{ctx}.view")
        if view_id not in by_id:
            raise BundleFormatError(f"{ctx}.view: no such view {view_id.tag()}")
        object_id = _integer(spec, "object_id", ctx)
        label = _require(spec, "label", ctx)
        mask_path = _file(spec, "path", ctx, root)
        try:
            raster = read_image(mask_path)
        except ValueError as err:
            raise BundleFormatError(f"{ctx}.path: {mask_path.name}: {err}") from err
        if raster.ndim == 3:
            raster = raster[:, :, 0]
        view = by_id[view_id]
        if raster.shape != (view.intrinsics.height, view.intrinsics.width):
            raise BundleFormatError(f"{ctx}.path: mask size does not match view {view_id.tag()}")
        key = (view_id, object_id)
        if key in masks:
            raise BundleFormatError(f"{ctx}: duplicate mask for {view_id.tag()} object {object_id}")
        masks[key] = InstanceMask(raster > 127, object_id, str(label))

    scene_id = manifest.get("scene_id", root.name)
    return SceneBundle(str(scene_id), tuple(views), masks, up_axis)


def write_bundle(
    path,
    views,
    masks: dict[tuple[ViewId, int], InstanceMask] | None = None,
    scene_id: str | None = None,
    up_axis=DEFAULT_UP_AXIS,
) -> Path:
    """Write frames (and optional masks) as a loadable bundle; returns the
    manifest path."""
    root = Path(path)
    root.mkdir(parents=True, exist_ok=True)
    views = list(views)
    view_entries = []
    for view in views:
        tag = view.view_id.tag()
        image_name = f"{tag}.png"
        depth_name = f"{tag}.f32"
        write_image(root / image_name, view.image)
        write_depth_raw(root / depth_name, view.depth.values)
        view_entries.append(
            {
                "image": image_name,
                "depth": depth_name,
                "width": view.intrinsics.width,
                "height": view.intrinsics.height,
                "intrinsics": {
                    "fx": view.intrinsics.fx,
                    "fy": view.intrinsics.fy,
                    "cx": view.intrinsics.cx,
                    "cy": view.intrinsics.cy,
                },
                "pose": pose_to_floats(view.pose),
                "view_id": [view.view_id.trajectory, view.view_id.step],
            }
        )

    mask_entries = []
    for (view_id, object_id), mask in sorted(
        (masks or {}).items(), key=lambda kv: (kv[0][0].trajectory, kv[0][0].step, kv[0][1])
    ):
        name = f"mask_{view_id.tag()}_obj{object_id}.png"
        write_image(root / name, mask.bits.astype(np.uint8) * 255)
        mask_entries.append(
            {
                "view": [view_id.trajectory, view_id.step],
                "object_id": object_id,
                "label": mask.label,
                "path": name,
            }
        )

    manifest = {
        "scene_id": scene_id if scene_id is not None else root.name,
        "up_axis": [float(x) for x in np.asarray(up_axis, dtype=np.float64)],
        "views": view_entries,
    }
    if mask_entries:
        manifest["masks"] = mask_entries
    out = root / "manifest.json"
    out.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return out
