"""Lift per-view instance masks into sparse 3D proxy points.

The chain per (view, object) is: segment, erode the mask to pull samples off
noisy boundaries, farthest-point-sample a fixed number of pixels, and
backproject those pixels through the view's depth. Sampling runs in pixel
space; depth only enters at the final lift.

Determinism rules for fps_sample are part of the contract:
  seed pixel     the set pixel nearest the mask centroid (pixel Euclidean),
                 ties broken by smallest row-major index
  greedy step    the set pixel with the largest min-distance to the selected
                 set, ties again by smallest row-major index
Distances are compared as exact squared integers, so ties are well defined.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptyMaskError, EmptyProxyError, ObjectNotFoundError
from .scene_model import InstanceMask, ProxyCloud, ViewFrame, backproject_pixels


@dataclass(frozen=True)
class ObjectHint:
    """A category label with a pixel prompt locating one object."""

    label: str
    center_px: tuple[int, int]  # (x, y)
    object_id: int


@dataclass(frozen=True)
class ElevationParams:
    n_pts: int = 30  # proxy points per object per view
    erosion_iterations: int = 2  # 3x3 full-square structuring element

    def __post_init__(self):
        if self.n_pts < 1:
            raise ValueError("n_pts must be at least 1")
        if self.erosion_iterations < 0:
            raise ValueError("erosion_iterations must be non-negative")


def _erode_once(bits: np.ndarray) -> np.ndarray:
    # 3x3 full square; pixels outside the image count as unset.
    padded = np.pad(bits, 1, constant_values=False)
    h, w = bits.shape
    out = np.ones_like(bits)
    for dy in range(3):
        for dx in range(3):
            out &= padded[dy : dy + h, dx : dx + w]
    return out


def erode_mask(mask: InstanceMask, iterations: int) -> InstanceMask:
    """Binary erosion; if the result would be empty, the original mask is kept."""
    bits = mask.bits
    for _ in range(iterations):
        bits = _erode_once(bits)
        if not bits.any():
            return mask
    if bits is mask.bits:
        return mask
    return InstanceMask(bits, mask.object_id, mask.label)


def fps_sample(mask: InstanceMask, n: int) -> np.ndarray:
    """Greedy farthest-point sampling over set pixels; returns (k, 2) int (x, y).

    When the mask has at most n set pixels they are all returned (row-major
    order); otherwise exactly n pixels come back in selection order.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    ys, xs = np.nonzero(mask.bits)  # row-major ordering by construction
    if len(xs) == 0:
        raise EmptyMaskError(f"mask for object {mask.object_id} has no set pixels")
    pts = np.stack([xs, ys], axis=1).astype(np.int64)
    if len(pts) <= n:
        return pts.copy()

    # Seed: nearest pixel to the centroid (sx/k, sy/k). With sx = qx*k + rx
    # and u = x - qx, the exact squared distance scaled by k^2 is
    #   (k*u - rx)^2 + (k*v - ry)^2 = k*e + rx^2 + ry^2,
    #   e = k*(u^2 + v^2) - 2*(rx*u + ry*v),
    # so e ranks pixels exactly as the distance does. |e| stays below
    # k*(w^2 + h^2) + 2k*(w + h), far inside int64 for any image that fits
    # in memory, where squaring k*x wraps from about 2 megapixels.
    k = len(pts)
    qx, rx = divmod(int(xs.sum()), k)
    qy, ry = divmod(int(ys.sum()), k)
    u = pts[:, 0] - qx
    v = pts[:, 1] - qy
    e = k * (u * u + v * v) - 2 * (rx * u + ry * v)
    seed = int(np.argmin(e))  # argmin takes the first, i.e. smallest index

    chosen = [seed]
    diff = pts - pts[seed]
    min_d2 = diff[:, 0] ** 2 + diff[:, 1] ** 2
    for _ in range(n - 1):
        nxt = int(np.argmax(min_d2))
        chosen.append(nxt)
        diff = pts - pts[nxt]
        d2 = diff[:, 0] ** 2 + diff[:, 1] ** 2
        np.minimum(min_d2, d2, out=min_d2)
    return pts[chosen].copy()


def lift_proxies(
    view: ViewFrame, pixels: np.ndarray, object_id: int
) -> tuple[ProxyCloud, int]:
    """Backproject sampled pixels through the view depth.

    Pixels with invalid (non-finite or non-positive) depth are skipped and
    counted; output size plus the skip count equals the input pixel count.
    Raises EmptyProxyError when nothing survives.
    """
    pixels = np.asarray(pixels, dtype=np.int64).reshape(-1, 2)
    depths = view.depth.values[pixels[:, 1], pixels[:, 0]]
    valid = np.isfinite(depths) & (depths > 0)
    skipped = int((~valid).sum())
    if not valid.any():
        raise EmptyProxyError(
            f"object {object_id} in view {view.view_id.tag()}: no valid depth"
        )
    xyz = backproject_pixels(
        pixels[valid, 0], pixels[valid, 1], depths[valid], view.intrinsics, view.pose
    )
    return ProxyCloud.single_view(xyz, object_id, view.view_id), skipped


def elevate_object(
    view: ViewFrame, hint: ObjectHint, segmenter, params: ElevationParams
) -> ProxyCloud:
    """Segment, erode, sample and lift one hinted object in one view."""
    mask = segmenter.segment(view, hint)
    if mask.is_empty:
        raise ObjectNotFoundError(
            f"'{hint.label}' not found in view {view.view_id.tag()}"
        )
    eroded = erode_mask(mask, params.erosion_iterations)
    pixels = fps_sample(eroded, params.n_pts)
    cloud, _ = lift_proxies(view, pixels, hint.object_id)
    return cloud
