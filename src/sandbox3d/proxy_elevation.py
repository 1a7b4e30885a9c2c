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

The greedy steps run on the crop raster, the mask's bounding box: one
distance per crop pixel, with off-mask pixels held at -1 so that they never
win, and a flat argmax, whose first-on-ties rule is the row-major tie rule.
Each step costs three array calls over the crop whatever the mask's shape.
Distances are int32 while h^2 + w^2 of the h x w crop fits in int32 (every
squared distance in the crop is below it), and int64 beyond.
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


def _bbox(bits: np.ndarray) -> tuple[int, int, int, int] | None:
    """Half-open (y0, y1, x0, x1) bounding box of the set pixels, or None."""
    rows = np.flatnonzero(bits.any(axis=1))
    if len(rows) == 0:
        return None
    cols = np.flatnonzero(bits.any(axis=0))
    return int(rows[0]), int(rows[-1]) + 1, int(cols[0]), int(cols[-1]) + 1


def _erode_once(bits: np.ndarray) -> np.ndarray:
    # 3x3 full square as a 1x3 pass then a 3x1 pass; pixels outside the
    # array count as unset.
    h, w = bits.shape
    padded = np.zeros((h + 2, w + 2), dtype=bool)
    padded[1:-1, 1:-1] = bits
    rows = padded[:, :-2] & padded[:, 1:-1]
    rows &= padded[:, 2:]
    out = rows[:-2] & rows[1:-1]
    out &= rows[2:]
    return out


def erode_mask(mask: InstanceMask, iterations: int) -> InstanceMask:
    """Binary erosion; if the result would be empty, the original mask is kept."""
    box = _bbox(mask.bits) if iterations else None
    if box is None:
        return mask
    # Pixels outside the bounding box are unset and erosion never sets a
    # pixel, so eroding the crop alone is exact.
    y0, y1, x0, x1 = box
    bits = mask.bits[y0:y1, x0:x1]
    for _ in range(iterations):
        bits = _erode_once(bits)
        if not bits.any():
            return mask
    out = np.zeros_like(mask.bits)
    out[y0:y1, x0:x1] = bits
    return InstanceMask(out, mask.object_id, mask.label)


def fps_sample(mask: InstanceMask, n: int) -> np.ndarray:
    """Greedy farthest-point sampling over set pixels; returns (k, 2) int (x, y).

    When the mask has at most n set pixels they are all returned (row-major
    order); otherwise exactly n pixels come back in selection order.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    box = _bbox(mask.bits)
    if box is None:
        raise EmptyMaskError(f"mask for object {mask.object_id} has no set pixels")
    # Row-major order within the crop is row-major order in the mask, and
    # distances do not change under the shift, so the crop's coordinates
    # rank and break ties exactly as the mask's would.
    y0, y1, x0, x1 = box
    crop = mask.bits[y0:y1, x0:x1]
    ys, xs = np.nonzero(crop)
    xs = xs.astype(np.int64, copy=False)
    ys = ys.astype(np.int64, copy=False)
    k = len(xs)
    if k <= n:
        return np.stack([xs + x0, ys + y0], axis=1)

    # Seed: nearest pixel to the centroid (sx/k, sy/k). With sx = qx*k + rx
    # and u = x - qx, the exact squared distance scaled by k^2 is
    #   (k*u - rx)^2 + (k*v - ry)^2 = k*e + rx^2 + ry^2,
    #   e = k*(u^2 + v^2) - 2*(rx*u + ry*v),
    # so e ranks pixels exactly as the distance does. |e| stays below
    # k*(w^2 + h^2) + 2k*(w + h), far inside int64 for any image that fits
    # in memory, where squaring k*x wraps from about 2 megapixels.
    qx, rx = divmod(int(xs.sum()), k)
    qy, ry = divmod(int(ys.sum()), k)
    u = xs - qx
    v = ys - qy
    e = k * (u * u + v * v) - 2 * (rx * u + ry * v)
    j = int(np.argmin(e))  # argmin takes the first, i.e. smallest index

    # Greedy steps on the crop raster (see the module docstring). A step's
    # squared distances are two slices of one table, sq[i] = (i - s)^2.
    h, w = crop.shape
    dtype = _crop_dtype(h, w)
    dist = np.where(crop, dtype(np.iinfo(dtype).max), dtype(-1))
    buf = np.empty_like(dist)
    s = max(h, w)
    sq = np.arange(-s, s, dtype=dtype) ** 2
    sy, sx = int(ys[j]), int(xs[j])
    chosen = [sy * w + sx]
    for _ in range(n - 1):
        np.add(sq[s - sy : s - sy + h, None], sq[s - sx : s - sx + w], out=buf)
        np.minimum(dist, buf, out=dist)
        f = int(dist.argmax())
        sy, sx = divmod(f, w)
        chosen.append(f)
    rows, cols = np.divmod(np.array(chosen, dtype=np.int64), w)
    return np.stack([cols + x0, rows + y0], axis=1)


def _crop_dtype(h: int, w: int) -> type:
    """Distance dtype for an h x w crop: int32 while h^2 + w^2, which bounds
    every squared distance in the crop, fits; int64 beyond."""
    return np.int32 if h * h + w * w <= np.iinfo(np.int32).max else np.int64


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
