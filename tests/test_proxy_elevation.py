from __future__ import annotations

import numpy as np
import pytest

from sandbox3d import EmptyMaskError, EmptyProxyError, ObjectNotFoundError
from sandbox3d.proxy_elevation import (
    ElevationParams,
    ObjectHint,
    elevate_object,
    _crop_dtype,
    _bbox,
    erode_mask,
    fps_sample,
    lift_proxies,
)
from sandbox3d.scene_model import (
    CameraIntrinsics,
    CameraPose,
    DepthGrid,
    InstanceMask,
    ViewFrame,
)


def _mask(rows, object_id=0, label="box"):
    return InstanceMask(np.array(rows, dtype=bool), object_id, label)


def _edge_masks():
    """Masks where a bounding-box crop meets the frame: one touching the
    bottom and right border, one whose bounding box is the whole frame."""
    border = np.zeros((12, 16), dtype=bool)
    border[5:, 9:] = True
    border[7, 12] = False
    corners = np.zeros((12, 16), dtype=bool)
    corners[:5, :6] = True
    corners[8:, 11:] = True
    corners[3:9, 7] = True
    return [border, corners]


def _fps_reference(bits, n):
    """The greedy rule in Python integers: seed nearest the centroid, then
    the largest min-distance, ties by the smallest row-major index."""
    ys, xs = np.nonzero(bits)
    pts = [(int(x), int(y)) for x, y in zip(xs, ys)]
    k = len(pts)
    if k <= n:
        return pts
    sx, sy = sum(x for x, _ in pts), sum(y for _, y in pts)

    def d2(a, b):
        return (a[0] - b[0]) ** 2 + (a[1] - b[1]) ** 2

    # k^2 times the squared distance to the centroid (sx/k, sy/k)
    seed = min(range(k), key=lambda i: (d2((k * pts[i][0], k * pts[i][1]), (sx, sy)), i))
    chosen = [seed]
    min_d2 = [d2(p, pts[seed]) for p in pts]
    while len(chosen) < n:
        j = max(range(k), key=lambda i: (min_d2[i], -i))
        chosen.append(j)
        min_d2 = [min(m, d2(p, pts[j])) for m, p in zip(min_d2, pts)]
    return [pts[i] for i in chosen]


def _ref_fps_sample(bits, n):
    """The greedy rule over k-length int64 arrays of the set pixels' mask
    coordinates: one distance update and argmax per selected pixel."""
    ys, xs = np.nonzero(bits)
    xs = xs.astype(np.int64)
    ys = ys.astype(np.int64)
    k = len(xs)
    if k <= n:
        return np.stack([xs, ys], axis=1)
    qx, rx = divmod(int(xs.sum()), k)
    qy, ry = divmod(int(ys.sum()), k)
    u = xs - qx
    v = ys - qy
    j = int(np.argmin(k * (u * u + v * v) - 2 * (rx * u + ry * v)))
    chosen = np.empty(n, dtype=np.intp)
    min_d2 = np.full(k, np.iinfo(np.int64).max, dtype=np.int64)
    d2 = np.empty(k, dtype=np.int64)
    dy = np.empty(k, dtype=np.int64)
    for i in range(n):
        chosen[i] = j
        np.subtract(xs, xs[j], out=d2)
        np.multiply(d2, d2, out=d2)
        np.subtract(ys, ys[j], out=dy)
        np.multiply(dy, dy, out=dy)
        np.add(d2, dy, out=d2)
        np.minimum(min_d2, d2, out=min_d2)
        j = int(min_d2.argmax())
    return np.stack([xs[chosen], ys[chosen]], axis=1)


def _polygon(h, w, rng):
    """A filled star-shaped polygon of 3-12 vertices by even-odd ray casting
    from pixel centres; vertices may fall outside the frame."""
    m = int(rng.integers(3, 13))
    angles = np.sort(rng.uniform(0, 2 * np.pi, m))
    radii = rng.uniform(0.1, 0.7, m) * max(h, w)
    cx, cy = rng.uniform(0, w), rng.uniform(0, h)
    vx, vy = cx + radii * np.cos(angles), cy + radii * np.sin(angles)
    py, px = np.mgrid[0:h, 0:w] + 0.5
    inside = np.zeros((h, w), dtype=bool)
    for i in range(m):
        ax, ay, bx, by = vx[i - 1], vy[i - 1], vx[i], vy[i]
        crosses = (ay > py) != (by > py)
        with np.errstate(divide="ignore", invalid="ignore"):
            x_at = ax + (py - ay) * (bx - ax) / (by - ay)
        inside ^= crosses & (px < x_at)
    return inside


def _ring(h, w, rng):
    """An annulus around an integer centre: every distance repeats under the
    ring's symmetries, so most greedy steps break a tie."""
    cy, cx = int(rng.integers(0, h)), int(rng.integers(0, w))
    r_out = int(rng.integers(2, max(h, w)))
    r_in = int(rng.integers(0, r_out))
    yy, xx = np.mgrid[0:h, 0:w]
    d2 = (yy - cy) ** 2 + (xx - cx) ** 2
    return (d2 >= r_in * r_in) & (d2 < r_out * r_out)


def _touching_edges(h, w, rng):
    """Sparse noise plus one set pixel on each border, so the crop is the frame."""
    bits = rng.random((h, w)) < rng.uniform(0.01, 0.3)
    bits[0, rng.integers(0, w)] = bits[-1, rng.integers(0, w)] = True
    bits[rng.integers(0, h), 0] = bits[rng.integers(0, h), -1] = True
    return bits


def test_erode_square_shrinks_by_one_ring():
    # 5x5 solid square erodes to its 3x3 core
    m = erode_mask(_mask(np.ones((5, 5))), 1)
    expect = np.zeros((5, 5), dtype=bool)
    expect[1:4, 1:4] = True
    np.testing.assert_array_equal(m.bits, expect)
    # a second iteration leaves only the center pixel
    m = erode_mask(_mask(np.ones((5, 5))), 2)
    expect = np.zeros((5, 5), dtype=bool)
    expect[2, 2] = True
    np.testing.assert_array_equal(m.bits, expect)


def test_erode_border_pixels_lack_neighbors():
    # pixels touching the image edge always erode away (outside counts unset)
    m = erode_mask(_mask(np.ones((3, 3))), 1)
    expect = np.zeros((3, 3), dtype=bool)
    expect[1, 1] = True
    np.testing.assert_array_equal(m.bits, expect)


def test_erode_empty_result_keeps_original():
    # a 1-pixel-thin plus sign vanishes under one erosion, so it is kept
    rows = [[0, 1, 0], [1, 1, 1], [0, 1, 0]]
    original = _mask(rows)
    m = erode_mask(original, 1)
    np.testing.assert_array_equal(m.bits, original.bits)
    # also when the wipe-out happens at a later iteration
    m = erode_mask(_mask(np.ones((5, 5))), 3)
    np.testing.assert_array_equal(m.bits, np.ones((5, 5), dtype=bool))


def test_erode_zero_iterations_is_identity():
    rows = [[1, 0], [0, 1]]
    m = erode_mask(_mask(rows), 0)
    np.testing.assert_array_equal(m.bits, np.array(rows, dtype=bool))


def test_erode_matches_per_pixel_oracle():
    rng = np.random.default_rng(11)
    bits = rng.random((8, 9)) < 0.7

    def oracle(b):
        h, w = b.shape
        out = np.zeros_like(b)
        for y in range(h):
            for x in range(w):
                ok = True
                for dy in (-1, 0, 1):
                    for dx in (-1, 0, 1):
                        yy, xx = y + dy, x + dx
                        inside = 0 <= yy < h and 0 <= xx < w
                        if not (inside and b[yy, xx]):
                            ok = False
                out[y, x] = ok
        return out

    got = erode_mask(_mask(bits), 1)
    expect = oracle(bits)
    if expect.any():
        np.testing.assert_array_equal(got.bits, expect)


def test_fps_returns_all_when_small():
    rows = [[1, 0, 1], [0, 0, 0], [1, 0, 0]]
    pts = fps_sample(_mask(rows), 5)
    # all set pixels in row-major order, as (x, y)
    np.testing.assert_array_equal(pts, [[0, 0], [2, 0], [0, 2]])


def test_fps_seed_is_nearest_to_centroid():
    # pixels at x = 0, 1, 2, 9 on one row: centroid x = 3, so seed is x = 2
    bits = np.zeros((1, 10), dtype=bool)
    bits[0, [0, 1, 2, 9]] = True
    pts = fps_sample(_mask(bits), 1)
    np.testing.assert_array_equal(pts, [[2, 0]])


def test_fps_seed_is_exact_on_a_large_mask():
    # 3 megapixels: k*x - sum(x) reaches 3e9 at the edges, so the scaled
    # squared distance passes 9.2e18 and wraps in int64; the oracle ranks
    # the same scaled distances in Python integers
    bits = np.ones((1500, 2000), dtype=bool)
    ys, xs = np.nonzero(bits)
    k, sx, sy = len(xs), int(xs.sum()), int(ys.sum())
    d = (k * xs.astype(object) - sx) ** 2 + (k * ys.astype(object) - sy) ** 2
    i = int(np.argmin(d))  # first, i.e. smallest row-major index, on ties
    assert (int(xs[i]), int(ys[i])) == (999, 749)
    np.testing.assert_array_equal(fps_sample(_mask(bits), 1), [[xs[i], ys[i]]])


def test_fps_greedy_takes_farthest_then_covers():
    bits = np.zeros((1, 10), dtype=bool)
    bits[0, [0, 1, 2, 9]] = True
    pts = fps_sample(_mask(bits), 3)
    # seed x=2, then x=9 (d2=49 beats 4), then x=0 (min_d2 4 beats 1 and 0)
    np.testing.assert_array_equal(pts, [[2, 0], [9, 0], [0, 0]])


def test_fps_tie_breaks_by_row_major_index():
    extra = np.zeros((3, 3), dtype=bool)
    extra[0, 0] = extra[0, 2] = extra[2, 0] = extra[2, 2] = True
    pts = fps_sample(_mask(extra), 1)
    # centroid (1, 1); all four corners tie at distance sqrt(2): pick (0, 0)
    np.testing.assert_array_equal(pts, [[0, 0]])


def test_fps_deterministic_and_subset():
    rng = np.random.default_rng(7)
    for bits in [rng.random((12, 12)) < 0.4, *_edge_masks()]:
        m = _mask(bits)
        a = fps_sample(m, 6)
        b = fps_sample(m, 6)
        np.testing.assert_array_equal(a, b)
        assert len(a) == 6
        assert all(bits[y, x] for x, y in a)
        # no duplicates
        assert len({(int(x), int(y)) for x, y in a}) == 6
        np.testing.assert_array_equal(a, _fps_reference(bits, 6))


def test_fps_matches_array_reference_bit_for_bit():
    rng = np.random.default_rng(20261018)
    masks = []
    shapes = [(512, 512), (512, 317), (241, 512), (96, 131), (33, 20), (9, 7)]
    for h, w in shapes * 2:
        for make in (_polygon, _ring, _touching_edges):
            bits = make(h, w, rng)
            if bits.any():
                masks.append(bits)
    # one row past the int32 bound on h^2 + w^2 (1 + 46,341^2 > 2^31 - 1),
    # and one where an int32 distance would wrap: 46,342^2 > 2^31 - 1
    masks += [np.ones((1, 46_341), dtype=bool), np.ones((1, 46_343), dtype=bool)]
    dtypes = set()
    for bits in masks:
        y0, y1, x0, x1 = _bbox(bits)
        dtypes.add(_crop_dtype(y1 - y0, x1 - x0))
        for n in (1, 2, 30, 64):
            got = fps_sample(_mask(bits), n)
            assert got.dtype == np.int64
            expect = _ref_fps_sample(bits, n)
            np.testing.assert_array_equal(got, expect, err_msg=f"{bits.shape} n={n}")
    assert dtypes == {np.int32, np.int64}


def test_fps_rejects_empty_and_bad_n():
    with pytest.raises(EmptyMaskError):
        fps_sample(_mask(np.zeros((3, 3))), 4)
    with pytest.raises(ValueError):
        fps_sample(_mask(np.ones((3, 3))), 0)


def _view(depth_rows, width=4, height=3):
    k = CameraIntrinsics(100.0, 100.0, 2.0, 1.5, width, height)
    return ViewFrame(
        image=np.zeros((height, width, 3), dtype=np.uint8),
        depth=DepthGrid(np.array(depth_rows, dtype=np.float64)),
        intrinsics=k,
        pose=CameraPose.identity(),
    )


def test_lift_proxies_skips_invalid_depth():
    inf = np.inf
    view = _view([[2.0, inf, 2.0, 2.0], [2.0, 2.0, inf, 2.0], [2.0, 2.0, 2.0, 2.0]])
    pixels = np.array([[0, 0], [1, 0], [2, 1], [3, 2]])
    cloud, skipped = lift_proxies(view, pixels, 9)
    assert skipped == 2
    assert len(cloud) == 2
    assert set(cloud.object_ids) == {9}
    # pixel (0, 0) at depth 2: x = 2 * (0 - 2) / 100 = -0.04, y = -0.03
    np.testing.assert_allclose(cloud.xyz[0], [-0.04, -0.03, 2.0], atol=1e-12)


def test_lift_proxies_all_invalid_raises():
    view = _view(np.full((3, 4), np.inf))
    with pytest.raises(EmptyProxyError):
        lift_proxies(view, np.array([[0, 0], [1, 1]]), 0)


class _StubSegmenter:
    def __init__(self, mask):
        self.mask = mask

    def segment(self, view, hint):
        return self.mask


def test_elevate_object_chain():
    view = _view(np.full((3, 4), 2.0))
    bits = np.zeros((3, 4), dtype=bool)
    bits[1, 1] = bits[1, 2] = True
    seg = _StubSegmenter(InstanceMask(bits, 3, "box"))
    hint = ObjectHint("box", (1, 1), 3)
    # erosion would empty this thin mask, so the original two pixels survive
    cloud = elevate_object(view, hint, seg, ElevationParams(n_pts=8, erosion_iterations=2))
    assert len(cloud) == 2
    assert set(cloud.object_ids) == {3}


def test_elevate_object_empty_mask_raises():
    view = _view(np.full((3, 4), 2.0))
    seg = _StubSegmenter(InstanceMask(np.zeros((3, 4), dtype=bool), 3, "box"))
    with pytest.raises(ObjectNotFoundError):
        elevate_object(view, ObjectHint("box", (0, 0), 3), seg, ElevationParams())


def test_elevation_params_validation():
    with pytest.raises(ValueError):
        ElevationParams(n_pts=0)
    with pytest.raises(ValueError):
        ElevationParams(erosion_iterations=-1)


def test_erode_matches_scipy_reference():
    # independent library oracle, including the empty-keeps-original rule
    from scipy import ndimage

    rng = np.random.default_rng(11)
    structure = np.ones((3, 3), dtype=bool)
    cases = [(bits, iterations) for bits in _edge_masks() for iterations in (1, 2, 3)]
    for _ in range(100):
        bits = rng.random((int(rng.integers(3, 15)), int(rng.integers(3, 15)))) < 0.7
        if not bits.any():
            bits[0, 0] = True
        cases.append((bits, int(rng.integers(1, 4))))
    for bits, iterations in cases:
        expected = bits
        current = bits
        for _ in range(iterations):
            current = ndimage.binary_erosion(current, structure=structure, border_value=0)
            if not current.any():
                current = None
                break
        if current is not None:
            expected = current
        got = erode_mask(InstanceMask(bits, 0, "m"), iterations)
        np.testing.assert_array_equal(got.bits, expected)
