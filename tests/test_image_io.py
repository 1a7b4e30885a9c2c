from __future__ import annotations

import struct
import zlib

import numpy as np
import pytest

from sandbox3d import BundleFormatError
from sandbox3d.image_io import (
    png_bytes,
    read_depth_raw,
    read_image,
    read_png,
    read_ppm,
    write_depth_raw,
    write_image,
    write_png,
    write_ppm,
)


def _chunk(kind: bytes, data: bytes) -> bytes:
    return (
        struct.pack(">I", len(data))
        + kind
        + data
        + struct.pack(">I", zlib.crc32(kind + data))
    )


def _png_blob(width, height, color_type, rows) -> bytes:
    # rows: list of (filter_byte, payload_bytes) per scanline
    ihdr = struct.pack(">IIBBBBB", width, height, 8, color_type, 0, 0, 0)
    raw = b"".join(bytes([f]) + payload for f, payload in rows)
    return (
        b"\x89PNG\r\n\x1a\n"
        + _chunk(b"IHDR", ihdr)
        + _chunk(b"IDAT", zlib.compress(raw))
        + _chunk(b"IEND", b"")
    )


def test_png_rgb_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    img = rng.integers(0, 256, size=(7, 5, 3), dtype=np.uint8)
    path = tmp_path / "a.png"
    write_png(path, img)
    np.testing.assert_array_equal(read_png(path), img)


def test_png_grey_round_trip(tmp_path):
    img = np.arange(24, dtype=np.uint8).reshape(4, 6)
    path = tmp_path / "g.png"
    write_png(path, img)
    np.testing.assert_array_equal(read_png(path), img)


def test_png_bytes_deterministic():
    rng = np.random.default_rng(1)
    img = rng.integers(0, 256, size=(16, 16, 3), dtype=np.uint8)
    assert png_bytes(img) == png_bytes(img.copy())


def test_png_decode_filter_types(tmp_path):
    # one 4x2 grey image per filter type, unfiltered pixels hand-computed
    w, h = 4, 2
    base = np.array([[10, 20, 30, 40], [15, 25, 35, 45]], dtype=np.uint8)

    def encode(filter_type):
        rows = []
        prev = np.zeros(w, dtype=int)
        for y in range(h):
            cur = base[y].astype(int)
            if filter_type == 0:
                payload = cur
            elif filter_type == 1:  # sub: minus left
                payload = [(cur[x] - (cur[x - 1] if x else 0)) % 256 for x in range(w)]
            elif filter_type == 2:  # up: minus above
                payload = [(cur[x] - prev[x]) % 256 for x in range(w)]
            elif filter_type == 3:  # average of left and above
                payload = [
                    (cur[x] - ((cur[x - 1] if x else 0) + prev[x]) // 2) % 256
                    for x in range(w)
                ]
            else:  # paeth; with these small values the predictor picks left or up
                payload = []
                for x in range(w):
                    a = cur[x - 1] if x else 0
                    b = prev[x]
                    c = base[y - 1][x - 1] if (x and y) else 0
                    p = a + b - c
                    pa, pb, pc = abs(p - a), abs(p - b), abs(p - c)
                    if pa <= pb and pa <= pc:
                        pred = a
                    elif pb <= pc:
                        pred = b
                    else:
                        pred = c
                    payload.append((cur[x] - pred) % 256)
            rows.append((filter_type, bytes(int(v) for v in payload)))
            prev = cur
        return _png_blob(w, h, 0, rows)

    for ft in range(5):
        path = tmp_path / f"f{ft}.png"
        path.write_bytes(encode(ft))
        np.testing.assert_array_equal(read_png(path), base, err_msg=f"filter {ft}")


def test_png_decode_mixed_filter_rows(tmp_path):
    # filter 0 rows around filter 2 rows: the decoder leaves its all-zero
    # filter path and reconstructs every row, unfiltered ones included
    rng = np.random.default_rng(5)
    img = rng.integers(0, 256, size=(6, 5, 3), dtype=np.uint8)
    flat = img.reshape(6, 15).astype(int)
    rows = []
    for y, ftype in enumerate([0, 2, 2, 0, 0, 2]):
        above = flat[y - 1] if y else np.zeros(15, dtype=int)
        payload = flat[y] if ftype == 0 else (flat[y] - above) % 256
        rows.append((ftype, bytes(int(v) for v in payload)))
    path = tmp_path / "mixed.png"
    path.write_bytes(_png_blob(5, 6, 2, rows))
    np.testing.assert_array_equal(read_png(path), img)


def test_png_decode_rejects_truncated_stream(tmp_path):
    # a complete zlib stream one byte short of its last scanline, with
    # every filter byte 0 and with a filter 2 row
    path = tmp_path / "short.png"
    for ftype in (0, 2):
        rows = [(0, b"\x01\x02\x03"), (ftype, b"\x04\x05\x06"), (0, b"\x07\x08")]
        path.write_bytes(_png_blob(3, 3, 0, rows))
        with pytest.raises(ValueError, match="truncated"):
            read_png(path)
    # a zlib stream cut short is reported as a ValueError as well
    path.write_bytes(png_bytes(np.arange(300, dtype=np.uint8).reshape(10, 30))[:-20])
    with pytest.raises(ValueError):
        read_png(path)


def test_png_bytes_match_per_row_reference():
    # the scanline layout, a filter byte 0 before each row, built row by row
    def reference(img):
        h, w = img.shape[:2]
        channels, color_type = (1, 0) if img.ndim == 2 else (3, 2)
        raw = bytearray()
        for row in img.reshape(h, w * channels):
            raw.append(0)
            raw += row.tobytes()
        ihdr = struct.pack(">IIBBBBB", w, h, 8, color_type, 0, 0, 0)
        return (
            b"\x89PNG\r\n\x1a\n"
            + _chunk(b"IHDR", ihdr)
            + _chunk(b"IDAT", zlib.compress(bytes(raw), 6))
            + _chunk(b"IEND", b"")
        )

    rng = np.random.default_rng(3)
    for h, w in [(1, 1), (1, 7), (5, 1), (9, 13), (32, 33), (64, 64)]:
        for shape in [(h, w), (h, w, 3)]:
            img = rng.integers(0, 256, size=shape, dtype=np.uint8)
            assert png_bytes(img) == reference(img), shape
            # a strided view encodes as its contiguous copy
            assert png_bytes(np.flip(img, axis=1)) == reference(np.flip(img, axis=1).copy())


def test_png_decode_multiple_idat(tmp_path):
    img = np.full((2, 2), 7, dtype=np.uint8)
    raw = b"\x00\x07\x07" + b"\x00\x07\x07"
    comp = zlib.compress(raw)
    ihdr = struct.pack(">IIBBBBB", 2, 2, 8, 0, 0, 0, 0)
    blob = (
        b"\x89PNG\r\n\x1a\n"
        + _chunk(b"IHDR", ihdr)
        + _chunk(b"IDAT", comp[:3])
        + _chunk(b"IDAT", comp[3:])
        + _chunk(b"IEND", b"")
    )
    path = tmp_path / "multi.png"
    path.write_bytes(blob)
    np.testing.assert_array_equal(read_png(path), img)


def test_png_decode_rejects_unsupported(tmp_path):
    path = tmp_path / "bad.png"
    path.write_bytes(b"not a png at all")
    with pytest.raises(ValueError):
        read_png(path)
    # 16-bit depth
    ihdr = struct.pack(">IIBBBBB", 1, 1, 16, 0, 0, 0, 0)
    path.write_bytes(b"\x89PNG\r\n\x1a\n" + _chunk(b"IHDR", ihdr) + _chunk(b"IEND", b""))
    with pytest.raises(ValueError):
        read_png(path)
    # palette color type
    ihdr = struct.pack(">IIBBBBB", 1, 1, 8, 3, 0, 0, 0)
    path.write_bytes(b"\x89PNG\r\n\x1a\n" + _chunk(b"IHDR", ihdr) + _chunk(b"IEND", b""))
    with pytest.raises(ValueError):
        read_png(path)


def test_ppm_round_trip_with_comment(tmp_path):
    rng = np.random.default_rng(2)
    img = rng.integers(0, 256, size=(3, 4, 3), dtype=np.uint8)
    path = tmp_path / "a.ppm"
    write_ppm(path, img)
    np.testing.assert_array_equal(read_ppm(path), img)
    # hand-built file with a header comment
    blob = b"P6\n# a comment\n2 1\n255\n" + bytes(range(6))
    path.write_bytes(blob)
    np.testing.assert_array_equal(read_ppm(path), np.arange(6, dtype=np.uint8).reshape(1, 2, 3))


def test_ppm_rejects_wrong_magic_and_depth(tmp_path):
    path = tmp_path / "bad.ppm"
    path.write_bytes(b"P5\n1 1\n255\n\x00")
    with pytest.raises(ValueError):
        read_ppm(path)
    path.write_bytes(b"P6\n1 1\n65535\n\x00\x00\x00")
    with pytest.raises(ValueError):
        read_ppm(path)


def test_write_image_dispatches_on_extension(tmp_path):
    img = np.zeros((2, 2, 3), dtype=np.uint8)
    write_image(tmp_path / "x.png", img)
    write_image(tmp_path / "x.ppm", img)
    assert (tmp_path / "x.png").read_bytes().startswith(b"\x89PNG")
    assert (tmp_path / "x.ppm").read_bytes().startswith(b"P6")
    np.testing.assert_array_equal(read_image(tmp_path / "x.png"), img)
    np.testing.assert_array_equal(read_image(tmp_path / "x.ppm"), img)


def test_depth_raw_round_trip(tmp_path):
    depth = np.array([[0.5, 1.25], [np.inf, 3.75]], dtype=np.float32)
    path = tmp_path / "d.f32"
    write_depth_raw(path, depth)
    # headerless row-major little-endian float32
    assert path.read_bytes() == depth.astype("<f4").tobytes()
    np.testing.assert_array_equal(read_depth_raw(path, 2, 2), depth)


def test_depth_raw_length_mismatch(tmp_path):
    path = tmp_path / "short.f32"
    path.write_bytes(b"\x00" * 10)
    with pytest.raises(BundleFormatError, match="depth length"):
        read_depth_raw(path, 2, 2)
