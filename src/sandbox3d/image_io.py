"""Minimal raster and depth file I/O.

PNG support covers exactly what the toolkit writes and reads back: 8-bit
greyscale or RGB, no interlace. The encoder always emits filter type 0, which
keeps output bytes a pure function of the pixels; the decoder additionally
understands filters 1-4 so externally produced files load too. PPM (P6) is
kept as a zero-dependency fallback format. Depth grids are stored headerless
as row-major little-endian float32.
"""

from __future__ import annotations

import struct
import zlib
from pathlib import Path

import numpy as np

from .errors import BundleFormatError

_PNG_SIG = b"\x89PNG\r\n\x1a\n"


def _chunk(kind: bytes, data: bytes) -> bytes:
    return (
        struct.pack(">I", len(data))
        + kind
        + data
        + struct.pack(">I", zlib.crc32(kind + data) & 0xFFFFFFFF)
    )


def png_bytes(image: np.ndarray) -> bytes:
    """Encode (h, w) grey or (h, w, 3) RGB uint8 pixels as a PNG."""
    img = np.asarray(image)
    if img.dtype != np.uint8:
        raise ValueError("image must be uint8")
    if img.ndim == 2:
        color_type, channels = 0, 1
        img = img[:, :, None]
    elif img.ndim == 3 and img.shape[2] == 3:
        color_type, channels = 2, 3
    else:
        raise ValueError("image must be (h, w) or (h, w, 3)")
    h, w = img.shape[:2]
    ihdr = struct.pack(">IIBBBBB", w, h, 8, color_type, 0, 0, 0)
    # filter type 0 on every scanline: a zero byte before each row
    raw = np.pad(img.reshape(h, w * channels), ((0, 0), (1, 0)))
    idat = zlib.compress(raw.tobytes(), 6)
    return _PNG_SIG + _chunk(b"IHDR", ihdr) + _chunk(b"IDAT", idat) + _chunk(b"IEND", b"")


def write_png(path, image: np.ndarray) -> None:
    Path(path).write_bytes(png_bytes(image))


def _paeth(a: int, b: int, c: int) -> int:
    p = a + b - c
    pa, pb, pc = abs(p - a), abs(p - b), abs(p - c)
    if pa <= pb and pa <= pc:
        return a
    return b if pb <= pc else c


def _unfilter(data: bytes, w: int, h: int, channels: int) -> np.ndarray:
    stride = w * channels
    if len(data) < h * (1 + stride):
        raise ValueError(
            f"PNG data truncated: {len(data)} bytes for {h} rows of {1 + stride}"
        )
    rows = np.frombuffer(data, dtype=np.uint8, count=h * (1 + stride)).reshape(h, 1 + stride)
    if not rows[:, 0].any():  # filter type 0 throughout, as png_bytes writes
        return rows[:, 1:].reshape(h, w, channels).copy()
    out = np.zeros((h, stride), dtype=np.uint8)
    prev = np.zeros(stride, dtype=np.int32)
    for row in range(h):
        ftype = int(rows[row, 0])
        line = rows[row, 1:].astype(np.int32)
        if ftype == 0:
            recon = line
        elif ftype == 2:  # Up
            recon = (line + prev) % 256
        elif ftype == 1:  # Sub
            recon = line.copy()
            for x in range(channels, stride):
                recon[x] = (recon[x] + recon[x - channels]) % 256
        elif ftype == 3:  # Average
            recon = line.copy()
            for x in range(stride):
                left = recon[x - channels] if x >= channels else 0
                recon[x] = (recon[x] + (left + prev[x]) // 2) % 256
        elif ftype == 4:  # Paeth
            recon = line.copy()
            for x in range(stride):
                left = recon[x - channels] if x >= channels else 0
                ul = prev[x - channels] if x >= channels else 0
                recon[x] = (recon[x] + _paeth(int(left), int(prev[x]), int(ul))) % 256
        else:
            raise ValueError(f"unsupported PNG filter {ftype}")
        out[row] = recon.astype(np.uint8)
        prev = recon
    return out.reshape(h, w, channels)


def read_png(path) -> np.ndarray:
    """Decode a non-interlaced 8-bit grey or RGB PNG into a uint8 array.

    Raises ValueError for any other file, including a truncated or corrupt one.
    """
    blob = Path(path).read_bytes()
    if blob[:8] != _PNG_SIG:
        raise ValueError("not a PNG file")
    pos = 8
    width = height = None
    color_type = None
    idat = bytearray()
    try:
        while pos < len(blob):
            (length,) = struct.unpack(">I", blob[pos : pos + 4])
            kind = blob[pos + 4 : pos + 8]
            data = blob[pos + 8 : pos + 8 + length]
            pos += 12 + length
            if kind == b"IHDR":
                width, height, depth, color_type, _, _, interlace = struct.unpack(
                    ">IIBBBBB", data
                )
                if depth != 8 or interlace != 0 or color_type not in (0, 2):
                    raise ValueError("only 8-bit non-interlaced grey/RGB PNGs are supported")
            elif kind == b"IDAT":
                idat += data
            elif kind == b"IEND":
                break
        raw = zlib.decompress(bytes(idat))
    except (struct.error, zlib.error) as err:  # a short chunk or a cut stream
        raise ValueError(f"corrupt PNG: {err}") from err
    if width is None:
        raise ValueError("PNG missing IHDR")
    channels = 1 if color_type == 0 else 3
    img = _unfilter(raw, width, height, channels)
    return img[:, :, 0] if channels == 1 else img


def write_ppm(path, image: np.ndarray) -> None:
    """P6 fallback encoder for (h, w, 3) uint8 images."""
    img = np.asarray(image)
    if img.dtype != np.uint8 or img.ndim != 3 or img.shape[2] != 3:
        raise ValueError("PPM image must be (h, w, 3) uint8")
    h, w = img.shape[:2]
    with open(path, "wb") as f:
        f.write(f"P6\n{w} {h}\n255\n".encode("ascii"))
        f.write(img.tobytes())


def read_ppm(path) -> np.ndarray:
    blob = Path(path).read_bytes()
    if not blob.startswith(b"P6"):
        raise ValueError("not a binary PPM file")
    fields: list[bytes] = []
    pos = 2
    while len(fields) < 3:
        while pos < len(blob) and blob[pos : pos + 1].isspace():
            pos += 1
        if blob[pos : pos + 1] == b"#":
            while blob[pos : pos + 1] not in (b"\n", b""):
                pos += 1
            continue
        start = pos
        while pos < len(blob) and not blob[pos : pos + 1].isspace():
            pos += 1
        fields.append(blob[start:pos])
    pos += 1  # single whitespace after maxval
    w, h, maxval = (int(f) for f in fields)
    if maxval != 255:
        raise ValueError("only 8-bit PPM supported")
    return np.frombuffer(blob, dtype=np.uint8, count=w * h * 3, offset=pos).reshape(
        h, w, 3
    )


def write_image(path, image: np.ndarray) -> None:
    """Dispatch on extension; PNG by default, PPM as the fallback format."""
    if str(path).lower().endswith(".ppm"):
        write_ppm(path, image)
    else:
        write_png(path, image)


def read_image(path) -> np.ndarray:
    if str(path).lower().endswith(".ppm"):
        return read_ppm(path)
    return read_png(path)


def write_depth_raw(path, values: np.ndarray) -> None:
    """Row-major little-endian float32, no header."""
    arr = np.ascontiguousarray(np.asarray(values), dtype="<f4")
    Path(path).write_bytes(arr.tobytes())


def read_depth_raw(path, width: int, height: int) -> np.ndarray:
    blob = Path(path).read_bytes()
    expect = width * height * 4
    if len(blob) != expect:
        raise BundleFormatError(
            f"depth length: {Path(path).name} has {len(blob)} bytes, expected {expect}"
        )
    return np.frombuffer(blob, dtype="<f4").reshape(height, width).astype(np.float32)
