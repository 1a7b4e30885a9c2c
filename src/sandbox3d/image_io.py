"""Minimal raster and depth file I/O.

PNG support covers exactly what the toolkit writes and reads back: 8-bit
greyscale or RGB, no interlace. The encoder always emits filter type 0, which
keeps output bytes a pure function of the pixels; the decoder additionally
understands filters 1-4 so externally produced files load too. Depth grids
are stored headerless as row-major little-endian float32.

`freeze` and `image_digest` give shared images one pixel digest each: the
code that creates an image the scene owns freezes it, and every consumer
that keys or names an image by its pixels (the PNG memo, the prompt
transcript) asks `image_digest`, which hashes a frozen image once.
"""

from __future__ import annotations

import hashlib
import struct
import weakref
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
    out = np.zeros((h, w, channels), dtype=np.uint8)  # owns its data, so it can be frozen
    out_rows = out.reshape(h, stride)
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
        out_rows[row] = recon.astype(np.uint8)
        prev = recon
    return out


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


def write_image(path, image: np.ndarray) -> None:
    """PNG, whatever the suffix."""
    write_png(path, image)


def read_image(path) -> np.ndarray:
    """A PNG, whatever the suffix; raises ValueError for any other file."""
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


# ── Pixel digests ──────────────────────────────────────────────────────────


class _Frozen:
    """A frozen image's weak reference and, after its first use, its digest."""

    __slots__ = ("ref", "digest")

    def __init__(self, image: np.ndarray):
        self.ref = weakref.ref(image)
        self.digest: bytes | None = None


# id(image) -> _Frozen for every live frozen image. A finalizer removes the
# entry while the image is being freed, before its id can be reused. Single
# dict operations are atomic, so no lock is taken (a lock held by a thread
# that the garbage collector interrupts to run `_forget` would deadlock).
_frozen: dict[int, _Frozen] = {}


def _forget(key: int) -> None:
    _frozen.pop(key, None)


def freeze(image: np.ndarray) -> np.ndarray:
    """Make `image` read-only and let `image_digest` hash it once; returns it.

    Only the code that creates the array may call this, right after creating
    it: a read-only array can still change through a writable view made
    earlier, and only its creator knows that none exists. An array that does
    not own its data (a view) raises ValueError, because its base may be
    written through."""
    if not isinstance(image, np.ndarray) or not image.flags.owndata:
        raise ValueError("freeze needs an array that owns its data, not a view")
    image.flags.writeable = False
    entry = _frozen.get(id(image))
    if entry is not None and entry.ref() is image:
        entry.digest = None  # it may have been writable since its last freeze
    else:
        _frozen[id(image)] = _Frozen(image)
        weakref.finalize(image, _forget, id(image)).atexit = False
    return image


def image_digest(image: np.ndarray) -> bytes:
    """sha256 of the C-contiguous pixels: the digest of `image.tobytes()`.

    A frozen image is hashed on its first call, and the digest is reused while
    it lives. Every other array (writable, a read-only view, or made
    read-only without `freeze`) is hashed on every call."""
    entry = _frozen.get(id(image))
    if entry is None or entry.ref() is not image or image.flags.writeable:
        return hashlib.sha256(np.ascontiguousarray(image)).digest()
    if entry.digest is None:  # racing first callers compute the same value
        entry.digest = hashlib.sha256(np.ascontiguousarray(image)).digest()
    return entry.digest
