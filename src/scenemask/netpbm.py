"""Binary netpbm image IO (PPM P6 / PGM P5, 8-bit, maxval 255).

Byte-exact and dependency-free: reading then writing reproduces the original
file, and parse failures report the byte offset of the problem.
"""

from __future__ import annotations

import numpy as np

from .errors import NetpbmError, ShapeError
from .tensor import Tensor


class _Scanner:
    def __init__(self, buf: bytes):
        self.buf = buf
        self.pos = 0

    def skip_space(self):
        while self.pos < len(self.buf):
            c = self.buf[self.pos]
            if c in b" \t\r\n\x0b\x0c":
                self.pos += 1
            elif c == ord("#"):
                while self.pos < len(self.buf) and self.buf[self.pos] not in b"\n":
                    self.pos += 1
            else:
                return

    def token(self) -> bytes:
        self.skip_space()
        start = self.pos
        while self.pos < len(self.buf) and self.buf[self.pos] not in b" \t\r\n\x0b\x0c#":
            self.pos += 1
        if self.pos == start:
            raise NetpbmError("unexpected end of header", start)
        return self.buf[start : self.pos]

    def int_token(self, what: str) -> int:
        start = self.pos
        tok = self.token()
        try:
            return int(tok)
        except ValueError:
            raise NetpbmError(f"bad {what} {tok!r}", start) from None


def _parse(buf: bytes) -> np.ndarray:
    sc = _Scanner(buf)
    magic = sc.token()
    if magic not in (b"P6", b"P5"):
        raise NetpbmError(f"unsupported format {magic.decode('latin1')}", 0)
    width = sc.int_token("width")
    height = sc.int_token("height")
    maxval_at = sc.pos
    maxval = sc.int_token("maxval")
    if maxval != 255:
        raise NetpbmError(f"unsupported maxval {maxval}", maxval_at)
    if width < 1 or height < 1:
        raise NetpbmError(f"bad dimensions {width}x{height}", 0)
    sc.pos += 1  # exactly one whitespace byte separates header and payload
    channels = 3 if magic == b"P6" else 1
    need = width * height * channels
    payload = buf[sc.pos : sc.pos + need]
    if len(payload) < need:
        raise NetpbmError("truncated payload", sc.pos + len(payload))
    px = np.frombuffer(payload, dtype=np.uint8).reshape(height, width, channels)
    if channels == 1:
        px = np.repeat(px, 3, axis=2)
    return px.copy()


def read_pixels(path) -> np.ndarray:
    """8-bit pixels as (h, w, 3); grayscale input is replicated to 3 channels."""
    with open(path, "rb") as f:
        return _parse(f.read())


def nearest_resize(pixels: np.ndarray, size: tuple) -> np.ndarray:
    """Nearest-neighbor resize of (h, w, ...) pixels to (new_h, new_w)."""
    h, w = pixels.shape[:2]
    nh, nw = size
    rows = np.minimum((np.arange(nh) + 0.5) * h / nh, h - 1).astype(np.int64)
    cols = np.minimum((np.arange(nw) + 0.5) * w / nw, w - 1).astype(np.int64)
    return pixels[rows][:, cols]


def image_tensor(pixels: np.ndarray) -> Tensor:
    """8-bit (h, w, 3) pixels as a (3, h, w) tensor scaled to [0, 1] (pixel / 255);
    a stack (n, h, w, 3) becomes a (3, n, h, w) batch."""
    channels_first = np.moveaxis(pixels, -1, 0)
    return Tensor(np.divide(channels_first, 255.0, out=np.empty(channels_first.shape)))


def read_image(path) -> Tensor:
    """Image file as a (3, h, w) tensor scaled to [0, 1]; see :func:`image_tensor`."""
    return image_tensor(read_pixels(path))


def quantize(values: np.ndarray) -> np.ndarray:
    """[0, 1] floats to 8-bit with round-half-up."""
    return np.clip(np.floor(values * 255.0 + 0.5), 0, 255).astype(np.uint8)


def write_ppm(pixels: np.ndarray, path) -> None:
    if pixels.ndim != 3 or pixels.shape[2] != 3 or pixels.dtype != np.uint8:
        raise ShapeError(f"PPM needs uint8 (h, w, 3) pixels, got {pixels.dtype} {pixels.shape}")
    h, w, _ = pixels.shape
    with open(path, "wb") as f:
        f.write(b"P6\n%d %d\n255\n" % (w, h))
        f.write(pixels.tobytes())


def write_pgm(gray: np.ndarray, path) -> None:
    if gray.ndim != 2 or gray.dtype != np.uint8:
        raise ShapeError(f"PGM needs uint8 (h, w) pixels, got {gray.dtype} {gray.shape}")
    h, w = gray.shape
    with open(path, "wb") as f:
        f.write(b"P5\n%d %d\n255\n" % (w, h))
        f.write(gray.tobytes())
