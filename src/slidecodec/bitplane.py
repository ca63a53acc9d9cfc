"""Bit-plane transposition: regroup bit position k of every byte into its own plane.

For each channel the h*w residual bytes (row-major pixel order) are split into
8 planes, one per bit position. Plane k holds bit k of every byte, packed 8
pixels per byte with the earliest pixel in the most significant bit, and a
zero-padded final byte when h*w is not a multiple of 8. Planes are emitted most
significant first (k = 7 down to 0), channels in order, so the high planes --
which are near-constant after zigzag residual coding -- form long uniform runs
at the front of each channel's section.

The stream length is always channels * 8 * ceil(h*w / 8) bytes; transposition
by itself is not compression, it only rearranges bits for the dictionary stage.

Method: each group of 8 consecutive pixels, read as a big-endian 64-bit word,
is an 8x8 bit matrix whose row i is pixel i, most significant bit first. Its
transpose has row j = bit 7-j of the 8 pixels, which is exactly one byte of
plane 7-j. The transpose is done SWAR-style (SIMD within a register) with
three masked shift-and-XOR rounds that swap 1x1, 2x2 and 4x4 sub-blocks
(Hacker's Delight, 2nd ed., section 7-3, "Transposing a Bit Matrix",
``transpose8``); a byte transpose then gathers each plane's bytes.
Transposition is an involution, so decoding runs the same rounds. Both
directions are one call into the kernel module that ``lzw`` chose: its numpy
kernels run the rounds on every word at once. Its C kernels take 3
channels, on CPUs with SSSE3, 512 pixels at a time, each plane's 64 bytes
for them written or read as one cache line, with byte shuffles and
``movemask`` doing the transpose (bitshuffle's method, Masui et al. 2015);
everything else goes through the rounds, one word per 8 pixels.
"""

import numpy as np

from . import lzw
from .errors import StructuralError

__all__ = ["to_bitplanes", "from_bitplanes", "effective_bit_histogram", "plane_stream_size"]

_HIGH_BIT = np.full(256, -1, dtype=np.int8)  # highest set bit position; -1 for zero
for _v in range(1, 256):
    _HIGH_BIT[_v] = _v.bit_length() - 1


def plane_stream_size(height: int, width: int, channels: int) -> int:
    """Exact byte length of the transposed stream for the given patch shape."""
    return channels * 8 * ((height * width + 7) // 8)


def to_bitplanes(residuals: np.ndarray) -> memoryview:
    """Transpose an (h, w, c) uint8 patch into its packed bit-plane stream,
    returned as a flat byte memoryview of the planes as written."""
    r = np.asarray(residuals)
    if r.dtype != np.uint8 or r.ndim != 3:
        raise StructuralError(f"expected (h, w, c) uint8 array, got {r.dtype} {r.shape}")
    return lzw._kernel.to_bitplanes(r)


def from_bitplanes(stream: bytes, height: int, width: int, channels: int) -> np.ndarray:
    """Exact inverse of :func:`to_bitplanes`; pad bits are ignored."""
    expected = plane_stream_size(height, width, channels)
    if len(stream) != expected:
        raise StructuralError(
            f"bit-plane stream is {len(stream)} bytes, expected {expected} "
            f"for a {height}x{width}x{channels} patch"
        )
    return lzw._kernel.from_bitplanes(stream, height, width, channels)


def effective_bit_histogram(residuals: np.ndarray) -> dict:
    """Count bytes by the position of their highest set bit.

    Returns ``{"zero": n, "counts": [c0, ..., c7]}`` where ``counts[k]`` is the
    number of bytes whose highest set bit sits at position k. The zero count
    plus all position counts always sums to the total byte count.
    """
    r = np.asarray(residuals)
    if r.dtype != np.uint8:
        raise StructuralError(f"expected uint8 samples, got {r.dtype}")
    pos = _HIGH_BIT[r.reshape(-1)]
    hist = np.bincount(pos + 1, minlength=9)
    return {"zero": int(hist[0]), "counts": [int(n) for n in hist[1:]]}
