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
plane 7-j. The transpose is done SWAR-style (SIMD within a register) on every
word at once with three masked shift-and-XOR rounds that swap 1x1, 2x2 and 4x4
sub-blocks (Hacker's Delight, 2nd ed., section 7-3, "Transposing a Bit
Matrix", ``transpose8``); a byte transpose then gathers each plane's bytes.
Transposition is an involution, so decoding runs the same rounds.

Both directions run as one call into the C kernels of ``_lzw_native``, which
do the same rounds on one 64-bit word per 8 pixels and release the
interpreter lock for the whole patch, when ``lzw`` loaded them; otherwise,
and as the reference they are tested against, in numpy.
"""

import numpy as np

from .errors import StructuralError
from .lzw import native

__all__ = ["to_bitplanes", "from_bitplanes", "effective_bit_histogram", "plane_stream_size"]

_HIGH_BIT = np.full(256, -1, dtype=np.int8)  # highest set bit position; -1 for zero
for _v in range(1, 256):
    _HIGH_BIT[_v] = _v.bit_length() - 1


# (mask, shift) of the three rounds of the 8x8 bit-matrix transpose.
_ROUNDS = tuple(
    (np.uint64(mask), np.uint64(shift))
    for mask, shift in (
        (0x00AA00AA00AA00AA, 7),  # swap 1x1 blocks across the diagonal
        (0x0000CCCC0000CCCC, 14),  # then 2x2 blocks
        (0x00000000F0F0F0F0, 28),  # then 4x4 blocks
    )
)


def plane_stream_size(height: int, width: int, channels: int) -> int:
    """Exact byte length of the transposed stream for the given patch shape."""
    return channels * 8 * ((height * width + 7) // 8)


def _transpose8x8(groups: np.ndarray) -> np.ndarray:
    """Bit-transpose the 8x8 matrix held in each byte-group of a uint8 array.

    ``groups`` has a last axis of 8 bytes per matrix, row 0 first; the result
    has the same shape, with row j of each matrix holding its former column j.
    """
    # Big-endian view: byte 0 of a group (row 0) is the word's top byte on
    # any host. The astype calls convert to and from native order.
    x = groups.view(">u8").astype(np.uint64)
    t = np.empty_like(x)
    for mask, shift in _ROUNDS:
        np.right_shift(x, shift, out=t)
        t ^= x
        t &= mask
        x ^= t
        t <<= shift
        x ^= t
    return x.astype(">u8").view(np.uint8)


def to_bitplanes(residuals: np.ndarray) -> bytes:
    """Transpose an (h, w, c) uint8 patch into its packed bit-plane stream."""
    r = np.asarray(residuals)
    if r.dtype != np.uint8 or r.ndim != 3:
        raise StructuralError(f"expected (h, w, c) uint8 array, got {r.dtype} {r.shape}")
    if native:
        return native.to_bitplanes(r)
    return _to_bitplanes_numpy(r)


def from_bitplanes(stream: bytes, height: int, width: int, channels: int) -> np.ndarray:
    """Exact inverse of :func:`to_bitplanes`; pad bits are ignored."""
    expected = plane_stream_size(height, width, channels)
    if len(stream) != expected:
        raise StructuralError(
            f"bit-plane stream is {len(stream)} bytes, expected {expected} "
            f"for a {height}x{width}x{channels} patch"
        )
    if native:
        return native.from_bitplanes(stream, height, width, channels)
    return _from_bitplanes_numpy(stream, height, width, channels)


# The numpy implementations: the pure backend, and the reference the native
# kernels are tested against.


def _to_bitplanes_numpy(r: np.ndarray) -> bytes:
    h, w, c = r.shape
    npix = h * w
    plane_len = (npix + 7) // 8
    pixels = np.zeros((c, 8 * plane_len), dtype=np.uint8)  # zero pad pixels
    pixels[:, :npix].reshape(c, h, w)[...] = r.transpose(2, 0, 1)
    planes = _transpose8x8(pixels.reshape(c, plane_len, 8))
    return planes.transpose(0, 2, 1).tobytes()


def _from_bitplanes_numpy(stream: bytes, height: int, width: int, channels: int) -> np.ndarray:
    npix = height * width
    plane_len = (npix + 7) // 8
    data = np.frombuffer(stream, dtype=np.uint8).reshape(channels, 8, plane_len)
    groups = np.ascontiguousarray(data.transpose(0, 2, 1))
    pixels = _transpose8x8(groups).reshape(channels, 8 * plane_len)
    out = np.empty((height, width, channels), dtype=np.uint8)
    # One channel at a time: numpy copies these 2-D strided slices several
    # times faster than the equivalent single 3-D transposed copy.
    for ch in range(channels):
        out[:, :, ch] = pixels[ch, :npix].reshape(height, width)
    return out


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
