"""Pure-Python and numpy kernels; the C kernels in _lzw.c mirror these.

The same six functions as ``slidecodec._lzw_native``, with the same
signatures and byte-identical results: ``encode`` and ``decode`` for LZW,
``project``, ``unproject``, ``to_bitplanes`` and ``from_bitplanes`` for the
pixel stages. They are the fallback backend and the reference the native
kernels are tested against. The callers in ``lzw``, ``transform`` and
``bitplane`` check every argument first.

LZW wire rules shared by both backends (and by the stream format):

* codes 0-255 are byte literals, 256 = CLEAR, 257 = END, entries start at 258
* greedy longest match; on a miss the pending code is emitted and the extended
  string is added to the dictionary
* when the next entry would need code 2**max_width, CLEAR is emitted instead
  and the dictionary resets to literals
* codes are packed most-significant-bit first; the write width is
  max(9, bit_length(next_code - 1)), so the stream widens immediately after
  the step that assigns the first code needing an extra bit; the reader uses
  bit_length(next_code), being one dictionary entry behind the writer
* every stream ends with END; the final partial byte is zero-padded
* max_width is an integer in [MIN_WIDTH, MAX_WIDTH]; streams that do not
  state it use DEFAULT_MAX_WIDTH
"""

import numpy as np

from .errors import CorruptStreamError, TruncatedStreamError

CLEAR = 256
END = 257
FIRST_CODE = 258
MIN_WIDTH = 9
MAX_WIDTH = 20
DEFAULT_MAX_WIDTH = 16


def encode(data, max_width: int) -> bytes:
    capacity = 1 << max_width
    table: dict[int, int] = {}
    next_code = FIRST_CODE
    width = MIN_WIDTH
    acc = 0
    nbits = 0
    out = bytearray()
    prev = -1

    def put(code: int) -> None:
        nonlocal acc, nbits
        acc = (acc << width) | code
        nbits += width
        while nbits >= 8:
            nbits -= 8
            out.append((acc >> nbits) & 0xFF)
        acc &= (1 << nbits) - 1  # drop flushed bits so acc stays small

    for b in data:
        if prev < 0:
            prev = b
            continue
        key = (prev << 8) | b
        code = table.get(key)
        if code is not None:
            prev = code
            continue
        put(prev)
        if next_code < capacity:
            table[key] = next_code
            next_code += 1
            if next_code - 1 >= (1 << width):
                width += 1
        else:
            put(CLEAR)
            table.clear()
            next_code = FIRST_CODE
            width = MIN_WIDTH
        prev = b
    if prev >= 0:
        put(prev)
        # the decoder defines an entry for every data code after the first;
        # mirror its width growth for the final code's implied entry, or END
        # is written one bit narrower than the decoder will read it
        if FIRST_CODE < next_code < capacity:
            next_code += 1
            if next_code - 1 >= (1 << width):
                width += 1
    put(END)
    if nbits:
        out.append((acc << (8 - nbits)) & 0xFF)
    return bytes(out)


def decode(data, max_width: int, size: int) -> memoryview:
    """Decode up to END into exactly ``size`` bytes, returned as a memoryview
    like the native kernel's, or raise CorruptStreamError."""
    capacity = 1 << max_width
    table: list[bytes] = []
    next_code = FIRST_CODE
    prev = b""
    have_prev = False
    out = bytearray()
    acc = 0
    nbits = 0
    pos = 0
    n = len(data)

    while True:
        width = next_code.bit_length()  # next_code >= FIRST_CODE: at least MIN_WIDTH
        if width > max_width:
            width = max_width
        while nbits < width:
            if pos >= n:
                raise TruncatedStreamError(
                    f"stream ended at byte {pos} before the END code"
                )
            acc = (acc << 8) | data[pos]
            pos += 1
            nbits += 8
        nbits -= width
        code = (acc >> nbits) & ((1 << width) - 1)
        acc &= (1 << nbits) - 1  # drop consumed bits so acc stays small

        if code == END:
            if len(out) != size:
                raise CorruptStreamError(
                    f"END read by byte {pos} after {len(out)} of the expected {size} bytes"
                )
            return memoryview(out)
        if code == CLEAR:
            table.clear()
            next_code = FIRST_CODE
            have_prev = False
            continue
        if code < 256:
            cur = bytes([code])
        elif code < next_code:
            cur = table[code - FIRST_CODE]
        elif code == next_code and have_prev:
            cur = prev + prev[:1]
        else:
            raise CorruptStreamError(
                f"code {code} is beyond the dictionary (next would be {next_code})"
            )
        if len(cur) > size - len(out):
            raise CorruptStreamError(
                f"code read by byte {pos} decodes past the expected {size} bytes"
            )
        if have_prev and next_code < capacity:
            table.append(prev + cur[:1])
            next_code += 1
        out += cur
        prev = cur
        have_prev = True


def project(x: np.ndarray) -> np.ndarray:
    d = np.empty(x.shape, dtype=np.uint8)
    d[:1] = x[:1]
    np.subtract(x[1:], x[:-1], out=d[1:])
    e = np.empty_like(d)
    e[:, :1] = d[:, :1]
    np.subtract(d[:, 1:], d[:, :-1], out=e[:, 1:])
    if x.shape[2] == 3:
        e[..., 1] -= e[..., 0]
        e[..., 2] -= e[..., 0]
    s = e.view(np.int8)
    return ((s << 1) ^ (s >> 7)).view(np.uint8)


def unproject(r: np.ndarray, out: np.ndarray) -> np.ndarray:
    y = (r >> 1) ^ (0 - (r & 1))
    if r.shape[2] == 3:
        y[..., 1] += y[..., 0]
        y[..., 2] += y[..., 0]
    y = np.cumsum(y, axis=1, dtype=np.uint8)
    # assigned, as the C kernel writes, whether out's rows overlap or not
    out[...] = np.cumsum(y, axis=0, dtype=np.uint8, out=y)
    return out


# (mask, shift) of the three rounds of the 8x8 bit-matrix transpose.
_ROUNDS = tuple(
    (np.uint64(mask), np.uint64(shift))
    for mask, shift in (
        (0x00AA00AA00AA00AA, 7),  # swap 1x1 blocks across the diagonal
        (0x0000CCCC0000CCCC, 14),  # then 2x2 blocks
        (0x00000000F0F0F0F0, 28),  # then 4x4 blocks
    )
)


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


def to_bitplanes(r: np.ndarray) -> memoryview:
    h, w, c = r.shape
    npix = h * w
    plane_len = (npix + 7) // 8
    pixels = np.zeros((c, 8 * plane_len), dtype=np.uint8)  # zero pad pixels
    pixels[:, :npix].reshape(c, h, w)[...] = r.transpose(2, 0, 1)
    planes = _transpose8x8(pixels.reshape(c, plane_len, 8))
    return memoryview(np.ascontiguousarray(planes.transpose(0, 2, 1)).reshape(-1))


def from_bitplanes(stream, height: int, width: int, channels: int) -> np.ndarray:
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
