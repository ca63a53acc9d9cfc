"""Pure-Python LZW kernels; the C kernels in _lzw.c mirror these.

Wire rules shared by both backends (and by the stream format):

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
"""

from .errors import CorruptStreamError, TruncatedStreamError

CLEAR = 256
END = 257
FIRST_CODE = 258
MIN_WIDTH = 9


def encode(data: bytes, max_width: int) -> bytes:
    return _encode(data, max_width, None)[0]


def encode_trace(data: bytes, max_width: int) -> tuple:
    """(packed bytes, emitted code list, peak next code) for ``data``."""
    codes: list[int] = []
    packed, peak = _encode(data, max_width, codes)
    return packed, codes, peak


def _encode(data: bytes, max_width: int, codes) -> tuple:
    """Packed stream and peak next code; appends each code to ``codes`` unless None."""
    capacity = 1 << max_width
    table: dict[int, int] = {}
    next_code = FIRST_CODE
    peak = FIRST_CODE  # next_code only grows between resets
    width = MIN_WIDTH
    acc = 0
    nbits = 0
    out = bytearray()
    prev = -1

    def put(code: int) -> None:
        nonlocal acc, nbits
        if codes is not None:
            codes.append(code)
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
            peak = next_code
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
    return bytes(out), max(peak, next_code)


def decode(data: bytes, max_width: int, size: int) -> memoryview:
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
        width = next_code.bit_length()
        if width < MIN_WIDTH:
            width = MIN_WIDTH
        elif width > max_width:
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
