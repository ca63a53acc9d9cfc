"""Dictionary coding stage: variable-width LZW over byte streams.

This module also chooses, once, the kernel module behind every stage:
``slidecodec._lzw_native`` (C kernels compiled with the system C compiler on
first import and cached, see that module), or the pure-Python and numpy
kernels of ``slidecodec._lzw_py`` when no library can be built or loaded, or
when the ``SLIDECODEC_PURE`` environment variable is set (then nothing is
compiled). Both modules define the same six functions with the same
results: the LZW encoder and decoder here, whose codes
:func:`lzw_encode_trace` reads back from the packed bytes, and the
projection and bit-plane kernels that ``transform`` and ``bitplane`` look
up as ``lzw._kernel`` on each call. The C kernels release the interpreter
lock for each call. ``BACKEND`` names the module in use.
"""

import os
from typing import NamedTuple

import numpy as np

from . import _lzw_py
from ._lzw_py import CLEAR, DEFAULT_MAX_WIDTH, END, FIRST_CODE, MAX_WIDTH, MIN_WIDTH
from .errors import TruncatedStreamError

__all__ = [
    "BACKEND",
    "CLEAR",
    "END",
    "DEFAULT_MAX_WIDTH",
    "MAX_WIDTH",
    "MIN_WIDTH",
    "CodeTrace",
    "lzw_encode",
    "lzw_decode",
    "lzw_encode_trace",
]

_kernel = _lzw_py
if not os.environ.get("SLIDECODEC_PURE"):
    try:
        from . import _lzw_native as _kernel
    except ImportError:
        pass
BACKEND = "python" if _kernel is _lzw_py else "native"


def check_int(name: str, value, low: int, high: int | None = None) -> int:
    """``value`` as an int; ValueError unless it is an integer (an int or a
    numpy integer, not a bool) in [low, high], or of at least ``low``."""
    if (isinstance(value, bool) or not isinstance(value, (int, np.integer))
            or value < low or (high is not None and value > high)):
        bound = f"of at least {low}" if high is None else f"in [{low}, {high}]"
        raise ValueError(f"{name} must be an integer {bound}, got {value!r}")
    return int(value)


class CodeTrace(NamedTuple):
    """Full encoder record: the code sequence plus its packed byte stream.

    ``peak_next_code`` is the largest next code the encoder's dictionary
    reached, for checking the 2**max_width bound. It follows from the codes:
    2**max_width if there is a CLEAR, which comes only with the dictionary
    full; otherwise FIRST_CODE plus one entry per data code after the first
    and one more, the encoder's mirror of the decoder's entry for the last,
    capped at 2**max_width.
    """

    codes: tuple
    packed: bytes
    initial_code_width: int
    max_code_width: int
    peak_next_code: int


def _flat(view: memoryview):
    """The bytes of ``view`` as one flat byte buffer, copied only when they are
    not contiguous; a view of a whole bytes object is that object."""
    if not view.c_contiguous:
        return np.asarray(view).tobytes()  # numpy gathers strides far faster
    if type(view.obj) is bytes and view.nbytes == len(view.obj):
        return view.obj
    return view if view.ndim == 1 and view.format == "B" else view.cast("B")


def lzw_encode(data: bytes, max_width: int = DEFAULT_MAX_WIDTH) -> bytes:
    """Encode a byte string, or any buffer's bytes in C order; empty input
    encodes to just the END code."""
    max_width = check_int("max_width", max_width, MIN_WIDTH, MAX_WIDTH)
    return _kernel.encode(_flat(memoryview(data)), max_width)


def check_decoded_size(nbytes: int, size: int) -> None:
    """Raise TruncatedStreamError when no ``nbytes``-byte stream decodes to ``size`` bytes.

    ``nbytes`` bytes hold at most m = 8 * nbytes // MIN_WIDTH codes, the last of
    them END, and the j-th data code after a reset stands for at most j
    bytes, so no stream decodes to more than m * (m - 1) / 2 bytes.
    """
    m = 8 * nbytes // MIN_WIDTH
    if size > m * (m - 1) // 2:
        raise TruncatedStreamError(
            f"a {nbytes}-byte stream decodes to at most {m * (m - 1) // 2} bytes, not {size}"
        )


def lzw_decode(data: bytes, max_width: int = DEFAULT_MAX_WIDTH, *, size: int) -> memoryview:
    """Exact inverse of :func:`lzw_encode` for the same max_width.

    ``size`` is the decoded length (a patch record states it). A stream too
    short to reach it raises TruncatedStreamError (see
    :func:`check_decoded_size`) before anything is allocated; otherwise the
    output is allocated once, at ``size`` bytes, and returned uncopied as a
    flat byte memoryview. Decoding raises CorruptStreamError as soon as a
    code would pass ``size``, or when END arrives short of it.
    """
    max_width = check_int("max_width", max_width, MIN_WIDTH, MAX_WIDTH)
    size = check_int("size", size, 0)
    view = memoryview(data)
    check_decoded_size(view.nbytes, size)
    return _kernel.decode(_flat(view), max_width, size)


def _read_codes(packed: bytes, max_width: int) -> tuple:
    """(codes, peak next code) of an encoder's packed stream, read without a dictionary.

    A code's width depends only on ``count``, the data codes read since the
    last CLEAR: it is bit_length(next_code), at most max_width, with
    the decoder's next_code = min(FIRST_CODE + max(count - 1, 0),
    2**max_width). So the codes come in runs of one width, each read with
    numpy in one step up to its first CLEAR or END. A run ends where
    next_code reaches 2**width, or at max_width one code later: the code
    read with the dictionary full, which the encoder makes a CLEAR. Reading
    no further than that, a slice kept of a run pins no more than the run.
    """
    capacity = 1 << max_width
    b = np.frombuffer(packed + bytes(3), dtype=np.uint8).astype(np.uint32)
    words = b[:-3] << 24 | b[1:-2] << 16 | b[2:-1] << 8 | b[3:]  # the 32 bits from each byte
    parts, at, count, cleared = [], 0, 0, False
    while not parts or parts[-1][-1] != END:
        next_code = min(FIRST_CODE + max(count - 1, 0), capacity)
        width = min(next_code.bit_length(), max_width)
        n = min((1 << width) - FIRST_CODE + 1 + (width == max_width) - count,
                (8 * len(packed) - at) // width)
        bit = at + width * np.arange(n)
        codes = words[bit >> 3] >> (32 - width - (bit & 7)) & ((1 << width) - 1)
        stop = np.flatnonzero((codes == CLEAR) | (codes == END))
        n = int(stop[0]) + 1 if stop.size else n
        parts.append(codes[:n])
        at, count = at + width * n, count + n
        if codes[n - 1] == CLEAR:
            count, cleared = 0, True
    codes = tuple(np.concatenate(parts).tolist())
    if cleared:
        return codes, capacity
    data = len(codes) - 1  # see CodeTrace for the peak
    return codes, min(FIRST_CODE + (data if data > 1 else 0), capacity)


def lzw_encode_trace(data: bytes, max_width: int = DEFAULT_MAX_WIDTH) -> CodeTrace:
    """:func:`lzw_encode`, with the codes and peak read back from its output."""
    max_width = check_int("max_width", max_width, MIN_WIDTH, MAX_WIDTH)
    packed = _kernel.encode(_flat(memoryview(data)), max_width)
    codes, peak = _read_codes(packed, max_width)
    return CodeTrace(codes, packed, MIN_WIDTH, max_width, peak)
