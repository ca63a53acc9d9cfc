"""Dictionary coding stage: variable-width LZW over byte streams.

This module also chooses, once, the kernel module behind every stage:
``slidecodec._lzw_native`` (C kernels compiled with the system C compiler on
first import and cached, see that module), or the pure-Python and numpy
kernels of ``slidecodec._lzw_py`` when no library can be built or loaded, or
when the ``SLIDECODEC_PURE`` environment variable is set (then nothing is
compiled). Both modules define the same seven functions with the same
results: LZW here, and the projection and bit-plane kernels that
``transform`` and ``bitplane`` look up as ``lzw._kernel`` on each call. The
C kernels release the interpreter lock for each call. ``BACKEND`` names the
module in use.
"""

import os
from typing import NamedTuple

import numpy as np

from . import _lzw_py
from ._lzw_py import CLEAR, END, MIN_WIDTH
from .errors import TruncatedStreamError

__all__ = [
    "BACKEND",
    "CLEAR",
    "END",
    "DEFAULT_MAX_WIDTH",
    "CodeTrace",
    "lzw_encode",
    "lzw_decode",
    "lzw_encode_trace",
]

DEFAULT_MAX_WIDTH = 16

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

    ``peak_next_code`` is the largest dictionary size the encoder reached,
    for checking the 2**max_width bound.
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
    max_width = check_int("max_width", max_width, 9, 20)
    return _kernel.encode(_flat(memoryview(data)), max_width)


def check_decoded_size(nbytes: int, size: int) -> None:
    """Raise TruncatedStreamError when no ``nbytes``-byte stream decodes to ``size`` bytes.

    ``nbytes`` bytes hold at most m = 8 * nbytes // 9 codes, the last of
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
    max_width = check_int("max_width", max_width, 9, 20)
    size = check_int("size", size, 0)
    view = memoryview(data)
    check_decoded_size(view.nbytes, size)
    return _kernel.decode(_flat(view), max_width, size)


def lzw_encode_trace(data: bytes, max_width: int = DEFAULT_MAX_WIDTH) -> CodeTrace:
    """Encode while recording the emitted code sequence.

    Runs on the active backend; the packed bytes are identical to
    :func:`lzw_encode`'s output.
    """
    max_width = check_int("max_width", max_width, 9, 20)
    packed, codes, peak = _kernel.encode_trace(_flat(memoryview(data)), max_width)
    return CodeTrace(tuple(codes), packed, MIN_WIDTH, max_width, peak)
