"""Dictionary coding stage: variable-width LZW over byte streams.

Encoding and decoding dispatch to the C kernels in ``slidecodec._lzw_native``
(compiled with the system C compiler on first import and cached, see that
module), and fall back to the pure-Python kernels in ``slidecodec._lzw_py``
when no library can be built or loaded, or when the ``SLIDECODEC_PURE``
environment variable is set (then nothing is compiled). Both backends produce
byte-identical streams; ``BACKEND`` names the one in use.

The same switch picks the pixel-stage kernels: ``native`` is the loaded
``_lzw_native`` module, whose C projection and bit-plane kernels
``transform`` and ``bitplane`` call, or None when the pure backends run.
"""

import os
from typing import NamedTuple

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

if os.environ.get("SLIDECODEC_PURE"):
    native = None
else:
    try:
        from . import _lzw_native as native
    except ImportError:
        native = None
_kernel = native or _lzw_py
BACKEND = "native" if native else "python"


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


def _check_width(max_width: int) -> None:
    if not 9 <= max_width <= 20:
        raise ValueError(f"max_width must be in [9, 20], got {max_width}")


def _flat(view: memoryview):
    """The bytes of ``view`` as one flat byte buffer, copied only when they are
    not contiguous; a view of a whole bytes object is that object."""
    if not view.c_contiguous:
        return view.tobytes()
    if type(view.obj) is bytes and view.nbytes == len(view.obj):
        return view.obj
    return view if view.ndim == 1 and view.format == "B" else view.cast("B")


def lzw_encode(data: bytes, max_width: int = DEFAULT_MAX_WIDTH) -> bytes:
    """Encode a byte string, or any buffer's bytes in C order; empty input
    encodes to just the END code."""
    _check_width(max_width)
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
    _check_width(max_width)
    if size < 0:
        raise ValueError(f"size must be non-negative, got {size}")
    view = memoryview(data)
    check_decoded_size(view.nbytes, size)
    return _kernel.decode(_flat(view), max_width, size)


def lzw_encode_trace(data: bytes, max_width: int = DEFAULT_MAX_WIDTH) -> CodeTrace:
    """Encode while recording the emitted code sequence.

    Runs on the active backend; the packed bytes are identical to
    :func:`lzw_encode`'s output.
    """
    _check_width(max_width)
    packed, codes, peak = _kernel.encode_trace(_flat(memoryview(data)), max_width)
    return CodeTrace(tuple(codes), packed, MIN_WIDTH, max_width, peak)
