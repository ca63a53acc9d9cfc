"""Dictionary coding stage: variable-width LZW over byte streams.

Encoding and decoding dispatch to the C kernels in ``slidecodec._lzw_native``
(compiled with the system C compiler on first import and cached, see that
module), and fall back to the pure-Python kernels in ``slidecodec._lzw_py``
when no library can be built or loaded, or when the ``SLIDECODEC_PURE``
environment variable is set (then nothing is compiled). Both backends produce
byte-identical streams; ``BACKEND`` names the one in use.
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
    _kernel = _lzw_py
    BACKEND = "python"
else:
    try:
        from . import _lzw_native as _kernel

        BACKEND = "native"
    except ImportError:
        _kernel = _lzw_py
        BACKEND = "python"


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


def lzw_encode(data: bytes, max_width: int = DEFAULT_MAX_WIDTH) -> bytes:
    """Encode a byte string; empty input encodes to just the END code."""
    _check_width(max_width)
    return _kernel.encode(bytes(data), max_width)


def lzw_decode(data: bytes, max_width: int = DEFAULT_MAX_WIDTH, *, size: int) -> bytes:
    """Exact inverse of :func:`lzw_encode` for the same max_width.

    ``size`` is the decoded length (a patch record states it). A stream too
    short to reach it raises TruncatedStreamError before anything is
    allocated; decoding raises CorruptStreamError as soon as a code would
    pass ``size``, or when END arrives short of it.
    """
    _check_width(max_width)
    if size < 0:
        raise ValueError(f"size must be non-negative, got {size}")
    # n bytes hold at most m = 8n // 9 codes, the last of them END, and the
    # j-th data code after a reset stands for at most j bytes
    m = 8 * len(data) // MIN_WIDTH
    if size > m * (m - 1) // 2:
        raise TruncatedStreamError(
            f"a {len(data)}-byte stream decodes to at most {m * (m - 1) // 2} bytes, "
            f"not {size}"
        )
    return _kernel.decode(bytes(data), max_width, size)


def lzw_encode_trace(data: bytes, max_width: int = DEFAULT_MAX_WIDTH) -> CodeTrace:
    """Encode while recording the emitted code sequence.

    Runs on the active backend; the packed bytes are identical to
    :func:`lzw_encode`'s output.
    """
    _check_width(max_width)
    packed, codes, peak = _kernel.encode_trace(bytes(data), max_width)
    return CodeTrace(tuple(codes), packed, MIN_WIDTH, max_width, peak)
