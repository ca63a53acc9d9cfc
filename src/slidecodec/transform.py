"""Hierarchical projection coding: cascaded first-order deltas plus zigzag byte mapping.

The forward transform runs three passes over an 8-bit patch, each one a plain
first-order difference computed modulo 256:

1. row pass:     out[m, n, c] = in[m, n, c] - in[m-1, n, c]      (m >= 1)
2. column pass:  out[m, n, c] = in[m, n, c] - in[m, n-1, c]      (n >= 1)
3. channel pass: out[m, n, c] = in[m, n, c] - in[m, n, 0]        (c >= 1, RGB only)

Each pass reads the full output of the previous pass; the first row, first
column, and first channel pass through undifferenced. The resulting modular
residuals are reinterpreted as signed values s in [-128, 127] and zigzag-mapped
so that small magnitudes become small unsigned bytes (0, -1, 1, -2, ... map to
0, 1, 2, 3, ...), which keeps the high bit positions of near-zero residuals
empty for the bit-plane stage. The mapping is protobuf's ZigZag encoding done
in 8-bit arithmetic: (s << 1) ^ (s >> 7) on the int8 view, with an arithmetic
right shift, and (u >> 1) ^ (0 - (u & 1)) modulo 256 for the inverse.

Inversion undoes the passes in reverse order, each via a modular cumulative
sum, and is exact for every input. Both directions accept strided views, and
each is one call into the kernel module that ``lzw`` chose.
"""

import numpy as np

from . import lzw
from .errors import StructuralError, UnsupportedLayoutError

__all__ = ["zigzag", "unzigzag", "project", "unproject"]


def zigzag(s: int) -> int:
    """Map a signed value in [-128, 127] to an unsigned byte, interleaving signs."""
    if not -128 <= s <= 127:
        raise ValueError(f"zigzag input {s} outside [-128, 127]")
    return 2 * s if s >= 0 else -2 * s - 1


def unzigzag(u: int) -> int:
    """Inverse of :func:`zigzag`; total on [0, 255]."""
    if not 0 <= u <= 255:
        raise ValueError(f"unzigzag input {u} outside [0, 255]")
    return u // 2 if u % 2 == 0 else -(u + 1) // 2


def _check_patch(patch: np.ndarray, channels: tuple[int, ...]) -> np.ndarray:
    patch = np.asarray(patch)
    if patch.dtype != np.uint8:
        raise StructuralError(f"expected uint8 samples, got {patch.dtype}")
    if patch.ndim != 3:
        raise StructuralError(f"expected (height, width, channels) array, got shape {patch.shape}")
    if patch.shape[2] not in channels:
        raise UnsupportedLayoutError(
            f"unsupported channel count {patch.shape[2]}; expected one of {channels}"
        )
    return patch


def project(patch: np.ndarray) -> np.ndarray:
    """Forward transform of an (h, w, c) uint8 patch into zigzag residual bytes.

    Supports 1 or 3 channels; the channel pass is skipped for single-channel
    input. Output has the same shape as the input.
    """
    return lzw._kernel.project(_check_patch(patch, (1, 3)))


def unproject(residuals: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Exact inverse of :func:`project`.

    With ``out``, a writeable uint8 array of the residuals' shape (a view
    into a larger image, say), the patch is written there and ``out`` is
    returned; otherwise into a new array.
    """
    r = _check_patch(residuals, (1, 3))
    if out is None:
        out = np.empty(r.shape, dtype=np.uint8)
    elif not (isinstance(out, np.ndarray) and out.dtype == np.uint8
              and out.shape == r.shape and out.flags.writeable):
        raise ValueError(f"out must be a writeable uint8 array of shape {r.shape}")
    elif np.may_share_memory(r, out):
        r = r.copy()
    return lzw._kernel.unproject(r, out)
