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
sum, and is exact for every input. Both directions accept strided views.

Both directions run as one call into the C kernels of ``_lzw_native`` when
``lzw`` loaded them, which release the interpreter lock for the whole tile;
otherwise, and as the reference they are tested against, in numpy.
"""

import numpy as np

from .errors import StructuralError, UnsupportedLayoutError
from .lzw import native

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
    x = _check_patch(patch, (1, 3))
    if native:
        return native.project(x)
    return _project_numpy(x)


def unproject(residuals: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Exact inverse of :func:`project`.

    With ``out``, a writeable uint8 array of the residuals' shape (a view
    into a larger image, say), the patch is written there and ``out`` is
    returned; otherwise into a new array.
    """
    r = _check_patch(residuals, (1, 3))
    if out is not None:
        if not (isinstance(out, np.ndarray) and out.dtype == np.uint8
                and out.shape == r.shape and out.flags.writeable):
            raise ValueError(f"out must be a writeable uint8 array of shape {r.shape}")
        if np.may_share_memory(r, out):
            r = r.copy()
    if native:
        return native.unproject(r, np.empty(r.shape, dtype=np.uint8) if out is None else out)
    if out is None:
        return _unproject_numpy(r)
    out[...] = _unproject_numpy(r)  # as the native kernel writes, rows overlapping or not
    return out


# The numpy implementations: the pure backend, and the reference the native
# kernels are tested against.


def _project_numpy(x: np.ndarray) -> np.ndarray:
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


def _unproject_numpy(r: np.ndarray) -> np.ndarray:
    y = (r >> 1) ^ (0 - (r & 1))
    if r.shape[2] == 3:
        y[..., 1] += y[..., 0]
        y[..., 2] += y[..., 0]
    y = np.cumsum(y, axis=1, dtype=np.uint8)
    return np.cumsum(y, axis=0, dtype=np.uint8, out=y)
