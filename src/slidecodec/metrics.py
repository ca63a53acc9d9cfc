"""Analysis instruments: entropy, stage traces, ratios, bit-plane PSNR.

All accumulation is double precision in ascending symbol order, so repeated
runs give bit-identical floats.
"""

import math

import numpy as np

from .bitplane import to_bitplanes
from .errors import StructuralError
from .lzw import lzw_encode_trace
from .pipeline import CompressionConfig, _stage_chain
from .transform import project

__all__ = [
    "ENTROPY_STAGES",
    "bitplane_psnr",
    "compression_ratio",
    "entropy_trace",
    "psnr_matrix",
    "shannon_entropy",
]

ENTROPY_STAGES = ("raw", "projection", "bitplane", "dictionary")


def _entropy_from_counts(counts, total) -> float:
    # counts indexed by symbol value, so iteration order is the pinned
    # ascending-symbol summation order
    h = 0.0
    for n in counts:
        if n:
            p = n / total
            h -= p * math.log2(p)
    return h


def shannon_entropy(data) -> float:
    """Empirical entropy of a byte sequence, in bits per byte."""
    buf = np.frombuffer(bytes(data), dtype=np.uint8) if not isinstance(
        data, np.ndarray
    ) else data.reshape(-1)
    if buf.dtype != np.uint8:
        raise ValueError("shannon_entropy expects bytes or a uint8 array")
    if buf.size == 0:
        raise ValueError("entropy of an empty sequence is undefined")
    counts = np.bincount(buf, minlength=256)
    return _entropy_from_counts(counts.tolist(), buf.size)


def _code_entropy(codes) -> float:
    counts = np.bincount(np.asarray(codes, dtype=np.int64))
    return _entropy_from_counts(counts.tolist(), len(codes))


def entropy_trace(patch, config=None) -> dict:
    """Per-stage entropy of one patch as it moves through the pipeline.

    Returns {"raw", "projection", "bitplane", "dictionary"} -> bits. The first
    three are byte entropies of the stream entering LZW at that point; the
    dictionary entry is the entropy of the emitted LZW code sequence, treated
    as symbols over the code alphabet. Disabled stages pass their input
    through, so their entry repeats the previous stage's value.
    """
    config = config or CompressionConfig()
    _, projected, stream = _stage_chain(patch, config)
    codes = lzw_encode_trace(stream, config.lzw_max_width).codes
    return {
        "raw": shannon_entropy(patch),
        "projection": shannon_entropy(projected),
        "bitplane": shannon_entropy(stream),
        "dictionary": _code_entropy(codes),
    }


def compression_ratio(original_len, compressed_len) -> float:
    """original / compressed over full byte lengths; higher is better."""
    if original_len <= 0 or compressed_len <= 0:
        raise StructuralError(
            f"lengths must be positive, got {original_len}/{compressed_len}"
        )
    return original_len / compressed_len


def bitplane_psnr(plane_a, plane_b) -> float:
    """PSNR between two binary planes with MAX = 1; math.inf when identical."""
    a = np.asarray(plane_a, dtype=np.uint8).reshape(-1)
    b = np.asarray(plane_b, dtype=np.uint8).reshape(-1)
    if a.size != b.size:
        raise StructuralError(f"plane sizes differ: {a.size} vs {b.size}")
    if a.size == 0:
        raise StructuralError("empty planes have no PSNR")
    differing = int(np.count_nonzero(a != b))
    if differing == 0:
        return math.inf
    return 10.0 * math.log10(a.size / differing)


def _unpacked_planes(patch, stage):
    """(8 * channels) x (h * w) array of {0, 1} bits, channel-major, bit 7 first."""
    if stage not in ("raw", "projected"):
        raise ValueError(f"stage must be 'raw' or 'projected', got {stage!r}")
    arr = np.asarray(patch)
    if stage == "projected":
        arr = project(arr)
    h, w, c = arr.shape
    planes = np.frombuffer(to_bitplanes(arr), dtype=np.uint8).reshape(8 * c, (h * w + 7) // 8)
    return np.unpackbits(planes, axis=1)[:, : h * w]


def psnr_matrix(patch, stage="projected") -> np.ndarray:
    """Pairwise plane PSNR over all 8 * channels planes of a patch.

    Planes are ordered channel-major, most significant bit first, matching the
    bit-plane stream layout. Identical planes give np.inf, including the
    diagonal.
    """
    planes = _unpacked_planes(patch, stage)
    n = planes.shape[0]
    out = np.full((n, n), np.inf, dtype=np.float64)
    for i in range(n):
        for j in range(i + 1, n):
            out[i, j] = out[j, i] = bitplane_psnr(planes[i], planes[j])
    return out
