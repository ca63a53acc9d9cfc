"""LZW inputs for the native-versus-pure byte-identity checks.

:func:`assert_identical` runs every case through two kernel modules (each
with ``encode``, ``encode_trace`` and ``decode``) and asserts the same
packed bytes, code traces, decoded bytes and errors. ``tests/test_lzw.py``
calls it in-process and, in a subprocess, on a native kernel built with
UBSan.
"""

import numpy as np

from slidecodec.bitplane import to_bitplanes
from slidecodec.errors import CodecError
from slidecodec.synthetic import wsi_like_image
from slidecodec.transform import project


def outcome(decode, *args):
    """The decoded bytes, or the (class, message) of the error raised."""
    try:
        return decode(*args)
    except CodecError as exc:
        return type(exc), str(exc)


def short_cases(rng):
    """120 random ``(data, width)`` pairs under 4000 bytes."""
    cases = []
    for _ in range(120):
        n = int(rng.integers(0, 4000))
        alphabet = int(rng.choice([2, 8, 256]))
        data = bytes(rng.integers(0, alphabet, n, dtype=np.uint8))
        cases.append((data, int(rng.choice([9, 10, 12, 16]))))
    return cases


def damaged_cases(rng):
    """200 ``(stream, width, size)`` triples: damaged or cut streams, wrong sizes."""
    from slidecodec import _lzw_py

    cases = []
    for _ in range(200):
        data = bytes(rng.integers(0, int(rng.choice([2, 8, 256])),
                                  int(rng.integers(0, 600)), dtype=np.uint8))
        width = int(rng.choice([9, 12, 16]))
        stream = bytearray(_lzw_py.encode(data, width))
        for _ in range(int(rng.integers(0, 4))):
            stream[int(rng.integers(len(stream)))] = int(rng.integers(256))
        stream = bytes(stream[:int(rng.integers(1, len(stream) + 1))])
        size = len(data) if rng.random() < 0.5 else int(rng.integers(0, 2 * len(data) + 8))
        cases.append((stream, width, size))
    return cases


def reset_cases():
    """``(data, width)`` pairs long enough to clear the dictionary or pass 2**16 codes.

    Real slide bit-plane streams (``to_bitplanes(project(tile))`` of two
    256x256 tiles) clear it at widths 9 and 12. A 250,000-byte random stream
    that is 65% zero, like slide bit-planes, clears it at widths 12 and 16
    and emits codes above 2**16 at width 20.
    """
    slide = wsi_like_image(np.random.SeedSequence(7), height=512, width=512)
    tiles = (slide[:256, 256:], slide[256:, :256])
    cases = [(to_bitplanes(project(t)), w) for t in tiles for w in (9, 12, 16)]
    rng = np.random.default_rng(37)
    skewed = rng.integers(0, 256, 250_000, dtype=np.uint8)
    skewed[rng.random(skewed.size) < 0.65] = 0
    cases += [(bytes(skewed), w) for w in (12, 16, 20)]
    return cases


def assert_identical(native, pure, cases, damaged=()):
    """Both kernels encode, trace and decode ``cases`` and fail ``damaged`` alike."""
    for data, width in cases:
        packed = native.encode(data, width)
        assert packed == pure.encode(data, width), (len(data), width)
        assert native.encode_trace(data, width) == pure.encode_trace(data, width), \
            (len(data), width)
        assert native.decode(packed, width, len(data)) == data
        assert pure.decode(packed, width, len(data)) == data
    for stream, width, size in damaged:
        assert outcome(native.decode, stream, width, size) == \
            outcome(pure.decode, stream, width, size)
