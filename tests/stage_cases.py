"""Pixel-stage inputs for the native-versus-pure identity checks.

Each ``check_*`` function runs one or two of the pixel-stage kernels
(``project``, ``unproject``, ``to_bitplanes``, ``from_bitplanes``) of a
``_lzw_native`` module and of the pure ``_lzw_py`` module on one input and
asserts that they agree. ``unproject`` also writes into views of a larger
array, whose bytes outside the view must stay as they were. ``project``'s
input and ``unproject``'s output reach the native kernels in place when their
rows are packed (contiguous, or rows reversed, which gives a negative row
stride); every other layout, and any non-contiguous input to ``unproject``
or ``to_bitplanes``, goes through the wrapper's one copy.
``tests/test_native_stages.py`` drives these checks with Hypothesis, and
runs :func:`check_block_edges`; :func:`check_stages` runs a seeded batch of
them and the block edges, which ``tests/test_lzw.py`` runs on kernels built
with UBSan and with AddressSanitizer.
"""

import numpy as np

LAYOUTS = ("contiguous", "rows reversed", "columns reversed", "strided", "channels reversed")

# Shapes at the edges of the native bit-plane kernels' blocks of 512 pixels
# (64 groups of 8): h*w = 512k + d, one block or two and a few pixels or
# groups either side, then the codec's 256x256 tile, whose planes are 8192
# bytes apart, two pages, and a 256x132 edge tile.
BLOCK_EDGE_SHAPES = tuple((1, 512 * k + d) if k == 1 else (512 * k + d, 1)
                          for k in (1, 2) for d in (-9, -8, -1, 0, 1, 7, 8, 9)
                          ) + ((256, 256), (256, 132))


def array(rng, h, w, c, layout):
    """Random (h, w, c) uint8 bytes in the named memory layout."""
    base = rng.integers(0, 256, (2 * h + 1, 3 * w + 2, c), dtype=np.uint8)
    if layout == "contiguous":
        return np.ascontiguousarray(base[:h, :w])
    if layout == "rows reversed":
        return base[::-1][:h, :w]
    if layout == "columns reversed":
        return base[:, ::-1][:h, :w]
    if layout == "strided":
        return base[1::2, ::3][:h, :w]
    if layout == "channels reversed":
        return base[:h, :w, ::-1]
    raise ValueError(layout)


def out_views(h, w):
    """Slices of a (2h + 4, 3w + 6) canvas that select (h, w) pixel views:
    packed rows, rows reversed, every other row and third column, and
    channels reversed."""
    return [
        (slice(2, 2 + h), slice(3, 3 + w)),
        (slice(1 + h, 1, -1), slice(3, 3 + w)),
        (slice(2, 2 + 2 * h, 2), slice(3, 3 + 3 * w, 3)),
        (slice(2, 2 + h), slice(3, 3 + w), slice(None, None, -1)),
    ]


def check_project(native, pure, x):
    assert np.array_equal(native.project(x), pure.project(x))


def check_unproject(native, pure, r, rng):
    expect = pure.unproject(r, np.empty(r.shape, dtype=np.uint8))
    assert np.array_equal(native.unproject(r, np.empty(r.shape, dtype=np.uint8)), expect)
    h, w, c = r.shape
    for kernel in (native, pure):
        for where in out_views(h, w):
            canvas = rng.integers(0, 256, (2 * h + 4, 3 * w + 6, c), dtype=np.uint8)
            want = canvas.copy()
            want[where] = expect
            view = canvas[where]
            assert kernel.unproject(r, view) is view
            assert np.array_equal(canvas, want), where  # the view, and nothing else


def check_bitplanes(native, pure, r, rng):
    h, w, c = r.shape
    stream = native.to_bitplanes(r)
    expect = pure.to_bitplanes(r)
    for given in (stream, expect):  # a flat byte view of the planes, from either
        assert type(given) is memoryview and given.format == "B" and given.ndim == 1
    assert stream == expect
    assert np.array_equal(native.from_bitplanes(stream, h, w, c),
                          pure.from_bitplanes(stream, h, w, c))
    # any bytes, pad bits included, decode alike: as bytes, as a writable
    # view like the decoder's output (empty when c is 0) and as a read-only one
    noise = rng.integers(0, 256, len(stream), dtype=np.uint8).tobytes()
    want = pure.from_bitplanes(noise, h, w, c)
    for given in (noise, memoryview(bytearray(noise)), memoryview(noise)):
        assert np.array_equal(native.from_bitplanes(given, h, w, c), want)


def check_block_edges(native, pure, rng):
    """The bit-plane kernels on every ``BLOCK_EDGE_SHAPES`` shape, in every
    layout, at 1, 3 and 4 channels: the 3-channel block path, the SWAR
    kernels it leaves its last groups to, and those that take 1 and 4
    channels whole."""
    for h, w in BLOCK_EDGE_SHAPES:
        for layout in LAYOUTS:
            for c in (1, 3, 4):
                check_bitplanes(native, pure, array(rng, h, w, c, layout), rng)


def check_stages(native, pure, rng, count):
    """``count`` random shapes up to 40x40, each in every layout, through all
    four kernels: 1 and 3 channels for projection, 0 to 4 for bit-planes;
    then :func:`check_block_edges`."""
    for _ in range(count):
        h, w = (int(n) for n in rng.integers(1, 41, 2))
        for layout in LAYOUTS:
            for c in (1, 3):
                x = array(rng, h, w, c, layout)
                check_project(native, pure, x)
                check_unproject(native, pure, x, rng)
            for c in range(5):
                check_bitplanes(native, pure, array(rng, h, w, c, layout), rng)
    check_block_edges(native, pure, rng)
