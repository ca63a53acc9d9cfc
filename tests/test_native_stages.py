"""The native kernel module against the pure one: one interface, the same results.

The native module is imported directly, so these run, and build the kernel,
even when ``SLIDECODEC_PURE`` makes the codec itself use the pure kernels.
"""

import inspect

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import as_strided

from slidecodec import _lzw_py, lzw, transform
from slidecodec.pipeline import CompressionConfig, compress, decompress
from slidecodec.transform import unproject

from stage_cases import (LAYOUTS, array, check_bitplanes, check_block_edges, check_project,
                         check_row_edges, check_unproject)

try:
    from slidecodec import _lzw_native
    _native_error = None
except ImportError as exc:
    _lzw_native, _native_error = None, exc


@pytest.fixture(scope="module")
def native():
    assert _lzw_native is not None, f"native kernel unavailable: {_native_error}"
    return _lzw_native


sides = st.integers(1, 40)
layouts = st.sampled_from(LAYOUTS)
seeds = st.integers(0, 2**32 - 1)


@settings(max_examples=150, deadline=None)
@given(sides, sides, st.sampled_from([1, 3]), layouts, seeds)
def test_project_matches_numpy(native, h, w, c, layout, seed):
    check_project(native, _lzw_py, array(np.random.default_rng(seed), h, w, c, layout))


@settings(max_examples=150, deadline=None)
@given(sides, sides, st.sampled_from([1, 3]), layouts, seeds)
def test_unproject_matches_numpy_in_place_too(native, h, w, c, layout, seed):
    rng = np.random.default_rng(seed)
    check_unproject(native, _lzw_py, array(rng, h, w, c, layout), rng)


@settings(max_examples=150, deadline=None)
@given(sides, sides, st.integers(0, 4), layouts, seeds)
def test_bitplanes_match_numpy(native, h, w, c, layout, seed):
    rng = np.random.default_rng(seed)
    check_bitplanes(native, _lzw_py, array(rng, h, w, c, layout), rng)


def test_unproject_matches_numpy_at_row_step_edges(native):
    check_row_edges(native, _lzw_py, np.random.default_rng(45))


def test_read_only_inputs_match_numpy(native):
    # inputs the kernels take as they are, not writeable: their address
    # comes by numpy's path
    rng = np.random.default_rng(46)
    for h, w, c in ((3, 33, 3), (2, 5, 1)):
        r = np.frombuffer(rng.integers(0, 256, h * w * c, dtype=np.uint8).tobytes(),
                          np.uint8).reshape(h, w, c)
        assert not r.flags.writeable and r.flags.c_contiguous
        assert np.array_equal(native.unproject(r, np.empty(r.shape, np.uint8)),
                              _lzw_py.unproject(r, np.empty(r.shape, np.uint8)))
        assert native.to_bitplanes(r) == _lzw_py.to_bitplanes(r)


def test_bitplanes_match_numpy_at_block_edges(native):
    check_block_edges(native, _lzw_py, np.random.default_rng(44))


def test_backends_share_one_interface(native):
    names = ("encode", "decode", "project", "unproject", "to_bitplanes", "from_bitplanes")
    for name in names:
        assert inspect.signature(getattr(native, name)) == \
            inspect.signature(getattr(_lzw_py, name)), name


def test_codec_uses_the_loaded_backend():
    assert (lzw._kernel is not _lzw_py) == (lzw.BACKEND == "native")


def test_unproject_out_is_checked():
    r = np.random.default_rng(40).integers(0, 256, (5, 6, 3), dtype=np.uint8)
    expect = unproject(r)
    for bad in (np.empty((5, 6, 1), np.uint8), np.empty((5, 6, 3), np.int16),
                np.frombuffer(bytes(90), np.uint8).reshape(5, 6, 3), bytearray(90)):
        with pytest.raises(ValueError):
            unproject(r, out=bad)
    # out overlapping the residuals: the result is as if they were apart
    both = r.copy()
    assert unproject(both, out=both) is both
    assert np.array_equal(both, expect)
    wide = np.zeros((5, 7, 3), np.uint8)
    wide[:, 1:] = r
    assert np.array_equal(unproject(wide[:, 1:], out=wide[:, :6]), expect)


def test_unproject_into_rows_that_overlap(native, monkeypatch):
    # writeable views that pass every check in transform.unproject, with row
    # strides shorter than a row: the result is numpy's assignment of the
    # patch into the same view, from the native kernel and the pure backend
    rng = np.random.default_rng(41)
    r = rng.integers(0, 256, (4, 5, 3), dtype=np.uint8)
    monkeypatch.setattr(lzw, "_kernel", _lzw_py)
    for strides in ((6, 3, 1), (0, 3, 1), (3, 3, 1)):
        canvas = rng.integers(0, 256, 60, dtype=np.uint8)
        want = canvas.copy()
        as_strided(want, r.shape, strides)[...] = _lzw_py.unproject(r, np.empty_like(r))
        for run in (native.unproject, transform.unproject):
            got = canvas.copy()
            view = as_strided(got, r.shape, strides)
            assert run(r, view) is view
            assert np.array_equal(got, want), (strides, run)


@pytest.mark.usefixtures("threads_on_small_tiles")
def test_codec_tiles_are_never_copied(native, monkeypatch):
    # margins cropped off, of rows and of rows and columns (tiles are views
    # of the input), then an interior row too (tiles are views of the
    # gathered copy), tiles cut short at the right and bottom edges, tiles
    # decoded in place and beside a removed row: every array reaches the
    # kernels as it is
    copied = []
    copy = native._copy
    monkeypatch.setattr(native, "_copy", lambda a: copied.append(a.shape) or copy(a))
    monkeypatch.setattr(lzw, "_kernel", native)
    rng = np.random.default_rng(42)
    for c in (1, 3):
        for cols, gap in ((slice(0, 61), []), (slice(2, 59), []), (slice(2, 59), [30])):
            image = np.zeros((70, 61, c), dtype=np.uint8)
            image[3:66, cols] = rng.integers(1, 256, (63, cols.stop - cols.start, c),
                                             dtype=np.uint8)
            image[gap] = 0
            for threads in (1, 2):
                data = compress(image, CompressionConfig(patch_size=16), threads)
                assert np.array_equal(decompress(data, threads), image)
    assert copied == []
    # the spy sees the copy a channel-reversed tile needs
    transform.project(image[..., ::-1])
    assert copied == [image.shape]
