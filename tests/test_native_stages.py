"""The native pixel-stage kernels against their numpy references.

The native module is imported directly, so these run, and build the kernel,
even when ``SLIDECODEC_PURE`` makes the codec itself use numpy.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slidecodec import lzw
from slidecodec.transform import unproject

from stage_cases import LAYOUTS, array, check_bitplanes, check_project, check_unproject

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
    check_project(native, array(np.random.default_rng(seed), h, w, c, layout))


@settings(max_examples=150, deadline=None)
@given(sides, sides, st.sampled_from([1, 3]), layouts, seeds)
def test_unproject_matches_numpy_in_place_too(native, h, w, c, layout, seed):
    rng = np.random.default_rng(seed)
    check_unproject(native, array(rng, h, w, c, layout), rng)


@settings(max_examples=150, deadline=None)
@given(sides, sides, st.integers(0, 4), layouts, seeds)
def test_bitplanes_match_numpy(native, h, w, c, layout, seed):
    rng = np.random.default_rng(seed)
    check_bitplanes(native, array(rng, h, w, c, layout), rng)


def test_codec_uses_the_loaded_backend():
    assert (lzw.native is not None) == (lzw.BACKEND == "native")


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
