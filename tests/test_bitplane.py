import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from slidecodec.bitplane import (
    effective_bit_histogram,
    from_bitplanes,
    plane_stream_size,
    to_bitplanes,
)
from slidecodec.errors import StructuralError

from oracles import oracle_to_bitplanes


def residuals(values, channels=1):
    return np.asarray(values, dtype=np.uint8).reshape(1, -1, channels)


def test_golden_three_byte_vector():
    # planes emitted most-significant first: six empty planes, then 0x80, 0xC0
    stream = to_bitplanes(residuals([0x03, 0x01, 0x00]))
    assert stream == bytes([0, 0, 0, 0, 0, 0, 0x80, 0xC0])


def test_golden_three_byte_vector_inverse():
    stream = bytes([0, 0, 0, 0, 0, 0, 0x80, 0xC0])
    r = from_bitplanes(stream, 1, 3, 1)
    assert r.reshape(-1).tolist() == [0x03, 0x01, 0x00]


def test_single_set_position_low():
    stream = to_bitplanes(residuals([0x01] * 8))
    assert stream == bytes([0] * 7 + [0xFF])


def test_single_set_position_high():
    stream = to_bitplanes(residuals([0x80] * 8))
    assert stream == bytes([0xFF] + [0] * 7)


def test_all_zero_stream_round_trip():
    r = np.zeros((4, 5, 3), dtype=np.uint8)
    stream = to_bitplanes(r)
    assert stream == bytes(len(stream))
    assert (from_bitplanes(stream, 4, 5, 3) == 0).all()


@pytest.mark.parametrize("shape", [(1, 1, 1), (1, 3, 1), (3, 1, 3), (2, 4, 1),
                                   (5, 5, 3), (1, 17, 3), (9, 7, 1)])
def test_round_trip_shapes(shape):
    rng = np.random.default_rng(sum(shape))
    r = rng.integers(0, 256, shape, dtype=np.uint8)
    stream = to_bitplanes(r)
    assert len(stream) == plane_stream_size(*shape)
    assert (from_bitplanes(stream, *shape) == r).all()


def test_size_law():
    # 8 planes per channel, each ceil(h*w/8) bytes; never smaller than input
    for h, w, c in [(1, 1, 1), (3, 3, 3), (10, 10, 1), (13, 7, 3)]:
        assert plane_stream_size(h, w, c) == c * 8 * ((h * w + 7) // 8)
        assert plane_stream_size(h, w, c) >= h * w * c


def test_matches_scalar_oracle():
    rng = np.random.default_rng(21)
    for _ in range(30):
        h, w = rng.integers(1, 10, 2)
        c = int(rng.choice([1, 3]))
        r = rng.integers(0, 256, (h, w, c), dtype=np.uint8)
        assert to_bitplanes(r) == oracle_to_bitplanes(r)


# h*w covers every tail h*w mod 8 from 0 to 7, most with several 8-pixel groups
@pytest.mark.parametrize("shape", [(1, 9, 3), (3, 6, 1), (1, 19, 3), (4, 5, 1), (3, 7, 3),
                                   (2, 11, 1), (3, 21, 1), (64, 61, 1), (8, 8, 3)])
def test_matches_scalar_oracle_every_tail(shape):
    r = np.random.default_rng(sum(shape) + 100).integers(0, 256, shape, dtype=np.uint8)
    stream = to_bitplanes(r)
    assert stream == oracle_to_bitplanes(r)
    assert (from_bitplanes(stream, *shape) == r).all()


def test_non_contiguous_views():
    # the pipeline hands tile views of the cropped image straight to the
    # stage when projection is off
    rng = np.random.default_rng(24)
    image = rng.integers(0, 256, (40, 50, 4), dtype=np.uint8)
    for view in (image[3:16, 7:20, :3], image[::3, 1::4, ::2], image[5:6, ::-1, 1:2]):
        assert not view.flags.c_contiguous
        stream = to_bitplanes(view)
        assert stream == oracle_to_bitplanes(view)
        assert stream == to_bitplanes(np.ascontiguousarray(view))
        assert (from_bitplanes(stream, *view.shape) == view).all()


def test_set_pad_bits_are_ignored():
    # 0xE1: three data bits, then the lowest of five pad bits set
    assert from_bitplanes(bytes([0xE1] * 8), 1, 3, 1).reshape(-1).tolist() == [0xFF] * 3
    r = np.random.default_rng(25).integers(0, 256, (3, 7, 3), dtype=np.uint8)  # 21 pixels
    stream = bytearray(to_bitplanes(r))
    for last in range(2, len(stream), 3):  # final byte of each 3-byte plane
        assert stream[last] & 0x07 == 0
        stream[last] |= 0x07
    assert (from_bitplanes(bytes(stream), 3, 7, 3) == r).all()


@settings(max_examples=150, deadline=None)
@given(arrays(np.uint8, st.tuples(st.integers(1, 20), st.integers(1, 20),
                                  st.sampled_from([1, 3, 4]))))
def test_round_trip_property(r):
    stream = to_bitplanes(r)
    assert len(stream) == plane_stream_size(*r.shape)
    assert (from_bitplanes(stream, *r.shape) == r).all()


def test_pad_bits_are_zero_and_ignored():
    r = residuals([0xFF, 0xFF, 0xFF])
    stream = to_bitplanes(r)
    assert stream == bytes([0xE0] * 8)
    assert (from_bitplanes(stream, 1, 3, 1) == r).all()


def test_wrong_stream_size_rejected():
    with pytest.raises(StructuralError):
        from_bitplanes(bytes(7), 1, 3, 1)
    with pytest.raises(StructuralError):
        from_bitplanes(bytes(9), 1, 3, 1)


@pytest.mark.parametrize("residuals", [np.zeros((2, 4, 1), np.int16), np.zeros((2, 4), np.uint8)])
def test_to_bitplanes_rejects_what_is_not_an_hwc_uint8_array(residuals):
    with pytest.raises(StructuralError, match=r"\(h, w, c\) uint8"):
        to_bitplanes(residuals)


def test_histogram_rejects_samples_that_are_not_uint8():
    with pytest.raises(StructuralError, match="uint8 samples, got int16"):
        effective_bit_histogram(np.zeros((2, 4, 1), np.int16))


def test_histogram_all_zero():
    hist = effective_bit_histogram(np.zeros((3, 3, 1), dtype=np.uint8))
    assert hist["zero"] == 9
    assert hist["counts"] == [0] * 8


def test_histogram_golden():
    hist = effective_bit_histogram(residuals([0x01, 0x02, 0x80]))
    assert hist["zero"] == 0
    assert hist["counts"] == [1, 1, 0, 0, 0, 0, 0, 1]


def test_histogram_sums_to_total():
    rng = np.random.default_rng(22)
    r = rng.integers(0, 256, (20, 20, 3), dtype=np.uint8)
    hist = effective_bit_histogram(r)
    assert hist["zero"] + sum(hist["counts"]) == r.size


def test_histogram_uniform_top_fraction():
    # highest set bit lands at position 7 for half of uniform random bytes
    rng = np.random.default_rng(23)
    r = rng.integers(0, 256, (100000, 1, 1), dtype=np.uint8)
    hist = effective_bit_histogram(r)
    assert abs(hist["counts"][7] / r.size - 0.5) < 0.05
