import math

import numpy as np
import pytest

from slidecodec.errors import StructuralError
from slidecodec.metrics import (
    ENTROPY_STAGES,
    bitplane_psnr,
    compression_ratio,
    entropy_trace,
    psnr_matrix,
    shannon_entropy,
)
from slidecodec.pipeline import CompressionConfig
from slidecodec.synthetic import sample_matrix, smooth_gradient_patch

from oracles import oracle_entropy


def test_entropy_uniform():
    assert shannon_entropy(bytes(range(256))) == 8.0


def test_entropy_constant():
    assert shannon_entropy(b"\x07" * 100) == 0.0


def test_entropy_two_symbols():
    assert shannon_entropy(bytes([0, 0, 1, 1])) == 1.0


def test_entropy_accepts_uint8_arrays():
    arr = np.array([0, 0, 1, 1], dtype=np.uint8)
    assert shannon_entropy(arr) == 1.0


def test_entropy_empty_rejected():
    with pytest.raises(ValueError):
        shannon_entropy(b"")


def test_entropy_non_byte_dtype_rejected():
    with pytest.raises(ValueError):
        shannon_entropy(np.array([1, 2], dtype=np.int32))


def test_entropy_bounds_and_oracle():
    rng = np.random.default_rng(61)
    for _ in range(40):
        n = int(rng.integers(1, 3000))
        data = bytes(rng.integers(0, int(rng.choice([2, 7, 256])), n, dtype=np.uint8))
        h = shannon_entropy(data)
        assert 0.0 <= h <= 8.0
        assert abs(h - oracle_entropy(data)) < 1e-12


def test_trace_stage_labels():
    t = entropy_trace(sample_matrix(), CompressionConfig(patch_size=8))
    assert tuple(t) == ENTROPY_STAGES


def test_trace_golden_sample_matrix():
    # pinned from the oracle run; the projection cuts entropy sharply, the
    # bit-plane regrouping trims it further, and the dictionary code stream
    # measures higher than the bytes it consumes (near-distinct phrase codes)
    t = entropy_trace(sample_matrix(), CompressionConfig(patch_size=8))
    assert t["raw"] == pytest.approx(4.632048827786959, abs=1e-12)
    assert t["projection"] == pytest.approx(2.18076599372577, abs=1e-12)
    assert t["bitplane"] == pytest.approx(1.7936877445423152, abs=1e-12)
    assert t["dictionary"] == pytest.approx(4.185230132909403, abs=1e-12)
    assert t["projection"] < t["raw"]


def test_trace_golden_gradient_patch():
    t = entropy_trace(smooth_gradient_patch(0), CompressionConfig(patch_size=64))
    assert t["raw"] == pytest.approx(7.007541302215347, abs=1e-12)
    assert t["projection"] == pytest.approx(1.8073982575986647, abs=1e-12)
    assert t["bitplane"] == pytest.approx(2.161105609641815, abs=1e-12)
    assert t["dictionary"] == pytest.approx(9.07054947348654, abs=1e-12)


def test_trace_constant_patch():
    # raw is degenerate; the single leading residual keeps the next two
    # stages near zero; the code stream cannot stay degenerate because the
    # run-absorbing phrases are all distinct dictionary entries
    const = np.full((16, 16, 3), 200, dtype=np.uint8)
    t = entropy_trace(const, CompressionConfig(patch_size=16))
    assert t["raw"] == 0.0
    assert t["projection"] < 0.02
    assert t["bitplane"] < 0.07
    assert t["dictionary"] > 0.0


def test_trace_disabled_stages_pass_through():
    patch = smooth_gradient_patch(3, 16, 16)
    t = entropy_trace(patch, CompressionConfig(patch_size=16,
                                               enable_projection=False,
                                               enable_bitplane=False))
    assert t["raw"] == t["projection"] == t["bitplane"]


def test_trace_determinism():
    patch = smooth_gradient_patch(4, 32, 32)
    cfg = CompressionConfig(patch_size=32)
    assert entropy_trace(patch, cfg) == entropy_trace(patch, cfg)


def test_ratio():
    assert compression_ratio(100, 50) == 2.0
    assert compression_ratio(7, 7) == 1.0


@pytest.mark.parametrize("pair", [(100, 0), (0, 50), (-1, 5)])
def test_ratio_rejects_nonpositive(pair):
    with pytest.raises(StructuralError):
        compression_ratio(*pair)


def test_psnr_identical_planes():
    a = np.ones(64, dtype=np.uint8)
    assert bitplane_psnr(a, a) == math.inf


def test_psnr_half_differing():
    a = np.zeros(100, dtype=np.uint8)
    b = a.copy()
    b[:50] = 1
    assert bitplane_psnr(a, b) == pytest.approx(10 * math.log10(2), abs=1e-12)


def test_psnr_one_in_hundred():
    a = np.zeros(100, dtype=np.uint8)
    b = a.copy()
    b[13] = 1
    assert bitplane_psnr(a, b) == pytest.approx(20.0, abs=1e-12)


def test_psnr_symmetry():
    rng = np.random.default_rng(62)
    a = (rng.random(500) < 0.5).astype(np.uint8)
    b = (rng.random(500) < 0.5).astype(np.uint8)
    assert bitplane_psnr(a, b) == bitplane_psnr(b, a)


def test_psnr_size_mismatch():
    with pytest.raises(StructuralError):
        bitplane_psnr(np.zeros(8, dtype=np.uint8), np.zeros(9, dtype=np.uint8))


def test_psnr_of_empty_planes_rejected():
    with pytest.raises(StructuralError, match="empty planes"):
        bitplane_psnr(np.zeros(0, dtype=np.uint8), np.zeros(0, dtype=np.uint8))


def test_psnr_matrix_shape_and_diagonal():
    m = psnr_matrix(smooth_gradient_patch(5), "raw")
    assert m.shape == (24, 24)
    assert all(m[i, i] == math.inf for i in range(24))
    assert (m == m.T).all()


def test_psnr_matrix_single_channel():
    m = psnr_matrix(sample_matrix(), "projected")
    assert m.shape == (8, 8)


def test_psnr_matrix_zero_patch_projected_all_inf():
    m = psnr_matrix(np.zeros((8, 8, 3), dtype=np.uint8), "projected")
    assert (m == math.inf).all()


def test_psnr_matrix_nonzero_constant_patch():
    # secondary channels cancel exactly, so their 16 planes are all empty
    # and mutually infinite; the leading residual keeps channel 0 finite
    # against them wherever its value has a set bit
    const = np.full((8, 8, 3), 90, dtype=np.uint8)
    m = psnr_matrix(const, "projected")
    assert (m[8:, 8:] == math.inf).all()
    assert math.isfinite(m[0, 8])  # zigzag(90) has bit 7 set


def test_psnr_matrix_golden_gradient():
    # pinned oracle values; the projected planes align far better than raw
    # (the infinite sentinel marks fully identical plane pairs)
    off = ~np.eye(24, dtype=bool)
    raw = psnr_matrix(smooth_gradient_patch(8), "raw")[off].mean()
    proj = psnr_matrix(smooth_gradient_patch(8), "projected")[off].mean()
    assert raw == pytest.approx(3.1160349081492122, abs=1e-12)
    assert proj == math.inf
    assert proj > raw


def test_psnr_matrix_stage_names():
    with pytest.raises(ValueError):
        psnr_matrix(sample_matrix(), "wavelet")
