"""Acceptance gate: the behavioral criteria the codec must meet to ship.

One test per criterion. Each prints a single `criterion N ... PASS/FAIL`
line with its measured numbers, so a verbose suite run doubles as a
conformance report. Criterion 8 is informational and never gates; the
others assert at the stated tolerances.
"""

import time

import numpy as np
import pytest

from oracles import oracle_lzw_codes, oracle_pack
from slidecodec.bitplane import from_bitplanes, to_bitplanes
from slidecodec.cli import main
from slidecodec.lzw import lzw_decode, lzw_encode_trace
from slidecodec.metrics import entropy_trace, psnr_matrix
from slidecodec.pipeline import CompressionConfig, compress, decompress
from slidecodec.rasters import write_image
from slidecodec.synthetic import corpus, sample_matrix, smooth_gradient_patch
from slidecodec.transform import project, unproject, unzigzag, zigzag

TOGGLES = (
    CompressionConfig(patch_size=64),
    CompressionConfig(patch_size=64, enable_projection=False),
    CompressionConfig(patch_size=64, enable_bitplane=False),
    CompressionConfig(patch_size=64, enable_projection=False, enable_bitplane=False),
)


def _report(number, name, ok, detail):
    print(f"criterion {number} ({name}): {'PASS' if ok else 'FAIL'} - {detail}")


@pytest.fixture(scope="module")
def eval_corpus():
    return corpus(100, 42)


def _fuzz_image(rng, kind, height, width, channels):
    if kind == 0:
        return np.full((height, width, channels), rng.integers(0, 256), np.uint8)
    if kind == 1:
        child = np.random.SeedSequence(int(rng.integers(1 << 32)))
        return smooth_gradient_patch(child, height, width, channels)
    image = rng.integers(0, 256, (height, width, channels), dtype=np.uint8)
    if kind == 3:
        image[rng.random(height) < 0.5] = 0
        image[:, rng.random(width) < 0.5] = 0
    return image


def test_criterion_1_losslessness():
    rng = np.random.default_rng(20260814)
    pinned_shapes = [(1, 1), (1, 300), (300, 1), (2, 2),
                     (1, 7), (300, 300), (3, 1), (8, 8)]
    start = time.perf_counter()
    images = 0
    for k in range(1000):
        if k < len(pinned_shapes):
            height, width = pinned_shapes[k]
        else:
            height, width = (int(v) for v in rng.integers(1, 301, 2))
        channels = 1 if k % 2 else 3
        image = _fuzz_image(rng, k % 4, height, width, channels)
        for config in TOGGLES:
            restored = decompress(compress(image, config, threads=1), threads=1)
            assert restored.shape == image.shape
            assert restored.tobytes() == image.tobytes(), (
                f"round-trip mismatch: shape {image.shape}, kind {k % 4}, "
                f"config {config}"
            )
        images += 1
    elapsed = time.perf_counter() - start
    _report(1, "losslessness", True,
            f"{images} images x {len(TOGGLES)} stage combinations byte-exact "
            f"in {elapsed:.1f}s")
    assert images == 1000
    assert elapsed < 120.0


def test_criterion_2_lzw_oracle_equivalence():
    start = time.perf_counter()
    checked = 0
    for n in range(1, 11):
        for pattern in range(1 << n):
            data = bytes((pattern >> i) & 1 for i in range(n))
            expected = oracle_lzw_codes(data)
            trace = lzw_encode_trace(data)
            assert list(trace.codes) == expected
            assert trace.packed == oracle_pack(expected)
            assert lzw_decode(trace.packed, size=n) == data
            checked += 1
    assert checked == 2046

    rng = np.random.default_rng(77)
    for _ in range(10_000):
        length = int(rng.integers(0, 4097, 3).min())
        alphabet = int(rng.choice((2, 4, 16, 256)))
        max_width = int(rng.choice((9, 12, 16)))
        data = bytes(rng.integers(0, alphabet, length, dtype=np.uint8))
        expected = oracle_lzw_codes(data, max_width)
        trace = lzw_encode_trace(data, max_width)
        assert list(trace.codes) == expected
        assert trace.packed == oracle_pack(expected, max_width)
        assert lzw_decode(trace.packed, max_width, size=length) == data
        checked += 1
    elapsed = time.perf_counter() - start
    _report(2, "dictionary-coder oracle equivalence", True,
            f"{checked} strings (2046 exhaustive + 10000 random) matched the "
            f"brute-force simulator in {elapsed:.1f}s")
    assert elapsed < 30.0


def test_criterion_3_stage_transform_inversion():
    start = time.perf_counter()
    mapped = [zigzag(v) for v in range(-128, 128)]
    assert sorted(mapped) == list(range(256))
    for v in range(-128, 128):
        assert unzigzag(zigzag(v)) == v

    rng = np.random.default_rng(5)
    rounds = 0
    for k in range(10_000):
        if k % 10 == 0:
            height, width = 1, int(rng.integers(1, 65))
        elif k % 10 == 1:
            height, width = int(rng.integers(1, 65)), 1
        else:
            height, width = (int(v) for v in rng.integers(1, 25, 2))
        channels = 1 if k % 2 else 3
        patch = rng.integers(0, 256, (height, width, channels), dtype=np.uint8)
        assert np.array_equal(unproject(project(patch)), patch)
        assert np.array_equal(
            from_bitplanes(to_bitplanes(patch), height, width, channels), patch
        )
        rounds += 1
    elapsed = time.perf_counter() - start
    _report(3, "stage-transform inversion", True,
            f"256-value bijection + {rounds} project/bit-plane round trips "
            f"in {elapsed:.1f}s")
    assert elapsed < 30.0


def test_criterion_4_golden_vectors():
    row = np.array([10, 12, 11], dtype=np.uint8).reshape(1, 3, 1)
    projected = project(row).ravel().tolist()

    planes = to_bitplanes(np.array([0x03, 0x01, 0x00], np.uint8).reshape(1, 3, 1))
    trace = lzw_encode_trace(b"ABABAB")

    ok = (
        projected == [20, 4, 1]
        and planes == bytes([0, 0, 0, 0, 0, 0, 0x80, 0xC0])
        and list(trace.codes) == [65, 66, 258, 258, 257]
    )
    _report(4, "golden vectors", ok,
            f"projection {projected}, plane bytes {planes.hex()}, "
            f"codes {list(trace.codes)}")
    assert projected == [20, 4, 1]
    assert planes == bytes([0, 0, 0, 0, 0, 0, 0x80, 0xC0])
    assert list(trace.codes) == [65, 66, 258, 258, 257]


def test_criterion_5_entropy_trace_shape():
    config = CompressionConfig()
    sample = entropy_trace(sample_matrix(), config)
    sample_proj = sample["projection"] < sample["raw"]
    sample_dict = sample["dictionary"] < sample["bitplane"]

    proj_hits = dict_hits = both_hits = 0
    worst_gap = -np.inf
    for k in range(100):
        trace = entropy_trace(smooth_gradient_patch(np.random.SeedSequence(k)),
                              config)
        proj = trace["projection"] < trace["raw"]
        gap = trace["bitplane"] - trace["dictionary"]
        worst_gap = max(worst_gap, gap)
        proj_hits += proj
        dict_hits += gap > 0
        both_hits += proj and gap > 0

    ok = sample_proj and sample_dict and both_hits >= 95
    _report(5, "entropy trace shape", ok,
            f"sample matrix projection<raw {sample_proj}, dictionary<bitplane "
            f"{sample_dict} ({sample['dictionary']:.3f} vs {sample['bitplane']:.3f}); "
            f"gradients: projection<raw {proj_hits}/100, dictionary<bitplane "
            f"{dict_hits}/100, both {both_hits}/100 (need >=95); best "
            f"dictionary margin {worst_gap:+.4f} bits")
    assert sample_proj and proj_hits >= 95, "projection stage must reduce entropy"
    assert sample_dict and both_hits >= 95, (
        "dictionary-stage code entropy does not drop below bit-plane byte "
        f"entropy (best margin {worst_gap:+.4f} bits across 100 patches, "
        f"{sample['dictionary']:.3f} vs {sample['bitplane']:.3f} on the sample "
        "matrix). A dictionary coder's code frequencies are phrase counts; "
        "adversarial search over the full input space bounds their entropy at "
        "or above the byte entropy of its input, so this clause is recorded "
        "as an honest failure rather than glossed over. Analysis: build "
        "ledger, notes/decisions.md."
    )


def test_criterion_6_ablation_ordering(eval_corpus):
    start = time.perf_counter()
    configs = (
        ("lzw", CompressionConfig(patch_size=256, enable_projection=False,
                                  enable_bitplane=False)),
        ("lzw+projection", CompressionConfig(patch_size=256,
                                             enable_bitplane=False)),
        ("full", CompressionConfig(patch_size=256)),
    )
    ratios = {}
    for name, config in configs:
        total_in = total_out = 0
        for image in eval_corpus:
            blob = compress(image, config, threads=4)
            total_in += image.nbytes
            total_out += len(blob)
        ratios[name] = total_in / total_out
    elapsed = time.perf_counter() - start

    pinned = {
        "lzw": 1.119772637310377,
        "lzw+projection": 3.1584268975212497,
        "full": 22.26298696886932,
    }
    ordered = ratios["lzw"] < ratios["lzw+projection"] < ratios["full"]
    gap_one = ratios["lzw+projection"] / ratios["lzw"]
    gap_two = ratios["full"] / ratios["lzw+projection"]
    _report(6, "ablation ordering", ordered and gap_one > 1.05 and gap_two > 1.05,
            f"aggregate ratios {ratios['lzw']:.4f} < "
            f"{ratios['lzw+projection']:.4f} < {ratios['full']:.4f}, gaps "
            f"{(gap_one - 1) * 100:.0f}% and {(gap_two - 1) * 100:.0f}% "
            f"in {elapsed:.1f}s")
    assert ordered
    assert gap_one > 1.05 and gap_two > 1.05
    for name, value in pinned.items():
        assert ratios[name] == pytest.approx(value, abs=1e-9)
    assert elapsed < 120.0


def test_criterion_7_plane_correlation_direction(eval_corpus):
    off = ~np.eye(24, dtype=bool)
    hits = 0
    margins = []
    for image in eval_corpus:
        raw_mean = psnr_matrix(image, "raw")[off].mean()
        proj_mean = psnr_matrix(image, "projected")[off].mean()
        margins.append(proj_mean - raw_mean)
        hits += proj_mean > raw_mean
    first_raw = psnr_matrix(eval_corpus[0], "raw")[off].mean()
    first_proj = psnr_matrix(eval_corpus[0], "projected")[off].mean()
    _report(7, "plane-pair correlation direction", hits == 100,
            f"projected mean PSNR exceeds raw on {hits}/100 patches; patch 0: "
            f"{first_raw:.3f} dB raw vs {first_proj:.3f} dB projected")
    assert hits == 100
    assert first_raw == pytest.approx(4.173089059535845, abs=1e-9)
    assert first_proj == pytest.approx(9.120274803963218, abs=1e-9)


def test_criterion_8_throughput_informational(eval_corpus):
    config = CompressionConfig(patch_size=256)
    for image in eval_corpus[:2]:
        compress(image, config, threads=1)  # warm the dispatch path
    total = 0
    start = time.perf_counter()
    for image in eval_corpus[:20]:
        compress(image, config, threads=1)
        total += image.nbytes
    mbps = total / (time.perf_counter() - start) / 1e6
    note = "meets" if mbps >= 5.0 else "below"
    _report(8, "throughput, informational", True,
            f"{mbps:.1f} MB/s single-threaded, {note} the 5 MB/s floor "
            f"(non-gating)")


@pytest.mark.usefixtures("threads_on_small_tiles")
def test_criterion_9_determinism(tmp_path, capsys):
    image = corpus(1, 33, height=128, width=128)[0]
    src = tmp_path / "in.ppm"
    src.write_bytes(write_image(image, "ppm"))
    blobs = []
    for threads in ("1", "4"):
        out = tmp_path / f"out-{threads}.wsc"
        assert main(["compress", str(src), str(out), "--patch-size", "32",
                     "--threads", threads]) == 0
        blobs.append(out.read_bytes())
    capsys.readouterr()

    tables = []
    for _ in range(2):
        assert main(["bench", "--synthetic", "3", "--seed", "5",
                     "--patch-size", "64", "--csv"]) == 0
        tables.append(capsys.readouterr().out)

    ok = blobs[0] == blobs[1] and tables[0] == tables[1]
    _report(9, "determinism", ok,
            f"container bytes identical across thread counts "
            f"({len(blobs[0])} bytes); benchmark tables identical across runs")
    assert blobs[0] == blobs[1]
    assert tables[0] == tables[1]
