import math
import os
import subprocess
import sys
import threading
import time
import tracemalloc
import warnings

import numpy as np
import pytest

from deadline import deadline
from oracles import END, oracle_pack
from slidecodec.container import (
    STAGE_LZW,
    Container,
    ContainerHeader,
    PatchRecord,
    read_container,
    write_container,
)
from slidecodec.errors import (
    CodecError,
    StructuralError,
    TruncatedStreamError,
    UnsupportedLayoutError,
)
from slidecodec.lzw import lzw_encode
from slidecodec import pipeline
from slidecodec.pipeline import (
    CompressionConfig,
    CropResult,
    compress,
    crop_empty,
    decompress,
    strip_alpha,
    _decode_tile,
    uncrop,
)

ALL_TOGGLES = [
    CompressionConfig(patch_size=16),
    CompressionConfig(patch_size=16, enable_projection=False),
    CompressionConfig(patch_size=16, enable_bitplane=False),
    CompressionConfig(patch_size=16, enable_projection=False, enable_bitplane=False),
]


def sparse_image(rng, h, w, c):
    img = np.zeros((h, w, c), dtype=np.uint8)
    mask = rng.random((h, w)) < 0.2
    img[mask] = rng.integers(1, 256, (int(mask.sum()), c), dtype=np.uint8)
    return img


def test_crop_removes_only_all_zero_lines():
    img = np.zeros((4, 5, 3), dtype=np.uint8)
    img[1, 2, 0] = 7
    img[3, 0, 2] = 1
    res = crop_empty(img)
    assert res.removed_rows == (0, 2)
    assert res.removed_cols == (1, 3, 4)
    assert res.cropped.shape == (2, 2, 3)
    assert res.original_height == 4 and res.original_width == 5


def test_crop_keeps_row_with_any_nonzero_channel():
    img = np.zeros((2, 2, 3), dtype=np.uint8)
    img[0, 0, 1] = 1  # nonzero in one channel only
    res = crop_empty(img)
    assert res.removed_rows == (1,)
    assert res.removed_cols == (1,)


def test_crop_of_all_zero_image():
    img = np.zeros((3, 4, 1), dtype=np.uint8)
    res = crop_empty(img)
    assert res.cropped.shape == (0, 0, 1)
    assert res.removed_rows == (0, 1, 2)
    assert res.removed_cols == (0, 1, 2, 3)


def test_uncrop_restores_original():
    rng = np.random.default_rng(51)
    for _ in range(50):
        h, w = rng.integers(1, 30, 2)
        c = int(rng.choice([1, 3]))
        img = sparse_image(rng, h, w, c)
        assert (uncrop(crop_empty(img)) == img).all()


def test_uncrop_margins_and_interior_gaps():
    # kept rows in one block (margins only) and split by an empty interior row
    rng = np.random.default_rng(54)
    img = np.zeros((12, 10, 3), dtype=np.uint8)
    img[2:9, 1:8] = rng.integers(1, 256, (7, 7, 3), dtype=np.uint8)
    res = crop_empty(img)
    assert res.removed_rows == (0, 1, 9, 10, 11)
    assert (uncrop(res) == img).all()
    img[5] = 0
    img[:, 4] = 0
    res = crop_empty(img)
    assert res.removed_rows == (0, 1, 5, 9, 10, 11)
    assert (uncrop(res) == img).all()


# a row out of range, a column out of range, too many rows, too few columns,
# and a bool, which is no index, for a row and for a column
@pytest.mark.parametrize("rows, cols", [((9,), (1,)), ((0,), (7,)), ((0, 0), (1,)), ((0,), ()),
                                        ((True,), (1,)), ((0,), (False,))])
def test_uncrop_rejects_bad_metadata(rows, cols):
    cropped = np.ones((2, 4, 1), dtype=np.uint8)
    with pytest.raises(StructuralError):
        uncrop(CropResult(cropped, rows, cols, 3, 5))


# sizes that are no integer, and index fields that are no sequence of indices
@pytest.mark.parametrize("rows, cols, height, width", [
    ((0,), (1,), 3.0, 5), ((0,), (1,), 3, 5.0), (5, (1,), 3, 5), ((0,), 1, 3, 5),
    (None, (1,), 3, 5), ((0,), {1}, 3, 5)])
def test_uncrop_rejects_malformed_crop_fields(rows, cols, height, width):
    cropped = np.ones((2, 4, 1), dtype=np.uint8)
    with pytest.raises(StructuralError):
        uncrop(CropResult(cropped, rows, cols, height, width))


# values a cast to uint8 would change: 300 to 44, 1.9 to 1
@pytest.mark.parametrize("cropped", [np.full((2, 4, 1), 300), np.full((2, 4, 1), 1.9)])
def test_uncrop_rejects_a_cropped_image_that_is_not_uint8(cropped):
    with pytest.raises(StructuralError):
        uncrop(CropResult(cropped, (0,), (1,), 3, 5))


def test_crop_matches_scalar_rule():
    rng = np.random.default_rng(52)
    img = sparse_image(rng, 12, 9, 3)
    res = crop_empty(img)
    expect_rows = tuple(i for i in range(12) if not img[i].any())
    expect_cols = tuple(j for j in range(9) if not img[:, j].any())
    assert res.removed_rows == expect_rows
    assert res.removed_cols == expect_cols


def reference_crop(img):
    """crop_empty's rule written with any(): (cropped, removed rows, removed cols)."""
    rows = img.any(axis=(1, 2))
    cols = img.any(axis=(0, 2))
    removed = (tuple(np.flatnonzero(~rows).tolist()), tuple(np.flatnonzero(~cols).tolist()))
    return (img[rows][:, cols], *removed)


def crop_cases(rng, c):
    """(name, image) pairs covering each row layout crop_empty treats apart."""
    block = np.zeros((14, 11, c), dtype=np.uint8)
    block[3:9, 2:10] = rng.integers(0, 256, (6, 8, c), dtype=np.uint8)
    block[3:9, 2:10, 0] |= 1  # every row and column in the block is live
    block[:, 5] = 0
    split = block.copy()
    split[6] = 0
    split[12, 0, c - 1] = 9
    dense = rng.integers(1, 256, (7, 5, c), dtype=np.uint8)
    return [
        ("one block", block),
        ("split rows", split),
        ("no live pixel", np.zeros((5, 6, c), dtype=np.uint8)),
        ("every pixel live", dense),
        ("1x1 live", np.full((1, 1, c), 3, dtype=np.uint8)),
        ("1x1 empty", np.zeros((1, 1, c), dtype=np.uint8)),
        ("sparse", sparse_image(rng, 23, 19, c)),
    ]


@pytest.mark.parametrize("c", [1, 3, 4])
def test_crop_matches_any_reference(c):
    # placement_cases split the live rows, columns or both: crop_empty's run gather
    rng = np.random.default_rng(59 + c)
    for name, img in crop_cases(rng, c) + placement_cases(rng, c, 8):
        for layout, view in [("contiguous", img), ("reversed", img[::-1, ::-1]),
                             ("strided", np.repeat(img, 2, axis=1)[::2, ::2])]:
            res = crop_empty(view)
            cropped, rows, cols = reference_crop(view)
            assert res.removed_rows == rows, (name, layout)
            assert res.removed_cols == cols, (name, layout)
            assert res.cropped.shape == cropped.shape, (name, layout)
            assert (res.cropped == cropped).all(), (name, layout)
            assert (res.original_height, res.original_width) == view.shape[:2]
            assert (uncrop(res) == view).all(), (name, layout)


def test_crop_views_input_only_when_nothing_is_gathered():
    rng = np.random.default_rng(63)
    cases = dict(crop_cases(rng, 3))
    assert np.shares_memory(crop_empty(cases["every pixel live"]).cropped,
                            cases["every pixel live"])
    margins = np.zeros((9, 6, 3), dtype=np.uint8)
    margins[2:5] = 1
    assert np.shares_memory(crop_empty(margins).cropped, margins)
    framed = np.zeros((9, 8, 3), dtype=np.uint8)
    framed[2:5, 1:6] = 1  # margins on all four sides
    assert np.shares_memory(crop_empty(framed).cropped, framed)
    framed[:, 3] = 0  # an empty column inside the live block
    assert not np.shares_memory(crop_empty(framed).cropped, framed)
    for name in ("one block", "split rows"):
        assert not np.shares_memory(crop_empty(cases[name]).cropped, cases[name])


@pytest.mark.usefixtures("threads_on_small_tiles")
@pytest.mark.parametrize("config", ALL_TOGGLES)
def test_compress_of_view_equals_compress_of_copy(config):
    rng = np.random.default_rng(64)
    base = sparse_image(rng, 75, 91, 3)
    base[10:60, 20:70] = rng.integers(0, 256, (50, 50, 3), dtype=np.uint8)
    views = (base[::-1], base[:, ::-1], base[1::2, ::3], base[3:70, 5:88],
             base[..., ::-1], np.asfortranarray(base))
    for view in views:
        copy = np.ascontiguousarray(view)
        for threads in (1, 2):
            data = compress(view, config, threads)
            assert data == compress(copy, config, threads)
            assert np.array_equal(decompress(data, threads), view)


def test_strip_alpha():
    rng = np.random.default_rng(53)
    rgba = rng.integers(0, 256, (4, 4, 4), dtype=np.uint8)
    rgb, dropped = strip_alpha(rgba)
    assert dropped is True
    assert (rgb == rgba[:, :, :3]).all()


def test_strip_alpha_warns_on_non_alpha_input():
    img = np.zeros((2, 2, 3), dtype=np.uint8)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out, dropped = strip_alpha(img)
    assert dropped is False
    assert out is img
    assert len(caught) == 1


def test_four_channel_rejected_without_drop():
    img = np.zeros((2, 2, 4), dtype=np.uint8)
    img[0, 0] = 1
    with pytest.raises(UnsupportedLayoutError, match="drop_alpha"):
        compress(img)


def test_four_channel_with_drop_alpha():
    rng = np.random.default_rng(54)
    rgba = rng.integers(0, 256, (10, 8, 4), dtype=np.uint8)
    blob = compress(rgba, CompressionConfig(patch_size=16, drop_alpha=True))
    assert read_container(blob).header.alpha_dropped is True
    assert (decompress(blob) == rgba[:, :, :3]).all()


@pytest.mark.parametrize("config", ALL_TOGGLES)
@pytest.mark.parametrize("shape", [(1, 1, 1), (1, 20, 3), (20, 1, 1),
                                   (16, 16, 3), (33, 17, 3), (40, 40, 1)])
def test_round_trip_toggles_and_shapes(config, shape):
    rng = np.random.default_rng(hash((shape, config.enable_projection,
                                      config.enable_bitplane)) % (2**32))
    img = sparse_image(rng, *shape)
    assert (decompress(compress(img, config)) == img).all()


def test_round_trip_all_zero_image():
    img = np.zeros((25, 31, 3), dtype=np.uint8)
    blob = compress(img, CompressionConfig(patch_size=16))
    assert read_container(blob).records == ()
    assert (decompress(blob) == img).all()


def test_stage_mask_reflects_config():
    rng = np.random.default_rng(55)
    img = rng.integers(1, 256, (8, 8, 1), dtype=np.uint8)
    for config, expect in zip(ALL_TOGGLES, (7, 6, 5, 4)):
        parsed = read_container(compress(img, config))
        assert parsed.records[0].stage_mask == expect


@pytest.mark.usefixtures("threads_on_small_tiles")
def test_threads_do_not_change_bytes():
    rng = np.random.default_rng(56)
    img = sparse_image(rng, 70, 50, 3)
    cfg = CompressionConfig(patch_size=16)
    one = compress(img, cfg, threads=1)
    four = compress(img, cfg, threads=4)
    assert one == four
    assert (decompress(four, threads=4) == img).all()


@pytest.mark.usefixtures("threads_on_small_tiles")
@pytest.mark.parametrize("threads", [0, -5, 2.5, "2", True, None])
def test_thread_count_must_be_a_positive_integer(threads):
    img = sparse_image(np.random.default_rng(58), 12, 10, 3)
    blob = compress(img, CompressionConfig(patch_size=4))
    with pytest.raises(ValueError, match="threads"):
        compress(img, CompressionConfig(patch_size=4), threads=threads)
    with pytest.raises(ValueError, match="threads"):
        decompress(blob, threads=threads)
    assert (decompress(blob, threads=np.int64(2)) == img).all()


@pytest.mark.usefixtures("threads_on_small_tiles")
def test_projected_tiles_unproject_into_the_image(monkeypatch):
    # only tiles that a removed line splits, or that skip projection, are
    # decoded to an array of their own and copied into place
    img = np.random.default_rng(59).integers(1, 256, (20, 20, 3), dtype=np.uint8)
    img[:, 3] = 0  # cropped columns 0-7 are original columns 0-2 and 4-8
    placed, in_place = [], []
    decode = pipeline._decode_tile

    def decode_and_log(rec, payload, channels, max_width, dest=None):
        tile = decode(rec, payload, channels, max_width, dest)
        (in_place if tile is dest else placed).append((rec.row, rec.col))
        return tile

    monkeypatch.setattr(pipeline, "_decode_tile", decode_and_log)
    every_tile = [(row, col) for row in (0, 8, 16) for col in (0, 8, 16)]
    for projection, copied in ((True, [(0, 0), (8, 0), (16, 0)]), (False, every_tile)):
        config = CompressionConfig(patch_size=8, enable_projection=projection)
        for threads in (1, 2):
            placed.clear()
            in_place.clear()
            assert (decompress(compress(img, config), threads=threads) == img).all()
            assert sorted(placed) == copied
            assert sorted(in_place) == [tile for tile in every_tile if tile not in copied]


def test_decompress_accepts_parsed_container():
    rng = np.random.default_rng(57)
    img = sparse_image(rng, 9, 9, 3)
    parsed = read_container(compress(img, CompressionConfig(patch_size=16)))
    assert (decompress(parsed) == img).all()


def test_patch_errors_carry_coordinates():
    rng = np.random.default_rng(58)
    img = rng.integers(1, 256, (40, 40, 1), dtype=np.uint8)
    parsed = read_container(compress(img, CompressionConfig(patch_size=16)))
    payloads = list(parsed.payloads)
    target = 4  # patch at row 16, col 16
    payloads[target] = bytes(len(payloads[target]))
    blob = write_container(parsed.header, parsed.removed_rows,
                           parsed.removed_cols, parsed.records, tuple(payloads))
    with pytest.raises(CodecError, match=r"patch at row 16, col 16"):
        decompress(blob)


@pytest.mark.usefixtures("threads_on_small_tiles")
def test_first_failing_tile_raised_at_any_thread_count():
    # two broken tiles, the earlier at row 0, col 16: whichever a thread
    # meets first, the earlier one is raised, as on one thread, and no
    # helper thread outlives the call
    rng = np.random.default_rng(58)
    img = rng.integers(1, 256, (40, 40, 1), dtype=np.uint8)
    parsed = read_container(compress(img, CompressionConfig(patch_size=16)))
    payloads = list(parsed.payloads)
    for target in (1, 6):  # patches at row 0, col 16 and row 32, col 0
        payloads[target] = bytes(len(payloads[target]))
    blob = write_container(parsed.header, parsed.removed_rows,
                           parsed.removed_cols, parsed.records, tuple(payloads))
    for threads in (1, 2, 8):
        before = threading.active_count()
        with pytest.raises(CodecError, match=r"patch at row 0, col 16:"):
            decompress(blob, threads=threads)
        assert threading.active_count() == before


def test_dispatch_raises_the_lowest_failing_job():
    # job 0 fails late and job 1 at once; jobs after a failure are not started
    ran = []

    def worker(job):
        ran.append(job)
        if job == 0:
            time.sleep(0.05)
            raise ValueError("job 0")
        if job == 1:
            raise KeyError("job 1")
        time.sleep(0.001)
        return job

    for threads in (1, 2, 3):
        ran.clear()
        with pytest.raises(ValueError, match="job 0"):
            pipeline._run(list(range(100)), worker, threads)
        assert 0 in ran and len(ran) < 10
    assert pipeline._run(list(range(7)), lambda j: j * j, 3) == [j * j for j in range(7)]


@pytest.fixture
def thread_log(monkeypatch):
    """Record the threads that run LZW calls and every thread started."""
    log = {"idents": set(), "started": 0}

    def on_thread(fn):
        def wrapped(*args, **kwargs):
            log["idents"].add(threading.get_ident())
            return fn(*args, **kwargs)
        return wrapped

    start = threading.Thread.start

    def counted_start(self):
        log["started"] += 1
        start(self)

    monkeypatch.setattr(pipeline, "lzw_encode", on_thread(pipeline.lzw_encode))
    monkeypatch.setattr(pipeline, "lzw_decode", on_thread(pipeline.lzw_decode))
    monkeypatch.setattr(threading.Thread, "start", counted_start)
    return log


@pytest.mark.usefixtures("threads_on_small_tiles")
def test_thread_count_is_bounded_by_the_tiles(thread_log):
    rng = np.random.default_rng(60)
    img = rng.integers(1, 256, (16, 48, 3), dtype=np.uint8)  # three tiles
    cfg = CompressionConfig(patch_size=16)
    blob = compress(img, cfg, threads=8)
    assert len(read_container(blob).records) == 3
    assert len(thread_log["idents"]) <= 3
    assert thread_log["started"] == 2  # helpers beside the caller
    thread_log["idents"].clear()
    assert (decompress(blob, threads=8) == img).all()
    assert len(thread_log["idents"]) <= 3
    assert thread_log["started"] == 4


@pytest.mark.usefixtures("threads_on_small_tiles")
@pytest.mark.parametrize("threads, shape", [(1, (16, 48, 3)), (4, (16, 16, 3))])
def test_one_thread_or_one_tile_runs_on_the_caller(thread_log, threads, shape):
    img = np.random.default_rng(61).integers(1, 256, shape, dtype=np.uint8)
    blob = compress(img, CompressionConfig(patch_size=16), threads=threads)
    assert (decompress(blob, threads=threads) == img).all()
    assert thread_log["idents"] == {threading.get_ident()}
    assert thread_log["started"] == 0


@pytest.mark.usefixtures("threads_on_small_tiles")
def test_a_refused_helper_start_runs_on_the_threads_started(monkeypatch):
    # the second Thread.start of each call raises, as when the system has no
    # thread to give: the call finishes on the caller and the one helper it
    # has, with the 1-thread bytes, and joins that helper before returning
    image = np.random.default_rng(62).integers(0, 256, (256, 256, 3), dtype=np.uint8)
    config = CompressionConfig(patch_size=16)
    blob = compress(image, config, threads=1)
    start = threading.Thread.start
    starts = []

    def refuse_second_start(self):
        starts.append(self)
        if len(starts) == 2:
            raise RuntimeError("can't start new thread")
        start(self)

    monkeypatch.setattr(threading.Thread, "start", refuse_second_start)
    before = threading.active_count()
    assert compress(image, config, threads=3) == blob
    assert threading.active_count() == before and len(starts) == 2
    starts.clear()
    assert np.array_equal(decompress(blob, threads=3), image)
    assert threading.active_count() == before and len(starts) == 2


def _tile_shape(nbytes):
    """``(h, w)`` with ``h * w == nbytes`` and ``h <= w``, as square as it gets."""
    h = max(d for d in range(1, math.isqrt(nbytes) + 1) if nbytes % d == 0)
    return h, nbytes // h


@pytest.mark.parametrize("direction, min_tile", [
    ("compress", "ENCODE_THREADS_MIN_TILE"), ("decompress", "DECODE_THREADS_MIN_TILE")])
@pytest.mark.parametrize("under", [1, 0])
def test_helpers_start_from_the_tile_size_where_they_pay(thread_log, direction, min_tile, under):
    # three tiles of one channel, each one byte under the real constant or
    # exactly at it: under it the caller runs them alone, at it two helpers
    # join; the bytes are the 1-thread bytes either way
    h, w = _tile_shape(getattr(pipeline, min_tile) - under)
    img = np.random.default_rng(63).integers(1, 256, (h, 3 * w, 1), dtype=np.uint8)
    config = CompressionConfig(patch_size=w)
    blob = compress(img, config, threads=1)
    thread_log["started"] = 0
    if direction == "compress":
        assert compress(img, config, threads=8) == blob
    else:
        assert np.array_equal(decompress(blob, threads=8), img)
    assert thread_log["started"] == (0 if under else min(8, 3) - 1)


def test_many_small_tiles_start_no_helper(thread_log):
    # a 786 KB image in 1,024 tiles of 768 bytes: the rule reads the tile,
    # not the image
    img = np.random.default_rng(64).integers(1, 256, (512, 512, 3), dtype=np.uint8)
    config = CompressionConfig(patch_size=16)
    blob = compress(img, config, threads=1)
    assert compress(img, config, threads=8) == blob
    assert np.array_equal(decompress(blob, threads=8), img)
    assert thread_log["started"] == 0


def test_import_does_not_load_an_executor():
    # concurrent.futures, with the logging and queue it imports, cost
    # about 8 ms of every fresh interpreter's set-up
    src = os.path.dirname(os.path.dirname(pipeline.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    script = "import sys, slidecodec; print('concurrent.futures' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         env=env, check=True)
    assert out.stdout.strip() == "False"


def test_decompressed_dtype_and_shape():
    rng = np.random.default_rng(59)
    img = sparse_image(rng, 5, 6, 3)
    out = decompress(compress(img, CompressionConfig(patch_size=4)))
    assert out.dtype == np.uint8
    assert out.shape == (5, 6, 3)


@pytest.mark.parametrize("kwargs", [
    {"patch_size": 0},
    {"patch_size": -5},
    {"patch_size": 2**32},  # the container holds it in a u32
    {"patch_size": 2**33},
    {"lzw_max_width": 8},
    {"lzw_max_width": 21},
    {"patch_size": 4.0},  # integers only, as for threads
    {"patch_size": True},
    {"lzw_max_width": 16.0},
    {"lzw_max_width": True},
])
def test_config_validation(kwargs):
    with pytest.raises(ValueError):
        CompressionConfig(**kwargs)


def test_patch_grid_covers_edges():
    rng = np.random.default_rng(60)
    img = rng.integers(1, 256, (50, 50, 1), dtype=np.uint8)  # no empty lines
    parsed = read_container(compress(img, CompressionConfig(patch_size=16)))
    assert len(parsed.records) == 16
    last = parsed.records[-1]
    assert (last.row, last.col, last.height, last.width) == (48, 48, 2, 2)


@pytest.mark.parametrize("width, side", [(16, 256), (12, 64)])
def test_runaway_tile_stops_at_record_size(width, side):
    # codes 0, 258, ..., END: each data code repeats the previous phrase plus
    # its first byte, so the payload alone decodes to 2.13 GB (width 16,
    # 122,657 bytes) or 7.37 MB (width 12, 5,409 bytes); the record says
    # side x side x 3 bytes
    payload = oracle_pack([0, *range(258, 1 << width), END], width)
    raw_len = side * side * 3
    header = ContainerHeader(side, side, 3, side, lzw_max_width=width)
    rec = PatchRecord(0, 0, side, side, raw_len, len(payload), STAGE_LZW)
    blob = write_container(header, (), (), (rec,), (payload,))
    tracemalloc.start()
    try:
        with deadline(1.0), pytest.raises(CodecError, match=r"^patch at row 0, col 0: "):
            decompress(blob)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the input copy, the output image and, on the pure kernel, the decoded
    # bytes and its phrase table; none is sized by what the payload decodes to
    assert peak < 2 * len(blob) + 5 * raw_len, peak


@pytest.mark.parametrize("side", [20_000, 100_000])
def test_huge_claim_rejected_before_the_image_is_allocated(side, monkeypatch):
    # 67 bytes: a side x side x 3 image at patch size side, one LZW-only
    # record, and a 6-byte payload, which decodes to at most 10 bytes. The
    # image allocation must not be reached: at 100000 it fails (27.9 GiB),
    # and at 20000 a lazy allocation would hide the claim until decoding.
    payload = lzw_encode(b"ABABAB")
    header = ContainerHeader(side, side, 3, side)
    rec = PatchRecord(0, 0, side, side, side * side * 3, len(payload), STAGE_LZW)
    blob = write_container(header, (), (), (rec,), (payload,))
    assert len(blob) == 67

    def no_image(*args, **kwargs):
        raise AssertionError("the image was allocated")

    monkeypatch.setattr(pipeline.np, "zeros", no_image)
    with pytest.raises(TruncatedStreamError, match=(
            r"^patch at row 0, col 0: a 6-byte stream decodes to at most 10 bytes, "
            rf"not {side * side * 3}$")):
        decompress(blob)


def test_failed_image_allocation_is_a_codec_error(monkeypatch):
    blob = compress(np.ones((4, 5, 3), dtype=np.uint8))

    def no_memory(*args, **kwargs):
        raise MemoryError()

    monkeypatch.setattr(pipeline.np, "zeros", no_memory)
    with pytest.raises(StructuralError, match="^no memory for a 4x5x3 image$"):
        decompress(blob)


def with_gaps(dense, row_gaps, col_gaps):
    """``dense`` with all-zero lines inserted before the given cropped indices.

    A gap index of 0 or the cropped length is a margin; repeats give runs.
    """
    for axis, gaps in ((0, row_gaps), (1, col_gaps)):
        dense = np.insert(dense, sorted(gaps), 0, axis=axis)
    return dense


def placement_cases(rng, c, patch):
    """(name, image) pairs whose removed lines fall inside tiles and on tile edges."""
    ch, cw = (int(v) for v in rng.integers(2, 17 if patch == 1 else 41, 2))
    dense = rng.integers(1, 256, (ch, cw, c), dtype=np.uint8)  # no zero line

    def margins(n):
        return [0] * int(rng.integers(0, 4)) + [n] * int(rng.integers(0, 4))

    def interior(n):
        edges = list(range(patch, n, patch))  # between two tiles
        inside = [int(i) for i in rng.integers(1, n, 3)]  # n >= 2
        return margins(n) + [e for e in edges if rng.random() < 0.5] + inside

    rows_split = with_gaps(dense, interior(ch), margins(cw))
    cols_split = with_gaps(dense, margins(ch), interior(cw))
    both_split = with_gaps(dense, interior(ch), interior(cw))
    # a removed column after every kept one, so one tile holds many
    # single-column runs, plus wider gaps where interior() repeats an index
    column_runs = with_gaps(dense, interior(ch), list(range(1, cw)) + interior(cw))
    lone = np.zeros((int(rng.integers(1, 9)), int(rng.integers(1, 9)), c), dtype=np.uint8)
    lone[int(rng.integers(lone.shape[0])), int(rng.integers(lone.shape[1]))] = 7
    return [
        ("rows split", rows_split),
        ("columns split", cols_split),
        ("both split", both_split),
        ("many column runs", column_runs),
        ("margins only", with_gaps(dense, margins(ch), margins(cw))),
        ("nothing removed", dense),
        ("everything removed", np.zeros((ch, cw, c), dtype=np.uint8)),
        ("1x1 live", lone),
    ]


def decompress_via_uncrop(blob):
    """Decode into a cropped buffer, then call uncrop: the decoder's old path."""
    cont = read_container(blob)
    hdr = cont.header
    ch = hdr.original_height - len(cont.removed_rows)
    cw = hdr.original_width - len(cont.removed_cols)
    cropped = np.zeros((ch, cw, hdr.channels), dtype=np.uint8)
    for rec, payload in zip(cont.records, cont.payloads):
        cropped[rec.row : rec.row + rec.height, rec.col : rec.col + rec.width] = \
            _decode_tile(rec, payload, hdr.channels, hdr.lzw_max_width)
    return uncrop(CropResult(cropped, cont.removed_rows, cont.removed_cols,
                             hdr.original_height, hdr.original_width))


@pytest.mark.usefixtures("threads_on_small_tiles")
@pytest.mark.parametrize("c", [1, 3])
@pytest.mark.parametrize("patch", [1, 3, 8, 64])
def test_tiles_land_in_place_around_removed_lines(c, patch):
    rng = np.random.default_rng(70 + 5 * c + patch)
    for _ in range(3):
        for name, img in placement_cases(rng, c, patch):
            blob = compress(img, CompressionConfig(patch_size=patch))
            reference = decompress_via_uncrop(blob)
            assert (reference == img).all(), name
            for threads in (1, 2):
                out = decompress(blob, threads=threads)
                assert out.shape == img.shape, (name, threads)
                assert (out == img).all(), (name, threads)


def test_placement_cases_remove_what_they_name():
    rng = np.random.default_rng(69)
    cases = dict(placement_cases(rng, 3, 8))
    for name, split_rows, split_cols in [("rows split", True, False),
                                         ("columns split", False, True),
                                         ("both split", True, True),
                                         ("many column runs", True, True)]:
        res = crop_empty(cases[name])
        for removed, n, split in ((res.removed_rows, cases[name].shape[0], split_rows),
                                  (res.removed_cols, cases[name].shape[1], split_cols)):
            kept = np.setdiff1d(np.arange(n), removed)
            assert (np.ptp(kept) + 1 != len(kept)) == split, (name, removed)
    assert crop_empty(cases["nothing removed"]).removed_rows == ()
    assert crop_empty(cases["everything removed"]).cropped.size == 0
    assert crop_empty(cases["1x1 live"]).cropped.shape[:2] == (1, 1)


@pytest.mark.usefixtures("threads_on_small_tiles")
def test_tile_cut_by_a_removed_row_and_a_removed_column():
    # a 5x6 image at patch 4 with row 2 and column 3 removed: the cropped
    # image is 4x5, its first tile covers original rows 0, 1, 3, 4 and
    # columns 0, 1, 2, 4, and its second tile original column 5
    rng = np.random.default_rng(71)
    img = rng.integers(1, 256, (5, 6, 3), dtype=np.uint8)
    img[2] = 0
    img[:, 3] = 0
    rows, cols = [0, 1, 3, 4], [0, 1, 2, 4, 5]
    records, payloads = [], []
    for col, width in ((0, 4), (4, 1)):
        tile = img[np.ix_(rows, cols[col : col + width])]
        payloads.append(lzw_encode(tile.tobytes()))
        records.append(PatchRecord(0, col, 4, width, tile.size, len(payloads[-1]), STAGE_LZW))
    cont = Container(ContainerHeader(6, 5, 3, 4), (2,), (3,), tuple(records), tuple(payloads))
    for threads in (1, 2):
        assert (decompress(cont, threads=threads) == img).all()
    assert (decompress_via_uncrop(write_container(cont.header, (2,), (3,), records,
                                                  payloads)) == img).all()


@pytest.mark.usefixtures("threads_on_small_tiles")
def test_placement_under_thread_contention():
    # more workers than cores and a short switch interval, so workers are
    # interrupted inside their writes to the shared image; split tiles and
    # slice tiles alike must land whole
    rng = np.random.default_rng(73)
    dense = rng.integers(1, 256, (60, 50, 3), dtype=np.uint8)
    img = with_gaps(dense, [0, 7, 9, 9, 30, 60], [0, 5, 24, 50, 50])
    blob = compress(img, CompressionConfig(patch_size=4))
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with deadline(30.0):
            for _ in range(3):
                assert (decompress(blob, threads=8) == img).all()
            # the shared tile index under the same preemption: every tile
            # taken once, results in tile order
            assert compress(img, CompressionConfig(patch_size=4), threads=8) == blob
    finally:
        sys.setswitchinterval(previous)


def test_decompress_allocates_one_full_image():
    # a 512x512x3 slide with blank margins at patch 64: besides the image,
    # a call holds one tile's decode buffers at a time, plus bookkeeping;
    # the old path also held a cropped copy of the live area and peaked at
    # 3.1x the image
    rng = np.random.default_rng(72)
    img = np.zeros((512, 512, 3), dtype=np.uint8)
    img[80:380, 60:460] = rng.integers(0, 4, (300, 400, 3), dtype=np.uint8) + 1
    blob = compress(img, CompressionConfig(patch_size=64))
    cont = read_container(blob)
    tracemalloc.start()
    try:
        tile_peak = 0
        for rec, payload in zip(cont.records, cont.payloads):
            tracemalloc.reset_peak()
            _decode_tile(rec, payload, cont.header.channels, cont.header.lzw_max_width)
            tile_peak = max(tile_peak, tracemalloc.get_traced_memory()[1])
        tracemalloc.reset_peak()
        out = decompress(blob)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (out == img).all()
    assert peak < img.nbytes + 3 * tile_peak, (peak, tile_peak)
