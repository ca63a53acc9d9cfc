import dataclasses
import struct
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deadline import deadline
from slidecodec.container import (
    MAGIC,
    STAGE_BITPLANE,
    STAGE_LZW,
    STAGE_PROJECTION,
    VERSION,
    Container,
    ContainerHeader,
    PatchRecord,
    read_container,
    write_container,
)
from slidecodec.errors import (
    BadMagicError,
    CodecError,
    IndexInconsistencyError,
    StructuralError,
    TruncatedStreamError,
    UnsupportedVersionError,
)
from slidecodec.pipeline import CompressionConfig, compress, decompress
from slidecodec.synthetic import corpus


def small_container(payload=b"\x01\x02", height=2, width=3, channels=1,
                    removed_rows=(), removed_cols=(), patch_size=16):
    header = ContainerHeader(width, height, channels, patch_size)
    ch = height - len(removed_rows)
    cw = width - len(removed_cols)
    rec = PatchRecord(0, 0, ch, cw, ch * cw * channels, len(payload),
                      STAGE_PROJECTION | STAGE_BITPLANE | STAGE_LZW)
    return header, removed_rows, removed_cols, (rec,), (payload,)


def test_round_trip_fields():
    header, rr, rc, recs, pays = small_container(removed_rows=(1,))
    blob = write_container(header, rr, rc, recs, pays)
    assert blob[:4] == MAGIC
    parsed = read_container(blob)
    assert parsed.header == header
    assert parsed.removed_rows == (1,)
    assert parsed.removed_cols == ()
    assert parsed.records == recs
    assert parsed.payloads == pays


def test_round_trip_from_real_compression():
    rng = np.random.default_rng(41)
    img = rng.integers(0, 256, (37, 23, 3), dtype=np.uint8)
    blob = compress(img, CompressionConfig(patch_size=16, lzw_max_width=12))
    parsed = read_container(blob)
    assert parsed.header.original_height == 37
    assert parsed.header.original_width == 23
    assert parsed.header.channels == 3
    assert parsed.header.lzw_max_width == 12
    assert parsed.header.version == VERSION
    assert len(parsed.records) == 6
    rows = [(r.row, r.col, r.height, r.width) for r in parsed.records]
    assert rows == [(0, 0, 16, 16), (0, 16, 16, 7), (16, 0, 16, 16),
                    (16, 16, 16, 7), (32, 0, 5, 16), (32, 16, 5, 7)]
    for rec, blob_ in zip(parsed.records, parsed.payloads):
        assert rec.enc_len == len(blob_)
        assert rec.raw_len == rec.height * rec.width * 3


def test_index_lists_round_trip_large_gaps():
    header = ContainerHeader(5, 1000, 1, 4096)
    removed = tuple(range(0, 1000, 7))
    rec_h = 1000 - len(removed)
    rec = PatchRecord(0, 0, rec_h, 5, rec_h * 5, 3, STAGE_LZW)
    blob = write_container(header, removed, (), (rec,), (b"abc",))
    parsed = read_container(blob)
    assert parsed.removed_rows == removed


def test_bad_magic():
    blob = write_container(*small_container())
    with pytest.raises(BadMagicError):
        read_container(b"JUNK" + blob[4:])


def test_unsupported_version():
    # no writer has emitted version 0; 99 is newer than this reader
    for version in (0, 99):
        blob = bytearray(write_container(*small_container()))
        blob[4:6] = version.to_bytes(2, "little")
        with pytest.raises(UnsupportedVersionError, match=f"version {version} "):
            read_container(bytes(blob))


@pytest.mark.parametrize("version", [0, VERSION + 1])
def test_writer_emits_only_its_version(version):
    header, *rest = small_container()
    with pytest.raises(StructuralError, match="version"):
        write_container(dataclasses.replace(header, version=version), *rest)


def test_patch_size_fits_its_u32():
    # the largest patch size the field holds round-trips; the config refuses
    # one more before any tile is encoded, and the container before packing
    header, *rest = small_container(patch_size=2**32 - 1)
    assert read_container(write_container(header, *rest)).header.patch_size == 2**32 - 1
    assert CompressionConfig(patch_size=2**32 - 1).patch_size == 2**32 - 1
    with pytest.raises(ValueError, match="patch_size"):
        compress(np.ones((2, 3, 1), dtype=np.uint8), CompressionConfig(patch_size=2**32))
    with pytest.raises(StructuralError, match="^patch size 4294967296 must be positive"):
        write_container(dataclasses.replace(header, patch_size=2**32), *rest)


@pytest.mark.parametrize("field, value", [("original_width", 2**32),
                                          ("original_height", 2**32), ("channels", 256)])
def test_header_fields_wider_than_their_wire_types_rejected(field, value):
    header, *rest = small_container()
    with pytest.raises(StructuralError):
        write_container(dataclasses.replace(header, **{field: value}), *rest)


@pytest.mark.parametrize("field, bits", [("row", 32), ("col", 32), ("height", 32), ("width", 32),
                                         ("raw_len", 64), ("enc_len", 64), ("stage_mask", 8)])
def test_record_fields_wider_than_their_wire_types_rejected(field, bits):
    # checked before the tiling, so each raises StructuralError, not struct.error
    header, rr, rc, (rec,), pays = small_container()
    for value in (2**bits, -1):
        bad = dataclasses.replace(rec, **{field: value})
        with pytest.raises(StructuralError, match="^patch 0: .* does not fit the wire format"):
            write_container(header, rr, rc, (bad,), pays)


def test_truncation_at_every_prefix():
    blob = write_container(*small_container())
    for cut in range(len(blob)):
        with pytest.raises(TruncatedStreamError) as err:
            read_container(blob[:cut])
        assert "offset" in str(err.value)


def test_record_count_beyond_the_bytes_fails_before_any_record():
    # the header's grid needs 10**10 records; the count claims 2**32 - 1 of
    # 33 bytes each, and the whole table is asked for at once
    blob = _huge_claim_header()[:-4] + struct.pack("<I", 2**32 - 1)
    with deadline(1.0), pytest.raises(
            TruncatedStreamError,
            match=r"^container ends inside patch records \(offset 28, wanted 141733920735 bytes\)$"):
        read_container(blob)


def test_trailing_bytes_rejected():
    blob = write_container(*small_container())
    with pytest.raises(StructuralError, match="trailing"):
        read_container(blob + b"\x00")


def test_alpha_flag_round_trip():
    header = ContainerHeader(3, 2, 3, 16, alpha_dropped=True)
    rec = PatchRecord(0, 0, 2, 3, 18, 2, STAGE_LZW)
    blob = write_container(header, (), (), (rec,), (b"hi",))
    assert read_container(blob).header.alpha_dropped is True


@pytest.mark.parametrize("width", [9, 12, 16, 20])
def test_width_flag_round_trip(width):
    header = ContainerHeader(3, 2, 1, 16, lzw_max_width=width)
    rec = PatchRecord(0, 0, 2, 3, 6, 2, STAGE_LZW)
    blob = write_container(header, (), (), (rec,), (b"hi",))
    assert read_container(blob).header.lzw_max_width == width


@pytest.mark.parametrize("bit", range(6, 16))
def test_reserved_flag_bits_rejected(bit):
    # flags is the u16 after the magic and version; bits 6-15 are reserved
    blob = bytearray(write_container(*small_container()))
    (flags,) = struct.unpack_from("<H", blob, 6)
    assert flags == 16 << 1  # the writer sets only the width bits here
    struct.pack_into("<H", blob, 6, flags | 1 << bit)
    with pytest.raises(StructuralError, match=rf"reserved flag bits \[{bit}\]"):
        read_container(bytes(blob))


def test_bit_depth_other_than_8_rejected():
    # the bit depth is the header byte after the channel count, at offset 17
    blob = bytearray(write_container(*small_container()))
    assert blob[17] == 8
    blob[17] = 16
    with pytest.raises(StructuralError, match="^bit depth 16 unsupported"):
        read_container(bytes(blob))


@pytest.mark.parametrize("width", [1, 8, 21, 31])
def test_width_flag_outside_the_lzw_widths_rejected(width):
    # the flags' bits 1-5 hold any width from 1 to 31; 9 to 20 are valid
    blob = bytearray(write_container(*small_container()))
    struct.pack_into("<H", blob, 6, width << 1)
    with pytest.raises(StructuralError, match=rf"^LZW max width {width} outside \[9, 20\]"):
        read_container(bytes(blob))


def test_record_and_payload_counts_must_agree():
    header, rr, rc, recs, pays = small_container()
    with pytest.raises(StructuralError, match="^1 patch records but 0 payloads"):
        Container(header, rr, rc, recs, ())


def test_varint_longer_than_63_bits_rejected():
    # the removed-rows count: ten bytes with the continuation bit set
    blob = (MAGIC + struct.pack("<HHIIBBI", 1, 0, 3, 2, 1, 8, 16)
            + b"\x80" * 10 + b"\x00")
    with pytest.raises(StructuralError, match="^varint too long in removed-rows block"):
        read_container(blob)


def test_cut_crop_lists_name_where_they_end():
    head = MAGIC + struct.pack("<HHIIBBI", 1, 0, 3, 200, 1, 8, 16)
    cases = [
        # two gaps, the second cut after its first byte
        (b"\x02\x01\x80", "removed-rows block", len(head) + 3),
        # a count of 300 (two bytes) with 5 one-byte gaps after it
        (b"\xac\x02" + b"\x01" * 5, "removed-rows block", len(head) + 7),
        # a count of 2**63 - 1: nothing is allocated for it
        (b"\xff" * 8 + b"\x7f" + b"\x05" * 3, "removed-rows block", len(head) + 12),
        # an empty rows list, then a cols list cut inside its count
        (b"\x00\x81", "removed-cols block", len(head) + 2),
    ]
    for tail, what, offset in cases:
        with deadline(1.0), pytest.raises(TruncatedStreamError) as err:
            read_container(head + tail)
        assert str(err.value) == f"container ends inside {what} (offset {offset}, wanted 1 bytes)"
    # a gap of ten bytes is too long, even with bytes after it
    with pytest.raises(StructuralError, match="^varint too long in removed-cols block$"):
        read_container(head + b"\x00\x01" + b"\x80" * 10 + b"\x00" * 8)


def test_tiling_mismatch_rejected():
    header = ContainerHeader(3, 2, 1, 16)
    rec = PatchRecord(0, 0, 1, 3, 3, 2, STAGE_LZW)  # misses the second row
    with pytest.raises(IndexInconsistencyError):
        write_container(header, (), (), (rec,), (b"hi",))

    # right record count, but record 2 is shifted one column to the right
    header = ContainerHeader(4, 4, 1, 2)
    recs = tuple(PatchRecord(r, c, 2, 2, 4, 1, STAGE_LZW)
                 for r, c in [(0, 0), (0, 2), (2, 1), (2, 2)])
    with pytest.raises(IndexInconsistencyError, match=r"^patch 2: "):
        write_container(header, (), (), recs, (b"a",) * 4)


def test_overlapping_tiles_rejected():
    header = ContainerHeader(4, 4, 1, 2)
    recs = tuple(PatchRecord(r, c, 2, 2, 4, 1, STAGE_LZW)
                 for r, c in [(0, 0), (0, 0), (2, 0), (2, 2)])
    with pytest.raises(IndexInconsistencyError):
        write_container(header, (), (), recs, (b"a",) * 4)


def test_raw_len_mismatch_rejected():
    header = ContainerHeader(3, 2, 1, 16)
    rec = PatchRecord(0, 0, 2, 3, 5, 2, STAGE_LZW)
    with pytest.raises(StructuralError):
        write_container(header, (), (), (rec,), (b"hi",))


def test_payload_length_mismatch_rejected():
    header, rr, rc, recs, _ = small_container()
    with pytest.raises(StructuralError):
        write_container(header, rr, rc, recs, (b"wrong length",))


def test_unknown_stage_bits_rejected():
    header = ContainerHeader(3, 2, 1, 16)
    # 0x08 is no stage at all; 0x3 lacks the LZW bit, which is always set
    for mask in (0x08, 0x3):
        rec = PatchRecord(0, 0, 2, 3, 6, 2, mask)
        with pytest.raises(StructuralError):
            write_container(header, (), (), (rec,), (b"hi",))


def test_container_validated_when_built():
    rng = np.random.default_rng(44)
    img = rng.integers(1, 256, (8, 8, 1), dtype=np.uint8)
    parsed = read_container(compress(img, CompressionConfig(patch_size=4)))
    records = list(parsed.records)
    records[3] = dataclasses.replace(records[3], row=6, col=6)
    with pytest.raises(IndexInconsistencyError, match=r"^patch 3: "):
        Container(parsed.header, parsed.removed_rows, parsed.removed_cols,
                  tuple(records), parsed.payloads)


def test_nonincreasing_removed_rows_rejected():
    header, _, rc, recs, pays = small_container(removed_rows=(1,))
    with pytest.raises(StructuralError):
        write_container(header, (1, 1), rc, recs, pays)


def test_removed_index_out_of_range_rejected():
    header, _, rc, recs, pays = small_container(removed_rows=(1,))
    with pytest.raises(StructuralError):
        write_container(header, (5,), rc, recs, pays)


# a float and a bool, which are no index (as one, 2.7 would truncate to row
# 2 and True would read as row 1), and a value and a set, which are no
# sequence of indices, as rows; then the same as columns
@pytest.mark.parametrize("rows, cols, named", [
    ((2.7,), (), r"removed rows\[0\] must be an integer"),
    ((True,), (), r"removed rows\[0\] must be an integer"),
    (None, (), "removed rows must be a sequence"), ({1}, (), "removed rows must be a sequence"),
    ((), (1.0,), r"removed columns\[0\] must be an integer"),
    ((), (False,), r"removed columns\[0\] must be an integer"),
    ((), 1, "removed columns must be a sequence")])
def test_removed_lines_must_be_sequences_of_integers(rows, cols, named):
    header, _, _, recs, pays = small_container()
    with pytest.raises(StructuralError, match=f"^{named}"):
        Container(header, rows, cols, recs, pays)


def test_numpy_integer_removed_lines_accepted():
    img = np.arange(1, 13, dtype=np.uint8).reshape(3, 4, 1)
    img[1] = 0
    img[:, [0, 2]] = 0
    parsed = read_container(compress(img, CompressionConfig(patch_size=2)))
    assert (parsed.removed_rows, parsed.removed_cols) == ((1,), (0, 2))
    rows, cols = (np.int64(1),), (np.uint8(0), np.int32(2))
    cont = Container(parsed.header, rows, cols, parsed.records, parsed.payloads)
    assert (decompress(cont) == img).all()
    assert write_container(parsed.header, rows, cols, parsed.records,
                           parsed.payloads) == compress(img, CompressionConfig(patch_size=2))


def test_corrupted_index_fails_reparse():
    # flipping a record count byte must not pass re-validation
    header, rr, rc, recs, pays = small_container()
    blob = bytearray(write_container(header, rr, rc, recs, pays))
    # second byte of the big-endian-free little-endian u32 patch count
    pos = len(blob) - len(pays[0]) - 29 - 4
    blob[pos] ^= 0x01
    with pytest.raises((StructuralError, TruncatedStreamError, IndexInconsistencyError)):
        read_container(bytes(blob))


def test_zero_patch_container():
    # fully cropped image: no records, no payloads
    header = ContainerHeader(2, 2, 1, 16)
    blob = write_container(header, (0, 1), (0, 1), (), ())
    parsed = read_container(blob)
    assert parsed.records == ()
    assert parsed.payloads == ()


def _huge_claim_header():
    # 28-byte version-1 container: 100000 x 100000 x 3 at patch size 1, no
    # removed rows or columns, zero patch records, no payloads
    return (MAGIC + struct.pack("<HHIIBBI", 1, 16 << 1, 100_000, 100_000, 3, 8, 1)
            + b"\x00\x00" + struct.pack("<I", 0))


def _height_mutated_container():
    rng = np.random.default_rng(43)
    img = rng.integers(1, 256, (4, 3, 1), dtype=np.uint8)
    blob = bytearray(compress(img, CompressionConfig(patch_size=1)))
    blob[15] = 0x7F  # high byte of the u32 height: 4 becomes 0x7F000004
    return bytes(blob)


@pytest.mark.parametrize("make", [_huge_claim_header, _height_mutated_container])
def test_index_checked_before_tiling_a_huge_claim(make):
    blob = make()
    start = time.perf_counter()
    with deadline(1.0), pytest.raises(IndexInconsistencyError):
        read_container(blob)
    assert time.perf_counter() - start < 1.0


# A 40x36 corner of corpus image 0 with a margin row, an interior row and an
# interior column emptied, so the crop lists are mutated too, at a patch size
# with many small records and at one with a few larger ones.
_CORNER = corpus(1, seed=0)[0][100:140, 100:136].copy()
_CORNER[[0, 17]] = 0
_CORNER[:, 30] = 0
_MUTABLE = {p: compress(_CORNER, CompressionConfig(patch_size=p)) for p in (8, 32)}


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(_MUTABLE)), st.sampled_from(["flip", "truncate", "extend"]),
       st.data())
def test_mutated_container_decodes_or_raises_a_codec_error(patch, kind, data):
    # version 1 has no checksum, so a mutation may also decode to wrong
    # pixels; what it may not do is raise anything else or run long
    blob = bytearray(_MUTABLE[patch])
    if kind == "flip":
        for _ in range(data.draw(st.integers(1, 3))):
            blob[data.draw(st.integers(0, len(blob) - 1))] ^= data.draw(st.integers(1, 255))
    elif kind == "truncate":
        del blob[data.draw(st.integers(0, len(blob) - 1)):]
    else:
        blob += data.draw(st.binary(min_size=1, max_size=16))
    try:
        with deadline(1.0):
            out = decompress(bytes(blob))
    except CodecError:
        return
    assert isinstance(out, np.ndarray) and out.dtype == np.uint8 and out.ndim == 3
