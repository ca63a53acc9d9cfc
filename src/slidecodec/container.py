"""Archive container: header, crop metadata, patch index, and payload blobs.

Byte-exact layout, all integers little-endian:

    magic            4 bytes, ASCII "WISE"
    version          u16 (this writer emits 1; readers reject 0 and anything newer)
    flags            u16: bit 0 = alpha channel was dropped,
                          bits 1-5 = LZW max code width (0 means the default,
                          ``lzw.DEFAULT_MAX_WIDTH``), bits 6-15 reserved:
                          written as zero, and a reader rejects any set
    original width   u32
    original height  u32
    channels         u8
    bit depth        u8 (must be 8)
    patch size       u32
    removed rows     varint count, then varint deltas of the sorted index list
                     (first index absolute, then gaps)
    removed cols     same encoding
    patch count      u32
    patch records    per patch: origin row u32, origin col u32, patch height
                     u32, patch width u32, uncompressed length u64, compressed
                     length u64, stage mask u8 (1 = projection,
                     2 = bit-plane, 4 = LZW; LZW is always set)
    payloads         all blobs concatenated in index order

Patch records must tile the cropped image (original minus removed rows and
columns) in row-major order with no overlap and no gap, exactly as
:func:`tile_grid` lists the tiles, and every stage mask has the LZW bit;
building a :class:`Container` validates this, and both writing and reading
build one. Varints are the usual 7-bits-per-byte encoding with the high
bit as a continuation flag.
"""

import struct
from collections.abc import Sequence
from dataclasses import dataclass, field

from .errors import (
    BadMagicError,
    IndexInconsistencyError,
    StructuralError,
    TruncatedStreamError,
    UnsupportedVersionError,
)
from .lzw import DEFAULT_MAX_WIDTH, MAX_WIDTH, MIN_WIDTH, check_int

__all__ = [
    "MAGIC",
    "VERSION",
    "STAGE_PROJECTION",
    "STAGE_BITPLANE",
    "STAGE_LZW",
    "ContainerHeader",
    "PatchRecord",
    "Container",
    "write_container",
    "read_container",
    "tile_grid",
    "check_crop",
]

MAGIC = b"WISE"
VERSION = 1

STAGE_PROJECTION = 1
STAGE_BITPLANE = 2
STAGE_LZW = 4

_RECORD = struct.Struct("<IIIIQQB")  # one patch record, in PatchRecord's field order
U32_END = 1 << 32  # one past the largest value of a u32 field

_FLAG_ALPHA = 0x0001
_WIDTH_SHIFT = 1
_WIDTH_MASK = 0x1F
_FLAG_RESERVED = 0xFFFF & ~(_FLAG_ALPHA | _WIDTH_MASK << _WIDTH_SHIFT)


@dataclass(frozen=True)
class ContainerHeader:
    original_width: int
    original_height: int
    channels: int
    patch_size: int
    alpha_dropped: bool = False
    lzw_max_width: int = DEFAULT_MAX_WIDTH
    version: int = VERSION
    bit_depth: int = 8


@dataclass(frozen=True)
class PatchRecord:
    row: int
    col: int
    height: int
    width: int
    raw_len: int
    enc_len: int
    stage_mask: int


@dataclass(frozen=True)
class Container:
    """A parsed or to-be-written container, validated when it is built."""

    header: ContainerHeader
    removed_rows: tuple
    removed_cols: tuple
    records: tuple
    payloads: tuple = field(repr=False)

    def __post_init__(self):
        _validate(self.header, self.removed_rows, self.removed_cols,
                  self.records, self.payloads)


def tile_grid(height, width, patch_size):
    """Row-major ``(row, col, height, width)`` tiles; edge tiles keep their true size."""
    for r in range(0, height, patch_size):
        for c in range(0, width, patch_size):
            yield r, c, min(patch_size, height - r), min(patch_size, width - c)


def check_crop(height, width, removed_rows, removed_cols):
    """Raise StructuralError unless the crop metadata of a ``height x width``
    image is well formed: each dimension an integer in [1, 2**32), and each
    list of removed lines a sequence of integers, strictly increasing and
    below its dimension (integers as ``lzw.check_int`` rules)."""
    try:
        for dim, n, lines, removed in (("height", height, "rows", removed_rows),
                                       ("width", width, "columns", removed_cols)):
            check_int(f"original {dim}", n, 1, U32_END - 1)
            if not isinstance(removed, Sequence):
                raise ValueError(f"removed {lines} must be a sequence of indices")
            prev = -1
            for k, i in enumerate(removed):
                if type(i) is not int or not prev < i < n:  # slow path: check_int names the fault
                    i = check_int(f"removed {lines}[{k}]", i, 0, n - 1)
                    if i <= prev:
                        raise ValueError(f"removed {lines} must be strictly increasing, "
                                         f"got {prev} then {i}")
                prev = i
    except ValueError as exc:
        raise StructuralError(str(exc)) from None


def _validate(header, removed_rows, removed_cols, records, payloads):
    check_crop(header.original_height, header.original_width, removed_rows, removed_cols)
    if header.channels not in (1, 3, 4):  # so it fits its u8 field too
        raise StructuralError(f"unsupported channel count {header.channels}")
    if header.bit_depth != 8:
        raise StructuralError(f"bit depth {header.bit_depth} unsupported: only 8-bit samples")
    if not 0 < header.patch_size < U32_END:
        raise StructuralError(f"patch size {header.patch_size} must be positive and fit its u32")
    if not MIN_WIDTH <= header.lzw_max_width <= MAX_WIDTH:
        raise StructuralError(
            f"LZW max width {header.lzw_max_width} outside [{MIN_WIDTH}, {MAX_WIDTH}]"
        )
    if len(records) != len(payloads):
        raise StructuralError(
            f"{len(records)} patch records but {len(payloads)} payloads"
        )
    # Count first, so the walk below is bounded by the records, not the header.
    ch = header.original_height - len(removed_rows)
    cw = header.original_width - len(removed_cols)
    p = header.patch_size
    expected = -(-ch // p) * -(-cw // p)
    if len(records) != expected:
        raise IndexInconsistencyError(
            f"patch index has {len(records)} records, but the cropped {ch}x{cw} "
            f"image at patch size {p} needs {expected} row-major tiles"
        )
    for i, (rec, blob, tile) in enumerate(zip(records, payloads, tile_grid(ch, cw, p))):
        if rec.enc_len != len(blob):
            raise StructuralError(
                f"patch {i}: record says {rec.enc_len} compressed bytes, blob has {len(blob)}"
            )
        if rec.stage_mask & ~(STAGE_PROJECTION | STAGE_BITPLANE | STAGE_LZW):
            raise StructuralError(f"patch {i}: unknown stage mask bits {rec.stage_mask:#x}")
        if not rec.stage_mask & STAGE_LZW:
            raise StructuralError(f"patch {i}: stage mask {rec.stage_mask:#x} lacks LZW")
        if rec.raw_len != rec.height * rec.width * header.channels:
            raise StructuralError(
                f"patch {i}: uncompressed length {rec.raw_len} does not match "
                f"{rec.height}x{rec.width}x{header.channels}"
            )
        if (rec.row, rec.col, rec.height, rec.width) != tile:
            raise IndexInconsistencyError(
                f"patch {i}: record is {rec.height}x{rec.width} at ({rec.row}, {rec.col}), "
                f"row-major tiling needs {tile[2]}x{tile[3]} at ({tile[0]}, {tile[1]})"
            )


def _put_varint(out, value):
    while value >= 0x80:
        out.append((value & 0x7F) | 0x80)
        value >>= 7
    out.append(value)


def _put_index_list(out, indices):
    _put_varint(out, len(indices))
    prev = 0
    for idx in indices:
        _put_varint(out, idx - prev)
        prev = idx


def write_container(header, removed_rows, removed_cols, records, payloads) -> bytes:
    """Serialize a container; identical inputs always yield identical bytes."""
    if header.version != VERSION:
        raise StructuralError(f"this writer emits version {VERSION}, not {header.version}")
    # packed once, before the Container checks the tiling; wire records always fit
    records = tuple(records)
    table = bytearray()
    for i, rec in enumerate(records):
        try:
            table += _RECORD.pack(*vars(rec).values())
        except struct.error as exc:
            raise StructuralError(f"patch {i}: {rec} does not fit the wire format: {exc}") from None
    cont = Container(header, tuple(removed_rows), tuple(removed_cols), records, tuple(payloads))

    flags = (_FLAG_ALPHA if header.alpha_dropped else 0) | (
        header.lzw_max_width << _WIDTH_SHIFT
    )
    out = bytearray(MAGIC)
    out += struct.pack(
        "<HHIIBBI",
        header.version,
        flags,
        header.original_width,
        header.original_height,
        header.channels,
        header.bit_depth,
        header.patch_size,
    )
    _put_index_list(out, cont.removed_rows)
    _put_index_list(out, cont.removed_cols)
    out += struct.pack("<I", len(cont.records))
    return b"".join((out, table, *cont.payloads))


class _Reader:
    def __init__(self, data):
        self.data = data
        self.pos = 0

    def take(self, n, what):
        if self.pos + n > len(self.data):
            raise TruncatedStreamError(
                f"container ends inside {what} (offset {self.pos}, wanted {n} bytes)"
            )
        chunk = self.data[self.pos : self.pos + n]
        self.pos += n
        return chunk

    def unpack(self, fmt, what):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt), what))

    def varints(self, count, what):
        """The next ``count`` varints, decoded from one slice in one loop.

        A varint is 1 to 10 bytes, so they lie in the slice of the next
        10 * count bytes, which the bytes present bound however large the
        count.
        """
        start = self.pos
        chunk = bytes(self.data[start : start + 10 * count])
        values = []
        at, end = 0, len(chunk)
        for _ in range(count):
            value = shift = 0
            while True:
                if at == end:  # the data ends here, as no varint passes 10 bytes
                    self.pos = start + at
                    self.take(1, what)  # raises
                byte = chunk[at]
                at += 1
                value |= (byte & 0x7F) << shift
                if not byte & 0x80:
                    break
                shift += 7
                if shift > 63:
                    raise StructuralError(f"varint too long in {what}")
            values.append(value)
        self.pos = start + at
        return values

    def index_list(self, what):
        """A count, then that many gaps: the first index, then each from the last."""
        (count,) = self.varints(1, what)
        indices = []
        prev = 0
        for gap in self.varints(count, what):
            prev += gap
            indices.append(prev)
        return tuple(indices)


def read_container(data: bytes) -> Container:
    """Parse container bytes; exact inverse of :func:`write_container`.

    Payloads are ``memoryview`` slices of *data*, not copies.
    """
    r = _Reader(memoryview(data))
    magic = bytes(r.take(4, "magic"))
    if magic != MAGIC:
        raise BadMagicError(f"not a container: magic {magic!r} != {MAGIC!r}")
    version, flags = r.unpack("<HH", "header")
    if version > VERSION:
        raise UnsupportedVersionError(
            f"container version {version} is newer than supported version {VERSION}"
        )
    if version < 1:
        raise UnsupportedVersionError("container version 0 does not exist; versions start at 1")
    if flags & _FLAG_RESERVED:
        bits = [b for b in range(16) if flags & _FLAG_RESERVED & 1 << b]
        raise StructuralError(f"reserved flag bits {bits} are set (flags {flags:#06x})")
    width, height, channels, bit_depth, patch_size = r.unpack("<IIBBI", "header")
    lzw_max_width = (flags >> _WIDTH_SHIFT) & _WIDTH_MASK or DEFAULT_MAX_WIDTH
    header = ContainerHeader(
        original_width=width,
        original_height=height,
        channels=channels,
        patch_size=patch_size,
        alpha_dropped=bool(flags & _FLAG_ALPHA),
        lzw_max_width=lzw_max_width,
        version=version,
        bit_depth=bit_depth,
    )
    removed_rows = r.index_list("removed-rows block")
    removed_cols = r.index_list("removed-cols block")
    (count,) = r.unpack("<I", "patch count")
    table = r.take(count * _RECORD.size, "patch records")
    records = tuple(PatchRecord(*fields) for fields in _RECORD.iter_unpack(table))
    payloads = tuple(
        r.take(rec.enc_len, f"payload of patch {i}") for i, rec in enumerate(records)
    )
    if r.pos != len(r.data):
        raise StructuralError(f"{len(r.data) - r.pos} trailing bytes after payloads")
    return Container(header, removed_rows, removed_cols, records, payloads)
