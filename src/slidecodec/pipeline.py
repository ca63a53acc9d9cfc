"""End-to-end codec: crop, tile, per-tile stage chain, container assembly.

Compression runs four steps. Empty rows and columns (every sample zero) are
cropped and their indices recorded. The cropped image is cut into
patch_size x patch_size tiles, edge tiles keeping their true size. Each tile
passes through the enabled stages in order: projection residuals, bit-plane
transposition, LZW. Stage choices are recorded per tile in a stage mask so
ablation containers decode correctly. Tiles are processed by an optional
thread pool; results are committed in row-major tile order, so output bytes
do not depend on the thread count.
"""

import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .bitplane import from_bitplanes, plane_stream_size, to_bitplanes
from .container import (
    STAGE_BITPLANE,
    STAGE_LZW,
    STAGE_PROJECTION,
    Container,
    ContainerHeader,
    PatchRecord,
    read_container,
    tile_grid,
    write_container,
)
from .errors import CodecError, StructuralError, UnsupportedLayoutError
from .lzw import DEFAULT_MAX_WIDTH, lzw_decode, lzw_encode
from .transform import project, unproject

__all__ = [
    "CompressionConfig",
    "CropResult",
    "compress",
    "crop_empty",
    "decompress",
    "strip_alpha",
    "uncrop",
]


@dataclass(frozen=True)
class CompressionConfig:
    """Stage toggles and knobs; defaults give the full pipeline."""

    patch_size: int = 5000
    drop_alpha: bool = False
    enable_projection: bool = True
    enable_bitplane: bool = True
    lzw_max_width: int = DEFAULT_MAX_WIDTH

    def __post_init__(self):
        if self.patch_size < 1:
            raise ValueError(f"patch_size must be positive, got {self.patch_size}")
        if not 9 <= self.lzw_max_width <= 20:
            raise ValueError(f"lzw_max_width {self.lzw_max_width} outside [9, 20]")


@dataclass(frozen=True)
class CropResult:
    """The live part of an image and the all-zero lines cut from it.

    ``cropped`` may be a view of the input image (when the live rows form
    one block and no column is empty), so writing to it writes to the input.
    """

    cropped: np.ndarray
    removed_rows: tuple
    removed_cols: tuple
    original_height: int
    original_width: int


def _check_image(image, channels=(1, 3, 4)):
    if not isinstance(image, np.ndarray) or image.dtype != np.uint8:
        raise UnsupportedLayoutError("image must be a uint8 ndarray")
    if image.ndim != 3:
        raise UnsupportedLayoutError(
            f"image must be height x width x channels, got shape {image.shape}"
        )
    h, w, c = image.shape
    if h < 1 or w < 1:
        raise UnsupportedLayoutError(f"image dimensions must be positive, got {h}x{w}")
    if c not in channels:
        raise UnsupportedLayoutError(f"unsupported channel count {c}")
    return image


def crop_empty(image) -> CropResult:
    """Drop rows and columns that are entirely zero across all channels.

    Rows are sliced when the live ones form one block and columns are
    gathered only when one is empty, so ``cropped`` is a view of ``image``
    when nothing needs gathering, and a copy otherwise.
    """
    image = _check_image(image)
    h, w, _ = image.shape
    # max(...) != 0 gives the same masks as any(...) several times faster.
    row_live = image.reshape(h, -1).max(axis=1) != 0
    col_live = image.max(axis=0).max(axis=1) != 0
    rows = np.flatnonzero(row_live)
    if len(rows) and rows[-1] - rows[0] == len(rows) - 1:
        cropped = image[rows[0] : rows[-1] + 1]
    else:
        cropped = image[row_live]
    if not col_live.all():
        cropped = cropped.take(np.flatnonzero(col_live), axis=1)
    return CropResult(
        cropped=cropped,
        removed_rows=tuple(np.flatnonzero(~row_live).tolist()),
        removed_cols=tuple(np.flatnonzero(~col_live).tolist()),
        original_height=h,
        original_width=w,
    )


def _kept_lines(removed, n):
    """Indices of the ``n`` original lines left after dropping ``removed``."""
    live = np.ones(n, dtype=bool)
    live[np.asarray(removed, dtype=np.intp)] = False
    return np.flatnonzero(live)


def _place(out, tile, row, col, kept_rows, kept_cols):
    """Write ``tile``, at cropped ``(row, col)``, to its place in the full image.

    Rows whose kept lines under the tile form one run (the usual case:
    margins only) are written through a slice, and rows that removed rows
    split through an index array. Columns are written one run of
    consecutive kept columns at a time, each through a slice: an index
    array on the column axis would scatter the tile pixel by pixel.
    """
    h, w = tile.shape[:2]
    rows = kept_rows[row : row + h]
    if rows[-1] - rows[0] == h - 1:
        rows = slice(rows[0], rows[-1] + 1)
    cols = kept_cols[col : col + w]
    if cols[-1] - cols[0] == w - 1:
        out[rows, cols[0] : cols[-1] + 1] = tile
        return
    # found on a list: numpy temporaries made here, between the tile's
    # large decode buffers, raised the decoder's peak resident memory
    lines = cols.tolist()
    breaks = [j for j in range(1, w) if lines[j] != lines[j - 1] + 1]
    for start, stop in zip([0, *breaks], [*breaks, w]):
        out[rows, cols[start] : cols[stop - 1] + 1] = tile[:, start:stop]


def uncrop(result: CropResult) -> np.ndarray:
    """Re-insert zero rows/columns at the recorded indices.

    :func:`decompress` does not call this: it writes each tile straight to
    its place in the full image through the same placement rule.
    """
    cropped = result.cropped
    if not isinstance(cropped, np.ndarray) or cropped.ndim != 3:
        raise StructuralError("cropped image must be height x width x channels")
    h, w = result.original_height, result.original_width
    ch, cw, nchan = cropped.shape
    if ch + len(result.removed_rows) != h or cw + len(result.removed_cols) != w:
        raise StructuralError(
            f"crop metadata inconsistent: {ch}x{cw} cropped plus "
            f"{len(result.removed_rows)}/{len(result.removed_cols)} removed "
            f"does not give {h}x{w}"
        )
    for removed, n in ((result.removed_rows, h), (result.removed_cols, w)):
        if not all(isinstance(i, (int, np.integer)) and 0 <= i < n for i in removed):
            raise StructuralError(f"removed indices must be integers in [0, {n})")
    kept_rows = _kept_lines(result.removed_rows, h)
    kept_cols = _kept_lines(result.removed_cols, w)
    if len(kept_rows) != ch or len(kept_cols) != cw:
        raise StructuralError("removed indices duplicated")
    out = np.zeros((h, w, nchan), dtype=np.uint8)
    if ch and cw:
        _place(out, cropped, 0, 0, kept_rows, kept_cols)
    return out


def strip_alpha(image):
    """Return (image, alpha_dropped); warns and no-ops on non-RGBA input."""
    image = _check_image(image)
    if image.shape[2] != 4:
        warnings.warn(
            f"strip_alpha requested on {image.shape[2]}-channel image; nothing to drop",
            stacklevel=2,
        )
        return image, False
    return np.ascontiguousarray(image[:, :, :3]), True


def _stage_chain(tile, config):
    """(stage mask, array after projection, stream entering LZW) for one tile."""
    mask = STAGE_LZW
    arr = tile
    if config.enable_projection:
        arr = project(arr)
        mask |= STAGE_PROJECTION
    if config.enable_bitplane:
        stream = to_bitplanes(arr)
        mask |= STAGE_BITPLANE
    else:
        stream = arr.tobytes()
    return mask, arr, stream


def _encode_tile(tile, row, col, config):
    h, w, c = tile.shape
    mask, _, stream = _stage_chain(tile, config)
    payload = lzw_encode(stream, config.lzw_max_width)
    record = PatchRecord(row, col, h, w, h * w * c, len(payload), mask)
    return record, payload


def _decode_tile(record, payload, channels, max_width):
    bitplane = record.stage_mask & STAGE_BITPLANE
    try:
        if bitplane:
            size = plane_stream_size(record.height, record.width, channels)
        else:
            size = record.raw_len
        data = lzw_decode(payload, max_width, size=size)
        if bitplane:
            arr = from_bitplanes(data, record.height, record.width, channels)
        else:
            arr = np.frombuffer(data, dtype=np.uint8).reshape(
                record.height, record.width, channels
            )
        if record.stage_mask & STAGE_PROJECTION:
            arr = unproject(arr)
        return arr
    except CodecError as exc:
        raise type(exc)(
            f"patch at row {record.row}, col {record.col}: {exc}"
        ) from exc


def _run(jobs, worker, threads):
    if threads > 1 and len(jobs) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(worker, jobs))
    return [worker(j) for j in jobs]


def compress(image, config=None, threads=1) -> bytes:
    """Compress an image into container bytes; inverse of :func:`decompress`."""
    config = config or CompressionConfig()
    image = _check_image(image)
    alpha_dropped = False
    if config.drop_alpha:
        image, alpha_dropped = strip_alpha(image)
    if image.shape[2] == 4:
        raise UnsupportedLayoutError(
            "4-channel input needs drop_alpha=True (--drop-alpha); "
            "the projection stage is defined for 1 or 3 channels"
        )
    crop = crop_empty(image)
    ch, cw, nchan = crop.cropped.shape
    tiles = [
        (crop.cropped[r : r + th, c : c + tw], r, c)
        for r, c, th, tw in tile_grid(ch, cw, config.patch_size)
    ]
    results = _run(tiles, lambda t: _encode_tile(t[0], t[1], t[2], config), threads)
    header = ContainerHeader(
        original_width=crop.original_width,
        original_height=crop.original_height,
        channels=nchan,
        patch_size=config.patch_size,
        alpha_dropped=alpha_dropped,
        lzw_max_width=config.lzw_max_width,
    )
    return write_container(
        header,
        crop.removed_rows,
        crop.removed_cols,
        [rec for rec, _ in results],
        [blob for _, blob in results],
    )


def decompress(data, threads=1) -> np.ndarray:
    """Rebuild the exact image from container bytes (or a parsed Container).

    The full image is allocated once, zeroed, and each tile is decoded
    straight to its place in it, skipping the removed rows and columns; no
    cropped image is built. Every Container is validated when it is built,
    which proves the crop lists increasing and in range and the tiles
    disjoint, so pool workers never write the same pixel.
    """
    cont = data if isinstance(data, Container) else read_container(data)
    hdr = cont.header
    out = np.zeros((hdr.original_height, hdr.original_width, hdr.channels), dtype=np.uint8)
    kept_rows = _kept_lines(cont.removed_rows, hdr.original_height)
    kept_cols = _kept_lines(cont.removed_cols, hdr.original_width)

    def place(job):
        rec, payload = job
        tile = _decode_tile(rec, payload, hdr.channels, hdr.lzw_max_width)
        _place(out, tile, rec.row, rec.col, kept_rows, kept_cols)

    _run(list(zip(cont.records, cont.payloads)), place, threads)
    return out
