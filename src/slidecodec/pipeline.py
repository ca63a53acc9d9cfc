"""End-to-end codec: crop, tile, per-tile stage chain, container assembly.

Compression runs four steps. Empty rows and columns (every sample zero) are
cropped and their indices recorded. The cropped image is cut into
patch_size x patch_size tiles, edge tiles keeping their true size. Each tile
passes through the enabled stages in order: projection residuals, bit-plane
transposition, LZW. Stage choices are recorded per tile in a stage mask so
ablation containers decode correctly. One rule, ``_blocks``, places a block
of the cropped image in the full image for crop, uncrop and decompress: it
is a view of the image where no removed line crosses it, and otherwise it
moves one run of consecutive kept columns at a time, through slices.

``threads`` counts every thread that works on a call's tiles, the calling
thread included: the caller starts up to ``min(threads, tiles) - 1`` helper
threads (fewer if the system refuses one) and works beside them, each
pulling the next tile index, one at a time, until none is left. Results
are committed in row-major tile order, so output bytes do not depend on the
thread count, and the error raised is that of the first failing tile in
tile order, the one a single thread would raise. With one thread or one
tile the caller runs every tile alone.

Helpers start only where they pay: when a call's full tile (the first in
``tile_grid`` order, ``h * w * c`` raw bytes) holds fewer than
``ENCODE_THREADS_MIN_TILE`` bytes on compression or
``DECODE_THREADS_MIN_TILE`` on decompression, the caller runs every tile
alone, as with ``threads=1``. Below those sizes a tile's stage calls are
shorter than the interpreter-lock hand-offs between them, and a second
thread makes the call slower (``notes/decisions.md``).

Each stage of a tile is one call, looked up as a module global when it is
made (so a tracer can wrap it from outside). With the native backend (see
``lzw``) each of those calls is one C kernel call that releases the
interpreter lock for its whole length: projection, bit-plane transposition
and LZW, and their inverses. Tile threads therefore overlap on all of a
tile's pixel work, not only on LZW; what they do not overlap is the Python
around those calls, and each call's thread start-up.
"""

import threading
import warnings
from collections.abc import Sequence
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
from .lzw import (DEFAULT_MAX_WIDTH, MAX_WIDTH, MIN_WIDTH, check_decoded_size, check_int,
                  lzw_decode, lzw_encode)
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
        check_int("patch_size", self.patch_size, 1, 2**32 - 1)  # a u32 in the container
        check_int("lzw_max_width", self.lzw_max_width, MIN_WIDTH, MAX_WIDTH)


@dataclass(frozen=True)
class CropResult:
    """The live part of an image and the all-zero lines cut from it.

    ``cropped`` is a view of the input image when each axis's live lines
    form one block, so writing to it writes to the input.
    """

    cropped: np.ndarray
    removed_rows: tuple
    removed_cols: tuple
    original_height: int
    original_width: int


def _check_image(image):
    if not isinstance(image, np.ndarray) or image.dtype != np.uint8:
        raise UnsupportedLayoutError("image must be a uint8 ndarray")
    if image.ndim != 3:
        raise UnsupportedLayoutError(
            f"image must be height x width x channels, got shape {image.shape}"
        )
    h, w, c = image.shape
    if h < 1 or w < 1:
        raise UnsupportedLayoutError(f"image dimensions must be positive, got {h}x{w}")
    if c not in (1, 3, 4):
        raise UnsupportedLayoutError(f"unsupported channel count {c}")
    return image


def crop_empty(image) -> CropResult:
    """Drop rows and columns that are entirely zero across all channels.

    The live lines are taken by :func:`_blocks`, as :func:`uncrop` and
    :func:`decompress` place them: ``cropped`` is a view of ``image`` unless an
    empty line lies inside the live block, else filled one column run at a time.
    """
    image = _check_image(image)
    h, w, c = image.shape
    # max(...) != 0 gives the same masks as any(...) several times faster.
    row_live = image.reshape(h, -1).max(axis=1) != 0
    col_live = image.max(axis=0).max(axis=1) != 0
    kept_rows, kept_cols = np.flatnonzero(row_live), np.flatnonzero(col_live)
    ch, cw = len(kept_rows), len(kept_cols)
    if not ch:  # no live pixel, so no live column either
        cropped = np.empty((0, 0, c), dtype=np.uint8)
    else:
        rows, runs = _blocks(kept_rows, kept_cols, 0, 0, ch, cw)
        if isinstance(rows, slice) and len(runs) == 1:
            cropped = image[rows, runs[0][1]]
        else:
            cropped = np.empty((ch, cw, c), dtype=np.uint8)
            for tile_cols, cols in runs:
                cropped[:, tile_cols] = image[rows, cols]
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


def _line_runs(lines):
    """``(slice of lines, slice of the image)`` per run of consecutive values
    in ``lines``, an increasing index array of image lines."""
    n = len(lines)
    if lines[-1] - lines[0] == n - 1:
        return [(slice(0, n), slice(lines[0], lines[-1] + 1))]
    # found on a list: numpy temporaries made here, between a decoded
    # tile's large buffers, raised the decoder's peak resident memory
    lines = lines.tolist()
    breaks = [j for j in range(1, n) if lines[j] != lines[j - 1] + 1]
    return [(slice(a, b), slice(lines[a], lines[b - 1] + 1))
            for a, b in zip([0, *breaks], [*breaks, n])]


def _blocks(kept_rows, kept_cols, row, col, h, w):
    """``(rows, runs)``: where the ``h x w`` block at cropped ``(row, col)``
    lies in the full image. ``rows`` is a slice when the block's kept rows
    form one run, else an index array. ``runs`` holds a ``(block columns,
    image columns)`` slice pair per run of consecutive kept columns (an index
    array there would move pixels one by one). With a slice of rows and one
    run, ``image[rows, cols]`` is a view of the whole block."""
    rows = kept_rows[row : row + h]
    row_runs = _line_runs(rows)
    if len(row_runs) == 1:
        rows = row_runs[0][1]
    return rows, _line_runs(kept_cols[col : col + w])


def uncrop(result: CropResult) -> np.ndarray:
    """Re-insert zero rows/columns at the recorded indices.

    :func:`decompress` does not call this: it writes each tile straight to
    its place in the full image through the same rule, :func:`_blocks`.
    """
    cropped = result.cropped
    if not isinstance(cropped, np.ndarray) or cropped.dtype != np.uint8 or cropped.ndim != 3:
        raise StructuralError("cropped image must be a uint8 height x width x channels array")
    try:
        h = check_int("original height", result.original_height, 0)
        w = check_int("original width", result.original_width, 0)
    except ValueError as exc:
        raise StructuralError(str(exc)) from exc
    if not all(isinstance(r, Sequence) for r in (result.removed_rows, result.removed_cols)):
        raise StructuralError("removed rows and columns must be sequences of indices")
    ch, cw, nchan = cropped.shape
    if ch + len(result.removed_rows) != h or cw + len(result.removed_cols) != w:
        raise StructuralError(
            f"crop metadata inconsistent: {ch}x{cw} cropped plus "
            f"{len(result.removed_rows)}/{len(result.removed_cols)} removed "
            f"does not give {h}x{w}"
        )
    for removed, n in ((result.removed_rows, h), (result.removed_cols, w)):
        try:
            for i in removed:
                check_int("removed index", i, 0, n - 1)
        except ValueError as exc:
            raise StructuralError(f"removed indices must be integers in [0, {n})") from exc
    kept_rows = _kept_lines(result.removed_rows, h)
    kept_cols = _kept_lines(result.removed_cols, w)
    if len(kept_rows) != ch or len(kept_cols) != cw:
        raise StructuralError("removed indices duplicated")
    out = np.zeros((h, w, nchan), dtype=np.uint8)
    if ch and cw:
        rows, runs = _blocks(kept_rows, kept_cols, 0, 0, ch, cw)
        for tile_cols, cols in runs:
            out[rows, cols] = cropped[:, tile_cols]
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
    """(stage mask, array after projection, stream entering LZW) for one tile;
    the stream is that array itself when bit-planes are off."""
    mask = STAGE_LZW
    arr = stream = tile
    if config.enable_projection:
        arr = stream = project(arr)
        mask |= STAGE_PROJECTION
    if config.enable_bitplane:
        stream = to_bitplanes(arr)
        mask |= STAGE_BITPLANE
    return mask, arr, stream


def _encode_tile(tile, row, col, config):
    h, w, c = tile.shape
    mask, _, stream = _stage_chain(tile, config)
    payload = lzw_encode(stream, config.lzw_max_width)
    record = PatchRecord(row, col, h, w, h * w * c, len(payload), mask)
    return record, payload


def _stream_size(record, channels):
    """The bytes the LZW stream of ``record``'s tile decodes to."""
    if record.stage_mask & STAGE_BITPLANE:
        return plane_stream_size(record.height, record.width, channels)
    return record.raw_len


def _in_patch(record, exc):
    """``exc`` again, its message prefixed with where ``record``'s tile lies."""
    return type(exc)(f"patch at row {record.row}, col {record.col}: {exc}")


def _decode_tile(record, payload, channels, max_width, dest=None):
    """The tile's pixels; written to ``dest`` and returned as it when given
    and the tile is projected (``unproject`` writes in place), otherwise a
    new array."""
    try:
        data = lzw_decode(payload, max_width, size=_stream_size(record, channels))
        if record.stage_mask & STAGE_BITPLANE:
            arr = from_bitplanes(data, record.height, record.width, channels)
        else:
            arr = np.frombuffer(data, dtype=np.uint8).reshape(
                record.height, record.width, channels
            )
        if record.stage_mask & STAGE_PROJECTION:
            arr = unproject(arr, out=dest)
        return arr
    except CodecError as exc:
        raise _in_patch(record, exc) from exc


# Smallest full tile, in raw bytes, at which tile threads beat one thread.
# Encode stage calls take several times longer per byte than decode ones,
# so the two directions cross over at different sizes.
ENCODE_THREADS_MIN_TILE = 24 * 1024
DECODE_THREADS_MIN_TILE = 96 * 1024


def _threads_for(threads, tile_bytes, min_tile):
    """``threads``, or 1 when the call's full tile holds fewer than
    ``min_tile`` raw bytes."""
    return threads if tile_bytes >= min_tile else 1


def _run(jobs, worker, threads):
    """``[worker(j) for j in jobs]`` on up to ``threads`` threads, caller included.

    The caller starts up to ``min(threads, len(jobs)) - 1`` helpers,
    possibly none: a ``RuntimeError`` from ``Thread.start`` (no thread to be
    had) stops the starting, and the call runs on the threads it has. Every
    helper started is joined before the call returns or raises. The threads
    pull job indices one at a time from one shared iterator (its ``next``
    is a single C call, so no index is handed out twice) and store each
    result at its index. A thread that has run a job
    stops pulling once any job has failed. Every job is run to the end by
    whoever pulled it and indices are pulled in order, so every job before
    the lowest failing index has run and succeeded: that failure, the one
    raised, is the one a single thread would raise.
    """
    results = [None] * len(jobs)
    failures = []
    indices = iter(range(len(jobs)))

    def work():
        for i in indices:
            try:
                results[i] = worker(jobs[i])
            except BaseException as exc:
                failures.append((i, exc))
            if failures:
                return

    helpers = []
    try:
        for _ in range(min(threads, len(jobs)) - 1):
            helper = threading.Thread(target=work)
            try:
                helper.start()
            except RuntimeError:
                break
            helpers.append(helper)
        work()
    finally:
        for helper in helpers:
            helper.join()
    if failures:
        raise min(failures, key=lambda f: f[0])[1]
    return results


def compress(image, config=None, threads=1) -> bytes:
    """Compress an image into container bytes; inverse of :func:`decompress`."""
    check_int("threads", threads, 1)
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
    if tiles:
        threads = _threads_for(threads, tiles[0][0].nbytes, ENCODE_THREADS_MIN_TILE)
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

    Each payload is first checked against the bytes its record says it
    decodes to (``lzw.check_decoded_size``), so a huge claim fails before
    the image is allocated, once and zeroed; no cropped image is built.
    Each tile goes straight to its place by the module's one rule: a
    projected tile that no removed line crosses is unprojected into its
    view of the image; any other is decoded to its own array and copied in
    run by run. Every Container is validated when it is built, which proves
    the crop lists increasing and in range and the tiles disjoint, so tile
    threads never write the same pixel.
    """
    check_int("threads", threads, 1)
    cont = data if isinstance(data, Container) else read_container(data)
    hdr = cont.header
    for rec, payload in zip(cont.records, cont.payloads):
        try:
            check_decoded_size(len(payload), _stream_size(rec, hdr.channels))
        except CodecError as exc:
            raise _in_patch(rec, exc) from exc
    shape = (hdr.original_height, hdr.original_width, hdr.channels)
    try:
        out = np.zeros(shape, dtype=np.uint8)
    except MemoryError as exc:
        raise StructuralError(f"no memory for a {'x'.join(map(str, shape))} image") from exc
    kept_rows = _kept_lines(cont.removed_rows, hdr.original_height)
    kept_cols = _kept_lines(cont.removed_cols, hdr.original_width)

    def place(job):
        rec, payload = job
        rows, runs = _blocks(kept_rows, kept_cols, rec.row, rec.col, rec.height, rec.width)
        dest = out[rows, runs[0][1]] if isinstance(rows, slice) and len(runs) == 1 else None
        tile = _decode_tile(rec, payload, hdr.channels, hdr.lzw_max_width, dest)
        if tile is not dest:
            for tile_cols, cols in runs:
                out[rows, cols] = tile[:, tile_cols]

    if cont.records:
        threads = _threads_for(threads, cont.records[0].raw_len, DECODE_THREADS_MIN_TILE)
    _run(list(zip(cont.records, cont.payloads)), place, threads)
    return out
