"""Batch command-line front end: compress, decompress, analyze, bench.

Machine-readable output (JSON, CSV, tables) goes to stdout; diagnostics and
timing go to stderr so piped output stays clean. Exit code 0 means full
success. Bad option values exit 2 with a usage error before any input is
read: counts, dimensions and seeds are checked as they are parsed, then
``CompressionConfig`` checks the patch size and LZW width. Bad input contents
(a raster, container or file that cannot be read) exit 1 with an error line.
"""

import argparse
import dataclasses
import json
import math
import os
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from .container import read_container, tile_grid
from .errors import CodecError
from .lzw import BACKEND, MAX_WIDTH, MIN_WIDTH, check_int
from .metrics import compression_ratio, entropy_trace, psnr_matrix
from .pipeline import CompressionConfig, compress, decompress
from .rasters import read_image, write_image
from .synthetic import corpus

_EXT_FORMAT = {".pgm": "pgm", ".ppm": "ppm", ".pam": "pam", ".raw": "raw", ".bin": "raw"}
_CHANNEL_FORMAT = {1: "pgm", 3: "ppm", 4: "pam"}
_ABLATION_ROWS = (
    ("lzw", CompressionConfig(enable_projection=False, enable_bitplane=False)),
    ("lzw+projection", CompressionConfig(enable_bitplane=False)),
    ("lzw+projection+bitplane", CompressionConfig()),
)


def _configs(args) -> list:
    """``(name, CompressionConfig)`` pairs to run: the three stage combinations
    of ``bench --ablation`` at the given knobs, else the one the flags ask for."""
    knobs = {"patch_size": args.patch_size, "lzw_max_width": args.lzw_max_width}
    if getattr(args, "ablation", False):
        return [(name, dataclasses.replace(base, **knobs)) for name, base in _ABLATION_ROWS]
    return [("requested", CompressionConfig(
        drop_alpha=getattr(args, "drop_alpha", False),
        enable_projection=not args.no_projection,
        enable_bitplane=not args.no_bitplane,
        **knobs,
    ))]


def _load_raster(args):
    return read_image(args.input, "raw" if args.raw else None,
                      width=args.width, height=args.height, channels=args.channels)


def _atomic_write(path, data: bytes):
    """Write via a temp file + rename so failures leave no partial output."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=Path(path).name)
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _at_least(low: int):
    """An argparse ``type``: an integer of at least ``low``, as ``check_int`` rules."""
    def integer(text: str) -> int:
        try:
            return check_int("value", int(text), low)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    return integer


def _add_raster_input_flags(sub):
    sub.add_argument("--raw", action="store_true", help="headerless raw input bytes")
    sub.add_argument("--width", type=_at_least(1), help="raw input width")
    sub.add_argument("--height", type=_at_least(1), help="raw input height")
    sub.add_argument("--channels", type=_at_least(1), help="raw input channel count")


def _add_stage_flags(sub):
    sub.add_argument("--patch-size", type=int, default=CompressionConfig.patch_size,
                     help="tile edge length")
    sub.add_argument(
        "--no-projection", action="store_true", help="skip the residual projection stage"
    )
    sub.add_argument(
        "--no-bitplane", action="store_true", help="skip the bit-plane transposition stage"
    )
    sub.add_argument(
        "--lzw-max-width",
        type=int,
        default=CompressionConfig.lzw_max_width,
        help=f"LZW code width ceiling in bits ({MIN_WIDTH}-{MAX_WIDTH})",
    )


def cmd_compress(args) -> int:
    [(_, config)] = args.configs
    image = _load_raster(args)
    start = time.perf_counter()
    blob = compress(image, config, threads=args.threads)
    elapsed = time.perf_counter() - start
    _atomic_write(args.output, blob)
    original = image.nbytes
    ratio = compression_ratio(original, len(blob))
    mbps = original / elapsed / 1e6 if elapsed > 0 else math.inf
    print(
        f"{original} bytes -> {len(blob)} bytes  ratio {ratio:.3f}  "
        f"{elapsed:.3f}s  {mbps:.1f} MB/s",
        file=sys.stderr,
    )
    return 0


def cmd_decompress(args) -> int:
    with open(args.input, "rb") as fh:
        cont = read_container(fh.read())
    if cont.header.alpha_dropped:
        print(
            "note: container was written with --drop-alpha; output is RGB",
            file=sys.stderr,
        )
    image = decompress(cont, threads=args.threads)
    format = args.format
    if format is None:
        format = _EXT_FORMAT.get(Path(args.output).suffix.lower())
    if format is None:
        format = _CHANNEL_FORMAT[image.shape[2]]
    _atomic_write(args.output, write_image(image, format))
    return 0


def _psnr_records(matrix):
    records = []
    n = matrix.shape[0]
    for i in range(n):
        for j in range(i + 1, n):
            value = matrix[i, j]
            records.append(
                {
                    "plane_i": i,
                    "plane_j": j,
                    "psnr_db": "inf" if math.isinf(value) else value,
                }
            )
    return records


def cmd_analyze(args) -> int:
    [(_, config)] = args.configs
    image = _load_raster(args)
    h, w, _ = image.shape
    patches = []
    for r, c, th, tw in tile_grid(h, w, config.patch_size):
        tile = np.ascontiguousarray(image[r : r + th, c : c + tw])
        entry = {
            "row": r,
            "col": c,
            "height": th,
            "width": tw,
            "entropy": [
                {"stage": stage, "entropy_bits": bits}
                for stage, bits in entropy_trace(tile, config).items()
            ],
        }
        if args.psnr:
            entry["psnr_raw"] = _psnr_records(psnr_matrix(tile, "raw"))
            entry["psnr_projected"] = _psnr_records(psnr_matrix(tile, "projected"))
        patches.append(entry)
    report = {
        "source": str(args.input),
        "height": h,
        "width": w,
        "channels": image.shape[2],
        "patches": patches,
    }
    text = json.dumps(report, indent=2)
    if args.output:
        _atomic_write(args.output, text.encode() + b"\n")
    else:
        print(text)
    return 0


def _bench_corpus(args):
    if args.synthetic:
        return [
            (f"synthetic-{i}", img)
            for i, img in enumerate(corpus(args.synthetic, args.seed))
        ]
    if not args.corpus:
        raise CodecError("bench needs --synthetic N or --corpus DIR")
    paths = sorted(p for p in Path(args.corpus).iterdir() if p.is_file())
    images = [(p.name, read_image(p)) for p in paths]
    if not images:
        raise CodecError(f"no rasters found in {args.corpus}")
    return images


def cmd_bench(args) -> int:
    images = _bench_corpus(args)
    rows = []
    for name, config in args.configs:
        total_in = total_out = 0
        peak_payload = 0
        start = time.perf_counter()
        for label, image in images:
            blob = compress(image, config, threads=args.threads)
            payload = sum(r.enc_len for r in read_container(blob).records)
            peak_payload = max(peak_payload, payload)
            total_in += image.nbytes
            total_out += len(blob)
            rows.append(
                (name, label, image.nbytes, len(blob),
                 compression_ratio(image.nbytes, len(blob)), payload)
            )
        elapsed = time.perf_counter() - start
        rows.append(
            (name, "aggregate", total_in, total_out,
             compression_ratio(total_in, total_out), peak_payload)
        )
        print(
            f"[{name}] {total_in / elapsed / 1e6:.1f} MB/s over {len(images)} images "
            f"({BACKEND} backend)",
            file=sys.stderr,
        )
    header = ("config", "image", "original", "compressed", "ratio", "peak_payload")
    if args.csv:
        print(",".join(header))
        for row in rows:
            print(",".join(f"{v:.6f}" if isinstance(v, float) else str(v) for v in row))
    else:
        widths = [
            max(len(header[i]), max(len(_cell(row[i])) for row in rows))
            for i in range(len(header))
        ]
        print("  ".join(h.ljust(widths[i]) for i, h in enumerate(header)))
        for row in rows:
            print("  ".join(_cell(v).ljust(widths[i]) for i, v in enumerate(row)))
    return 0


def _cell(value):
    return f"{value:.6f}" if isinstance(value, float) else str(value)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="slidecodec",
        description="Lossless patch-based image codec with projection, "
        "bit-plane, and LZW stages.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compress", help="raster file to container")
    p.add_argument("input")
    p.add_argument("output")
    _add_stage_flags(p)
    p.add_argument("--drop-alpha", action="store_true",
                   help="discard the alpha channel of RGBA input (lossy)")
    p.add_argument("--threads", type=_at_least(1), default=os.cpu_count() or 1)
    _add_raster_input_flags(p)
    p.set_defaults(func=cmd_compress)

    p = sub.add_parser("decompress", help="container to raster file")
    p.add_argument("input")
    p.add_argument("output")
    p.add_argument("--format", choices=("pgm", "ppm", "pam", "raw"),
                   help="output format (default: from extension, then channel count)")
    p.add_argument("--threads", type=_at_least(1), default=os.cpu_count() or 1)
    p.set_defaults(func=cmd_decompress)

    p = sub.add_parser(
        "analyze",
        help="entropy trace and optional plane PSNR, as JSON",
        description="Patches tile the uncropped input, so their coordinates are "
        "input pixels and 'raw' is the entropy of the patch as given; compress "
        "tiles the image after cropping empty rows and columns.",
    )
    p.add_argument("input")
    p.add_argument("-o", "--output", help="write JSON here instead of stdout")
    _add_stage_flags(p)
    p.add_argument("--psnr", action="store_true", help="add plane-pair PSNR records")
    _add_raster_input_flags(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("bench", help="compression ratio table over a corpus")
    p.add_argument("--corpus", help="directory of raster files")
    p.add_argument("--synthetic", type=_at_least(1), metavar="N",
                   help="use N generated slide-like images")
    p.add_argument("--seed", type=_at_least(0), default=0)
    p.add_argument("--ablation", action="store_true",
                   help="compare lzw / +projection / +bitplane stage combinations")
    _add_stage_flags(p)
    p.add_argument("--threads", type=_at_least(1), default=os.cpu_count() or 1)
    p.add_argument("--csv", action="store_true")
    p.set_defaults(func=cmd_bench)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if "patch_size" in args:  # compress, analyze and bench
        try:
            args.configs = _configs(args)
        except ValueError as exc:
            parser.error(str(exc))
    try:
        return args.func(args)
    except CodecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
