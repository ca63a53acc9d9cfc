"""Head-to-head timing of the native C kernels vs the pure-Python/numpy fallback.

LZW: the two backends must produce byte-identical streams; this script
checks that on every workload, then reports encode/decode throughput for
each and the native speedup. Workloads cover the codec's real input
(bit-plane streams of projected slide patches) plus incompressible and highly
repetitive extremes, each one call on ``--size`` bytes, and the 12,288-byte
stream of one 64x64x3 corpus tile, one call per tile as the codec makes them,
timed over ``--size`` bytes of such calls, so per-call start-up counts too.

Pixel stages: the native projection and bit-plane kernels must give the same
output as the pure module's numpy kernels of the same name on a slide-like
256x256x3 tile, a corpus-like 64x64x3 tile and a 61x61x3 edge tile, whose
pixel count is not a multiple of 8, so the bit-plane kernels' last, partial
group of 8 pixels is timed too; then each kernel's throughput in MB/s of
pixels is reported for each. Each array argument is timed in two layouts:
with packed rows, as the codec passes it (projection reads a view of the image, the
other stages whole arrays), and channel-reversed (``a[..., ::-1]``, as a
BGR-to-RGB view gives), which the native wrapper copies before the kernel
runs, so the cost of that copy is reported too.

Usage: python benchmarks/backend_bench.py [--size BYTES] [--repeats N]
"""

import argparse
import sys
import time

import numpy as np

from slidecodec import _lzw_py
from slidecodec.bitplane import to_bitplanes
from slidecodec.synthetic import smooth_gradient_patch, wsi_like_image
from slidecodec.transform import project

try:
    from slidecodec import _lzw_native
except ImportError:
    _lzw_native = None


def _tile_to(data, size: int) -> bytes:
    """``size`` bytes of ``data``, any buffer, repeated."""
    reps = -(-size // len(data))
    return (bytes(data) * reps)[:size]


def workloads(seed: int, size: int) -> dict:
    slide = wsi_like_image(np.random.SeedSequence([seed, 0]))
    gradient = smooth_gradient_patch(np.random.SeedSequence([seed, 1]), 256, 256)
    rng = np.random.default_rng(seed)
    return {
        "slide bitplanes": _tile_to(to_bitplanes(project(slide)), size),
        "gradient bitplanes": _tile_to(to_bitplanes(project(gradient)), size),
        "random bytes": rng.integers(0, 256, size, dtype=np.uint8).tobytes(),
        "constant bytes": bytes(size),
        "corpus tile bitplanes": to_bitplanes(project(stage_tiles(seed)["corpus tile 64^2x3"])),
    }


def _best_time(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def bench(size: int, repeats: int, max_width: int, seed: int) -> int:
    backends = [("python", _lzw_py)]
    if _lzw_native is not None:
        backends.append(("native", _lzw_native))
    else:
        print("note: native kernel cannot be built; timing the fallback only",
              file=sys.stderr)

    rows = []
    for name, data in workloads(seed, size).items():
        encoded = {b: mod.encode(data, max_width) for b, mod in backends}
        first = next(iter(encoded.values()))
        if any(enc != first for enc in encoded.values()):
            print(f"error: backends disagree on {name!r}", file=sys.stderr)
            return 1
        calls = max(1, size // len(data))
        for backend, mod in backends:
            enc_s = _best_time(lambda: [mod.encode(data, max_width) for _ in range(calls)],
                               repeats=repeats) / calls
            dec_s = _best_time(lambda: [mod.decode(encoded[backend], max_width, len(data))
                                        for _ in range(calls)], repeats=repeats) / calls
            rows.append((name, backend,
                         len(data) / enc_s / 1e6, len(data) / dec_s / 1e6,
                         len(data) / len(encoded[backend])))

    print(f"{'workload':22} {'backend':8} {'encode MB/s':>12} "
          f"{'decode MB/s':>12} {'ratio':>7}")
    for name, backend, enc, dec, ratio in rows:
        print(f"{name:22} {backend:8} {enc:12.1f} {dec:12.1f} {ratio:7.2f}")

    if _lzw_native is not None:
        print()
        for name in dict.fromkeys(r[0] for r in rows):
            pure = next(r for r in rows if r[0] == name and r[1] == "python")
            fast = next(r for r in rows if r[0] == name and r[1] == "native")
            print(f"{name:22} native speedup: encode {fast[2] / pure[2]:5.1f}x"
                  f"  decode {fast[3] / pure[3]:5.1f}x")
    return 0


def stage_tiles(seed: int) -> dict:
    """Tile views as the codec cuts them: 256x256 of a 1024-wide slide (slide-2k),
    64x64 of a 256x256 image (corpus-64), and a 61x61 edge tile of that image."""
    slide = np.tile(wsi_like_image(np.random.SeedSequence([seed, 0])), (4, 4, 1))
    image = wsi_like_image(np.random.SeedSequence([seed, 2]))
    return {"slide tile 256^2x3": slide[256:512, 512:768],
            "corpus tile 64^2x3": image[64:128, 128:192],
            "edge tile 61^2x3": image[192:253, 192:253]}


def stage_kernels():
    """(name, pure kernel, native kernel, argument maker) per pixel stage;
    the argument maker takes the tile."""
    def residuals(tile):
        return (project(tile),)

    def unproject_args(tile):
        r = project(tile)
        return r, np.empty(r.shape, np.uint8)

    def stream(tile):
        return (to_bitplanes(project(tile)), *tile.shape)

    makers = {"project": lambda tile: (tile,), "unproject": unproject_args,
              "to_bitplanes": residuals, "from_bitplanes": stream}
    return [(name, getattr(_lzw_py, name), getattr(_lzw_native, name), make)
            for name, make in makers.items()]


def bench_stages(size: int, repeats: int, seed: int) -> int:
    if _lzw_native is None:
        print("note: native kernel cannot be built; no pixel-stage comparison",
              file=sys.stderr)
        return 0
    rows = []
    for tile_name, tile in stage_tiles(seed).items():
        calls = max(1, size // tile.nbytes)
        for stage, reference, kernel, make_args in stage_kernels():
            packed = make_args(tile)
            layouts = [("packed rows", packed)]
            if isinstance(packed[0], np.ndarray):
                layouts.append(("channels reversed", (packed[0][..., ::-1], *packed[1:])))
            for layout, args in layouts:
                # memoryviews from the bit-plane stage, arrays from the others;
                # a copy of the first, as both unproject into the same out
                if not np.array_equal(np.array(memoryview(reference(*args))),
                                      np.asarray(memoryview(kernel(*args)))):
                    print(f"error: native {stage} differs from numpy on {tile_name!r}, "
                          f"{layout}", file=sys.stderr)
                    return 1
                speeds = []
                for fn in (reference, kernel):
                    seconds = _best_time(lambda: [fn(*args) for _ in range(calls)],
                                         repeats=repeats) / calls
                    speeds.append(tile.nbytes / seconds / 1e6)
                rows.append((stage, tile_name, layout, *speeds))

    print(f"{'stage':15} {'tile':20} {'layout':18} {'numpy MB/s':>11} {'native MB/s':>12} "
          f"{'speedup':>8}")
    for stage, tile_name, layout, numpy_speed, native_speed in rows:
        print(f"{stage:15} {tile_name:20} {layout:18} {numpy_speed:11.1f} {native_speed:12.1f} "
              f"{native_speed / numpy_speed:7.1f}x")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--size", type=int, default=1 << 20,
                        help="bytes per workload (default 1 MiB)")
    parser.add_argument("--repeats", type=int, default=3,
                        help="timing repetitions, best is kept")
    parser.add_argument("--max-width", type=int, default=16)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    status = bench(args.size, args.repeats, args.max_width, args.seed)
    print()
    return status or bench_stages(args.size, args.repeats, args.seed)


if __name__ == "__main__":
    sys.exit(main())
