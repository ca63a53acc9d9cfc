"""Seeded end-to-end benchmark of the slidecodec codec, with a traced layer split.

    python3 perfbench/run.py --workload slide-2k --seed 0 --seconds 30 --trace 0

Run from the repository root. The codec is imported from ``src/`` and driven
through its public API (``slidecodec.compress`` / ``decompress``) with
whatever LZW backend the package selects.

Each run generates its inputs from ``--seed`` and makes four calls per
input: compress and decompress at 1 thread, then at ``nt`` =
``os.cpu_count()`` threads. Every call is checked: decompressed pixels must
equal the input byte for byte, and every container must equal the input's
first 1-thread container. ``--trace 0`` compresses every input once, then
cycles the four calls over the inputs while the next fits in ``--seconds``,
and reports the end-to-end metrics: each mode's median per-call MB/s scaled
by the host-speed gauge (see ``gauge.py``), the ratio, and set-up time and
peak memory from fresh interpreters.
``--trace 1`` alternates untraced and traced passes over the inputs while
another pair fits in ``--seconds`` (at least one pair) and reports the
per-layer split (see ``spans.py``). The last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the full record,
including run metadata and spans, goes to ``perfbench/out/``. The exit code
is 1 when any check failed or the codec source is missing.
"""

import argparse
import hashlib
import itertools
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import numpy as np

from gauge import HostGauge
from spans import SPAN_FIELDS, Tracer, summarize

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
MANIFEST = HERE / "manifest.json"
SETUP_REPEATS = 9
PROBE_TIMEOUT_S = 150
PEAK_INPUTS = 10  # inputs each memory probe compresses or decompresses
PEAK_KEYS = ("compress_peak_MB", "decompress_peak_MB")

E2E_UNITS = {
    "compress_MBps": "MB/s",
    "decompress_MBps": "MB/s",
    "compress_MBps_nt": "MB/s",
    "decompress_MBps_nt": "MB/s",
    "ratio": "x",
    "compress_peak_MB": "MB",
    "decompress_peak_MB": "MB",
    "setup_s": "s",
}

# The four timed calls made per input, in order; the key names the metric.
MODES = {
    "compress_MBps": ("compress", False),
    "decompress_MBps": ("decompress", False),
    "compress_MBps_nt": ("compress", True),
    "decompress_MBps_nt": ("decompress", True),
}


def layer_unit(name):
    """Unit of a per-layer metric, from its name."""
    for suffix, unit in ((".MBps", "MB/s"), ("ms", "ms"), (".calls", "count"),
                         (".tiles", "count"), (".errors", "1/call"), (".bytes", "bytes"),
                         ("ratio", "x"), ("_frac", "frac")):
        if name.endswith(suffix):
            return unit
    raise KeyError(name)


def load_codec():
    """Import slidecodec from this checkout's ``src/``; exit if it is absent."""
    if not (SRC / "slidecodec" / "__init__.py").is_file():
        sys.exit(f"perfbench: no codec source at {SRC / 'slidecodec'}; run from a checkout")
    sys.path.insert(0, str(SRC))
    import slidecodec
    import slidecodec.pipeline

    if Path(slidecodec.__file__).resolve().parent != SRC / "slidecodec":
        sys.exit(f"perfbench: imported slidecodec from {slidecodec.__file__}, not {SRC}")
    return slidecodec


# --- workloads ---------------------------------------------------------------

def slide_inputs(synthetic, seed, small):
    # Four 1024^2 slides, 12.6 MB in all, the size of one 2048^2 slide: the
    # margins wsi_like_image draws per seed swing a slide's cropped area by
    # +-15%, which four slides average down, and calls a quarter as long give
    # each mode several calls in a run on a host whose speed varies from call
    # to call. At patch 256 each slide still has 16 tiles for the pool.
    size = 128 if small else 1024
    return [synthetic.wsi_like_image(np.random.SeedSequence([seed, 0, k]), size, size, 3)
            for k in range(4)]


def corpus_inputs(synthetic, seed, small):
    return synthetic.corpus(4, seed, 64, 64) if small else synthetic.corpus(100, seed)


def scan_inputs(synthetic, seed, small):
    # A mosaic of independent gradient blocks under one noise field: a single
    # seeded gradient clips to flat 0/255 regions in some seeds and not in
    # others, moving the ratio between 1.6 and 3.2; 64 blocks average that out.
    # 1024^2 rather than 1536^2, compressed as four 256-row strips (two
    # 256x512 tiles each, one per thread at nt = 2; each tile still fills and
    # resets the LZW dictionary), keeps calls short enough that each mode gets
    # several calls in a run.
    block, n = (48, 4) if small else (128, 8)
    blocks = [synthetic.smooth_gradient_patch(np.random.SeedSequence([seed, 1, k]), block, block, 3)
              for k in range(n * n)]
    base = np.concatenate([np.concatenate(blocks[r * n:(r + 1) * n], axis=1) for r in range(n)])
    rng = np.random.default_rng(np.random.SeedSequence([seed, 2]))
    noisy = np.clip(np.round(base + rng.normal(0.0, 3.0, base.shape)), 0, 255).astype(np.uint8)
    rows = noisy.shape[0] // 4
    return [noisy[k * rows:(k + 1) * rows].copy() for k in range(4)]


WORKLOADS = {
    "slide-2k": (slide_inputs, {"patch_size": 256}, {"patch_size": 64}),
    "corpus-64": (corpus_inputs, {"patch_size": 64}, {"patch_size": 16}),
    "scan-raw": (scan_inputs,
                 {"patch_size": 512, "enable_projection": False, "enable_bitplane": False},
                 {"patch_size": 96, "enable_projection": False, "enable_bitplane": False}),
}


def input_digest(images):
    h = hashlib.sha256()
    for image in images:
        h.update(repr((image.shape, image.dtype.str)).encode())
        h.update(image.tobytes())
    return h.hexdigest()


def tree_digest(root):
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file() and "__pycache__" not in p.parts):
        h.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=30, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip()


# --- timed passes ------------------------------------------------------------

def plain_call(name, fn, *args, **kwargs):
    return fn(*args, **kwargs)


def run_calls(codec, images, config, nt, seconds=None, call=plain_call, after=None):
    """Make timed, checked codec calls on the inputs.

    First every input is compressed at 1 thread; that container is the
    reference the later calls are checked against. With ``seconds=None`` each
    input then gets its other three calls once. Otherwise the four calls
    cycle over the inputs, one call at a time, while the next call is
    expected to end before ``seconds`` have passed since the start (its
    expected time is that of the same call on the same input last time), and
    at least until every mode has been timed once. ``after(threads,
    seconds)``, when given, runs after each call. Returns ``(done, blobs,
    attempted, failed)``: ``done`` maps each mode to a list of ``(bytes,
    seconds)``, one per call; ``blobs`` holds the reference containers. A
    call fails when it raises, when a decode differs from its input, or when
    a container differs from the input's reference.
    """
    deadline = time.perf_counter() + (seconds or 0.0)
    done = {key: [] for key in MODES}
    last = {}
    blobs = [None] * len(images)
    attempted = failed = 0

    def timed(i, key):
        nonlocal attempted, failed
        name, multi = MODES[key]
        image = images[i]
        arg, kwargs = (image, {"config": config}) if name == "compress" else (blobs[i], {})
        start = time.perf_counter()
        try:
            result = call(name, getattr(codec, name), arg, threads=nt if multi else 1, **kwargs)
        except Exception:  # a failing call is a measured outcome, not a crash
            traceback.print_exc()
            result = None
        last[i, key] = time.perf_counter() - start
        done[key].append((image.nbytes, last[i, key]))
        if after:
            after(nt if multi else 1, last[i, key])
        if blobs[i] is None and key == "compress_MBps":
            blobs[i] = result
        attempted += 1
        failed += not call_ok(name, result, image, blobs[i])

    for i in range(len(images)):
        timed(i, "compress_MBps")
    if seconds is None:
        for i in range(len(images)):
            for key in list(MODES)[1:]:
                timed(i, key)
        return done, blobs, attempted, failed
    for k in itertools.count():
        i = k % len(images)
        for key in MODES:
            if all(done.values()) and time.perf_counter() + last.get((i, key), 0.0) > deadline:
                return done, blobs, attempted, failed
            timed(i, key)


def call_ok(name, result, image, blob):
    """The correctness gate for one call's result."""
    if name == "compress":
        return result is not None and result == blob
    return (isinstance(result, np.ndarray) and result.dtype == image.dtype
            and np.array_equal(result, image))


def until_spent(seconds, body):
    """Repeat ``body`` while another repetition still fits in ``seconds`` (at least once)."""
    deadline = time.perf_counter() + seconds
    while True:
        start = time.perf_counter()
        body()
        now = time.perf_counter()
        if now + (now - start) > deadline:
            return


# --- fresh-interpreter probes ------------------------------------------------

def _probe_cmd(*args):
    return [sys.executable, str(HERE / "probe.py"), *args]


def _probe_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _probe_result(codec, stdout):
    out = json.loads(stdout.strip().splitlines()[-1])
    if Path(out["module"]).resolve().parent != SRC / "slidecodec" or out["backend"] != codec.BACKEND:
        raise RuntimeError(f"probe ran a different codec: {out}")
    return out


def measure_setup(codec):
    times, ok = [], True
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(_probe_cmd("setup"), capture_output=True, text=True,
                              env=_probe_env(), timeout=PROBE_TIMEOUT_S, check=True)
        out = _probe_result(codec, proc.stdout)
        times.append(out["setup_s"])
        ok &= out["ok"]
    return statistics.median(times), ok


def measure_peaks(codec, images, blobs, config_kwargs):
    """Peak memory a compress / decompress call adds, each from a fresh process."""
    images, blobs = images[:PEAK_INPUTS], blobs[:PEAK_INPUTS]
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        comp, decomp = Path(tmp) / "compress", Path(tmp) / "decompress"
        comp.mkdir()
        decomp.mkdir()
        for k, (image, blob) in enumerate(zip(images, blobs)):
            np.save(comp / f"{k}.npy", image)
            (decomp / f"{k}.wsc").write_bytes(blob)
        (comp / "digests.json").write_text(json.dumps([hashlib.sha256(b).hexdigest() for b in blobs]))
        (decomp / "digests.json").write_text(
            json.dumps([hashlib.sha256(im).hexdigest() for im in images]))
        cmds = dict(zip(PEAK_KEYS, (_probe_cmd("compress", str(comp), json.dumps(config_kwargs)),
                                    _probe_cmd("decompress", str(decomp)))))
        procs = {k: subprocess.Popen(c, stdout=subprocess.PIPE, text=True, env=_probe_env())
                 for k, c in cmds.items()}
        results = {}
        try:
            for key, proc in procs.items():
                stdout, _ = proc.communicate(timeout=PROBE_TIMEOUT_S)
                if proc.returncode:
                    raise RuntimeError(f"{key} probe exited with {proc.returncode}")
                results[key] = _probe_result(codec, stdout)
        finally:
            for proc in procs.values():
                if proc.poll() is None:
                    proc.kill()
                proc.wait()
    return ({k: r["peak_MB"] for k, r in results.items()},
            all(r["ok"] for r in results.values()))


# --- the run -----------------------------------------------------------------

def drift_guard(workload, seed, digest, small):
    """Compare the default-seed input digest with the one stored in the manifest."""
    if small:
        return None, True
    manifest = json.loads(MANIFEST.read_text())
    default = manifest["default_seed"]
    if seed != default:
        digest = input_digest(build_inputs(workload, default, small))
    expected = manifest["input_sha256"].get(workload)
    return expected, digest == expected


def build_inputs(workload, seed, small):
    from slidecodec import synthetic

    return WORKLOADS[workload][0](synthetic, seed, small)


def measure(codec, workload, seed, seconds, trace, small=False):
    """Run one workload; returns the result record (metrics, checks, metadata)."""
    _, config_full, config_small = WORKLOADS[workload]
    config_kwargs = config_small if small else config_full
    config = codec.CompressionConfig(**config_kwargs)
    nt = os.cpu_count() or 1
    images = build_inputs(workload, seed, small)
    digest = input_digest(images)
    expected_digest, inputs_ok = drift_guard(workload, seed, digest, small)
    original = sum(im.nbytes for im in images)

    # Warm-up: first-touch allocations and lazy imports stay out of the timing.
    h, w, _ = images[0].shape
    middle = images[0][h // 2 - 32:h // 2 + 32, w // 2 - 32:w // 2 + 32]
    run_calls(codec, [middle], codec.CompressionConfig(**dict(config_kwargs, patch_size=32)), nt)

    attempted = failed = 0
    checks = {"inputs_match_manifest": inputs_ok}
    meta = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace, "small": small,
        "backend": codec.BACKEND, "threads_nt": nt, "cpu_count": os.cpu_count(),
        "python": platform.python_version(), "numpy": np.__version__,
        "commit": git_commit(), "src_sha256": tree_digest(SRC / "slidecodec"),
        "input_sha256": digest, "default_seed_input_sha256_expected": expected_digest,
        "config": config_kwargs, "inputs": len(images), "input_bytes": original,
    }
    record = {"meta": meta}

    if not trace:
        setup_s, checks["setup_round_trip"] = measure_setup(codec)
        gauge = HostGauge()
        done, blobs, attempted, failed = run_calls(codec, images, config, nt, seconds,
                                                   after=gauge)
        if all(blobs):
            peaks, checks["peak_probe_outputs"] = measure_peaks(codec, images, blobs,
                                                                config_kwargs)
        else:  # a compress call failed: there is no container to probe
            peaks, checks["peak_probe_outputs"] = dict.fromkeys(PEAK_KEYS, 0.0), False
        # The median call's rate, scaled to the quiet host (see gauge.py).
        raw = {key: statistics.median(b / 1e6 / t for b, t in calls)
               for key, calls in done.items()}
        slowdown = {threads: gauge.slowdown(threads) for threads in gauge.units}
        metrics = {key: rate * slowdown[nt if MODES[key][1] else 1] for key, rate in raw.items()}
        record["raw_MBps"] = raw
        record["slowdown"] = slowdown
        metrics["ratio"] = original / sum(map(len, blobs)) if all(blobs) else 0.0
        metrics.update(peaks)
        metrics["setup_s"] = setup_s
        record["calls"] = done
        units = E2E_UNITS
    else:
        tracer = Tracer(codec.pipeline)
        plain_walls, traced_walls, layer_passes = [], [], []

        def one_pass(call=plain_call):
            nonlocal attempted, failed
            done, _, tried, bad = run_calls(codec, images, config, nt, call=call)
            attempted += tried
            failed += bad
            return sum(t for _, t in done["compress_MBps"] + done["decompress_MBps"])

        def pair():
            plain_walls.append(one_pass())
            first = len(tracer.calls)
            with tracer:
                traced_walls.append(one_pass(tracer.call))
            layer_passes.append(summarize(tracer, range(first, len(tracer.calls))))

        until_spent(seconds, pair)
        metrics = {k: statistics.median(p[k] for p in layer_passes) for k in layer_passes[0]}
        metrics["trace.overhead_frac"] = (statistics.median(traced_walls)
                                          / statistics.median(plain_walls) - 1)
        checks["layers_account_for_wall"] = all(
            abs(p["trace.unaccounted_frac"]) < 1e-9 for p in layer_passes)
        meta["passes"] = len(layer_passes)
        record["spans"] = {"fields": SPAN_FIELDS, "spans": tracer.spans,
                           "call_fields": ("call", "name", "threads", "start_ns", "end_ns",
                                           "error"),
                           "calls": tracer.calls}
        units = {name: layer_unit(name) for name in metrics}

    checks["calls_correct"] = failed == 0
    record["checks"] = checks
    record["fail_frac"] = failed / attempted
    record["result"] = {
        "correct": all(checks.values()),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    return record


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true",
                        help="reduced input sizes, for the benchmark's own test")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    codec = load_codec()
    record = measure(codec, args.workload, args.seed, args.seconds, args.trace, args.small)
    result = record["result"]

    OUT.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-small' if args.small else ''}"
    (OUT / f"{name}.json").write_text(json.dumps(record))
    print("meta " + json.dumps(record["meta"]))
    for key, ok in record["checks"].items():
        print(f"check {key}: {'ok' if ok else 'FAILED'}")
    for key, m in result["metrics"].items():
        print(f"{args.workload} {key} = {m['value']:.6g} {m['unit']}")
    for key, rate in record.get("raw_MBps", {}).items():
        print(f"{args.workload} {key} unscaled = {rate:.6g} MB/s")
    for threads, factor in record.get("slowdown", {}).items():
        print(f"{args.workload} gauge slowdown at {threads} thread(s) = {factor:.6g}")
    print(f"{args.workload} fail_frac = {record['fail_frac']:.6g} frac "
          f"({result['failed']} of {result['attempted']} calls)")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
