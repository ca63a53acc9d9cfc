"""Fresh-interpreter probes for the benchmark: set-up time and peak memory.

    python perfbench/probe.py setup
    python perfbench/probe.py compress DIR CONFIG_JSON
    python perfbench/probe.py decompress DIR

``setup`` times ``import slidecodec`` through the first checked round trip of
a tiny image. ``compress`` / ``decompress`` load their pre-generated inputs
from DIR (``<k>.npy`` images or ``<k>.wsc`` containers, plus
``digests.json``, the SHA-256 of each expected output), make one codec call
per input in a forked child and report the most a call raised the peak
resident set size (``ru_maxrss``) above the resident size it started with. Each probe prints one
JSON object; ``slidecodec`` must be importable (``PYTHONPATH=src``).
"""

import json
import os
import resource
import sys
import time
from pathlib import Path


def _peak_rss_bytes():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024  # KiB on Linux


def _added_by(run, item, digest):
    """(bytes the call raised peak RSS by, output matches digest), from a forked child.

    A forked child's peak RSS starts at its resident size, so the parent's
    import-time high-water mark does not hide a smaller call's peak.
    """
    import hashlib

    read_end, write_end = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.close(read_end)
            base = _peak_rss_bytes()
            try:
                result = run(item)
            except Exception:  # a failing call is reported, not raised
                result = b""
            added = _peak_rss_bytes() - base
            ok = hashlib.sha256(result).hexdigest() == digest
            os.write(write_end, json.dumps([added, ok]).encode())
            status = 0
        finally:
            os._exit(status)
    os.close(write_end)
    with os.fdopen(read_end, "rb") as f:
        reply = f.read()
    _, status = os.waitpid(pid, 0)
    if status:
        raise RuntimeError(f"probe call exited with status {status}")
    return json.loads(reply)


def setup():
    start = time.perf_counter()
    import slidecodec
    import numpy as np

    image = (np.arange(8 * 8 * 3, dtype=np.uint16) * 37 % 251).astype(np.uint8).reshape(8, 8, 3)
    ok = bool(np.array_equal(slidecodec.decompress(slidecodec.compress(image)), image))
    elapsed = time.perf_counter() - start
    return {"setup_s": elapsed, "ok": ok, "backend": slidecodec.BACKEND,
            "module": slidecodec.__file__}


def peak(direction, folder, config_json=None):
    import numpy as np
    import slidecodec

    folder = Path(folder)
    digests = json.loads((folder / "digests.json").read_text())
    if direction == "compress":
        config = slidecodec.CompressionConfig(**json.loads(config_json))
        items = [np.load(folder / f"{k}.npy") for k in range(len(digests))]
        run = lambda item: slidecodec.compress(item, config)  # noqa: E731
    else:
        items = [(folder / f"{k}.wsc").read_bytes() for k in range(len(digests))]
        run = slidecodec.decompress
    results = [_added_by(run, item, digest) for item, digest in zip(items, digests)]
    added = max(r[0] for r in results)
    ok = all(r[1] for r in results)
    return {"peak_MB": added / 1e6, "ok": ok, "backend": slidecodec.BACKEND,
            "module": slidecodec.__file__}


if __name__ == "__main__":
    mode = sys.argv[1]
    out = setup() if mode == "setup" else peak(mode, *sys.argv[2:])
    print(json.dumps(out))
