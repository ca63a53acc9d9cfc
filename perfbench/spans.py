"""Span recorder for the codec's layers, installed from outside the package.

``slidecodec.pipeline`` looks its layer functions up as module globals at
call time, so replacing those names with timing wrappers puts a span around
every layer call while the pipeline's own control flow and thread pool drive
the work. Nothing under ``src/`` is changed; :class:`Tracer` restores the
original functions when its ``with`` block ends.

A span is ``(name, start_ns, end_ns, thread_id, call_id, bytes_in,
bytes_out, error)``. ``call_id`` is the id of the enclosing
``pipeline.compress`` / ``pipeline.decompress`` call, which the benchmark
records itself (the benchmark makes one codec call at a time, so one
attribute serves every pool thread). Spans stay in memory until the run
ends.
"""

import threading
import time

# The names slidecodec.pipeline resolves at call time, in pipeline order.
WRAPPED = (
    "crop_empty",
    "project",
    "to_bitplanes",
    "lzw_encode",
    "write_container",
    "read_container",
    "lzw_decode",
    "from_bitplanes",
    "unproject",
    "uncrop",
)

SPAN_FIELDS = ("name", "start_ns", "end_ns", "thread", "call", "bytes_in", "bytes_out", "error")


def _size(obj):
    """Bytes carried by a layer argument or result (0 when it has no size)."""
    if hasattr(obj, "cropped"):  # CropResult
        obj = obj.cropped
    if hasattr(obj, "nbytes"):
        return int(obj.nbytes)
    if isinstance(obj, (bytes, bytearray, memoryview)):
        return len(obj)
    return 0


def layer_names(pipeline):
    """``module.function`` labels of the wrapped layers, e.g. ``lzw.lzw_encode``."""
    return {
        name: f"{getattr(pipeline, name).__module__.rsplit('.', 1)[-1]}.{name}"
        for name in WRAPPED
    }


class Tracer:
    """Wraps the pipeline's layer functions and records a span per call."""

    def __init__(self, pipeline):
        self.pipeline = pipeline
        self.labels = layer_names(pipeline)
        self.spans = []
        self.calls = []  # (call_id, name, threads, start_ns, end_ns, error)
        self.call_id = None
        self._originals = {}

    def __enter__(self):
        for name in WRAPPED:
            fn = getattr(self.pipeline, name)
            self._originals[name] = fn
            setattr(self.pipeline, name, self._wrap(self.labels[name], fn))
        return self

    def __exit__(self, *exc):
        for name, fn in self._originals.items():
            setattr(self.pipeline, name, fn)
        self._originals.clear()

    def _wrap(self, label, fn):
        spans = self.spans

        def traced(*args, **kwargs):
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                spans.append((label, start, time.perf_counter_ns(), threading.get_ident(),
                              self.call_id, _size(args[0]) if args else 0, 0, True))
                raise
            spans.append((label, start, time.perf_counter_ns(), threading.get_ident(),
                          self.call_id, _size(args[0]) if args else 0, _size(result), False))
            return result

        return traced

    def call(self, name, fn, *args, **kwargs):
        """Run one codec call as the enclosing span ``pipeline.<name>``."""
        threads = kwargs.get("threads", 1)
        self.call_id = len(self.calls)
        start = time.perf_counter_ns()
        error = True
        try:
            result = fn(*args, **kwargs)
            error = False
            return result
        finally:
            self.calls.append((self.call_id, f"pipeline.{name}", threads, start,
                               time.perf_counter_ns(), error))
            self.call_id = None


def _union_ns(intervals):
    """Total length covered by possibly overlapping (start, end) intervals."""
    total = 0
    reach = None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def _ns(spans):
    return sum(s[2] - s[1] for s in spans)


def _rate(nbytes, ns):
    return nbytes / 1e6 / (ns / 1e9) if ns else 0.0


def summarize(tracer, call_ids):
    """Per-layer figures over the given calls (one traced pass of a workload).

    Times, bytes and counts come from the 1-thread calls; ``nt_busy_frac``
    from the multi-thread ones. ``trace.unaccounted_frac`` is, over the
    1-thread calls, (layer time + self time - wall time) / wall time: 0 unless
    layer spans overlap or fall outside their call.
    """
    call_ids = set(call_ids)
    calls = [c for c in tracer.calls if c[0] in call_ids]
    single_ids = {c[0] for c in calls if c[2] == 1}
    children, by_label, errors = {}, {}, {}
    for s in tracer.spans:
        if s[4] in call_ids:
            children.setdefault(s[4], []).append(s)
            errors.setdefault(s[0], []).append(s[7])
            if s[4] in single_ids:
                by_label.setdefault(s[0], []).append(s)

    m = {}
    for label in tracer.labels.values():
        m[f"{label}.ms"] = _ns(by_label.get(label, ())) / 1e6
        flags = errors.get(label, ())
        m[f"{label}.errors"] = sum(flags) / len(flags) if flags else 0.0
    self_total = 0
    for name in ("compress", "decompress"):
        mine = [c for c in calls if c[1] == f"pipeline.{name}"]
        m[f"pipeline.{name}.errors"] = sum(c[5] for c in mine) / len(mine) if mine else 0.0
        self_ns = sum((c[4] - c[3]) - _union_ns((s[1], s[2]) for s in children.get(c[0], ()))
                      for c in mine if c[0] in single_ids)
        m[f"pipeline.{name}.self_ms"] = self_ns / 1e6
        self_total += self_ns

    enc = by_label.get("lzw.lzw_encode", [])
    dec = by_label.get("lzw.lzw_decode", [])
    crop = by_label.get("pipeline.crop_empty", [])
    enc_in, enc_out = sum(s[5] for s in enc), sum(s[6] for s in enc)
    crop_in = sum(s[5] for s in crop)
    m["lzw.lzw_encode.MBps"] = _rate(enc_in, _ns(enc))
    m["lzw.lzw_decode.MBps"] = _rate(sum(s[6] for s in dec), _ns(dec))
    m["lzw.ratio"] = enc_in / enc_out if enc_out else 0.0
    m["lzw.lzw_encode.calls"] = m["pipeline.tiles"] = len(enc)
    m["pipeline.crop_kept_frac"] = sum(s[6] for s in crop) / crop_in if crop_in else 0.0
    m["container.bytes"] = sum(s[6] for s in by_label.get("container.write_container", ()))

    multi = [c for c in calls if c[2] > 1]
    capacity = sum(c[2] * (c[4] - c[3]) for c in multi)
    busy = sum(_ns(children.get(c[0], ())) for c in multi)
    m["pipeline.nt_busy_frac"] = busy / capacity if capacity else 0.0

    wall_ns = sum(c[4] - c[3] for c in calls if c[0] in single_ids)
    layer_ns = sum(_ns(spans) for spans in by_label.values())
    m["trace.unaccounted_frac"] = (layer_ns + self_total - wall_ns) / wall_ns if wall_ns else 0.0
    return m
