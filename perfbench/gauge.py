"""Host-speed gauge: a fixed pure-Python loop timed next to the codec calls.

The benchmark's host is a small VM on a shared machine. Many times a second
it switches between a quiet state and a loaded one in which dictionary-heavy
Python such as the pure-Python LZW runs up to 1.7 times slower, and the share
of time it spends loaded drifts over minutes. Threads pay a second, separate
price: when the GIL passes between threads on two vCPUs, waking the idle vCPU
takes longer the busier the machine is. A 30-second run cannot average these
drifts out, so the benchmark times this gauge after every codec call, in the
same thread count as the call, and scales the call's rate by how much slower
than its reference time the gauge ran over the run.

The loop shares no code with the codec, so a change to the codec leaves the
gauge alone; only the host moves it.
"""

import time
from concurrent.futures import ThreadPoolExecutor

SHARE = 0.25  # gauge seconds run per second of codec calls
REFERENCE_S = 0.0050  # one loop on this benchmark's quiet 2-vCPU Xeon VM


def _text(n=30_000):
    """Fixed bytes for :func:`loop`: a 48-letter text from a 32-bit LCG."""
    x, out = 12345, bytearray(n)
    for k in range(n):
        x = (x * 1103515245 + 12345) & 0xFFFFFFFF
        out[k] = (x >> 16) % 48
    return bytes(out)


TEXT = _text()


def loop():
    """One pass of a dictionary coder over ``TEXT``: the kind of work LZW does."""
    table, prev, code, total = {}, -1, 258, 0
    for b in TEXT:
        if prev < 0:
            prev = b
            continue
        key = (prev << 8) | b
        hit = table.get(key)
        if hit is not None:
            prev = hit
            continue
        total += prev
        table[key] = code
        code += 1
        prev = b
    return total


def _unit(threads):
    """``threads`` loops, one per thread of a fresh pool (as the codec makes one per call)."""
    if threads == 1:
        loop()
        return
    with ThreadPoolExecutor(max_workers=threads) as pool:
        for future in [pool.submit(loop) for _ in range(threads)]:
            future.result()


class HostGauge:
    """Runs the gauge after each codec call, for ``SHARE`` of the call's time."""

    def __init__(self):
        self.spent = {}  # threads -> gauge seconds
        self.units = {}  # threads -> gauge units run

    def __call__(self, threads, call_seconds):
        spent = units = 0
        while spent < SHARE * call_seconds or not units:
            start = time.perf_counter()
            _unit(threads)
            spent += time.perf_counter() - start
            units += 1
        self.spent[threads] = self.spent.get(threads, 0.0) + spent
        self.units[threads] = self.units.get(threads, 0) + units

    def slowdown(self, threads):
        """Mean time of a ``threads``-thread unit over ``threads`` quiet loops."""
        return self.spent[threads] / self.units[threads] / (threads * REFERENCE_S)
