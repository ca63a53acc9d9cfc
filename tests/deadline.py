"""Wall-clock deadline for tests that must finish quickly on hostile input.

The SIGALRM handler runs only between bytecodes, so the deadline cannot
interrupt a C call: a native kernel that loops inside one ctypes call runs
on past it (``tests/test_lzw.py``'s ``hang_guard`` bounds those with
``faulthandler``). A call that returns late still raises once it returns.
"""

import signal
from contextlib import contextmanager


@contextmanager
def deadline(seconds):
    """Raise TimeoutError in the block if it runs longer than seconds."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
