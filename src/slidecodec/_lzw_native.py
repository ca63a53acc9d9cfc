"""Native LZW kernels: ``_lzw.c`` built with the system C compiler, called via ctypes.

The same six functions as ``slidecodec._lzw_py``, with the same signatures,
and byte-identical to it. ctypes releases the interpreter lock for the length
of each call, so patch workers overlap. No kernel allocates its output:
each writes into a numpy array allocated here, which ``decode`` and
``to_bitplanes`` return as a memoryview and ``encode`` copies its packed
bytes out of.

Importing this module loads the compiled library from a per-user cache
(``$XDG_CACHE_HOME/slidecodec``, by default ``~/.cache/slidecodec``) under a
name keyed by a hash of the C source, the compiler command and the machine.
When the cache has no such library, the import compiles it once with ``cc``
(or ``$CC``), writing to a temporary name that is then renamed into place,
so concurrent interpreters never load a half-written file; it then deletes
all but the ``KEEP_LIBRARIES`` most recently built libraries, so checkouts
with different sources or compilers can share the cache without rebuilding
on every switch. Any failure to build or load raises ImportError, and
``slidecodec.lzw`` falls back to the pure-Python kernels.
"""

import ctypes
import os
import platform
import tempfile
import zlib
from pathlib import Path

import numpy as np

from .errors import CorruptStreamError, TruncatedStreamError

SOURCE = Path(__file__).with_name("_lzw.c")
# Every function starts on a 64-byte boundary, so a kernel's speed does not
# move with the length of the code above it in the library. No -m or -march
# flag: the cache key names no CPU, so a library in a shared cache must run
# on any host of the machine type; _lzw.c picks its SIMD paths at run time.
CFLAGS = ["-O2", "-shared", "-fPIC", "-falign-functions=64"]
KEEP_LIBRARIES = 4  # cached builds kept, newest by modification time

# Status codes returned by the LZW and projection kernels (see _lzw.c).
_OK, _TRUNCATED, _CORRUPT, _NOMEM, _LENGTH = range(5)


class _Result(ctypes.Structure):
    _fields_ = [
        ("len", ctypes.c_size_t),
        ("pos", ctypes.c_size_t),
        ("code", ctypes.c_int32),
        ("next_code", ctypes.c_int32),
    ]


def _cache_dir() -> Path:
    root = os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache"
    return Path(root) / "slidecodec"


def _build(command: list, target: Path) -> None:
    import subprocess  # needed only on a cache miss, so imports stay cheap

    target.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=target.parent, prefix=target.stem, suffix=".tmp")
    os.close(fd)
    try:
        subprocess.run([*command, "-o", tmp, str(SOURCE)],
                       check=True, capture_output=True, text=True, errors="replace",
                       timeout=120)
        os.replace(tmp, target)
    except subprocess.CalledProcessError as exc:
        raise OSError(f"{' '.join(command)} failed: {exc.stderr.strip()}") from exc
    except subprocess.TimeoutExpired as exc:
        raise OSError(str(exc)) from exc
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def _remove_stale(current: Path) -> None:
    """Delete all but the newest ``KEEP_LIBRARIES`` libraries; best effort."""
    built = []
    for lib in current.parent.glob("_lzw-*.so"):
        try:
            built.append((lib.stat().st_mtime, lib))
        except OSError:  # removed meanwhile by another interpreter
            pass
    built.sort(reverse=True)
    for _, old in built[KEEP_LIBRARIES:]:
        if old != current:
            try:
                old.unlink()
            except OSError:
                pass


def _load() -> ctypes.CDLL:
    command = (os.environ.get("CC") or "cc").split() + CFLAGS
    # zlib.crc32, not hashlib: zlib is already loaded, while hashlib would
    # add ~5 ms to every import. The key only has to differ between builds.
    key = zlib.crc32(b"\0".join([SOURCE.read_bytes(), " ".join(command).encode(),
                                 platform.machine().encode(), platform.system().encode()]))
    path = _cache_dir() / f"_lzw-{key:08x}.so"
    if not path.exists():
        _build(command, path)
        _remove_stale(path)
    lib = ctypes.CDLL(str(path))

    result_p = ctypes.POINTER(_Result)
    lib.lzw_encode.argtypes = [ctypes.c_void_p, ctypes.c_size_t, ctypes.c_int,
                               ctypes.c_void_p, result_p]
    lib.lzw_encode.restype = ctypes.c_int
    lib.lzw_decode.argtypes = [ctypes.c_void_p, ctypes.c_size_t, ctypes.c_int,
                               ctypes.c_size_t, ctypes.c_void_p, result_p]
    lib.lzw_decode.restype = ctypes.c_int
    size, stride, ptr = ctypes.c_size_t, ctypes.c_ssize_t, ctypes.c_void_p
    shape = [size, size, size]
    for fn, argtypes, restype in (
        (lib.px_project, [ptr, *shape, stride, ptr], ctypes.c_int),
        (lib.px_unproject, [ptr, *shape, ptr, stride], ctypes.c_int),
        (lib.px_to_bitplanes, [ptr, *shape, ptr], None),
        (lib.px_from_bitplanes, [ptr, *shape, ptr], None),
    ):
        fn.argtypes = argtypes
        fn.restype = restype
    return lib


try:
    _lib = _load()
except (OSError, RuntimeError) as exc:  # RuntimeError: no home directory
    raise ImportError(f"native LZW kernel unavailable: {exc}") from exc


def _check(status: int, res: _Result = None, size: int = 0) -> None:
    """Raise the error a kernel's status stands for; ``res`` and ``size``
    describe a decode call."""
    if status == _OK:
        return
    if status == _TRUNCATED:
        raise TruncatedStreamError(f"stream ended at byte {res.pos} before the END code")
    if status == _CORRUPT:
        raise CorruptStreamError(
            f"code {res.code} is beyond the dictionary (next would be {res.next_code})"
        )
    if status == _LENGTH and res.len > size:
        raise CorruptStreamError(
            f"code read by byte {res.pos} decodes past the expected {size} bytes"
        )
    if status == _LENGTH:
        raise CorruptStreamError(
            f"END read by byte {res.pos} after {res.len} of the expected {size} bytes"
        )
    raise MemoryError()


def _address(data):
    """What ctypes passes as the address of ``data``: bytes, a flat byte
    memoryview, or a memoryview of a C-contiguous array; the caller keeps
    ``data`` alive for the call."""
    if isinstance(data, bytes):
        return data
    if isinstance(data, memoryview) and not data.readonly and data.nbytes:
        # about a third of numpy's cost; from_buffer takes only writable,
        # non-empty buffers, such as the arrays this module allocates and
        # most tiles; read-only and empty ones take numpy's path
        return ctypes.addressof(ctypes.c_char.from_buffer(data))
    return np.frombuffer(data, dtype=np.uint8).ctypes.data


def _encode_bound(n: int, max_width: int) -> int:
    """Bytes the encoder may write for n input bytes at ``max_width``.

    Each data code covers at least one input byte, so there are at most n;
    a CLEAR follows at most every 2**max_width - 257 data codes (the
    dictionary's 2**max_width - 258 entries, then the code that finds it
    full); one END ends the stream. Each code is at most max_width bits.
    The writer stores 8 bytes at its write position for every code, and
    that position never passes the packed length, so 8 bytes more hold the
    last store. All-literal streams at width 9 end exactly those 8 bytes
    short of the bound; at wider widths, whose codes start at 9 bits, the
    bound is looser.
    """
    codes = n + n // ((1 << max_width) - 257) + 1
    return (max_width * codes + 7) // 8 + 8


def encode(data, max_width: int) -> bytes:
    out = memoryview(np.empty(_encode_bound(len(data), max_width), dtype=np.uint8))
    res = _Result()
    _check(_lib.lzw_encode(_address(data), len(data), max_width,
                           _address(out), ctypes.byref(res)))
    return out[:res.len].tobytes()


def decode(data, max_width: int, size: int) -> memoryview:
    out = memoryview(np.empty(size, dtype=np.uint8))
    res = _Result()
    _check(_lib.lzw_decode(_address(data), len(data), max_width, size,
                           _address(out), ctypes.byref(res)), res, size)
    return out


# Pixel stages. The callers in transform.py and bitplane.py validate dtype,
# shape, channel count, stream length and that ``out`` is writeable before
# any pointer is passed. The kernels read and write (h, w, c) arrays whose
# rows are packed (each row's w*c bytes in order; tiles of an image are) at
# any row stride; any other layout goes through one ``_copy``.


def _packed(a: np.ndarray) -> bool:
    """Whether each row of the (h, w, c) array ``a`` is its w*c bytes in order."""
    return a.strides[2] == 1 and a.strides[1] == a.shape[2]


def _copy(a: np.ndarray) -> np.ndarray:
    """A new contiguous array with ``a``'s bytes, for a layout the kernels do
    not take; the codec's own tiles never need one. One channel plane at a
    time: numpy copies a strided 2-D plane several times faster than it
    copies a whole (h, w, c) view whose last axis is not packed."""
    out = np.empty(a.shape, dtype=np.uint8)
    for k in range(a.shape[2]):
        out[..., k] = a[..., k]
    return out


def _contiguous(a: np.ndarray) -> np.ndarray:
    return a if a.flags.c_contiguous else _copy(a)


def project(x: np.ndarray) -> np.ndarray:
    """``transform.project`` of an (h, w, c) uint8 array, c 1 or 3, any strides."""
    if not _packed(x):
        x = _copy(x)
    z = np.empty(x.shape, dtype=np.uint8)
    _check(_lib.px_project(x.ctypes.data, *x.shape, x.strides[0], _address(memoryview(z))))
    return z


def unproject(r: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``transform.unproject`` of ``r`` into ``out``, same shape, no shared memory."""
    r = _contiguous(r)
    h, w, c = r.shape
    # rows that overlap each other are not packed for writing
    y = (out if _packed(out) and (abs(out.strides[0]) >= w * c or h == 1)
         else np.empty(out.shape, np.uint8))
    _check(_lib.px_unproject(_address(memoryview(r)), h, w, c, y.ctypes.data, y.strides[0]))
    if y is not out:
        out[...] = y
    return out


def to_bitplanes(r: np.ndarray) -> memoryview:
    """``bitplane.to_bitplanes`` of an (h, w, c) uint8 array, any strides."""
    r = _contiguous(r)
    h, w, c = r.shape
    planes = memoryview(np.empty(c * 8 * ((h * w + 7) // 8), dtype=np.uint8))
    _lib.px_to_bitplanes(_address(memoryview(r)), h, w, c, _address(planes))
    return planes


def from_bitplanes(stream, height: int, width: int, channels: int) -> np.ndarray:
    """``bitplane.from_bitplanes`` of a stream of the exact length for the shape,
    bytes or a flat byte memoryview, read in place."""
    out = np.empty((height, width, channels), dtype=np.uint8)
    _lib.px_from_bitplanes(_address(stream), height, width, channels, _address(memoryview(out)))
    return out
