import ctypes
import faulthandler
import os
import pickle
import shutil
import subprocess
import sys
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slidecodec import _lzw_py
from slidecodec import lzw as lzw_module
from slidecodec.errors import CorruptStreamError, TruncatedStreamError
from slidecodec.lzw import (
    BACKEND,
    CLEAR,
    END,
    FIRST_CODE,
    CodeTrace,
    lzw_decode,
    lzw_encode,
    lzw_encode_trace,
    _read_codes,
)

from deadline import deadline
from lzw_cases import (
    assert_matches,
    bound_cases,
    clear_offsets,
    damaged_cases,
    edge_cases,
    end_width_cases,
    growth_cases,
    hash_entries,
    outcome,
    pure_results,
    reset_cases,
    run_cases,
    runs,
    short_cases,
    tail_cases,
    tail_inputs,
    writer_cases,
)
from oracles import oracle_lzw_codes, oracle_pack

try:  # imported directly, so it is built even when SLIDECODEC_PURE is set
    from slidecodec import _lzw_native
    _native_error = None
except ImportError as exc:
    _lzw_native, _native_error = None, exc

_HAVE_CC = shutil.which((os.environ.get("CC") or "cc").split()[0]) is not None

# Seconds after which an in-process identity test ends the whole run with
# every thread's traceback: over 10 times the slowest one's time (1.5 s on a
# 2-vCPU host), where a kernel that loops would otherwise hang the run.
HANG_SECONDS = 60


@pytest.fixture
def hang_guard(capsys):
    """Exit the test process, printing every thread's traceback, if the test
    runs longer than ``HANG_SECONDS``.

    ``deadline`` cannot do this: its signal handler runs only between
    bytecodes, never inside a ctypes call. faulthandler's watchdog is a
    thread of its own that writes the tracebacks to an unbuffered descriptor
    and exits; it writes to the terminal's stderr, as the captured one is
    lost on exit.
    """
    with capsys.disabled():
        stderr = os.dup(2)
    faulthandler.dump_traceback_later(HANG_SECONDS, exit=True, file=stderr)
    yield
    faulthandler.cancel_dump_traceback_later()
    os.close(stderr)


in_process_identity = pytest.mark.usefixtures("hang_guard")


def test_golden_ababab():
    trace = lzw_encode_trace(b"ABABAB")
    assert list(trace.codes) == [65, 66, 258, 258, 257]
    assert lzw_decode(trace.packed, size=6) == b"ABABAB"


def test_golden_ababab_packed_bytes():
    assert lzw_encode(b"ABABAB") == oracle_pack([65, 66, 258, 258, 257])


def test_empty_input():
    trace = lzw_encode_trace(b"")
    assert list(trace.codes) == [END]
    assert lzw_decode(trace.packed, size=0) == b""


def test_self_referential_code():
    # "AAA" emits code 258 before the decoder has stored it
    trace = lzw_encode_trace(b"AAA")
    assert list(trace.codes) == [65, 258, 257]
    assert lzw_decode(trace.packed, size=3) == b"AAA"


def test_long_zero_run_code_count():
    trace = lzw_encode_trace(b"\x00" * 1000)
    assert len(trace.codes) == 46
    assert lzw_decode(trace.packed, size=1000) == b"\x00" * 1000


def test_repetitive_input_compresses():
    data = b"\x00" * 100000
    packed = lzw_encode(data)
    assert len(packed) == 529
    assert len(packed) < 0.05 * len(data)
    assert lzw_decode(packed, size=len(data)) == data


def test_exhaustive_binary_strings_against_oracle():
    strings = [b""]
    for _ in range(10):
        strings = [s + bytes([b]) for s in strings for b in (0, 1)]
        for s in strings:
            trace = lzw_encode_trace(s)
            assert list(trace.codes) == oracle_lzw_codes(s)
            assert lzw_decode(trace.packed, size=len(s)) == s


def test_random_streams_against_oracle():
    rng = np.random.default_rng(31)
    for _ in range(150):
        n = int(rng.integers(0, 2000))
        alphabet = int(rng.choice([2, 4, 32, 256]))
        data = bytes(rng.integers(0, alphabet, n, dtype=np.uint8))
        width = int(rng.choice([9, 11, 16]))
        trace = lzw_encode_trace(data, width)
        assert list(trace.codes) == oracle_lzw_codes(data, width)
        assert oracle_pack(list(trace.codes), width) == trace.packed
        assert lzw_encode(data, width) == trace.packed
        assert lzw_decode(trace.packed, width, size=len(data)) == data


def test_dictionary_reset_on_full():
    rng = np.random.default_rng(32)
    data = bytes(rng.integers(0, 256, 4096, dtype=np.uint8))
    trace = lzw_encode_trace(data, 9)
    assert CLEAR in trace.codes
    assert trace.peak_next_code == 512
    assert lzw_decode(trace.packed, 9, size=len(data)) == data


def test_dictionary_bound_holds(monkeypatch):
    rng = np.random.default_rng(33)
    for width in (9, 10, 12):
        data = bytes(rng.integers(0, 256, 3000, dtype=np.uint8))
        trace = lzw_encode_trace(data, width)
        assert trace.peak_next_code <= 1 << width
    # exact peaks on both kernels: FIRST_CODE, one entry per data code after
    # the first, and the entry mirrored after the last one
    for kernel in filter(None, (_lzw_py, _lzw_native)):
        monkeypatch.setattr(lzw_module, "_kernel", kernel)
        peaks = [lzw_encode_trace(data).peak_next_code
                 for data in (b"", b"A", b"AB", b"ABABAB", bytes(1000))]
        assert peaks == [258, 258, 260, 262, 303]


def test_width_schedule_fields():
    trace = lzw_encode_trace(b"ABABAB")
    assert isinstance(trace, CodeTrace)
    assert trace.initial_code_width == 9
    assert trace.max_code_width >= 9


def test_determinism():
    rng = np.random.default_rng(34)
    data = bytes(rng.integers(0, 16, 5000, dtype=np.uint8))
    assert lzw_encode(data) == lzw_encode(data)


@pytest.mark.parametrize("width", [8, 21, 0, -1])
def test_width_range_enforced(width):
    with pytest.raises(ValueError):
        lzw_encode(b"x", width)
    with pytest.raises(ValueError):
        lzw_decode(b"\x00\x00", width, size=0)


def test_truncated_stream_detected():
    packed = lzw_encode(b"ABCDEF")
    for cut in (1, 2, len(packed) - 1):
        with pytest.raises(TruncatedStreamError):
            lzw_decode(packed[:cut], size=6)


def test_code_beyond_dictionary_detected():
    # 300 is far past next_code 258 on the first emission; the 3-byte
    # stream can reach size 1, so the code check is what rejects it
    with pytest.raises(CorruptStreamError, match="beyond the dictionary"):
        lzw_decode(oracle_pack([300, END]), size=1)


def test_self_reference_without_prefix_detected():
    with pytest.raises(CorruptStreamError, match="beyond the dictionary"):
        lzw_decode(oracle_pack([258, END]), size=1)


def test_round_trip_large_random():
    rng = np.random.default_rng(35)
    data = bytes(rng.integers(0, 256, 1 << 20, dtype=np.uint8))
    assert lzw_decode(lzw_encode(data), size=len(data)) == data


def test_contiguous_buffers_reach_the_kernel_uncopied(monkeypatch):
    seen = []

    class Recorder:
        @staticmethod
        def encode(data, max_width):
            seen.append(data)
            return _lzw_py.encode(data, max_width)

        @staticmethod
        def decode(data, max_width, size):
            seen.append(data)
            return _lzw_py.decode(data, max_width, size)

    monkeypatch.setattr(lzw_module, "_kernel", Recorder)
    pixels = np.random.default_rng(38).integers(0, 4, (30, 40), dtype=np.uint8)
    flat = pixels.tobytes()
    packed = lzw_encode(flat)
    assert seen.pop() is flat
    blob = b"head" + packed + b"tail"
    payload = memoryview(blob)[4:-4]  # as read_container hands out payloads
    assert lzw_decode(payload, size=len(flat)) == flat
    assert seen.pop().obj is blob
    assert lzw_encode(pixels) == packed
    assert np.shares_memory(np.asarray(seen.pop()), pixels)
    # a strided view is gathered into one copy, in C order
    assert lzw_encode(pixels[:, ::2]) == lzw_encode(pixels[:, ::2].tobytes())
    assert type(seen[-2]) is bytes and seen[-2] == seen[-1]
    seen.clear()
    with pytest.raises(TruncatedStreamError):
        lzw_decode(memoryview(blob)[4:10], size=len(flat))
    assert not seen  # the size check runs before the kernel is called


@pytest.fixture(params=["python", "native"])
def kernel(request):
    if request.param == "python":
        return _lzw_py
    if not _HAVE_CC:
        pytest.skip("no C compiler to build the native LZW kernel")
    assert _lzw_native is not None, f"a C compiler exists but {_native_error}"
    return _lzw_native


def test_runaway_stream_stops_at_size(kernel):
    # codes 0, 258..65535, END at width 16: each data code repeats the
    # previous phrase plus its first byte, so the stream decodes to 2.13 GB
    probe = oracle_pack([0, *range(258, 1 << 16), END], 16)
    assert len(probe) == 122_657
    with deadline(1.0), pytest.raises(CorruptStreamError) as err:
        kernel.decode(probe, 16, 196_608)
    # phrases 1..626 fill 196,251 bytes; the 627th code (255 codes at 9 bits,
    # 372 at 10, 6,015 bits) would pass 196,608
    assert str(err.value) == "code read by byte 752 decodes past the expected 196608 bytes"


def test_size_above_decoded_length(kernel):
    packed = lzw_encode(b"ABABAB")  # 6 bytes hold at most 5 codes, so up to 10 bytes
    assert kernel.decode(packed, 16, 6) == b"ABABAB"
    with pytest.raises(CorruptStreamError) as err:
        kernel.decode(packed, 16, 7)
    assert str(err.value) == "END read by byte 6 after 6 of the expected 7 bytes"
    with pytest.raises(CorruptStreamError) as err:
        kernel.decode(packed, 16, 5)
    assert str(err.value) == "code read by byte 5 decodes past the expected 5 bytes"


def test_unreachable_size_rejected_before_decoding():
    packed = lzw_encode(b"AB")  # 4 bytes hold at most 3 codes: 2 data codes, END
    assert lzw_decode(packed, size=2) == b"AB"
    with pytest.raises(TruncatedStreamError, match="at most 3 bytes, not 4"):
        lzw_decode(packed, size=4)
    with pytest.raises(TruncatedStreamError):
        lzw_decode(b"", size=1)
    with pytest.raises(ValueError):
        lzw_decode(packed, size=-1)


@pytest.fixture(scope="session")
def identity():
    """The identity cases with the pure kernels' results, computed once per
    session: two ``(cases, streams, pure_results(...))`` groups, the short,
    writer, bound, END-width, growth, damaged, edge and tail cases, then the
    reset and run cases."""
    rng = np.random.default_rng(36)
    groups = [(short_cases(rng) + writer_cases() + bound_cases() + end_width_cases()
               + sum(growth_cases(), []),
               damaged_cases(rng) + edge_cases() + tail_cases()),
              (reset_cases() + run_cases(), [])]
    return [(cases, streams, pure_results(_lzw_py, cases, streams)) for cases, streams in groups]


@pytest.fixture(scope="session")
def identity_pickle(identity, tmp_path_factory):
    """:func:`identity`'s groups in a pickle file, for the sanitizer runs;
    the bit-plane inputs, memoryviews, as bytes."""
    path = tmp_path_factory.mktemp("identity") / "groups.pickle"
    path.write_bytes(pickle.dumps([([(bytes(data), w) for data, w in cases], streams, expected)
                                   for cases, streams, expected in identity]))
    return path


@pytest.mark.skipif(not _HAVE_CC, reason="no C compiler to build the native LZW kernel")
@in_process_identity
def test_backends_byte_identical(identity):
    assert _lzw_native is not None, f"a C compiler exists but {_native_error}"
    # damaged streams and wrong sizes fail alike: same class, same message
    assert_matches(_lzw_native, *identity[0])


@in_process_identity
def test_tail_and_writer_cases_reach_their_edges():
    assert _lzw_native is not None, f"a C compiler exists but {_native_error}"
    # the tail streams end on codes of their full width, in buffers of their
    # own over 512 bytes, and each cut truncates the END code. The codes are
    # read back at every width from 9 to 20, across CLEARs at widths 9 and
    # 12, and pack back into the same bytes
    traces = []
    for data, w in tail_inputs():
        packed = _lzw_native.encode(data, w)
        codes, peak = _read_codes(packed, w)
        assert oracle_pack(codes, w) == packed
        assert peak >= 1 << (w - 1)
        traces.append((len(codes), peak))
    assert traces == [(2004, 512), (5860, 4096), (75344, 65536), (529524, 529781)]
    for k, (stream, width, size) in enumerate(tail_cases()):
        assert len(stream) > 512
        if k % 9:  # nine per stream: whole, then cut by 1 to 8 bytes
            with pytest.raises(TruncatedStreamError, match=f"ended at byte {len(stream)} "):
                _lzw_native.decode(stream, width, size)
        else:
            assert len(_lzw_native.decode(stream, width, size)) == size
    # the writer's cases end at every residue mod 8 at every width
    residues = {}
    for data, width in writer_cases():
        residues.setdefault(width, set()).add(len(_lzw_native.encode(data, width)) % 8)
    assert residues == {w: set(range(8)) for w in range(9, 21)}
    # the bound cases encode one code per byte; at width 9 they end exactly
    # the writer's 8-byte store allowance short of the bound, at every
    # residue mod 8, and at widths 12 to 20 further from it
    gaps, residues = {}, set()
    for data, width in bound_cases():
        packed = _lzw_native.encode(data, width)
        assert sum(c < 256 for c in _read_codes(packed, width)[0]) == len(data)
        gaps.setdefault(width, set()).add(_lzw_native._encode_bound(len(data), width) - len(packed))
        if width == 9:
            residues.add(len(packed) % 8)
    assert gaps == {9: {8}, 12: {6086}, 16: {8136}, 20: {40647}}
    assert residues == set(range(8))


def test_end_width_cases_write_end_one_bit_wider(kernel):
    # 255 literals of 9 bits, then END of 10: 2,305 bits in 289 bytes, where
    # an END of 9 bits would end the stream a byte earlier
    for data, width in end_width_cases():
        packed = kernel.encode(data, width)
        codes, peak = _read_codes(packed, width)
        assert codes == (*data, END) and peak == 513
        assert len(packed) == 289 and len(kernel.encode(data, 9)) == 288
        assert bytes(kernel.decode(packed, width, len(data))) == data


def test_growth_cases_reach_their_edges():
    # where the entry that takes the table past half load is made, and how
    # many codes and bytes are left then; the slots start at 2**8, 2**12
    # and 2**14 (see growth_cases)
    bytes_left, codes_left, refill = growth_cases()
    for data, w in bytes_left:
        at, next_code = hash_entries(data, w)[0][1 << 7]
        assert len(data) - 16 <= at and len(data) - at - 1 < (1 << w) - next_code - 1
    for (data, w), slots in zip(codes_left, (1 << 8, 1 << 12), strict=True):
        dictionaries = hash_entries(data, w)
        at, next_code = dictionaries[0][slots // 2]
        assert (1 << w) - next_code - 1 < len(data) - at - 1
        assert len(dictionaries) > 1 and len(dictionaries[0]) == (1 << w) - FIRST_CODE
    [(data, w)] = refill
    first, second = hash_entries(data, w)
    at, next_code = first[1 << 13]
    # the codes left hold the first growth to 2**16 slots, which the second
    # dictionary's entries fill past half load
    assert 2 * ((1 << 13) + 1 + (1 << w) - next_code - 1) <= 1 << 16 < 2 * len(second)


@pytest.mark.parametrize("bad", [16.0, True, "16", None])
def test_widths_and_sizes_must_be_integers(kernel, monkeypatch, bad):
    monkeypatch.setattr(lzw_module, "_kernel", kernel)
    packed = lzw_encode(b"abc")
    for call in (lambda: lzw_encode(b"abc", bad), lambda: lzw_encode_trace(b"abc", bad),
                 lambda: lzw_decode(packed, bad, size=3), lambda: lzw_decode(packed, size=bad)):
        with pytest.raises(ValueError, match="must be an integer"):
            call()
    # numpy integers count, and reach the kernel as ints: 1 << np.uint8(16) is 0
    assert lzw_decode(lzw_encode(b"abc", np.uint8(16)), np.int64(16), size=np.uint8(3)) == b"abc"


def test_edge_cases_decode_to_their_size(kernel):
    for stream, width, size in edge_cases():
        assert len(kernel.decode(stream, width, size)) == size


@in_process_identity
@settings(max_examples=300, deadline=None)
@given(st.data())
def test_backends_agree_on_mutated_streams(draw):
    # a stream with 1-3 bytes changed, cut short or run on, decoded to its
    # true length, one byte either side of it, or any length
    assert _lzw_native is not None, f"a C compiler exists but {_native_error}"
    alphabet = draw.draw(st.sampled_from([2, 8, 256]))
    data = bytes(b % alphabet for b in draw.draw(st.binary(max_size=3000)))
    width = draw.draw(st.sampled_from([9, 12, 16]))
    stream = bytearray(_lzw_py.encode(data, width))
    mutation = draw.draw(st.sampled_from(["flip", "truncate", "extend"]))
    if mutation == "flip":
        for _ in range(draw.draw(st.integers(1, 3))):
            stream[draw.draw(st.integers(0, len(stream) - 1))] ^= draw.draw(st.integers(1, 255))
    elif mutation == "truncate":
        del stream[draw.draw(st.integers(0, len(stream) - 1)):]
    else:
        stream += draw.draw(st.binary(min_size=1, max_size=16))
    size = draw.draw(st.one_of(st.sampled_from([len(data), len(data) + 1, max(len(data) - 1, 0)]),
                               st.integers(0, 2 * len(data) + 16)))
    stream = bytes(stream)
    assert outcome(_lzw_native.decode, stream, width, size) == \
        outcome(_lzw_py.decode, stream, width, size)


@in_process_identity
def test_backends_byte_identical_across_resets(identity):
    assert _lzw_native is not None, f"a C compiler exists but {_native_error}"
    cases, _, expected = identity[1]
    assert_matches(_lzw_native, cases, [], expected)
    traces = [(data, w, _read_codes(packed, w)[0]) for (data, w), packed in zip(cases, expected[0])]
    # the codes read back pack into the same bytes, across every CLEAR
    assert all(oracle_pack(c, w) == packed for (_, w, c), packed in zip(traces, expected[0]))
    assert {12, 16} <= {w for _, w, c in traces if CLEAR in c}
    assert max(max(c) for _, w, c in traces if w == 20) > 1 << 16
    # the dictionary fills up in the middle of a run: the bytes on both
    # sides of the CLEAR are the same
    assert {9, 12} <= {w for data, w, c in traces
                       if any(0 < at < len(data) and data[at - 1] == data[at]
                              for at in clear_offsets(c))}


@in_process_identity
def test_backends_byte_identical_around_the_table_start_size():
    # the encoder's hash table starts at a size set by the input length: 300
    # bytes start at the smallest, 64 KB at the largest start, which random
    # bytes outgrow at widths 16 and 20 and at widths 9 and 12 fill to CLEAR.
    # 2**16 bytes is also the shortest stream given a pair table, so 2**16 - 1
    # bytes, one byte short of it, run at widths 9 and 16 too
    assert _lzw_native is not None, f"a C compiler exists but {_native_error}"
    rng = np.random.default_rng(39)
    cases = [(rng.integers(0, 256, n, dtype=np.uint8).tobytes(), width)
             for n, widths in ((300, (9, 12, 16, 20)), (1 << 16, (9, 12, 16, 20)),
                               ((1 << 16) - 1, (9, 16)))
             for width in widths]
    assert_matches(_lzw_native, cases, [], pure_results(_lzw_py, cases))
    codes = {(len(data), w): _read_codes(_lzw_native.encode(data, w), w)[0] for data, w in cases}
    assert {w for (n, w), c in codes.items() if CLEAR in c} == {9, 12}
    # over 2**14 codes, each an entry, against the 2**13 entries that the
    # 2**14 starting slots hold at half load: the table grows
    assert all(len(c) > 1 << 14 for (n, w), c in codes.items() if n > 300 and w > 12)


@in_process_identity
@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.sampled_from([0x00, 0x01, 0x55, 0xAA, 0xFF]),
                          st.integers(1, 3000)), max_size=40))
def test_backends_byte_identical_on_runs(pairs):
    assert _lzw_native is not None, f"a C compiler exists but {_native_error}"
    data = runs(pairs)
    for width in (9, 12, 16):
        assert _lzw_native.encode(data, width) == _lzw_py.encode(data, width)


def test_kernel_compiles_without_warnings(tmp_path):
    # compiled as the cache build is (its -O2), so warnings that only the
    # optimiser finds, such as an unused static function, count too; with
    # the SIMD path and, as other architectures build it, without it (see
    # _lzw.c's header)
    assert _lzw_native is not None, f"a C compiler exists but {_native_error}"
    assert not any(f.startswith("-m") for f in _lzw_native.CFLAGS)  # runs on any host
    cc = (os.environ.get("CC") or "cc").split()
    flags = [f for f in _lzw_native.CFLAGS if f != "-shared"]
    for variant in ([], ["-DSLIDECODEC_NO_SIMD"]):
        out = subprocess.run(
            [*cc, *flags, *variant, "-std=c99", "-Wall", "-Wextra", "-Werror", "-c",
             str(_lzw_native.SOURCE), "-o", str(tmp_path / "_lzw.o")],
            capture_output=True, text=True,
        )
        assert out.returncode == 0, (variant, out.stderr)


@pytest.mark.skipif(not _HAVE_CC, reason="no C compiler to build the native LZW kernel")
def test_kernels_start_on_64_byte_boundaries():
    # a kernel's speed moved by a few percent with its offset in the library
    # when functions were only 16-byte aligned. The library is mapped at a
    # page boundary, so an address and its offset agree modulo 64
    assert _lzw_native is not None, f"a C compiler exists but {_native_error}"
    names = ["lzw_encode", "lzw_decode", "px_project", "px_unproject",
             "px_to_bitplanes", "px_from_bitplanes"]
    addresses = {name: ctypes.cast(getattr(_lzw_native._lib, name), ctypes.c_void_p).value
                 for name in names}
    assert {name: a % 64 for name, a in addresses.items()} == dict.fromkeys(names, 0)


def _identity_under(identity_pickle, tmp_path, sanitize, **env_extra):
    """Run every identity case on a kernel built with ``sanitize`` flags, in a subprocess.

    The LZW cases, checked against the pure results in ``identity_pickle``
    (they do not depend on how the native kernel is built), then the
    pixel-stage cases of ``stage_cases``, whose ``unproject`` writes into
    views of larger arrays. The build goes to a private cache, so it neither
    reuses nor evicts the regular one.
    """
    cc = os.environ.get("CC") or "cc"
    tests = os.path.dirname(os.path.abspath(__file__))
    src = os.path.dirname(os.path.dirname(_lzw_py.__file__))
    env = dict(os.environ, XDG_CACHE_HOME=str(tmp_path), CC=f"{cc} {sanitize}",
               PYTHONPATH=os.pathsep.join(filter(None, [src, tests, os.environ.get("PYTHONPATH")])),
               **env_extra)
    env.pop("SLIDECODEC_PURE", None)
    script = (
        "import pickle, sys\n"
        "import numpy as np\n"
        "from slidecodec import _lzw_native, _lzw_py\n"
        "from lzw_cases import assert_matches\n"
        "with open(sys.argv[1], 'rb') as f:\n"
        "    for group in pickle.load(f):\n"
        "        assert_matches(_lzw_native, *group)\n"
        "from stage_cases import check_stages\n"
        "check_stages(_lzw_native, _lzw_py, np.random.default_rng(37), 25)\n"
    )
    out = subprocess.run([sys.executable, "-c", script, str(identity_pickle)], capture_output=True,
                         text=True, env=env, timeout=300)
    assert out.returncode == 0, out.stderr
    assert len(list((tmp_path / "slidecodec").glob("_lzw-*.so"))) == 1


def test_backends_byte_identical_under_ubsan(identity_pickle, tmp_path):
    # -fno-sanitize-recover turns any undefined behaviour into an abort, so a
    # clean exit means none was hit
    _identity_under(identity_pickle, tmp_path, "-fsanitize=undefined -fno-sanitize-recover=all")


def test_backends_byte_identical_under_asan(identity_pickle, tmp_path):
    # the interpreter itself is not instrumented, so the runtime is preloaded;
    # any out-of-bounds access in the kernel's heap buffers aborts the run.
    # Leak checking is off: the interpreter keeps memory until exit.
    cc = (os.environ.get("CC") or "cc").split()
    runtime = subprocess.run([*cc, "-print-file-name=libasan.so"], capture_output=True,
                             text=True, check=True).stdout.strip()
    _identity_under(identity_pickle, tmp_path, "-fsanitize=address -fno-omit-frame-pointer",
                    LD_PRELOAD=runtime, ASAN_OPTIONS="detect_leaks=0")


def test_pure_backend_env_override():
    env = dict(os.environ, SLIDECODEC_PURE="1")
    out = subprocess.run(
        [sys.executable, "-c", "from slidecodec.lzw import BACKEND; print(BACKEND)"],
        capture_output=True, text=True, env=env, check=True,
    )
    assert out.stdout.strip() == "python"
    assert BACKEND in ("native", "python")


def test_failed_build_falls_back_to_pure_kernels(tmp_path):
    # a compiler command that fails, into an empty cache: importing the
    # native module raises ImportError, lzw takes the pure kernels, and the
    # failed build leaves no temporary file behind
    src = os.path.dirname(os.path.dirname(_lzw_py.__file__))
    env = dict(os.environ, XDG_CACHE_HOME=str(tmp_path), CC="false",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    env.pop("SLIDECODEC_PURE", None)
    script = ("from slidecodec.lzw import BACKEND, lzw_decode, lzw_encode\n"
              "data = bytes(range(256)) * 40 + bytes(5000)\n"
              "packed = lzw_encode(data, 12)\n"
              "assert bytes(lzw_decode(packed, 12, size=len(data))) == data\n"
              "print(BACKEND, packed.hex())\n")
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)
    assert out.returncode == 0, out.stderr
    backend, packed = out.stdout.split()
    assert backend == "python"
    assert packed == _lzw_py.encode(bytes(range(256)) * 40 + bytes(5000), 12).hex()
    assert (tmp_path / "slidecodec").is_dir()  # the build was tried there
    assert list(tmp_path.rglob("*")) == [tmp_path / "slidecodec"]


@pytest.mark.skipif(not _HAVE_CC, reason="no C compiler to build the native LZW kernel")
def test_fresh_build_removes_stale_libraries(tmp_path):
    cache = tmp_path / "slidecodec"
    cache.mkdir()
    # more stale builds than the cache keeps, the first one the oldest
    stale = [cache / f"_lzw-dead{i:04x}.so" for i in range(_lzw_native.KEEP_LIBRARIES + 2)]
    for age, lib in enumerate(reversed(stale), start=1):
        lib.write_bytes(b"left by an older kernel source")
        os.utime(lib, (lib.stat().st_atime, time.time() - 3600 * age))
    (cache / "unrelated.txt").write_text("kept")
    src = os.path.dirname(os.path.dirname(_lzw_py.__file__))
    env = dict(os.environ, XDG_CACHE_HOME=str(tmp_path),
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    script = "from slidecodec import _lzw_native; print(_lzw_native.encode(b'ABABAB', 12).hex())"
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == lzw_encode(b"ABABAB", 12).hex()
    fresh = {p.name for p in cache.glob("_lzw-*.so")} - {p.name for p in stale}
    assert len(fresh) == 1, fresh
    assert (cache / "unrelated.txt").read_text() == "kept"
    # the fresh build plus the newest stale ones fill the cache
    gone = len(stale) - (_lzw_native.KEEP_LIBRARIES - 1)
    assert not any(lib.exists() for lib in stale[:gone])
    assert all(lib.exists() for lib in stale[gone:])
