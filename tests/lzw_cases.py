"""LZW inputs for the native-versus-pure byte-identity checks.

:func:`pure_results` runs every case through the pure kernels' ``encode``
and ``decode``, and :func:`assert_matches` asserts that the native kernels
give the same packed bytes, decoded bytes and errors. Equal packed bytes
mean equal codes: ``lzw_encode_trace`` reads them back from those bytes on
either backend. ``tests/test_lzw.py`` computes the pure side once per
session and checks it in-process and, in subprocesses, against native
kernels built with UBSan and with AddressSanitizer.
"""

import numpy as np

from slidecodec._lzw_py import CLEAR, END, FIRST_CODE, MIN_WIDTH
from slidecodec.bitplane import to_bitplanes
from slidecodec.errors import CodecError
from slidecodec.lzw import _read_codes
from slidecodec.synthetic import wsi_like_image
from slidecodec.transform import project

from oracles import oracle_lzw_codes, oracle_pack


def outcome(decode, *args):
    """The decoded bytes, or the (class, message) of the error raised."""
    try:
        return bytes(decode(*args))
    except CodecError as exc:
        return type(exc), str(exc)


def short_cases(rng):
    """120 random ``(data, width)`` pairs under 4000 bytes."""
    cases = []
    for _ in range(120):
        n = int(rng.integers(0, 4000))
        alphabet = int(rng.choice([2, 8, 256]))
        data = bytes(rng.integers(0, alphabet, n, dtype=np.uint8))
        cases.append((data, int(rng.choice([9, 10, 12, 16]))))
    return cases


def damaged_cases(rng):
    """200 ``(stream, width, size)`` triples: damaged or cut streams, wrong sizes."""
    from slidecodec import _lzw_py

    cases = []
    for _ in range(200):
        data = bytes(rng.integers(0, int(rng.choice([2, 8, 256])),
                                  int(rng.integers(0, 600)), dtype=np.uint8))
        width = int(rng.choice([9, 12, 16]))
        stream = bytearray(_lzw_py.encode(data, width))
        for _ in range(int(rng.integers(0, 4))):
            stream[int(rng.integers(len(stream)))] = int(rng.integers(256))
        stream = bytes(stream[:int(rng.integers(1, len(stream) + 1))])
        size = len(data) if rng.random() < 0.5 else int(rng.integers(0, 2 * len(data) + 8))
        cases.append((stream, width, size))
    return cases


def reset_cases():
    """``(data, width)`` pairs long enough to clear the dictionary or pass 2**16 codes.

    Real slide bit-plane streams (``to_bitplanes(project(tile))`` of two
    256x256 tiles) clear it at widths 9 and 12. A 250,000-byte random stream
    that is 65% zero, like slide bit-planes, clears it at widths 12 and 16
    and emits codes above 2**16 at width 20. 2**17 uniform random bytes, long
    enough for the encoder's pair table and stepping out of a one-byte phrase
    at most steps, clear it 512 times at width 9 and put codes above 2**16 in
    that table at width 20. Last, :func:`stale_pair_case`.
    """
    slide = wsi_like_image(np.random.SeedSequence(7), height=512, width=512)
    tiles = (slide[:256, 256:], slide[256:, :256])
    cases = [(to_bitplanes(project(t)), w) for t in tiles for w in (9, 12, 16)]
    rng = np.random.default_rng(37)
    skewed = rng.integers(0, 256, 250_000, dtype=np.uint8)
    skewed[rng.random(skewed.size) < 0.65] = 0
    cases += [(bytes(skewed), w) for w in (12, 16, 20)]
    uniform = np.random.default_rng(39).integers(0, 256, 1 << 17, dtype=np.uint8).tobytes()
    cases += [(uniform, 9), (uniform, 20), stale_pair_case()]
    return cases


def stale_pair_case():
    """A width-9 ``(data, 9)`` pair where the literal 0 is followed by 1 at
    the start and again just after the 4,095th CLEAR, and nowhere between.

    The encoder's pair table is zeroed only at every 4,095th CLEAR; its
    entry for 0 1 from the first dictionary must not be taken for one of the
    dictionary that starts there.
    """
    from slidecodec import _lzw_py

    data = b"\x00\x01" + np.random.default_rng(40).integers(
        1, 256, 1 << 20, dtype=np.uint8).tobytes()
    at = clear_offsets(_read_codes(_lzw_py.encode(data, 9), 9)[0])[4094] + 8
    return data[:at] + b"\x00\x01" + data[at:], 9


def tail_inputs():
    """``(data, width)`` pairs of random bytes, 2,000 at width 9, 6,000 at 12,
    100,000 at 16 and 1,000,000 at 20: just long enough that the last codes
    are at the full width."""
    rng = np.random.default_rng(43)
    return [(rng.integers(0, 256, n, dtype=np.uint8).tobytes(), width)
            for width, n in ((9, 2000), (12, 6000), (16, 100_000), (20, 1_000_000))]


def tail_cases():
    """``(stream, width, size)`` triples: each of :func:`tail_inputs`'
    streams whole and cut by 1 to 8 bytes.

    The cut lands in the last 8 bytes, which the native decoder reads a byte
    at a time rather than with one 8-byte load, at every width. Every stream
    is over 512 bytes, so the interpreter takes it from ``malloc``, not from
    its small-object pool, and AddressSanitizer sees a read past its end.
    """
    from slidecodec import _lzw_py

    cases = []
    for data, width in tail_inputs():
        stream = _lzw_py.encode(data, width)
        cases += [(stream[:len(stream) - cut], width, len(data)) for cut in range(9)]
    return cases


def writer_cases():
    """``(data, width)`` pairs whose packed lengths end at every residue mod 8:
    random and constant inputs of 0 to 40 bytes at every width from 9 to 20."""
    rng = np.random.default_rng(44)
    return [(data, width)
            for n in range(41)
            for data in (rng.integers(0, 256, n, dtype=np.uint8).tobytes(), bytes([0x5A]) * n)
            for width in range(9, 21)]


def bound_cases():
    """``(data, width)`` pairs of all-literal streams, which the native
    encoder writes up to near the end of its output bound
    (``_lzw_native._encode_bound``).

    :func:`every_byte_pair` holds each byte pair once, so every data code is
    a literal for one byte. At width 9 a CLEAR follows every 255 of them, so
    its prefixes of 2,001 to 2,008 bytes have every code the bound counts,
    each 9 bits wide: they pack into exactly the bound less the writer's
    8-byte store allowance, END's store ends 2 bytes short of the bound, and
    their packed lengths end at every residue mod 8. The whole sequence at
    widths 12, 16 and 20 comes last; its codes start at 9 bits, so it ends
    further from the bound.
    """
    pairs = every_byte_pair()
    return [(pairs[:n], 9) for n in range(2001, 2009)] + [(pairs, w) for w in (12, 16, 20)]


def no_repeats(rng, n):
    """n random bytes, none equal to the one before it: no run entries, so
    every entry of a stream shorter than 2**16 bytes goes in the hash table."""
    return (np.cumsum(rng.integers(1, 256, n)) % 256).astype(np.uint8).tobytes()


def every_byte_pair():
    """A de Bruijn sequence of order 2 over the 256 byte values, each byte pair
    once: the Lyndon words a and a b, a < b, in lexicographic order."""
    return bytes(x for a in range(256) for x in [a, *(v for b in range(a + 1, 256) for v in (a, b))])


def hash_entries(data, width):
    """Per dictionary, ``(offset, next_code)`` of each entry that the native
    encoder puts in its hash table, in the order made.

    The entry a code defines is made at the byte after its phrase, and goes
    on a run ladder when it extends a pure run by its byte, in the pair
    table when it extends a literal and the stream has at least 2**16
    bytes, and in the hash table otherwise (see ``_lzw.c``).
    """
    from slidecodec import _lzw_py

    codes = _read_codes(_lzw_py.encode(data, width), width)[0]
    dictionaries, prev, next_code = [[]], None, FIRST_CODE
    for code, at, n in phrases(codes):
        if code == CLEAR:
            dictionaries.append([])
            prev, next_code = None, FIRST_CODE
            continue
        if prev is not None and next_code < 1 << width:
            p_at, p_n = prev
            run = data[p_at:p_at + p_n] == data[at:at + 1] * p_n
            if not run and not (p_n == 1 and len(data) >= 1 << 16):
                dictionaries[-1].append((at, next_code))
            next_code += 1
        prev = at, n
    return dictionaries


def growth_cases():
    """Three lists of ``(data, width)`` pairs at the edges of the encoder's
    hash table growth.

    The table starts at 2**8 slots for up to 513 bytes, 2**12 for 4,098 to
    8,193 and 2**14 from 16,386. An insert that would take it past half
    load grows it once, to hold this entry, one per code left and one per
    phrase that fits in the bytes left (:func:`hash_entries`):

    * random bytes with no byte next to an equal one, cut so that the byte
      where the 129th entry is made is one of the last 16, at widths 9, 12
      and 16: the first growth comes there, and the bytes left set its size;
    * such bytes, 513 at width 9 and 8,193 at width 12, which fill the
      table at half load while fewer codes than bytes are left: the codes
      left set the size, and the dictionary fills it to CLEAR;
    * every byte pair once, then random bytes, then random bytes of 64
      values, at width 16: the first dictionary, most of it pair entries,
      grows the table to 2**16 slots, and the next, most of it hash
      entries, fills that past half load and grows it again.
    """
    rng = np.random.default_rng(45)
    short = no_repeats(rng, 513)
    at = hash_entries(short, 16)[0][128][0]
    bytes_left = [(short[:at + 1 + left], w) for left in range(16) for w in (9, 12, 16)]
    codes_left = [(short, 9), (no_repeats(rng, 8193), 12)]
    refill = (every_byte_pair()[:40_000] + rng.integers(0, 256, 30_000, dtype=np.uint8).tobytes()
              + rng.integers(0, 64, 130_000, dtype=np.uint8).tobytes())
    return bytes_left, codes_left, [(refill, 16)]


def runs(pairs):
    """The bytes of ``(byte, length)`` runs, one after another."""
    return b"".join(bytes([b]) * k for b, k in pairs)


def run_cases():
    """``(data, width)`` pairs made of long runs of one byte.

    Runs of 0x00, 0xFF and 0xAA from 1 to 70,000 bytes, around word and
    dictionary sizes; runs that start and end the input; alternating runs
    of two bytes; a run of every byte value; each at widths 9, 12 and 16,
    where the first two clear the dictionary inside a run. Last, a 2**20-byte
    zero run at width 20.
    """
    rng = np.random.default_rng(38)
    lengths = [1, 2, 3, 7, 8, 9, 15, 16, 17, 63, 64, 65, 253, 254, 255, 256,
               257, 1000, 4095, 4096, 4097, 70_000]
    noise = bytes(rng.integers(0, 256, 300, dtype=np.uint8))
    inputs = [
        runs((b, k) for k in lengths for b in (0x00, 0xFF, 0xAA)),
        runs([(0x00, 5000)]) + noise + runs([(0xFF, 5000)]),
        runs([(0xAA, 3000)]),
        runs(((0x55, 0xAA)[i % 2], int(k))
             for i, k in enumerate(rng.integers(1, 600, 200))),
        runs((b, int(k)) for b, k in zip(range(256), rng.integers(1, 600, 256))),
    ]
    return [(data, w) for data in inputs for w in (9, 12, 16)] + [(bytes(1 << 20), 20)]


def phrases(codes):
    """``(code, output offset, phrase length)`` of each code up to END.

    Replays the phrase lengths as a decoder would: a literal is one byte,
    and each data code after the first since a CLEAR defines an entry one
    byte longer than the code before it. A CLEAR has length 0.
    """
    lengths, pos, prev = [], 0, None
    for code in codes:
        if code == END:
            return
        if code == CLEAR:
            yield code, pos, 0
            lengths, prev = [], None
            continue
        if code < 256:
            n = 1
        elif code - FIRST_CODE < len(lengths):
            n = lengths[code - FIRST_CODE]
        else:  # the entry this very code defines
            n = prev + 1
        if prev is not None:
            lengths.append(prev + 1)
        yield code, pos, n
        pos += n
        prev = n


def clear_offsets(codes):
    """The input offsets at which an encode trace's CLEAR codes were emitted."""
    return [at for code, at, _ in phrases(codes) if code == CLEAR]


def edge_cases():
    """``(stream, width, size)`` triples built code by code, at widths 9, 12 and 16.

    Each decodes to exactly ``size`` bytes:

    * a self-reference (KwK: the code the decoder is about to define) right
      at each width step, as the last code read at one width and the first
      read at the next, and as the dictionary's last entry;
    * the dictionary filled, ending on KwK codes, then literals and codes up
      to ``2**width - 1`` with no CLEAR, which define no entries;
    * a CLEAR right after a KwK, then KwK codes again;
    * a phrase of 1 to 17 bytes, referenced or KwK, ending 0 to 16 bytes
      before ``size``, around where the decoder's inline copy of phrases
      up to 16 bytes, which reads and writes 16, gives way to ``memcpy``
      (see :func:`phrase_end_codes`).
    """
    cases = []
    for width in (9, 12, 16):
        capacity = 1 << width
        codes = []

        def fill_to(next_code):
            # literals until the decoder's next code is next_code
            codes.extend(i % 251 for i in range(next_code - FIRST_CODE + 1 - len(codes)))

        for step in range(MIN_WIDTH, width):
            fill_to((1 << step) - 1)
            codes += [(1 << step) - 1, 1 << step]
        fill_to(capacity - 1)
        kwk_steps = codes + [capacity - 1, END]
        codes = []
        fill_to(capacity - 3)
        full = codes + [capacity - 3, capacity - 2, capacity - 1,
                        65, capacity - 1, capacity - 2, 7, capacity - 1, END]
        after_kwk = [65, FIRST_CODE, CLEAR, 66, FIRST_CODE, FIRST_CODE + 1, CLEAR,
                     67, FIRST_CODE, CLEAR, 68, END]
        for seq in (kwk_steps, full, after_kwk, *phrase_end_codes(width)):
            size = sum(n for _, _, n in phrases(seq))
            cases.append((oracle_pack(seq, width), width, size))
    return cases


def phrase_end_codes(width):
    """Code sequences that end on a phrase of 1 to 17 bytes, then 0 to 16 literals.

    A prefix (the oracle's codes for 1, 12, 123, ..., 12...19) defines
    entries of 2 to 19 distinct bytes. After it comes, for each length L,
    an entry of L bytes (a literal for L = 1), or for L >= 2 an entry of
    L - 1 bytes followed by the KwK code that repeats it plus its first
    byte, and then d = 0 to 16 literals and END, so the phrase ends d
    bytes before the output does.
    """
    prefix = oracle_lzw_codes(b"".join(bytes(range(1, k)) for k in range(1, 21)), width)[:-1]
    lengths = [n for _, _, n in phrases(prefix)]
    # entry FIRST_CODE + k is the k-th data code's phrase plus one byte
    entry = {1: 20} | {n + 1: FIRST_CODE + k for k, n in enumerate(lengths[:-1])}
    for length in range(1, 18):
        ends = [[entry[length]]]
        if length > 1:
            # the code read after the prefix and one more defines this entry
            ends.append([entry[length - 1], FIRST_CODE + len(lengths)])
        for end in ends:
            for tail in range(17):
                yield prefix + end + [200 + i for i in range(tail)] + [END]


def pure_results(pure, cases, streams=()):
    """``(packed, outcomes)``: ``pure``'s packed bytes for each ``(data,
    width)`` of ``cases``, each checked to decode back to ``data``, and the
    :func:`outcome` of decoding each ``(stream, width, size)`` of ``streams``."""
    packed = [pure.encode(data, width) for data, width in cases]
    for (data, width), stream in zip(cases, packed):
        assert pure.decode(stream, width, len(data)) == data, (len(data), width)
    return packed, [outcome(pure.decode, *case) for case in streams]


def assert_matches(native, cases, streams, expected):
    """``native`` encodes ``cases`` and decodes ``streams`` as ``expected``,
    :func:`pure_results`' result, says: the same packed bytes, each decoded
    back to its input, and the same bytes or the same error for each stream."""
    packed, outcomes = expected
    for (data, width), stream in zip(cases, packed, strict=True):
        assert native.encode(data, width) == stream, (len(data), width)
        assert native.decode(stream, width, len(data)) == data
    for (stream, width, size), expect in zip(streams, outcomes, strict=True):
        assert outcome(native.decode, stream, width, size) == expect
