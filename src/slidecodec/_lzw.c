/* Native kernels of the codec: LZW and the four pixel stages (project,
   unproject, to_bitplanes, from_bitplanes), byte-identical to the Python
   and numpy kernels of slidecodec/_lzw_py.py. The pixel stages are at the
   end of the file.

   The wire rules are stated in _lzw_py.py's docstring. This file uses no
   Python C-API: slidecodec/_lzw_native.py compiles it with the system C
   compiler and calls it through ctypes, which releases the interpreter lock
   for the length of each call. Each stage of a tile is one such call, so
   patch workers overlap on all of a tile's work, not only on LZW.

   No kernel hands back memory it allocated: each writes into the caller's
   buffer. The encoder's holds at least the bound that _lzw_native.encode
   states for the input length and width, so it never checks for room; the
   decoder's holds the expected size, and it stops as soon as the stream
   disagrees with it. The LZW entry points return one of the LZW_* status
   codes and fill an lzw_result; the pixel stages write into the caller's
   arrays, and only the projection ones can fail.

   The encoder keeps its dictionary in three structures. Runs of one byte,
   the bulk of bit-plane streams, live on a run ladder per byte value: the
   codes of the phrases b, bb, bbb, ... up to the longest in the dictionary.
   A run is measured a word at a time and climbs its ladder one step per
   emitted code, never through the hash table. On streams of at least
   PAIR_MIN_LEN bytes, the two-byte phrases p b with b != p, reached by the
   step out of a literal that starts every phrase, live in a dense 256x256
   pair table, one load each, whose entries carry an epoch so that a CLEAR
   need not zero it. Every other phrase goes through an open-addressing hash
   table, which grows at most once per dictionary, straight to the size that
   the codes and input bytes left can fill. Only the dictionary's structure
   differs from _lzw_py.py, not its contents, so the codes are the same.

   Both bit loops move a 64-bit word per code, not a byte: the encoder ORs
   each code into its accumulator and stores all 8 of its bytes, the
   decoder takes each code out of one big-endian 8-byte load. Only the
   decoder's last 7 input bytes are read one at a time, so no load passes
   the end of the stream, and only they are tested for truncation.

   The file builds with no -m or -march flag. Its one SIMD path, the SSSE3
   bit-plane blocks, is compiled with a target attribute and taken only on
   CPUs that report SSSE3, so a cached library runs on every host of its
   architecture. -DSLIDECODEC_NO_SIMD leaves that path out, as a build for
   another architecture does; the tests compile the file that way too, so
   that build stays free of warnings. */

#include <stddef.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

enum { CLEAR = 256, END = 257, FIRST_CODE = 258, MIN_WIDTH = 9 };

enum { LZW_OK = 0, LZW_TRUNCATED = 1, LZW_CORRUPT = 2, LZW_NOMEM = 3, LZW_LENGTH = 4 };

typedef struct {
    size_t len;        /* bytes of output; on LZW_LENGTH, the length decoded */
    size_t pos;        /* decode: input bytes consumed */
    int32_t code;      /* decode: the last code read */
    int32_t next_code; /* decode: the dictionary's next code when it was read */
} lzw_result;

/* The 8 bytes at p as one big-endian word, and back. Written out byte by
   byte, which compilers turn into one load or store and a byte swap. */
static inline uint64_t load_be64(const uint8_t *p)
{
    return (uint64_t)p[0] << 56 | (uint64_t)p[1] << 48 | (uint64_t)p[2] << 40 |
           (uint64_t)p[3] << 32 | (uint64_t)p[4] << 24 | (uint64_t)p[5] << 16 |
           (uint64_t)p[6] << 8 | (uint64_t)p[7];
}

static inline void store_be64(uint8_t *p, uint64_t v)
{
    p[0] = (uint8_t)(v >> 56);
    p[1] = (uint8_t)(v >> 48);
    p[2] = (uint8_t)(v >> 40);
    p[3] = (uint8_t)(v >> 32);
    p[4] = (uint8_t)(v >> 24);
    p[5] = (uint8_t)(v >> 16);
    p[6] = (uint8_t)(v >> 8);
    p[7] = (uint8_t)v;
}

typedef struct {
    uint8_t *buf;
    size_t len;
    uint64_t acc; /* the nbits < 8 bits not yet whole bytes, at the top */
    int nbits;
} writer;

/* Append one code MSB-first. The code is ORed in below the pending bits,
   and the accumulator's 8 bytes are stored at len whether or not they are
   all whole: len then moves past the whole ones, and the next store
   rewrites the rest. A code adds at most 20 bits to fewer than 8, so no
   loop or branch is needed; the bound on the caller's buffer counts the
   8 bytes of the last store. Inline: on raw, miss-heavy input the encoder
   calls it about once per two bytes. */
static inline void put(writer *w, int width, int32_t code)
{
    w->nbits += width;
    w->acc |= (uint64_t)code << (64 - w->nbits);
    store_be64(w->buf + w->len, w->acc);
    w->len += (size_t)(w->nbits >> 3);
    w->acc <<= w->nbits & ~7;
    w->nbits &= 7;
}

/* Open-addressing dictionary from (prefix_code << 8 | byte) to code, kept
   at most half full. It starts at the size table_start_bits gives, and an
   insert that would pass half load grows it once, to what the dictionary
   can still add (see lzw_encode), so its size follows the dictionary
   actually built, which the input length and 2**max_width bound, rather
   than the code space. */
typedef struct {
    uint32_t *keys; /* key + 1; 0 marks an empty slot */
    int32_t *vals;
    int bits;
    size_t used;
} table;

static int table_init(table *t, int bits)
{
    t->keys = calloc((size_t)1 << bits, sizeof *t->keys);
    t->vals = malloc(((size_t)1 << bits) * sizeof *t->vals);
    t->bits = bits;
    t->used = 0;
    return t->keys && t->vals ? 0 : -1;
}

/* Bits of the starting table for n input bytes: the smallest 2**bits of at
   least n/2 slots, from 2**8 to 2**14. Each growth rescans the whole table,
   so a start at the size a stream ends at skips it: a 64x64x3 tile's
   12,288 bytes never rehash, and bit-plane streams of about 150 KB start at
   the 2**14 slots they end at. The cap keeps a long stream, which fills the
   table far below n/2 entries (one per phrase, not per byte), from starting
   at a table larger than it needs; raw streams still grow past it, once per
   dictionary at most. */
static int table_start_bits(size_t n)
{
    int bits = 8;
    while (bits < 14 && ((size_t)1 << bits) < n / 2)
        bits++;
    return bits;
}

/* The slot holding key, or the empty slot where it belongs. */
static size_t table_find(const table *t, uint32_t key)
{
    const size_t mask = ((size_t)1 << t->bits) - 1;
    size_t h = (uint32_t)(key * 2654435761u) >> (32 - t->bits);
    while (t->keys[h] && t->keys[h] != key + 1)
        h = (h + 1) & mask;
    return h;
}

/* Move the table's entries into a new one of 2**bits slots, bits > t->bits,
   with one pass over the old slots; -1 when memory runs out. */
static int table_grow(table *t, int bits)
{
    table g;
    if (table_init(&g, bits)) {
        free(g.keys);
        free(g.vals);
        return -1;
    }
    for (size_t i = 0; i < (size_t)1 << t->bits; i++) {
        if (t->keys[i]) {
            const size_t h = table_find(&g, t->keys[i] - 1);
            g.keys[h] = t->keys[i];
            g.vals[h] = t->vals[i];
        }
    }
    g.used = t->used;
    free(t->keys);
    free(t->vals);
    *t = g;
    return 0;
}

/* Pure-run phrases of one byte value b: codes[k] is the code of b^k, the
   phrase of k b's, for 2 <= k <= top, and b^top is the longest such phrase
   in the dictionary (b^1 is the literal b, so top is 1 until the first run
   entry). The dictionary is prefix-closed, so these are exactly its pure-run
   entries, and a new one is always b^(top + 1). codes is allocated on the
   first entry and doubles as it fills; a CLEAR keeps it and resets top. */
typedef struct {
    int32_t *codes;
    size_t top, cap;
} ladder;

/* Append b^(top + 1) = code; -1 when the array cannot grow. */
static int ladder_push(ladder *l, int32_t code)
{
    if (l->top + 1 >= l->cap) {
        const size_t cap = l->cap ? 2 * l->cap : 16;
        int32_t *grown = realloc(l->codes, cap * sizeof *grown);
        if (!grown)
            return -1;
        l->codes = grown;
        l->cap = cap;
    }
    l->codes[++l->top] = code;
    return 0;
}

/* How many of p[0:n] equal b before the first that does not, compared a
   machine word at a time. */
static size_t run_length(const uint8_t *p, size_t n, uint8_t b)
{
    const uint64_t pattern = UINT64_C(0x0101010101010101) * b;
    size_t r = 0;
    for (uint64_t word; r + 8 <= n; r += 8) {
        memcpy(&word, p + r, 8);
        if (word != pattern)
            break;
    }
    while (r < n && p[r] == b)
        r++;
    return r;
}

/* The pair table's entries: pair[p << 8 | b] holds the code of the phrase
   of the literal p and the byte b != p in its low CODE_BITS bits (codes
   stay below 2**20) and the table's epoch in the 12 bits above. Only
   entries of the current epoch are in the dictionary, so a CLEAR empties
   the table by counting the epoch up and zeroes it only when the epoch
   would overflow, at every 4095th CLEAR: at width 9 a CLEAR comes every
   254 codes, and zeroing 256 KiB at each one would halve the encoder's
   speed on raw bytes. Epoch 0 is never current, so a zeroed table is empty.

   The table is allocated only for streams of at least PAIR_MIN_LEN bytes,
   one per entry: its 256 KiB calloc costs a 12 KB stream more than the
   faster literal steps save there. */
enum { CODE_BITS = 20, CODE_MASK = (1 << CODE_BITS) - 1, PAIR_MIN_LEN = 1 << 16 };

/* Encode src[0:n] into out, which holds at least the bound that
   slidecodec/_lzw_native.py's encode states for n and max_width. On LZW_OK
   out's first res->len bytes are the packed stream; the bytes past them
   are undefined. The codes are not returned: slidecodec/lzw.py reads them
   back from the packed bytes.

   The dictionary lives in three structures that together hold each entry
   once. A pure run b^(k+1), which extends the phrase b^k by another b,
   goes on b's ladder; with a pair table, an entry that extends a literal p
   by a byte b != p goes there; every other entry, (prefix_code << 8 |
   byte) -> code, goes into the hash table. Which one a transition uses
   follows from the pending phrase. Each phrase starts at a literal, after
   every emitted code, or at a pure run after a jump up a ladder, so a
   literal is pending only at a phrase's first step: with a pair table that
   step, on raw bytes half of all steps, is one load before the hash loop,
   and the hash loop only ever sees longer phrases. A pure run longer than
   one byte is only ever entered from the ladder, and only where its run
   ends, so the one pending phrase that can be extended by its run byte is
   a literal b followed by b, that is, a byte equal to the pending code.
   The hash loop is a tight inner loop that leaves only on a miss or on
   that compare, so it pays nothing else for the ladder or the pair table.

   From a pending literal b with more b's ahead, the run is measured up to
   top bytes, a word at a time. If it is shorter than that, the pending
   phrase jumps straight to the ladder entry for the run's length, at most
   b^top; otherwise the encoder consumes b^top, emits its code and adds
   b^(top+1), or emits CLEAR when the dictionary is full. Either way a run
   costs one step per code emitted, not a probe per byte, and the codes are
   the ones the byte-at-a-time greedy parse of _lzw_py.py emits. A CLEAR
   empties the hash table and the pair table and sets every ladder's top
   back to 1. */
int lzw_encode(const uint8_t *src, size_t n, int max_width, uint8_t *out, lzw_result *res)
{
    const int32_t capacity = (int32_t)1 << max_width;
    table t;
    uint32_t *pair = n >= PAIR_MIN_LEN ? calloc(256 * 256, sizeof *pair) : NULL;
    uint32_t epoch = 1;
    ladder runs[256] = {{0}};
    writer w = {.buf = out};
    for (int b = 0; b < 256; b++)
        runs[b].top = 1;

    int status = LZW_NOMEM;
    if (table_init(&t, table_start_bits(n)) || (n >= PAIR_MIN_LEN && !pair))
        goto done;

    int width = MIN_WIDTH;
    int32_t next_code = FIRST_CODE;
    int32_t prev = n ? src[0] : -1;
    size_t i = 1;
    while (i < n) {
        int32_t b = src[i];
        uint32_t key = 0;
        size_t h = 0;
        /* with a pair table, the step out of a literal to another byte */
        if (pair && prev < 256 && b != prev) {
            const uint32_t e = pair[prev << 8 | b];
            if (e >> CODE_BITS != epoch)
                goto miss;
            prev = (int32_t)(e & CODE_MASK);
            if (++i == n)
                goto flush;
            b = src[i];
        }
        /* hash transitions, until a miss or a literal followed by itself */
        while (b != prev) {
            key = ((uint32_t)prev << 8) | (uint32_t)b;
            h = table_find(&t, key);
            if (!t.keys[h])
                break;
            prev = t.vals[h];
            if (++i == n)
                goto flush;
            b = src[i];
        }
        if (b == prev) {
            /* a literal b, then more b's: climb b's ladder */
            ladder *l = &runs[b];
            const size_t r = run_length(src + i, n - i < l->top ? n - i : l->top, (uint8_t)b);
            if (r < l->top) {
                prev = l->codes[1 + r];
                i += r;
                continue;
            }
            i += l->top - 1; /* the pending phrase is b^top; src[i] is b */
            put(&w, width, l->top > 1 ? l->codes[l->top] : b);
            if (next_code < capacity && ladder_push(l, next_code))
                goto done;
        } else {
        miss:
            put(&w, width, prev);
            if (next_code < capacity && prev < 256 && pair) {
                pair[prev << 8 | b] = epoch << CODE_BITS | (uint32_t)next_code;
            } else if (next_code < capacity) {
                if (2 * (t.used + 1) > (size_t)1 << t.bits) {
                    /* grow once, to hold at half load every entry that
                       this dictionary can still get: this one, then one per
                       code left or per phrase left, whichever is fewer. An
                       entry is made at the byte after its phrase, so those
                       phrases lie in src[i:n-1]; each is a byte or more, or
                       two with a pair table, as hash entries then never
                       extend a literal */
                    const size_t codes = (size_t)(capacity - next_code - 1);
                    const size_t bytes = (n - i - 1) / (pair ? 2 : 1);
                    const size_t entries = t.used + 1 + (codes < bytes ? codes : bytes);
                    int bits = t.bits + 1;
                    while (((size_t)1 << bits) < 2 * entries)
                        bits++;
                    if (table_grow(&t, bits))
                        goto done;
                    h = table_find(&t, key);
                }
                t.keys[h] = key + 1;
                t.vals[h] = next_code;
                t.used++;
            }
        }
        if (next_code < capacity) {
            next_code++;
            if (next_code - 1 >= (1 << width))
                width++;
        } else {
            put(&w, width, CLEAR);
            memset(t.keys, 0, ((size_t)1 << t.bits) * sizeof *t.keys);
            t.used = 0;
            if (pair && ++epoch >> (32 - CODE_BITS)) {
                memset(pair, 0, 256 * 256 * sizeof *pair);
                epoch = 1;
            }
            for (int c = 0; c < 256; c++)
                runs[c].top = 1;
            next_code = FIRST_CODE;
            width = MIN_WIDTH;
        }
        prev = b;
        i++;
    }
flush:
    if (prev >= 0) {
        put(&w, width, prev);
        /* mirror the decoder's entry for the final data code; without it END
           is written one bit narrower than the decoder reads it */
        if (FIRST_CODE < next_code && next_code < capacity) {
            next_code++;
            if (next_code - 1 >= (1 << width))
                width++;
        }
    }
    put(&w, width, END);
    if (w.nbits) /* END's last store already wrote the partial byte */
        w.len++;
    res->len = w.len;
    status = LZW_OK;

done:
    free(t.keys);
    free(t.vals);
    free(pair);
    for (int b = 0; b < 256; b++)
        free(runs[b].codes);
    return status;
}

/* The next code at which the decoder's code width grows past width: none
   once width is max_width. */
static inline int32_t width_bump(int width, int max_width)
{
    return width < max_width ? (int32_t)1 << width : INT32_MAX;
}

/* Decode src[0:n] up to its END code into out, which holds size bytes. On
   LZW_TRUNCATED res->pos, and on LZW_CORRUPT res->code and res->next_code,
   say where the stream went wrong. LZW_LENGTH means the code read by
   res->pos would take the output to res->len > size bytes, or END arrived
   after only res->len < size.

   An entry is one code's string plus the first byte of the next code's, so
   it already lies in the output (the LZ77 view of LZ78 phrases). start[k]
   is where code k since the last CLEAR, counting from 0, was written (until
   the dictionary is full), so entry FIRST_CODE + k is the start[k + 1] -
   start[k] + 1 bytes at start[k], and each code is one copy from output
   that ends at the write position or before. A phrase of at most 16 bytes
   is copied inline, as two 8-byte words, while 16 bytes of out remain; it
   may then write garbage up to 15 bytes past its end, so out's bytes past
   the write position are undefined until the call returns LZW_OK.

   The loop tests for a literal first, which needs neither the dictionary
   nor a copy, and keeps the code at which the width grows in bump. */
int lzw_decode(const uint8_t *src, size_t n, int max_width, size_t size, uint8_t *out,
               lzw_result *res)
{
    const int32_t capacity = (int32_t)1 << max_width;
    /* Every code read after the first adds at most one entry, and a stream
       of n bytes holds at most 8n / MIN_WIDTH codes. */
    size_t entries = (size_t)(capacity - FIRST_CODE);
    if (n / MIN_WIDTH * 8 + 8 < entries)
        entries = n / MIN_WIDTH * 8 + 8;
    size_t *start = malloc((entries + 1) * sizeof *start);
    if (!start)
        return LZW_NOMEM;

    int status;
    size_t len = 0, bit = 0, cur_len = 0; /* bytes written, bits read */
    int width = MIN_WIDTH, have_prev = 0;
    int32_t next_code = FIRST_CODE, code = 0;
    int32_t bump = width_bump(MIN_WIDTH, max_width);
    for (;;) {
        /* the code's bits start at bit; while 8 bytes remain from there one
           load holds them all, as width <= 20 bits start within the first
           byte; the last 7 bytes are read one at a time, and only they can
           end too soon */
        const size_t at = bit >> 3;
        uint64_t word;
        if (at + 8 <= n) {
            word = load_be64(src + at);
        } else {
            if (bit + (size_t)width > 8 * n) {
                res->pos = n;
                status = LZW_TRUNCATED;
                goto done;
            }
            word = 0;
            for (size_t k = at; k < n; k++)
                word |= (uint64_t)src[k] << (56 - 8 * (k - at));
        }
        code = (int32_t)(word << (bit & 7) >> (64 - width));
        bit += (size_t)width;
        if (code < 256) {
            cur_len = 1;
            if (len == size)
                goto too_long;
            out[len] = (uint8_t)code;
        } else {
            if (code == END)
                break;
            if (code == CLEAR) {
                next_code = FIRST_CODE;
                width = MIN_WIDTH;
                bump = width_bump(MIN_WIDTH, max_width);
                have_prev = 0;
                continue;
            }
            /* where the phrase is copied from and its length; kwk marks the
               entry that this very code defines: the latest code's phrase,
               which runs up to the write position, plus its first byte */
            const int kwk = code == next_code && have_prev && next_code < capacity;
            if (code >= next_code && !kwk) {
                res->code = code;
                res->next_code = next_code;
                status = LZW_CORRUPT;
                goto done;
            }
            const size_t from = start[code - FIRST_CODE];
            cur_len = (kwk ? len : start[code - FIRST_CODE + 1]) - from + 1;
            if (cur_len > size - len)
                goto too_long;
            if (cur_len <= 16 && size - len >= 16) {
                /* Most phrases are short: copy 16 bytes as two words. As
                   from < len and len + 16 <= size, both 16-byte windows lie
                   in out: the loads read up to 15 bytes past the phrase,
                   and the stores write up to 15 bytes past it, which later
                   codes overwrite (on an error the caller discards out).
                   The phrase ends at or before len, so where the windows
                   overlap they hold only bytes past it; both words are
                   loaded before either is stored so that the compiler need
                   not order a load after a store that may alias it. */
                uint64_t lo, hi;
                memcpy(&lo, out + from, 8);
                memcpy(&hi, out + from + 8, 8);
                memcpy(out + len, &lo, 8);
                memcpy(out + len + 8, &hi, 8);
            } else {
                memcpy(out + len, out + from, cur_len - kwk);
            }
            if (kwk)
                out[len + cur_len - 1] = out[from];
        }
        /* the entry made of the latest code and this one's first byte, then
           where this code is written */
        if (!have_prev || next_code < capacity) {
            if (have_prev && ++next_code >= bump) {
                width++;
                bump = width_bump(width, max_width);
            }
            start[next_code - FIRST_CODE] = len;
        }
        len += cur_len;
        have_prev = 1;
    }
    res->len = len;
    res->pos = (bit + 7) >> 3;
    status = len == size ? LZW_OK : LZW_LENGTH;
    goto done;

too_long:
    res->len = len + cur_len;
    res->pos = (bit + 7) >> 3;
    status = LZW_LENGTH;

done:
    free(start);
    return status;
}

/* ---------------------------------------------------------------------
   Pixel stages, byte-identical to the numpy kernels of the same names in
   slidecodec/_lzw_py.py. slidecodec/transform.py (project, unproject) and
   slidecodec/bitplane.py (to_bitplanes, from_bitplanes) state the
   arithmetic.

   Every (h, w, c) uint8 array here has packed rows: each row's w*c bytes
   follow each other in pixel-major order. px_project reads its input's
   rows s0 bytes apart and px_unproject writes its output's rows y0 bytes
   apart (either may be negative), so the codec's tiles, views of the
   image, are read and written in place; every other array is contiguous.
   The wrapper in _lzw_native.py copies any other layout once, and never
   passes output rows that overlap each other. The caller checks shapes,
   channel counts and buffer sizes. The projection kernels return LZW_OK,
   or LZW_NOMEM without scratch rows; the bit-plane kernels return nothing.

   The bit-plane kernels take 3 channels, on CPUs with SSSE3, 64 groups of
   8 pixels at a time, so that each of the 24 planes is written or read as
   one whole 64-byte line per block (to_blocks, from_blocks). Other channel
   counts, other CPUs, the groups after the last whole block and the last,
   partial group go through a SWAR transpose of one 64-bit word per group
   and channel (to_planes, from_planes). */

/* protobuf's ZigZag in 8 bits: (s << 1) ^ (s >> 7) on the int8 s, and back */
static inline uint8_t zigzag8(unsigned v) { return (uint8_t)((v << 1) ^ (0u - ((v >> 7) & 1))); }
static inline uint8_t unzigzag8(unsigned u) { return (uint8_t)(((u & 0xFF) >> 1) ^ (0u - (u & 1))); }

/* Bytes per step of the row passes below: whole pixels of 1 and of 3
   channels, and whole 16-byte vectors. A step is a loop of CHUNK
   iterations with no branch and no value carried from one to the next,
   over restrict pointers, which compilers vectorize at -O2. A pass's steps
   start where its byte-at-a-time head ends (after the first pixel, or at
   0) and run CHUNK apart, except that the last is moved back to end at the
   row's end (next_step): it redoes a few bytes, which is harmless because
   no pass reads what it writes. A row shorter than one step goes a byte at
   a time. */
enum { CHUNK = 48 };

static inline size_t next_step(size_t j, size_t len)
{
    return j + CHUNK == len ? len : j + 2 * CHUNK <= len ? j + CHUNK : len - CHUNK;
}

/* Channel-tie masks of an RGB row, from a pixel boundary: TIE1 selects
   each pixel's second byte and TIE2 its third, which are tied to the
   first, one and two bytes before them. Their period is 3, so byte j of a
   row takes mask index j % 3, and in a step starting on a pixel boundary
   its index in the step. */
#define TIMES4(...) __VA_ARGS__ __VA_ARGS__ __VA_ARGS__ __VA_ARGS__
static const uint8_t TIE1[CHUNK] = {TIMES4(TIMES4(0, 0xFF, 0,))};
static const uint8_t TIE2[CHUNK] = {TIMES4(TIMES4(0, 0, 0xFF,))};

/* The row and column differences at p, in a row of c-byte pixels whose
   row above is at q: p - q - left + above-left. */
static inline uint8_t diff2(const uint8_t *p, const uint8_t *q, size_t c)
{
    return (uint8_t)(p[0] - q[0] - p[-(ptrdiff_t)c] + q[-(ptrdiff_t)c]);
}

/* The zigzag residual of the RGB difference byte at e, past the first
   pixel: the pixel's first byte is subtracted from its second and third.
   i is the mask index. */
static inline uint8_t zigzag_tied(const uint8_t *e, size_t i)
{
    return zigzag8((uint8_t)(e[0] - (e[-1] & TIE1[i]) - (e[-2] & TIE2[i])));
}

/* One packed row of project into z: cur is the row, prev the packed row
   above it (zeros for row 0), and e a scratch row; c is 1 or 3. */
static void project_row(const uint8_t *restrict cur, const uint8_t *restrict prev,
                        uint8_t *restrict e, uint8_t *restrict z, size_t len, size_t c)
{
    size_t j;
    for (j = 0; j < c; j++)
        e[j] = (uint8_t)(cur[j] - prev[j]);
    if (len >= c + CHUNK)
        for (j = c; j < len; j = next_step(j, len))
            for (size_t i = 0; i < CHUNK; i++)
                e[j + i] = diff2(cur + j + i, prev + j + i, c);
    else
        for (j = c; j < len; j++)
            e[j] = diff2(cur + j, prev + j, c);
    if (c == 1) {
        if (len >= CHUNK)
            for (j = 0; j < len; j = next_step(j, len))
                for (size_t i = 0; i < CHUNK; i++)
                    z[j + i] = zigzag8(e[j + i]);
        else
            for (j = 0; j < len; j++)
                z[j] = zigzag8(e[j]);
        return;
    }
    z[0] = zigzag8(e[0]);
    z[1] = zigzag8((uint8_t)(e[1] - e[0]));
    z[2] = zigzag8((uint8_t)(e[2] - e[0]));
    if (len >= 3 + CHUNK)
        for (j = 3; j < len; j = next_step(j, len))
            for (size_t i = 0; i < CHUNK; i++)
                z[j + i] = zigzag_tied(e + j + i, i);
    else
        for (j = 3; j < len; j++)
            z[j] = zigzag_tied(e + j, j % 3);
}

/* z (contiguous) = project(x), x's rows s0 bytes apart; c is 1 or 3. */
int px_project(const uint8_t *x, size_t h, size_t w, size_t c, ptrdiff_t s0, uint8_t *z)
{
    const size_t len = w * c;
    /* a zero row and a difference row */
    uint8_t *scratch = calloc(len * 2 + 1, 1);
    if (!scratch)
        return LZW_NOMEM;
    const uint8_t *prev = scratch;
    for (size_t m = 0; m < h && len; m++) {
        const uint8_t *cur = x + (ptrdiff_t)m * s0;
        project_row(cur, prev, scratch + len, z + m * len, len, c);
        prev = cur;
    }
    free(scratch);
    return LZW_OK;
}

/* Running sums of each channel of an RGB row, in place: three chains in
   registers. */
static void sum3(uint8_t *t, size_t len)
{
    unsigned a0 = 0, a1 = 0, a2 = 0;
    for (size_t j = 0; j < len; j += 3) {
        t[j] = (uint8_t)(a0 += t[j]);
        t[j + 1] = (uint8_t)(a1 += t[j + 1]);
        t[j + 2] = (uint8_t)(a2 += t[j + 2]);
    }
}

/* The RGB byte at u, past the first pixel, with its pixel's first byte
   added back to the second and third; i is the mask index. */
static inline uint8_t untied(const uint8_t *u, size_t i)
{
    return (uint8_t)(u[0] + (u[-1] & TIE1[i]) + (u[-2] & TIE2[i]));
}

/* One packed row of unproject into y: r is the residual row, prev the
   output row above (zeros for row 0), and t a scratch row; c is 1 or 3.
   Four passes: undo the zigzag into y, undo the channel pass into t, sum
   each channel along the row in t (the column pass), add prev (the row
   pass). The sum carries a value from pixel to pixel, so it is the one
   scalar pass; its three channels run as separate chains in registers. */
static void unproject_row(const uint8_t *restrict r, const uint8_t *restrict prev,
                          uint8_t *restrict t, uint8_t *restrict y, size_t len, size_t c)
{
    size_t j;
    if (len >= CHUNK)
        for (j = 0; j < len; j = next_step(j, len))
            for (size_t i = 0; i < CHUNK; i++)
                y[j + i] = unzigzag8(r[j + i]);
    else
        for (j = 0; j < len; j++)
            y[j] = unzigzag8(r[j]);
    if (c == 1) {
        uint8_t a = 0;
        for (j = 0; j < len; j++)
            t[j] = a = (uint8_t)(a + y[j]);
    } else {
        t[0] = y[0];
        t[1] = (uint8_t)(y[1] + y[0]);
        t[2] = (uint8_t)(y[2] + y[0]);
        if (len >= 3 + CHUNK)
            for (j = 3; j < len; j = next_step(j, len))
                for (size_t i = 0; i < CHUNK; i++)
                    t[j + i] = untied(y + j + i, i);
        else
            for (j = 3; j < len; j++)
                t[j] = untied(y + j, j % 3);
        sum3(t, len);
    }
    if (len >= CHUNK)
        for (j = 0; j < len; j = next_step(j, len))
            for (size_t i = 0; i < CHUNK; i++)
                y[j + i] = (uint8_t)(prev[j + i] + t[j + i]);
    else
        for (j = 0; j < len; j++)
            y[j] = (uint8_t)(prev[j] + t[j]);
}

/* y = unproject(r), r contiguous and y's rows y0 bytes apart, |y0| >= w*c
   unless h is 1, not overlapping r; c is 1 or 3. */
int px_unproject(const uint8_t *r, size_t h, size_t w, size_t c, uint8_t *y, ptrdiff_t y0)
{
    const size_t len = w * c;
    /* a zero row and a sum row */
    uint8_t *scratch = calloc(len * 2 + 1, 1);
    if (!scratch)
        return LZW_NOMEM;
    const uint8_t *prev = scratch;
    for (size_t m = 0; m < h && len; m++) {
        uint8_t *row = y + (ptrdiff_t)m * y0;
        unproject_row(r + m * len, prev, scratch + len, row, len, c);
        prev = row;
    }
    free(scratch);
    return LZW_OK;
}

/* Transpose the 8x8 bit matrix in x, row i in byte 7 - i (big-endian
   order): three masked shift-and-XOR rounds that swap 1x1, 2x2 and 4x4
   blocks (Hacker's Delight, 2nd ed., 7-3, transpose8). */
static inline uint64_t transpose8(uint64_t x)
{
    uint64_t t;
    t = (x ^ (x >> 7)) & UINT64_C(0x00AA00AA00AA00AA);
    x ^= t ^ (t << 7);
    t = (x ^ (x >> 14)) & UINT64_C(0x0000CCCC0000CCCC);
    x ^= t ^ (t << 14);
    t = (x ^ (x >> 28)) & UINT64_C(0x00000000F0F0F0F0);
    x ^= t ^ (t << 28);
    return x;
}

/* p[0], p[c], ..., p[7c] as one word, p[0] in the top byte. Written out:
   -O2 does not unroll these fixed 8-step loops, and the loop costs more
   than the work. */
static inline uint64_t gather8(const uint8_t *p, size_t c)
{
    return (uint64_t)p[0] << 56 | (uint64_t)p[c] << 48 | (uint64_t)p[2 * c] << 40
           | (uint64_t)p[3 * c] << 32 | (uint64_t)p[4 * c] << 24 | (uint64_t)p[5 * c] << 16
           | (uint64_t)p[6 * c] << 8 | (uint64_t)p[7 * c];
}

/* The inverse: p[ic] = byte 7 - i of x. */
static inline void scatter8(uint64_t x, uint8_t *p, size_t c)
{
    p[0] = (uint8_t)(x >> 56);
    p[c] = (uint8_t)(x >> 48);
    p[2 * c] = (uint8_t)(x >> 40);
    p[3 * c] = (uint8_t)(x >> 32);
    p[4 * c] = (uint8_t)(x >> 24);
    p[5 * c] = (uint8_t)(x >> 16);
    p[6 * c] = (uint8_t)(x >> 8);
    p[7 * c] = (uint8_t)x;
}

/* Planes of groups 0 .. n - 1 from p, n groups of 8 packed pixels of
   c channels. Plane section j (bit 7 - j) of channel k starts at
   planes + (8k + j) * plane_len. Eight groups at a time, each plane's 8
   bytes are assembled on the stack and stored as one word: the 8c planes
   being written lie plane_len apart, often a multiple of the page size, and
   byte stores to that many of them at once evict each other from the
   cache. The SSSE3 blocks below take this a whole cache line further. */
static inline void to_planes(const uint8_t *p, size_t n, size_t c, uint8_t *planes,
                             size_t plane_len)
{
    size_t g = 0;
    for (; g + 8 <= n; g += 8, p += 64 * c) {
        for (size_t k = 0; k < c; k++) {
            uint8_t block[8][8]; /* block[j][i]: plane section j, group g + i */
            for (size_t i = 0; i < 8; i++)
                scatter8(transpose8(gather8(p + 8 * i * c + k, c)), &block[0][i], 8);
            uint8_t *out = planes + 8 * k * plane_len + g;
            for (size_t j = 0; j < 8; j++)
                memcpy(out + j * plane_len, block[j], 8);
        }
    }
    for (; g < n; g++, p += 8 * c)
        for (size_t k = 0; k < c; k++)
            scatter8(transpose8(gather8(p + k, c)), planes + 8 * k * plane_len + g,
                     plane_len);
}

/* Pixels of groups 0 .. n - 1, packed into p; the inverse of
   to_planes. */
static inline void from_planes(const uint8_t *planes, size_t n, size_t c, uint8_t *p,
                               size_t plane_len)
{
    for (size_t g = 0; g < n; g++, p += 8 * c)
        for (size_t k = 0; k < c; k++)
            scatter8(transpose8(gather8(planes + 8 * k * plane_len + g, plane_len)),
                     p + k, c);
}

#if !defined(SLIDECODEC_NO_SIMD) && defined(__GNUC__) && (defined(__x86_64__) || defined(__i386__))
#include <tmmintrin.h>
#define SSSE3_BLOCKS 1

/* Line blocks with SSSE3 byte shuffles, for 3 channels (bitshuffle's
   method: Masui et al., Astronomy and Computing 2015). The groups go BLOCK
   at a time through a stack block that holds each of the 24 planes' BLOCK
   bytes, one 64-byte line, so each plane line is written or read whole,
   once per block: at plane_len 8192, the codec's 256x256 tiles, the 24
   lines of an RGB block share one L1 set, and 8-byte stores to them evict
   each other. Inside a block the pixels go 16 at a time, two groups:

   - to_blocks: pshufb splits them into one vector per channel, each group's
     bytes in reverse order; pmovmskb then gathers the top bit of each byte,
     so bit 7 of group i's byte is its first pixel's: the two bytes of
     plane section 0. paddb moves the next bit up, for section 1, and so on.
   - from_blocks: pshufb spreads a plane section's two bytes over the lanes
     of their group, pand/pcmpeqb against LANE_BIT sets each lane to -1
     where its pixel's bit is 1, and acc + acc - that shifts the bit in;
     pshufb then interleaves the channels back into pixels. */
enum { BLOCK = 64 };

#define SSSE3 __attribute__((target("ssse3")))
#define SSSE3_INLINE __attribute__((target("ssse3"), always_inline)) inline
/* -O2 does not unroll the fixed loops over channels and planes, and then
   keeps the channel vectors in memory */
#define UNROLL(n) _Pragma(STRINGIFY(GCC unroll n))
#define STRINGIFY(x) #x

/* Lane l of a vector of 16 pixels holds pixel px(l) = (l & 8) + 7 - (l & 7):
   each group in reverse order. SPLIT3[k][v] takes the bytes 3 px(l) + k of
   channel k that lie in vector v of three RGB vectors, and zeroes (-1) the
   lanes whose bytes lie in the others. */
static const int8_t SPLIT3[3][3][16] = {
    {{-1, -1, 15, 12, 9, 6, 3, 0, -1, -1, -1, -1, -1, -1, -1, -1},
     {5, 2, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, 14, 11, 8},
     {-1, -1, -1, -1, -1, -1, -1, -1, 13, 10, 7, 4, 1, -1, -1, -1}},
    {{-1, -1, -1, 13, 10, 7, 4, 1, -1, -1, -1, -1, -1, -1, -1, -1},
     {6, 3, 0, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, 15, 12, 9},
     {-1, -1, -1, -1, -1, -1, -1, -1, 14, 11, 8, 5, 2, -1, -1, -1}},
    {{-1, -1, -1, 14, 11, 8, 5, 2, -1, -1, -1, -1, -1, -1, -1, -1},
     {7, 4, 1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, 13, 10},
     {-1, -1, -1, -1, -1, -1, -1, -1, 15, 12, 9, 6, 3, 0, -1, -1}},
};
/* The way back, in pixel order: MERGE3[v][k] puts pixel (16v + l) / 3 of
   channel k in lane l of RGB vector v where (16v + l) % 3 is k. SPREAD
   copies a section's byte for each group over the group's lanes, and
   LANE_BIT is each lane's pixel's bit in that byte. */
static const int8_t MERGE3[3][3][16] = {
    {{0, -1, -1, 1, -1, -1, 2, -1, -1, 3, -1, -1, 4, -1, -1, 5},
     {-1, 0, -1, -1, 1, -1, -1, 2, -1, -1, 3, -1, -1, 4, -1, -1},
     {-1, -1, 0, -1, -1, 1, -1, -1, 2, -1, -1, 3, -1, -1, 4, -1}},
    {{-1, -1, 6, -1, -1, 7, -1, -1, 8, -1, -1, 9, -1, -1, 10, -1},
     {5, -1, -1, 6, -1, -1, 7, -1, -1, 8, -1, -1, 9, -1, -1, 10},
     {-1, 5, -1, -1, 6, -1, -1, 7, -1, -1, 8, -1, -1, 9, -1, -1}},
    {{-1, 11, -1, -1, 12, -1, -1, 13, -1, -1, 14, -1, -1, 15, -1, -1},
     {-1, -1, 11, -1, -1, 12, -1, -1, 13, -1, -1, 14, -1, -1, 15, -1},
     {10, -1, -1, 11, -1, -1, 12, -1, -1, 13, -1, -1, 14, -1, -1, 15}},
};
static const int8_t SPREAD[16] = {0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1, 1, 1};
static const uint8_t LANE_BIT[16] = {0x80, 0x40, 0x20, 0x10, 8, 4, 2, 1,
                                     0x80, 0x40, 0x20, 0x10, 8, 4, 2, 1};

static SSSE3_INLINE __m128i load16(const void *p)
{
    return _mm_loadu_si128((const __m128i *)p);
}

static SSSE3_INLINE __m128i shuffle3(__m128i a, __m128i b, __m128i d, const int8_t m[3][16])
{
    return _mm_or_si128(_mm_or_si128(_mm_shuffle_epi8(a, load16(m[0])),
                                     _mm_shuffle_epi8(b, load16(m[1]))),
                        _mm_shuffle_epi8(d, load16(m[2])));
}

/* to_planes of the whole blocks of n groups of 3 channels; returns the
   groups done. */
static SSSE3 size_t to_blocks(const uint8_t *p, size_t n, uint8_t *planes, size_t plane_len)
{
    uint8_t block[24][BLOCK]; /* block[8k + j][i]: plane section j of channel k, group g + i */
    size_t g = 0;
    for (; g + BLOCK <= n; g += BLOCK) {
        for (size_t i = 0; i < BLOCK; i += 2, p += 48) {
            const __m128i a = load16(p), b = load16(p + 16), d = load16(p + 32);
            __m128i ch[3];
            UNROLL(3) for (size_t k = 0; k < 3; k++)
                ch[k] = shuffle3(a, b, d, SPLIT3[k]);
            UNROLL(3) for (size_t k = 0; k < 3; k++) {
                UNROLL(8) for (size_t j = 0; j < 8; j++, ch[k] = _mm_add_epi8(ch[k], ch[k])) {
                    /* group g + i's byte, then g + i + 1's */
                    const uint16_t bits = (uint16_t)_mm_movemask_epi8(ch[k]);
                    memcpy(&block[8 * k + j][i], &bits, 2);
                }
            }
        }
        for (size_t j = 0; j < 24; j++)
            memcpy(planes + j * plane_len + g, block[j], BLOCK);
    }
    return g;
}

/* from_planes of the whole blocks of n groups of 3 channels; returns the
   groups done. */
static SSSE3 size_t from_blocks(const uint8_t *planes, size_t n, uint8_t *p, size_t plane_len)
{
    /* a step loads 16 bytes from its 2 in a line: 14 bytes follow the last line */
    uint8_t block[24 * BLOCK + 14] = {0};
    const __m128i bit = load16(LANE_BIT);
    size_t g = 0;
    for (; g + BLOCK <= n; g += BLOCK) {
        for (size_t j = 0; j < 24; j++)
            memcpy(block + j * BLOCK, planes + j * plane_len + g, BLOCK);
        for (size_t i = 0; i < BLOCK; i += 2, p += 48) {
            __m128i ch[3];
            UNROLL(3) for (size_t k = 0; k < 3; k++) {
                ch[k] = _mm_setzero_si128();
                UNROLL(8) for (size_t j = 0; j < 8; j++) {
                    const __m128i bytes = load16(block + (8 * k + j) * BLOCK + i);
                    const __m128i lane = _mm_and_si128(_mm_shuffle_epi8(bytes, load16(SPREAD)), bit);
                    ch[k] = _mm_sub_epi8(_mm_add_epi8(ch[k], ch[k]), _mm_cmpeq_epi8(lane, bit));
                }
            }
            UNROLL(3) for (size_t v = 0; v < 3; v++)
                _mm_storeu_si128((__m128i *)(p + 16 * v), shuffle3(ch[0], ch[1], ch[2], MERGE3[v]));
        }
    }
    return g;
}

/* Whether the SSSE3 blocks take the first groups of c channels. */
static int use_blocks(size_t c)
{
    return c == 3 && __builtin_cpu_supports("ssse3");
}
#endif

static void to_planes_c(const uint8_t *p, size_t n, size_t c, uint8_t *planes,
                        size_t plane_len)
{
#ifdef SSSE3_BLOCKS
    if (use_blocks(c)) {
        const size_t g = to_blocks(p, n, planes, plane_len);
        p += 24 * g;
        planes += g;
        n -= g;
    }
#endif
    if (c == 1)
        to_planes(p, n, 1, planes, plane_len);
    else if (c == 3)
        to_planes(p, n, 3, planes, plane_len);
    else
        to_planes(p, n, c, planes, plane_len);
}

static void from_planes_c(const uint8_t *planes, size_t n, size_t c, uint8_t *p,
                          size_t plane_len)
{
#ifdef SSSE3_BLOCKS
    if (use_blocks(c)) {
        const size_t g = from_blocks(planes, n, p, plane_len);
        planes += g;
        p += 24 * g;
        n -= g;
    }
#endif
    if (c == 1)
        from_planes(planes, n, 1, p, plane_len);
    else if (c == 3)
        from_planes(planes, n, 3, p, plane_len);
    else
        from_planes(planes, n, c, p, plane_len);
}

/* planes = to_bitplanes(x), x contiguous: c * 8 * ceil(h*w / 8) bytes, any c. */
void px_to_bitplanes(const uint8_t *x, size_t h, size_t w, size_t c, uint8_t *planes)
{
    const size_t npix = h * w, plane_len = (npix + 7) / 8, groups = npix / 8;
    if (!npix || !c)
        return;
    to_planes_c(x, groups, c, planes, plane_len);
    /* the last group, zero-padded: its pixels gathered into one word per channel */
    x += 8 * groups * c;
    for (size_t k = 0; k < c && npix % 8; k++) {
        uint64_t v = 0;
        for (size_t i = 0; i < npix % 8; i++)
            v |= (uint64_t)x[i * c + k] << (56 - 8 * i);
        scatter8(transpose8(v), planes + 8 * k * plane_len + groups, plane_len);
    }
}

/* y (packed, h*w*c bytes) = from_bitplanes(planes); pad bits are ignored. */
void px_from_bitplanes(const uint8_t *planes, size_t h, size_t w, size_t c, uint8_t *y)
{
    const size_t npix = h * w, plane_len = (npix + 7) / 8, groups = npix / 8;
    if (!npix || !c)
        return;
    from_planes_c(planes, groups, c, y, plane_len);
    /* the last group: one word per channel, scattered to the pixels present */
    y += 8 * groups * c;
    for (size_t k = 0; k < c && npix % 8; k++) {
        uint64_t v = transpose8(gather8(planes + 8 * k * plane_len + groups, plane_len));
        for (size_t i = 0; i < npix % 8; i++)
            y[i * c + k] = (uint8_t)(v >> (56 - 8 * i));
    }
}
