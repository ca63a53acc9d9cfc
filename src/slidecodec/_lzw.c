/* Native LZW kernels, byte-identical to slidecodec/_lzw_py.py.

   The wire rules are stated in _lzw_py.py's docstring. This file uses no
   Python C-API: slidecodec/_lzw_native.py compiles it with the system C
   compiler and calls it through ctypes, which releases the interpreter lock
   for the length of each call, so patch workers overlap.

   Output buffers are malloc'd here: the encoder grows its buffer with
   realloc, while the decoder allocates the caller's expected size once and
   stops as soon as the stream disagrees with it, so its output is never
   grown. The caller copies the output out and releases it with lzw_free.
   Every entry point returns one of the LZW_* status codes and fills an
   lzw_result. */

#include <stddef.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

enum { CLEAR = 256, END = 257, FIRST_CODE = 258, MIN_WIDTH = 9 };

enum { LZW_OK = 0, LZW_TRUNCATED = 1, LZW_CORRUPT = 2, LZW_NOMEM = 3, LZW_LENGTH = 4 };

typedef struct {
    size_t len;        /* bytes in *out; on LZW_LENGTH, the length decoded */
    size_t ncodes;     /* encode: codes written to the caller's code buffer */
    size_t pos;        /* decode: input bytes consumed */
    int32_t code;      /* decode: the last code read */
    int32_t next_code; /* decode: the dictionary's next code when it was read */
    int32_t peak;      /* encode: the largest next code the dictionary reached */
} lzw_result;

void lzw_free(void *p) { free(p); }

/* Upper bound on the codes lzw_encode emits for n input bytes: at most one
   data code per byte, one CLEAR per (2**max_width - FIRST_CODE) dictionary
   entries, and END. A code buffer passed to lzw_encode must hold this many. */
size_t lzw_max_codes(size_t n, int max_width)
{
    return n + n / (((size_t)1 << max_width) - FIRST_CODE) + 2;
}

typedef struct {
    uint8_t *buf;
    size_t len, cap;
    uint64_t acc;
    int nbits;
    int32_t *codes; /* optional sink for the emitted codes */
    size_t ncodes;
} writer;

/* Append one code MSB-first; -1 when the buffer cannot grow. */
static int put(writer *w, int width, int32_t code)
{
    if (w->len + 8 > w->cap) {
        size_t cap = 2 * w->cap;
        uint8_t *grown = realloc(w->buf, cap);
        if (!grown)
            return -1;
        w->buf = grown;
        w->cap = cap;
    }
    if (w->codes)
        w->codes[w->ncodes++] = code;
    w->acc = (w->acc << width) | (uint64_t)code;
    w->nbits += width;
    while (w->nbits >= 8) {
        w->nbits -= 8;
        w->buf[w->len++] = (uint8_t)(w->acc >> w->nbits);
    }
    return 0;
}

/* Open-addressing dictionary from (prefix_code << 8 | byte) to code. It
   starts small and doubles while kept at most half full, so its size follows
   the dictionary actually built, which the input length and 2**max_width
   bound, rather than the code space. */
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

/* The slot holding key, or the empty slot where it belongs. */
static size_t table_find(const table *t, uint32_t key)
{
    const size_t mask = ((size_t)1 << t->bits) - 1;
    size_t h = (uint32_t)(key * 2654435761u) >> (32 - t->bits);
    while (t->keys[h] && t->keys[h] != key + 1)
        h = (h + 1) & mask;
    return h;
}

/* Double the table and reinsert its entries; -1 when memory runs out. */
static int table_grow(table *t)
{
    table g;
    if (table_init(&g, t->bits + 1)) {
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

/* Encode src[0:n]. codes may be NULL; otherwise it must hold
   lzw_max_codes(n, max_width) entries. On LZW_OK *out holds res->len bytes. */
int lzw_encode(const uint8_t *src, size_t n, int max_width, int32_t *codes,
               uint8_t **out, lzw_result *res)
{
    const int32_t capacity = (int32_t)1 << max_width;
    table t;
    writer w = {0};
    w.cap = n + n / 8 + 64;
    w.buf = malloc(w.cap);
    w.codes = codes;

    int status = LZW_NOMEM;
    if (table_init(&t, 8) || !w.buf)
        goto done;

    int width = MIN_WIDTH;
    int32_t next_code = FIRST_CODE, peak = FIRST_CODE, prev = -1;
    for (size_t i = 0; i < n; i++) {
        const int32_t b = src[i];
        if (prev < 0) {
            prev = b;
            continue;
        }
        const uint32_t key = ((uint32_t)prev << 8) | (uint32_t)b;
        size_t h = table_find(&t, key);
        if (t.keys[h]) {
            prev = t.vals[h];
            continue;
        }
        if (put(&w, width, prev))
            goto done;
        if (next_code < capacity) {
            if (2 * (t.used + 1) > (size_t)1 << t.bits) {
                if (table_grow(&t))
                    goto done;
                h = table_find(&t, key);
            }
            t.keys[h] = key + 1;
            t.vals[h] = next_code++;
            t.used++;
            if (next_code > peak)
                peak = next_code;
            if (next_code - 1 >= (1 << width))
                width++;
        } else {
            if (put(&w, width, CLEAR))
                goto done;
            memset(t.keys, 0, ((size_t)1 << t.bits) * sizeof *t.keys);
            t.used = 0;
            next_code = FIRST_CODE;
            width = MIN_WIDTH;
        }
        prev = b;
    }
    if (prev >= 0) {
        if (put(&w, width, prev))
            goto done;
        /* mirror the decoder's entry for the final data code; without it END
           is written one bit narrower than the decoder reads it */
        if (FIRST_CODE < next_code && next_code < capacity) {
            next_code++;
            if (next_code > peak)
                peak = next_code;
            if (next_code - 1 >= (1 << width))
                width++;
        }
    }
    if (put(&w, width, END))
        goto done;
    if (w.nbits)
        w.buf[w.len++] = (uint8_t)(w.acc << (8 - w.nbits));
    res->len = w.len;
    res->ncodes = w.ncodes;
    res->peak = peak;
    status = LZW_OK;

done:
    free(t.keys);
    free(t.vals);
    if (status == LZW_OK) {
        *out = w.buf;
    } else {
        free(w.buf);
        *out = NULL;
    }
    return status;
}

/* Decode src[0:n] up to its END code into exactly size bytes. On LZW_OK
   *out holds them; on LZW_TRUNCATED res->pos, and on LZW_CORRUPT res->code
   and res->next_code, say where the stream went wrong. LZW_LENGTH means the
   code read by res->pos would take the output to res->len > size bytes, or
   END arrived after only res->len < size. */
int lzw_decode(const uint8_t *src, size_t n, int max_width, size_t size,
               uint8_t **out, lzw_result *res)
{
    const int32_t capacity = (int32_t)1 << max_width;
    /* Every code read after the first adds at most one entry, and a stream
       of n bytes holds at most 8n / MIN_WIDTH codes. */
    size_t entries = (size_t)(capacity - FIRST_CODE);
    if (n / MIN_WIDTH * 8 + 8 < entries)
        entries = n / MIN_WIDTH * 8 + 8;
    int32_t *prefix = malloc(entries * sizeof *prefix);
    int32_t *length = malloc(entries * sizeof *length);
    uint8_t *suffix = malloc(entries);
    uint8_t *first = malloc(entries);
    size_t len = 0, pos = 0;
    uint8_t *buf = malloc(size ? size : 1);

    int status = LZW_NOMEM;
    if (!prefix || !length || !suffix || !first || !buf)
        goto done;

    uint64_t acc = 0;
    int nbits = 0, width = MIN_WIDTH, have_prev = 0;
    int32_t next_code = FIRST_CODE, code = 0;
    int32_t prev_code = 0, prev_len = 0, prev_first = 0;
    for (;;) {
        while (nbits < width) {
            if (pos >= n) {
                res->pos = pos;
                status = LZW_TRUNCATED;
                goto done;
            }
            acc = (acc << 8) | src[pos++];
            nbits += 8;
        }
        nbits -= width;
        code = (int32_t)((acc >> nbits) & (((uint64_t)1 << width) - 1));
        if (code == END)
            break;
        if (code == CLEAR) {
            next_code = FIRST_CODE;
            width = MIN_WIDTH;
            have_prev = 0;
            continue;
        }
        int kwk = 0;
        int32_t cur_len, cur_first;
        if (code < 256) {
            cur_len = 1;
            cur_first = code;
        } else if (code >= FIRST_CODE && code < next_code) {
            cur_len = length[code - FIRST_CODE];
            cur_first = first[code - FIRST_CODE];
        } else if (code == next_code && have_prev && next_code < capacity) {
            kwk = 1; /* the entry being defined by this very code */
            cur_len = prev_len + 1;
            cur_first = prev_first;
        } else {
            res->code = code;
            res->next_code = next_code;
            status = LZW_CORRUPT;
            goto done;
        }
        if ((size_t)cur_len > size - len) {
            res->len = len + (size_t)cur_len;
            res->pos = pos;
            status = LZW_LENGTH;
            goto done;
        }
        /* materialise cur by walking its (prefix, suffix) chain backwards */
        size_t tail = len + (size_t)cur_len - 1;
        int32_t c = code;
        if (kwk) {
            buf[tail--] = (uint8_t)prev_first;
            c = prev_code;
        }
        while (c >= FIRST_CODE) {
            buf[tail--] = suffix[c - FIRST_CODE];
            c = prefix[c - FIRST_CODE];
        }
        buf[tail] = (uint8_t)c;
        if (have_prev && next_code < capacity) {
            const int32_t idx = next_code - FIRST_CODE;
            prefix[idx] = prev_code;
            suffix[idx] = (uint8_t)cur_first;
            length[idx] = prev_len + 1;
            first[idx] = (uint8_t)prev_first;
            next_code++;
            if (next_code >= (1 << width) && width < max_width)
                width++;
        }
        len += (size_t)cur_len;
        prev_code = code;
        prev_len = cur_len;
        prev_first = cur_first;
        have_prev = 1;
    }
    res->len = len;
    res->pos = pos;
    status = len == size ? LZW_OK : LZW_LENGTH;

done:
    free(prefix);
    free(length);
    free(suffix);
    free(first);
    if (status == LZW_OK) {
        *out = buf;
    } else {
        free(buf);
        *out = NULL;
    }
    return status;
}
