"""Compile-on-first-use machinery for the native §4 counting-scatter tier.

The C source below is the paper's counting sort pass (§4: per-chunk
histogram → exclusive scan → scatter) compiled to machine code via
cffi's API mode, as one kernel: ``repro_native_sort_pairs`` stably
sorts 64-bit keys beside a 64-bit payload lane.  Every layout the
engine serves goes through it — keys, ``key|index`` and ``key|value``
words ride at the top of the key lane, narrower words shifted up —
so there is one schedule to mirror, price and sanitize.  Three design
points lift it from "NumPy in C" to a bandwidth-shaped kernel:

* **MSD partition first.**  Wide keys take one 11-bit MSD partition
  pass (2048 buckets), after which every bucket is small enough to
  finish in a cache-resident scratch buffer: the kernel keeps
  partitioning a bucket by MSD digits until it fits a local sort or
  one LSD digit, as the paper's §4 hybrid does.
* **Software write-combining.**  The one scatter that *does* span the
  full output array — the MSD partition — goes through one 64-byte
  line per bucket and output lane, its slots indexed by the
  destination address mod 64, so every line that fills is a whole,
  aligned output line.  Full lines go out with non-temporal stores
  (SSE2; a plain copy where the compiler does not target it), which
  skip the read-for-ownership a cached store pays: the
  Wassenberg–Sanders technique ("Faster Radix Sort via Virtual Memory
  and Write-Combining", arXiv:1008.2849).  Only a bucket's partial
  first and last lines take plain stores.
* **The §4.6 bijection inside the passes.**  The kernel reads the
  caller's raw key and value lanes as ``const`` and maps each key
  (unsigned, signed or IEEE float) "during the scattering step of the
  first counting sort", as §4.6 puts it.  Each MSD bucket finishes in
  a scratch buffer the size of the largest bucket, which stays in
  cache, and its keys map back to raw bits as it is written back, so
  the map costs no pass of its own and the kernel reads the input once
  for the histogram and once for the scatter, then reads and writes
  each bucket once more.

The tier also carries the CRC-32 that guards the external sort's
spilled runs (``repro_native_crc32``, chosen by :func:`crc32_kernel`).
It returns exactly what ``zlib.crc32`` returns, so a run spilled with
one verifies with the other, and folds 64 bytes a step by carry-less
multiply (PCLMULQDQ) where the CPU has it: a pass over the data then
costs about its memory traffic, several times faster than zlib's.

Build policy
------------
The extension is compiled at most once per (source digest, python ABI)
and cached under ``$REPRO_NATIVE_CACHE`` (default
``~/.cache/repro-native``).  A child interpreter compiles it in a
scratch directory, so cffi's build chain never loads into the caller,
and publishes the finished shared object with ``os.replace`` — an
atomic rename — so concurrent processes (parallel test runs, several
services on one host) can race on first use without observing a
half-written module.  A fresh compile then removes the cache's modules
of other source digests, which no build of this source loads again.

``import repro`` must never fail because a compiler is missing: every
failure mode (no cffi, no gcc, sandboxed tmpdir, corrupt cache) is
captured into a :class:`NativeStatus` probe result, surfaced as a
one-time warning, and reported through the planner as an unavailable
tier.  Set ``REPRO_NATIVE=0`` to disable the tier without a warning.
"""

from __future__ import annotations

import hashlib
import importlib.util
import os
import shutil
import subprocess
import sys
import sysconfig
import tempfile
import warnings
import zlib
from dataclasses import dataclass
from pathlib import Path

__all__ = [
    "CDEF",
    "C_SOURCE",
    "NativeStatus",
    "crc32_kernel",
    "native_status",
    "load_native",
    "source_digest",
]


CDEF = """
int repro_native_sort_pairs(const uint64_t *k, const uint64_t *v,
                            uint64_t *ok, uint64_t *ov, int64_t n,
                            int kind, int lo_bit);
uint32_t repro_native_crc32(const uint8_t *buf, int64_t n, uint32_t crc);
int repro_native_crc32_fast(void);
int repro_native_stream_lines(void);
"""

C_SOURCE = r"""
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* Digit schedule (mirrored by repro.core.digits.native_pairs_pass_plan):
 * keys whose sort range exceeds MSD_BITS + INNER_BITS take one MSD
 * partition pass on the key's top MSD_BITS bits.  Each bucket then
 * splits further by MSD digits of about log2(bucket) bits (msd_pairs)
 * until a sub-bucket fits LOCAL_SORT_MAX keys or INNER_BITS bits, and
 * finishes by its size:
 *
 *   - at most LOCAL_SORT_MAX keys: a stable insertion sort -- a bucket
 *     at or below the local-sort threshold finishes in one local sort
 *     (§4.1) and tiny buckets pay no counting pass (§4.3); adjacent
 *     small sub-buckets of one split share that sort;
 *   - larger: the p cache-resident LSD passes of w = ceil(bits / p)
 *     <= INNER_BITS bits that minimise p * (2n + 2^w / 10), i.e. the
 *     fewest passes whose histogram is not far larger than the bucket
 *     (11-bit digits from a few hundred keys up).
 *
 * Narrower ranges, and inputs of at most LOCAL_SORT_MAX keys, skip the
 * partition and finish the same way, with no further splits.
 *
 * The kernel sorts bits [lo_bit, 64) of a 64-bit key and is *stable*:
 * equal keys keep their input order, which is what lets the Python
 * side prove byte-identity against NumPy's stable sort and reuse the
 * payload lane as a stable argsort permutation.  Narrower words sort
 * at the top of the key lane, lo_bit = 64 - their width.
 *
 * Reentrancy: cffi releases the GIL around these calls and the service
 * layer sorts on worker threads, so every scrap of state is function-
 * local (stack counters) or malloc'd per call.  No statics.
 */
#define MSD_BITS 11
#define MSD_RADIX (1 << MSD_BITS)
#define INNER_BITS 11
#define INNER_RADIX (1 << INNER_BITS)
#define LOCAL_SORT_MAX 32
/* Write-combining line: one 64-byte cache line per MSD bucket and lane,
 * its slots indexed by the destination address mod 64, so a line that
 * fills is one whole, aligned output line.  2048 buckets x 2 lanes x
 * 64 bytes = 256 KiB of lines, inside L2. */
#define WC_LINE_BYTES 64
#define WC_SLOTS (WC_LINE_BYTES / 8)

/* Digit width for an LSD finish of `bits` bits over n keys: w =
 * ceil(bits / p) for the pass count p minimising p * (2n + 2^w / 10)
 * (scaled by 10 to stay in integers).  No p past the first whose
 * scatter traffic alone exceeds the best cost can win. */
static int finish_width(int64_t n, int bits)
{
    int p = (bits + INNER_BITS - 1) / INNER_BITS;
    int best = (bits + p - 1) / p;
    int64_t best_cost = -1;
    for (; p <= bits && (best_cost < 0 || p * 20 * n < best_cost); p++) {
        int w = (bits + p - 1) / p;
        int64_t cost = p * (20 * n + ((int64_t)1 << w));
        if (best_cost < 0 || cost < best_cost) {
            best_cost = cost;
            best = w;
        }
    }
    return best;
}

/* The finishers sort bits [lo, lo+bits) of n records whose key bits
 * above lo+bits are all equal (the key top, or the caller's MSD
 * bucket), so comparing x >> lo orders them exactly.  The payload lane
 * rides every move, so a payload of 0..n-1 comes back as the stable
 * sorting permutation of the keys (the decomposed layout of the
 * paper's §2.3). */
static void insertion_pairs(uint64_t *k, uint64_t *v, int64_t n, int lo)
{
    int64_t i, j;
    for (i = 1; i < n; i++) {
        uint64_t x = k[i], y = v[i], kx = x >> lo;
        for (j = i; j > 0 && (k[j - 1] >> lo) > kx; j--) {
            k[j] = k[j - 1];
            v[j] = v[j - 1];
        }
        k[j] = x;
        v[j] = y;
    }
}

static int inner_pairs(uint64_t *k, uint64_t *kt, uint64_t *v,
                       uint64_t *vt, int64_t n, int lo, int bits)
{
    int64_t cnt[INNER_RADIX];
    uint64_t *kb[2] = { k, kt }, *vb[2] = { v, vt };
    int cur = 0, width;
    if (n <= LOCAL_SORT_MAX) {
        insertion_pairs(k, v, n, lo);
        return 0;
    }
    width = finish_width(n, bits);
    while (bits > 0) {
        int w = bits < width ? bits : width;
        unsigned radix = 1u << w, d;
        uint64_t mask = radix - 1;
        const uint64_t *s = kb[cur], *sv = vb[cur];
        uint64_t *dst = kb[1 - cur], *dv = vb[1 - cur];
        int64_t i, base = 0;
        int trivial = 0;
        memset(cnt, 0, radix * sizeof(int64_t));
        for (i = 0; i < n; i++)
            cnt[(s[i] >> lo) & mask]++;
        for (d = 0; d < radix; d++) {
            int64_t c = cnt[d];
            if (c == n)
                trivial = 1;
            cnt[d] = base;
            base += c;
        }
        if (!trivial) {
            for (i = 0; i < n; i++) {
                int64_t p = cnt[(s[i] >> lo) & mask]++;
                dst[p] = s[i];
                dv[p] = sv[i];
            }
            cur ^= 1;
        }
        lo += w;
        bits -= w;
    }
    return cur;
}

/* Digit width of one further MSD split of a pairs bucket: the
 * smallest w with 2^w >= n, so the sub-buckets of uniform keys hold
 * about one key each, capped at INNER_BITS and at the bits left. */
static int split_width(int64_t n, int bits)
{
    int w = 1;
    while (w < INNER_BITS && ((int64_t)1 << w) < n)
        w++;
    return w < bits ? w : bits;
}

/* Finish (k, v) pairs on bits [lo, lo+bits) the way the paper's §4
 * hybrid does: further MSD partitions, each split_width bits wide
 * (a constant digit moves nothing and is skipped), until a sub-bucket
 * holds at most LOCAL_SORT_MAX keys or has at most INNER_BITS bits
 * left.  inner_pairs finishes the latter; the small ones finish by one
 * insertion sort per stretch of them.  Same buffer contract as
 * inner_pairs.  Recursion depth is bounded by bits / 6 (w >= 6 while
 * n > 32). */
static int msd_pairs(uint64_t *k, uint64_t *kt, uint64_t *v,
                     uint64_t *vt, int64_t n, int lo, int bits)
{
    int64_t cnt[INNER_RADIX];
    while (n > LOCAL_SORT_MAX && bits > INNER_BITS) {
        int w = split_width(n, bits), shift = lo + bits - w;
        unsigned radix = 1u << w, d;
        uint64_t mask = radix - 1;
        int64_t i, base = 0, run;
        int trivial = 0;
        bits -= w;
        memset(cnt, 0, radix * sizeof(int64_t));
        for (i = 0; i < n; i++)
            cnt[(k[i] >> shift) & mask]++;
        for (d = 0; d < radix; d++) {
            int64_t c = cnt[d];
            if (c == n)
                trivial = 1;
            cnt[d] = base;
            base += c;
        }
        if (trivial)
            continue;
        for (i = 0; i < n; i++) {
            int64_t p = cnt[(k[i] >> shift) & mask]++;
            kt[p] = k[i];
            vt[p] = v[i];
        }
        /* cnt[d] now ends sub-bucket d; each finishes in (kt, vt).  A
         * sub-bucket past LOCAL_SORT_MAX recurses; each stretch of
         * smaller ones between them takes one insertion sort, which
         * moves no key across a sub-bucket boundary: §4.1's local sort,
         * once per stretch at the cost of its length plus inversions. */
        base = run = 0;
        for (d = 0; d < radix; d++) {
            int64_t c = cnt[d] - base;
            if (c > LOCAL_SORT_MAX) {
                insertion_pairs(kt + run, vt + run, base - run, lo);
                if (msd_pairs(kt + base, k + base, vt + base, v + base, c,
                              lo, bits) != 0) {
                    memcpy(kt + base, k + base, (size_t)c * 8);
                    memcpy(vt + base, v + base, (size_t)c * 8);
                }
                run = cnt[d];
            }
            base = cnt[d];
        }
        insertion_pairs(kt + run, vt + run, n - run, lo);
        return 1;
    }
    return inner_pairs(k, kt, v, vt, n, lo, bits);
}

/* The §4.6 bijection of a 64-bit key word, for key kind KEY_UNSIGNED,
 * KEY_SIGNED or KEY_FLOAT, as two masks: map(x) = x ^ ((smear(x) &
 * flip) | sign), where smear(x) copies the top bit into every bit.
 * Unsigned keys have flip = sign = 0; signed keys flip the sign bit
 * (sign = SIGN64); IEEE floats also flip every other bit of a negative
 * key (flip = all ones).  unmap inverts it: a mapped float with its
 * top bit set was positive. */
#define KEY_UNSIGNED 0
#define KEY_SIGNED 1
#define KEY_FLOAT 2
#define SIGN64 ((uint64_t)1 << 63)

static inline uint64_t smear(uint64_t x)
{
    return (uint64_t)0 - (x >> 63);
}

static inline uint64_t map_key(uint64_t x, uint64_t flip, uint64_t sign)
{
    return x ^ ((smear(x) & flip) | sign);
}

static inline uint64_t unmap_key(uint64_t m, uint64_t flip, uint64_t sign)
{
    return m ^ ((~smear(m) & flip) | sign);
}

/* Finish one bucket of c mapped records at (bk, bv) on bits
 * [lo, lo+bits), with msd_pairs when `split`, else inner_pairs: both
 * ping-pong between the bucket and the scratch (sk, sv), which holds
 * at least c records and stays in cache.  The keys are unmapped into
 * bk as they are written back. */
static void finish_bucket(uint64_t *bk, uint64_t *bv, uint64_t *sk,
                          uint64_t *sv, int64_t c, int lo, int bits,
                          int split, uint64_t flip, uint64_t sign)
{
    int64_t i;
    if (c > 1 && (split ? msd_pairs : inner_pairs)(bk, sk, bv, sv, c, lo,
                                                   bits) != 0) {
        for (i = 0; i < c; i++)
            bk[i] = unmap_key(sk[i], flip, sign);
        memcpy(bv, sv, (size_t)c * 8);
    } else if (flip | sign) {
        for (i = 0; i < c; i++)
            bk[i] = unmap_key(bk[i], flip, sign);
    }
}

/* A whole write-combining line goes to its aligned output line with
 * four 16-byte non-temporal stores, which skip the read-for-ownership
 * a cached store pays (Wassenberg & Sanders); the caller fences once
 * before the lines are read.  Without SSE2 it is a plain copy.
 * REPRO_NATIVE_PLAIN_LINES forces the copy, so a test can run it. */
#if defined(__SSE2__) && !defined(REPRO_NATIVE_PLAIN_LINES)
#include <emmintrin.h>
#define STREAM_LINES 1
static inline void put_line(uint64_t *dst, const uint64_t *line)
{
    const __m128i *s = (const __m128i *)line;
    __m128i *d = (__m128i *)dst;
    _mm_stream_si128(d, _mm_load_si128(s));
    _mm_stream_si128(d + 1, _mm_load_si128(s + 1));
    _mm_stream_si128(d + 2, _mm_load_si128(s + 2));
    _mm_stream_si128(d + 3, _mm_load_si128(s + 3));
}
#else
#define STREAM_LINES 0
static inline void put_line(uint64_t *dst, const uint64_t *line)
{
    memcpy(dst, line, WC_LINE_BYTES);
}
#endif

/* The line of lane positions [first, first + WC_SLOTS) just filled, for
 * a bucket that starts at `start`: whole, it is put; a bucket's partial
 * first line is stored from `start` on, leaving the previous bucket's
 * records in the same output line alone. */
static inline void flush_line(uint64_t *lane, const uint64_t *line,
                              int64_t first, int64_t start)
{
    if (first >= start)
        put_line(lane + first, line);
    else
        memcpy(lane + start, line + (start - first),
               (size_t)(first + WC_SLOTS - start) * 8);
}

/* A bucket's last, partial line, positions [max(start, line start),
 * end) of a lane whose slot 0 is `slot0` words past a line boundary. */
static inline void flush_tail(uint64_t *lane, const uint64_t *line,
                              int64_t start, int64_t end, unsigned slot0)
{
    int64_t first = end - ((slot0 + (unsigned)end) & (WC_SLOTS - 1));
    if (first < start)
        first = start;
    if (first < end)
        memcpy(lane + first, line + ((slot0 + (unsigned)first)
                                     & (WC_SLOTS - 1)),
               (size_t)(end - first) * 8);
}

/* Stably sort the records (k[i], v[i]) by bits [lo_bit, 64) of the
 * mapped key map(k[i]) into (ok, ov): ok gets the raw key words back,
 * ov the payload, and k and v are only read.  A payload of 0..n-1
 * comes back as the stable sorting permutation of the keys.  The
 * output lanes must be 8-byte aligned, as uint64_t lanes are.
 *
 * DRAM traffic, counted by repro.core.digits.native_traffic: the MSD
 * partition reads the keys for its histogram, then reads the records
 * and writes them into (ok, ov) through one write-combining line per
 * bucket and lane: every line that fills is a whole, aligned output
 * line and streams past the cache without a read-for-ownership, and
 * only a bucket's partial first and last lines take cached stores.
 * Each bucket is then read and written once more, its further splits
 * and its finish running in a scratch buffer the size of the largest
 * bucket.  When the partition would not split the input (a narrow sort
 * range, at most LOCAL_SORT_MAX records, or one bucket holding them
 * all), the mapped records are copied into (ok, ov) and finish there
 * as one bucket.
 * Returns 0 on success, negative on error. */
int repro_native_sort_pairs(const uint64_t *k, const uint64_t *v,
                            uint64_t *ok, uint64_t *ov, int64_t n,
                            int kind, int lo_bit)
{
    int64_t hist[MSD_RADIX], start[MSD_RADIX], pos[MSD_RADIX];
    int msd_lo = 64 - MSD_BITS, bits = 64 - lo_bit, partition, split = 0;
    int d;
    int64_t i, base, big;
    uint64_t flip, sign, *sk, *lines;
    unsigned kslot0, vslot0;
    if (n < 0 || lo_bit < 0 || lo_bit >= 64 || kind < KEY_UNSIGNED
        || kind > KEY_FLOAT || ((uintptr_t)ok | (uintptr_t)ov) % 8)
        return -1;
    if (n <= 1) {
        if (n == 1) {
            ok[0] = k[0];
            ov[0] = v[0];
        }
        return 0;
    }
    flip = kind == KEY_FLOAT ? ~(uint64_t)0 : 0;
    sign = kind == KEY_UNSIGNED ? 0 : SIGN64;
    partition = bits > MSD_BITS + INNER_BITS && n > LOCAL_SORT_MAX;
    big = n;
    memset(hist, 0, sizeof(hist));
    if (partition) {
        for (i = 0; i < n; i++)
            hist[map_key(k[i], flip, sign) >> msd_lo]++;
        big = 0;
        for (d = 0; d < MSD_RADIX; d++)
            if (hist[d] > big)
                big = hist[d];
        if (big == n) {
            /* one bucket holds everything: skip the constant digit */
            partition = 0;
            split = 1;
            bits = msd_lo - lo_bit;
        }
    }
    sk = malloc((size_t)big * 16);
    if (sk == NULL)
        return -2;
    if (!partition) {
        for (i = 0; i < n; i++)
            ok[i] = map_key(k[i], flip, sign);
        memcpy(ov, v, (size_t)n * 8);
        finish_bucket(ok, ov, sk, sk + big, n, lo_bit, bits, split, flip,
                      sign);
        free(sk);
        return 0;
    }
    /* bucket d's key line, then its payload line */
    lines = aligned_alloc(WC_LINE_BYTES, MSD_RADIX * 2 * WC_LINE_BYTES);
    if (lines == NULL) {
        free(sk);
        return -2;
    }
    base = 0;
    for (d = 0; d < MSD_RADIX; d++) {
        start[d] = pos[d] = base;
        base += hist[d];
    }
    /* a lane's position p fills slot (slot0 + p) mod 8 of its line */
    kslot0 = (unsigned)((uintptr_t)ok / 8);
    vslot0 = (unsigned)((uintptr_t)ov / 8);
    for (i = 0; i < n; i++) {
        uint64_t x = map_key(k[i], flip, sign);
        unsigned dg = (unsigned)(x >> msd_lo);
        int64_t p = pos[dg]++;
        unsigned ks = (kslot0 + (unsigned)p) & (WC_SLOTS - 1);
        unsigned vs = (vslot0 + (unsigned)p) & (WC_SLOTS - 1);
        uint64_t *line = lines + (size_t)dg * 2 * WC_SLOTS;
        line[ks] = x;
        line[WC_SLOTS + vs] = v[i];
        if (ks == WC_SLOTS - 1)
            flush_line(ok, line, p + 1 - WC_SLOTS, start[dg]);
        if (vs == WC_SLOTS - 1)
            flush_line(ov, line + WC_SLOTS, p + 1 - WC_SLOTS, start[dg]);
    }
    for (d = 0; d < MSD_RADIX; d++) {
        const uint64_t *line = lines + (size_t)d * 2 * WC_SLOTS;
        flush_tail(ok, line, start[d], pos[d], kslot0);
        flush_tail(ov, line + WC_SLOTS, start[d], pos[d], vslot0);
    }
    free(lines);
#if STREAM_LINES
    _mm_sfence();
#endif
    for (d = 0; d < MSD_RADIX; d++)
        finish_bucket(ok + start[d], ov + start[d], sk, sk + big, hist[d],
                      lo_bit, msd_lo - lo_bit, 1, flip, sign);
    free(sk);
    return 0;
}

/* CRC-32 of the external sort's spilled runs, the value zlib.crc32
 * returns: the reflected polynomial 0xEDB88320, the register starting
 * and ending inverted.  A bitwise loop takes inputs under 64 bytes and
 * the tail under 16; the body folds by carry-less multiply, after
 * Gopal et al., "Fast CRC Computation for Generic Polynomials Using
 * PCLMULQDQ Instruction" (Intel, 2009): four 128-bit lanes fold 64
 * bytes a step (k1, k2), fold into one lane (k3, k4), which folds the
 * remaining 16-byte blocks; the lane reduces to 64 bits (k4, k5) and a
 * Barrett reduction (P', mu) leaves the 32-bit register.  The folding
 * function is compiled for PCLMULQDQ and SSE4.1 alone and runs only
 * where the CPU reports both; the constants are immediates, so the
 * kernel keeps no table. */
static uint32_t crc32_bitwise(uint32_t crc, const uint8_t *buf, int64_t n)
{
    int64_t i;
    int k;
    for (i = 0; i < n; i++) {
        crc ^= buf[i];
        for (k = 0; k < 8; k++)
            crc = (crc >> 1) ^ (0xEDB88320u & (0u - (crc & 1u)));
    }
    return crc;
}

#if defined(__x86_64__) || defined(__i386__)
#include <smmintrin.h>
#include <wmmintrin.h>

static int crc32_clmul_cpu(void)
{
    __builtin_cpu_init();
    return __builtin_cpu_supports("pclmul")
           && __builtin_cpu_supports("sse4.1");
}

/* The register after n bytes, n >= 64 and a multiple of 16. */
__attribute__((target("pclmul,sse4.1")))
static uint32_t crc32_fold(uint32_t crc, const uint8_t *buf, int64_t n)
{
    const __m128i k1k2 = _mm_set_epi64x(0x01c6e41596, 0x0154442bd4);
    const __m128i k3k4 = _mm_set_epi64x(0x00ccaa009e, 0x01751997d0);
    const __m128i k5 = _mm_set_epi64x(0, 0x0163cd6124);
    const __m128i poly = _mm_set_epi64x(0x01f7011641, 0x01db710641);
    const __m128i low32 = _mm_setr_epi32(~0, 0, ~0, 0);
    __m128i x1, x2, x3, x4, y1, y2, y3, y4;
    x1 = _mm_loadu_si128((const __m128i *)(buf + 0x00));
    x2 = _mm_loadu_si128((const __m128i *)(buf + 0x10));
    x3 = _mm_loadu_si128((const __m128i *)(buf + 0x20));
    x4 = _mm_loadu_si128((const __m128i *)(buf + 0x30));
    x1 = _mm_xor_si128(x1, _mm_cvtsi32_si128((int)crc));
    buf += 64;
    n -= 64;
    for (; n >= 64; buf += 64, n -= 64) {
        y1 = _mm_clmulepi64_si128(x1, k1k2, 0x00);
        y2 = _mm_clmulepi64_si128(x2, k1k2, 0x00);
        y3 = _mm_clmulepi64_si128(x3, k1k2, 0x00);
        y4 = _mm_clmulepi64_si128(x4, k1k2, 0x00);
        x1 = _mm_clmulepi64_si128(x1, k1k2, 0x11);
        x2 = _mm_clmulepi64_si128(x2, k1k2, 0x11);
        x3 = _mm_clmulepi64_si128(x3, k1k2, 0x11);
        x4 = _mm_clmulepi64_si128(x4, k1k2, 0x11);
        x1 = _mm_xor_si128(_mm_xor_si128(x1, y1),
                           _mm_loadu_si128((const __m128i *)(buf + 0x00)));
        x2 = _mm_xor_si128(_mm_xor_si128(x2, y2),
                           _mm_loadu_si128((const __m128i *)(buf + 0x10)));
        x3 = _mm_xor_si128(_mm_xor_si128(x3, y3),
                           _mm_loadu_si128((const __m128i *)(buf + 0x20)));
        x4 = _mm_xor_si128(_mm_xor_si128(x4, y4),
                           _mm_loadu_si128((const __m128i *)(buf + 0x30)));
    }
    /* four lanes into x1, then the 16-byte blocks left */
    y1 = _mm_clmulepi64_si128(x1, k3k4, 0x00);
    x1 = _mm_clmulepi64_si128(x1, k3k4, 0x11);
    x1 = _mm_xor_si128(_mm_xor_si128(x1, x2), y1);
    y1 = _mm_clmulepi64_si128(x1, k3k4, 0x00);
    x1 = _mm_clmulepi64_si128(x1, k3k4, 0x11);
    x1 = _mm_xor_si128(_mm_xor_si128(x1, x3), y1);
    y1 = _mm_clmulepi64_si128(x1, k3k4, 0x00);
    x1 = _mm_clmulepi64_si128(x1, k3k4, 0x11);
    x1 = _mm_xor_si128(_mm_xor_si128(x1, x4), y1);
    for (; n >= 16; buf += 16, n -= 16) {
        y1 = _mm_clmulepi64_si128(x1, k3k4, 0x00);
        x1 = _mm_clmulepi64_si128(x1, k3k4, 0x11);
        x1 = _mm_xor_si128(_mm_xor_si128(x1, y1),
                           _mm_loadu_si128((const __m128i *)buf));
    }
    /* 128 bits to 64 */
    x2 = _mm_clmulepi64_si128(x1, k3k4, 0x10);
    x1 = _mm_xor_si128(_mm_srli_si128(x1, 8), x2);
    x2 = _mm_srli_si128(x1, 4);
    x1 = _mm_clmulepi64_si128(_mm_and_si128(x1, low32), k5, 0x00);
    x1 = _mm_xor_si128(x1, x2);
    /* Barrett reduction to 32 bits */
    x2 = _mm_clmulepi64_si128(_mm_and_si128(x1, low32), poly, 0x10);
    x2 = _mm_clmulepi64_si128(_mm_and_si128(x2, low32), poly, 0x00);
    x1 = _mm_xor_si128(x1, x2);
    return (uint32_t)_mm_extract_epi32(x1, 1);
}
#endif

/* 1 when the MSD scatter streams whole lines with non-temporal stores,
 * 0 when it copies them with plain ones. */
int repro_native_stream_lines(void)
{
    return STREAM_LINES;
}

/* 1 when repro_native_crc32 folds by carry-less multiply on this CPU,
 * 0 when it would take the bitwise loop. */
int repro_native_crc32_fast(void)
{
#if defined(__x86_64__) || defined(__i386__)
    return crc32_clmul_cpu();
#else
    return 0;
#endif
}

/* zlib.crc32(buf[0..n), crc): chains like it, and n <= 0 returns crc. */
uint32_t repro_native_crc32(const uint8_t *buf, int64_t n, uint32_t crc)
{
    crc = ~crc;
#if defined(__x86_64__) || defined(__i386__)
    if (n >= 64 && crc32_clmul_cpu()) {
        int64_t body = n & ~(int64_t)15;
        crc = crc32_fold(crc, buf, body);
        buf += body;
        n -= body;
    }
#endif
    return ~crc32_bitwise(crc, buf, n);
}
"""


def source_digest() -> str:
    """Digest naming the compiled module: changes when the C does."""
    payload = (CDEF + C_SOURCE).encode()
    return hashlib.sha256(payload).hexdigest()[:12]


def _module_name() -> str:
    return f"_repro_native_{source_digest()}"


def _cache_dir() -> Path:
    override = os.environ.get("REPRO_NATIVE_CACHE")
    if override:
        return Path(override)
    return Path.home() / ".cache" / "repro-native"


def _ext_suffix() -> str:
    return sysconfig.get_config_var("EXT_SUFFIX") or ".so"


@dataclass(frozen=True)
class NativeStatus:
    """Outcome of the once-per-process native-tier availability probe.

    ``available`` is True iff the compiled module is loaded and its
    self-test passed.  When False, ``reason`` is a short human-readable
    explanation (``"disabled via REPRO_NATIVE=0"``, ``"cffi not
    installed"``, ``"compile failed: ..."``) that the planner threads
    into plan notes and ``repro plan`` output.
    """

    available: bool
    reason: str
    module_path: str | None = None


_STATUS: NativeStatus | None = None
_LIB = None  # (ffi, lib) pair once loaded
_WARNED = False


def _reset_status_cache() -> None:
    """Forget the cached probe (tests poke this; not public API)."""
    global _STATUS, _LIB, _WARNED
    _STATUS = None
    _LIB = None
    _WARNED = False


def _build_extension(dest: str) -> None:
    """Compile the extension and atomically publish it at ``dest``.

    Runs in the child interpreter :func:`_compile_extension` starts.
    """
    import cffi

    dest = Path(dest)
    ffibuilder = cffi.FFI()
    ffibuilder.cdef(CDEF)
    ffibuilder.set_source(
        _module_name(), C_SOURCE, extra_compile_args=["-O3"]
    )
    dest.parent.mkdir(parents=True, exist_ok=True)
    tmpdir = tempfile.mkdtemp(
        prefix=".build-", dir=str(dest.parent)
    )
    try:
        built = ffibuilder.compile(tmpdir=tmpdir, verbose=False)
        # os.replace is atomic within a filesystem: racing processes
        # each publish a complete module; last writer wins with
        # identical bytes.
        os.replace(built, dest)
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)


def _compile_extension(dest: Path) -> Path:
    """Build the extension at ``dest`` in a child interpreter.

    cffi's build chain (setuptools, distutils and what they import)
    would stay resident in this process for its whole life; the child
    pays for it and exits.  On failure the tail of the child's stderr
    becomes the error.
    """
    package_root = str(Path(__file__).resolve().parents[2])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (package_root, env.get("PYTHONPATH")))
    )
    done = subprocess.run(
        [
            sys.executable,
            "-c",
            "import sys; from repro.native.build import _build_extension; "
            "_build_extension(sys.argv[1])",
            str(dest),
        ],
        env=env,
        capture_output=True,
        text=True,
    )
    if done.returncode != 0:
        tail = " | ".join(done.stderr.strip().splitlines()[-3:])
        raise RuntimeError(
            f"compile failed (exit {done.returncode}): {tail[-600:]}"
        )
    return dest


def _remove_stale_modules(cache: Path) -> None:
    """Best-effort removal of ``cache``'s modules of other source
    digests, which no build of this source loads again.

    Called after a fresh compile only, so a warm load never pays for
    it; modules of this digest for other interpreters stay.
    """
    current = _module_name()
    try:
        stale = [
            path
            for path in cache.glob("_repro_native_*")
            if not path.name.startswith(current)
        ]
    except OSError:
        return
    for path in stale:
        try:
            path.unlink()
        except OSError:
            pass


def _load_module(path: Path):
    spec = importlib.util.spec_from_file_location(
        _module_name(), str(path)
    )
    if spec is None or spec.loader is None:
        raise ImportError(f"cannot load extension at {path}")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


#: Key bit patterns the self-test sorts as int64 and as float64 keys:
#: INT64_MIN (-0.0), INT64_MAX (a NaN), 0 (+0.0), +-inf, NaN of both
#: signs, +-1.0 and a small integer.  Repeated, they make ties.
_SELF_TEST_KEYS = (
    0x8000000000000000, 0x7FFFFFFFFFFFFFFF, 0x0000000000000000,
    0x7FF0000000000000, 0xFFF0000000000000, 0x7FF8000000000001,
    0xFFF8000000000001, 0x3FF0000000000000, 0xBFF0000000000000, 5,
)


def _self_test(ffi, lib) -> None:
    """Sort and checksum known inputs; a miscompiled kernel must not
    become a tier.

    The pairs kernel sorts :data:`_SELF_TEST_KEYS`, repeated past one
    insertion sort, as int64 and as float64 keys beside distinct
    payloads, and must return their bits-space stable order: a wrong
    §4.6 key map, partition or finish fails it.
    """
    import numpy as np

    from repro.core.keys import to_sortable_bits

    keys = np.resize(np.array(_SELF_TEST_KEYS, dtype=np.uint64), 100)
    payload = np.arange(keys.size, dtype=np.uint64)
    for kind, dtype in ((1, np.int64), (2, np.float64)):
        out_keys, out_payload = np.empty_like(keys), np.empty_like(payload)
        rc = lib.repro_native_sort_pairs(
            ffi.cast("const uint64_t *", keys.ctypes.data),
            ffi.cast("const uint64_t *", payload.ctypes.data),
            ffi.cast("uint64_t *", out_keys.ctypes.data),
            ffi.cast("uint64_t *", out_payload.ctypes.data),
            keys.size,
            kind,
            0,
        )
        order = np.argsort(to_sortable_bits(keys.view(dtype)), kind="stable")
        if rc < 0 or not (
            np.array_equal(out_keys, keys[order])
            and np.array_equal(out_payload, order)
        ):
            raise RuntimeError(
                f"native self-test: {np.dtype(dtype)} pairs are not in "
                f"their bits-space stable order"
            )
    # The CRC-32 over the folded body and the bitwise tail, chained
    data = (np.arange(1000, dtype=np.uint32) * 2654435761 >> 24).astype(
        np.uint8
    )
    for n in (0, 5, 64, 79, 1000):
        for value in (0, 0xFFFFFFFF):
            got = lib.repro_native_crc32(
                ffi.cast("const uint8_t *", data.ctypes.data), n, value
            )
            if got != zlib.crc32(data[:n], value):
                raise RuntimeError("native self-test: CRC-32 is not zlib's")


def _probe() -> NativeStatus:
    if os.environ.get("REPRO_NATIVE", "1") == "0":
        return NativeStatus(False, "disabled via REPRO_NATIVE=0")
    global _LIB
    try:
        import cffi  # noqa: F401
    except ImportError:
        return NativeStatus(False, "cffi not installed")
    dest = _cache_dir() / (_module_name() + _ext_suffix())
    try:
        if not dest.exists():
            _compile_extension(dest)
            _remove_stale_modules(dest.parent)
        module = _load_module(dest)
        _self_test(module.ffi, module.lib)
    except Exception as exc:  # noqa: BLE001 - any failure = tier off
        kind = type(exc).__name__
        return NativeStatus(False, f"compile/load failed: {kind}: {exc}")
    _LIB = (module.ffi, module.lib)
    return NativeStatus(True, "compiled native kernel", str(dest))


def native_status(*, warn: bool = True) -> NativeStatus:
    """Probe (once per process) whether the native tier is usable.

    The result is cached for the life of the process — the planner
    calls this on every ``plan()`` and must not pay a compile attempt
    each time.  On the first *failed* probe a single ``RuntimeWarning``
    is emitted (unless the tier was explicitly disabled via
    ``REPRO_NATIVE=0``, which is a choice, not a failure).
    """
    global _STATUS, _WARNED
    if _STATUS is None:
        _STATUS = _probe()
    if (
        warn
        and not _WARNED
        and not _STATUS.available
        and "REPRO_NATIVE=0" not in _STATUS.reason
    ):
        _WARNED = True
        warnings.warn(
            "repro: native kernel tier unavailable "
            f"({_STATUS.reason}); sorts fall back to the NumPy tier",
            RuntimeWarning,
            stacklevel=2,
        )
    return _STATUS


def load_native():
    """Return the ``(ffi, lib)`` pair, probing on first use.

    Raises :class:`repro.errors.NativeUnavailableError` when the tier
    is not usable on this host; callers that want a soft answer should
    consult :func:`native_status` instead.
    """
    from repro.errors import NativeUnavailableError

    status = native_status()
    if not status.available or _LIB is None:
        raise NativeUnavailableError(
            f"native kernel tier unavailable: {status.reason}"
        )
    return _LIB


def crc32_kernel():
    """The compiled CRC-32 as ``(ffi, lib)``, or ``None`` for zlib's.

    ``repro_native_crc32`` returns what ``zlib.crc32`` returns; it is
    the faster one where the tier is loaded and the CPU folds by
    carry-less multiply (``repro_native_crc32_fast``).  Asks the
    process-cached probe, so it follows :func:`native_status`.
    """
    if not native_status(warn=False).available or _LIB is None:
        return None
    return _LIB if _LIB[1].repro_native_crc32_fast() else None


def _main() -> int:  # pragma: no cover - manual/CI utility
    status = native_status()
    print(f"available : {status.available}")
    print(f"reason    : {status.reason}")
    if status.module_path:
        print(f"module    : {status.module_path}")
    crc = "carry-less multiply" if crc32_kernel() else "zlib"
    print(f"crc32     : {crc}")
    if _LIB is not None:
        lines = "streaming" if _LIB[1].repro_native_stream_lines() else "plain"
        print(f"scatter   : {lines} 64-byte lines")
    return 0 if status.available else 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(_main())
