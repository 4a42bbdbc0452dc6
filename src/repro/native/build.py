"""Compile-on-first-use machinery for the native §4 counting-scatter tier.

The C source below is the paper's counting sort pass (§4: per-chunk
histogram → exclusive scan → scatter) compiled to machine code via
cffi's API mode.  Two design points lift it from "NumPy in C" to a
bandwidth-shaped kernel:

* **MSD partition first.**  Wide words take one 11-bit MSD partition
  pass (2048 buckets), after which every bucket is small enough that
  the remaining LSD passes scatter into a cache-resident region.  This
  is the paper's own MSD-then-finish structure collapsed to two levels.
* **Software write-combining.**  The one scatter that *does* span the
  full output array — the MSD partition — goes through per-bucket
  write-combining buffers flushed in cache-line-multiple (128-byte)
  bursts, the Wassenberg–Sanders technique.  Random single-element
  stores into a large region cost several× a streaming burst; the WC
  buffers turn 2048-way scattered traffic into sequential line writes.

Build policy
------------
The extension is compiled at most once per (source digest, python ABI)
and cached under ``$REPRO_NATIVE_CACHE`` (default
``~/.cache/repro-native``).  Compilation happens in a scratch directory
and the finished shared object is published with ``os.replace`` — an
atomic rename — so concurrent processes (the shard workers re-plan per
shard) can race on first use without observing a half-written module.

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
import sys
import sysconfig
import tempfile
import warnings
from dataclasses import dataclass
from pathlib import Path

__all__ = [
    "CDEF",
    "C_SOURCE",
    "NativeStatus",
    "native_status",
    "load_native",
    "source_digest",
]


CDEF = """
int repro_native_sort_u32(uint32_t *a, uint32_t *b, int64_t n,
                          int lo_bit);
int repro_native_sort_u64(uint64_t *a, uint64_t *b, int64_t n,
                          int lo_bit);
int repro_native_sort_u64_pairs(uint64_t *k, uint64_t *kt,
                                uint64_t *v, uint64_t *vt,
                                int64_t n, int lo_bit);
"""

C_SOURCE = r"""
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* Digit schedule (mirrored by repro.core.digits.native_pass_plan):
 * words whose sort range exceeds MSD_BITS + INNER_BITS take one MSD
 * partition pass on the word's top MSD_BITS bits, then every bucket
 * finishes by its size (the inner_* functions):
 *
 *   - at most LOCAL_SORT_MAX keys: one stable insertion sort -- a
 *     bucket at or below the local-sort threshold finishes in one
 *     local sort (§4.1) and tiny buckets pay no counting pass (§4.3);
 *   - larger: the p cache-resident LSD passes of w = ceil(bits / p)
 *     <= INNER_BITS bits that minimise p * (2n + 2^w / 10), i.e. the
 *     fewest passes whose histogram is not far larger than the bucket
 *     (11-bit digits from a few hundred keys up).
 *
 * Narrower ranges, and inputs of at most LOCAL_SORT_MAX keys, skip the
 * partition and finish the same way.
 *
 * All kernels sort bits [lo_bit, width) of the word and are *stable*:
 * equal keys keep their input order, which is what lets the Python
 * side prove byte-identity against NumPy's stable sort and reuse the
 * payload lane as a stable argsort permutation.
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
/* WC burst size: two 64-byte cache lines per flush.  One line already
 * beats per-element stores; doubling the burst halves flush overhead
 * for +128KB of buffer, still far inside L2. */
#define WC_LINE_BYTES 128
#define WC_KEYS32 (WC_LINE_BYTES / 4)
#define WC_KEYS64 (WC_LINE_BYTES / 8)

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

/* The inner_* finishers sort bits [lo, lo+bits) of n words whose bits
 * above lo+bits are all equal (the word top, or the caller's MSD
 * bucket), so comparing x >> lo orders them exactly. */

/* Stable insertion sort of u32 words on x >> lo, in place. */
static void insertion_u32(uint32_t *a, int64_t n, int lo)
{
    int64_t i, j;
    for (i = 1; i < n; i++) {
        uint32_t x = a[i], kx = x >> lo;
        for (j = i; j > 0 && (a[j - 1] >> lo) > kx; j--)
            a[j] = a[j - 1];
        a[j] = x;
    }
}

/* Stable LSD counting sort of bits [lo, lo+bits) of 32-bit words.
 * Ping-pongs between src and tmp; returns whichever buffer holds the
 * result.  A pass whose digit is constant (one count == n) is skipped
 * entirely -- the scatter would be a straight copy. */
static uint32_t *inner_u32(uint32_t *src, uint32_t *tmp, int64_t n,
                           int lo, int bits)
{
    int64_t cnt[INNER_RADIX];
    uint32_t *bufs[2] = { src, tmp };
    int cur = 0, width;
    if (n <= LOCAL_SORT_MAX) {
        insertion_u32(src, n, lo);
        return src;
    }
    width = finish_width(n, bits);
    while (bits > 0) {
        int w = bits < width ? bits : width;
        unsigned radix = 1u << w, mask = radix - 1, d;
        const uint32_t *s = bufs[cur];
        uint32_t *dst = bufs[1 - cur];
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
                uint32_t x = s[i];
                dst[cnt[(x >> lo) & mask]++] = x;
            }
            cur ^= 1;
        }
        lo += w;
        bits -= w;
    }
    return bufs[cur];
}

/* Sort bits [lo_bit, 32) of a[0..n) using b as scratch.
 * Returns 0 if the result is in a, 1 if in b, negative on error. */
int repro_native_sort_u32(uint32_t *a, uint32_t *b, int64_t n, int lo_bit)
{
    int64_t hist[MSD_RADIX], start[MSD_RADIX], pos[MSD_RADIX];
    int msd_lo = 32 - MSD_BITS;
    int d;
    int64_t i, base;
    uint32_t (*wc)[WC_KEYS32];
    int *wc_n;
    if (n < 0 || lo_bit < 0 || lo_bit >= 32)
        return -1;
    if (n <= 1)
        return 0;
    if (32 - lo_bit <= MSD_BITS + INNER_BITS || n <= LOCAL_SORT_MAX)
        return inner_u32(a, b, n, lo_bit, 32 - lo_bit) == a ? 0 : 1;
    memset(hist, 0, sizeof(hist));
    for (i = 0; i < n; i++)
        hist[a[i] >> msd_lo]++;
    base = 0;
    for (d = 0; d < MSD_RADIX; d++) {
        start[d] = base;
        base += hist[d];
    }
    if (base != n)
        return -1;
    for (d = 0; d < MSD_RADIX; d++)
        if (hist[d] == n) {
            /* one bucket holds everything: the partition would be a
             * straight copy, so sort the remaining bits in place */
            return inner_u32(a, b, n, lo_bit, msd_lo - lo_bit) == a
                       ? 0 : 1;
        }
    wc = malloc(MSD_RADIX * WC_LINE_BYTES);
    wc_n = calloc(MSD_RADIX, sizeof(int));
    if (wc == NULL || wc_n == NULL) {
        free(wc);
        free(wc_n);
        return -2;
    }
    memcpy(pos, start, sizeof(pos));
    for (i = 0; i < n; i++) {
        uint32_t x = a[i];
        unsigned dg = x >> msd_lo;
        int k = wc_n[dg];
        wc[dg][k] = x;
        if (k == WC_KEYS32 - 1) {
            memcpy(b + pos[dg], wc[dg], WC_LINE_BYTES);
            pos[dg] += WC_KEYS32;
            wc_n[dg] = 0;
        } else
            wc_n[dg] = k + 1;
    }
    for (d = 0; d < MSD_RADIX; d++)
        if (wc_n[d])
            memcpy(b + pos[d], wc[d], (size_t)wc_n[d] * 4);
    free(wc);
    free(wc_n);
    for (d = 0; d < MSD_RADIX; d++) {
        int64_t c = hist[d], s0 = start[d];
        uint32_t *out;
        if (c <= 1)
            continue;
        out = inner_u32(b + s0, a + s0, c, lo_bit, msd_lo - lo_bit);
        if (out != b + s0)
            memcpy(b + s0, out, (size_t)c * 4);
    }
    return 1;
}

static void insertion_u64(uint64_t *a, int64_t n, int lo)
{
    int64_t i, j;
    for (i = 1; i < n; i++) {
        uint64_t x = a[i], kx = x >> lo;
        for (j = i; j > 0 && (a[j - 1] >> lo) > kx; j--)
            a[j] = a[j - 1];
        a[j] = x;
    }
}

static uint64_t *inner_u64(uint64_t *src, uint64_t *tmp, int64_t n,
                           int lo, int bits)
{
    int64_t cnt[INNER_RADIX];
    uint64_t *bufs[2] = { src, tmp };
    int cur = 0, width;
    if (n <= LOCAL_SORT_MAX) {
        insertion_u64(src, n, lo);
        return src;
    }
    width = finish_width(n, bits);
    while (bits > 0) {
        int w = bits < width ? bits : width;
        unsigned radix = 1u << w, d;
        uint64_t mask = radix - 1;
        const uint64_t *s = bufs[cur];
        uint64_t *dst = bufs[1 - cur];
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
                uint64_t x = s[i];
                dst[cnt[(x >> lo) & mask]++] = x;
            }
            cur ^= 1;
        }
        lo += w;
        bits -= w;
    }
    return bufs[cur];
}

/* Sort bits [lo_bit, 64) of a[0..n) using b as scratch.
 * Returns 0 if the result is in a, 1 if in b, negative on error. */
int repro_native_sort_u64(uint64_t *a, uint64_t *b, int64_t n, int lo_bit)
{
    int64_t hist[MSD_RADIX], start[MSD_RADIX], pos[MSD_RADIX];
    int msd_lo = 64 - MSD_BITS;
    int d;
    int64_t i, base;
    uint64_t (*wc)[WC_KEYS64];
    int *wc_n;
    if (n < 0 || lo_bit < 0 || lo_bit >= 64)
        return -1;
    if (n <= 1)
        return 0;
    if (64 - lo_bit <= MSD_BITS + INNER_BITS || n <= LOCAL_SORT_MAX)
        return inner_u64(a, b, n, lo_bit, 64 - lo_bit) == a ? 0 : 1;
    memset(hist, 0, sizeof(hist));
    for (i = 0; i < n; i++)
        hist[a[i] >> msd_lo]++;
    base = 0;
    for (d = 0; d < MSD_RADIX; d++) {
        start[d] = base;
        base += hist[d];
    }
    if (base != n)
        return -1;
    for (d = 0; d < MSD_RADIX; d++)
        if (hist[d] == n)
            return inner_u64(a, b, n, lo_bit, msd_lo - lo_bit) == a
                       ? 0 : 1;
    wc = malloc(MSD_RADIX * WC_LINE_BYTES);
    wc_n = calloc(MSD_RADIX, sizeof(int));
    if (wc == NULL || wc_n == NULL) {
        free(wc);
        free(wc_n);
        return -2;
    }
    memcpy(pos, start, sizeof(pos));
    for (i = 0; i < n; i++) {
        uint64_t x = a[i];
        unsigned dg = (unsigned)(x >> msd_lo);
        int k = wc_n[dg];
        wc[dg][k] = x;
        if (k == WC_KEYS64 - 1) {
            memcpy(b + pos[dg], wc[dg], WC_LINE_BYTES);
            pos[dg] += WC_KEYS64;
            wc_n[dg] = 0;
        } else
            wc_n[dg] = k + 1;
    }
    for (d = 0; d < MSD_RADIX; d++)
        if (wc_n[d])
            memcpy(b + pos[d], wc[d], (size_t)wc_n[d] * 8);
    free(wc);
    free(wc_n);
    for (d = 0; d < MSD_RADIX; d++) {
        int64_t c = hist[d], s0 = start[d];
        uint64_t *out;
        if (c <= 1)
            continue;
        out = inner_u64(b + s0, a + s0, c, lo_bit, msd_lo - lo_bit);
        if (out != b + s0)
            memcpy(b + s0, out, (size_t)c * 8);
    }
    return 1;
}

/* Dual-array variant: the payload lane rides every scatter, so a
 * payload of 0..n-1 comes back as the stable sorting permutation of
 * the keys (the decomposed layout of the paper's §2.3). */
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

/* Sort (k, v) pairs by bits [lo_bit, 64) of k, v riding along.
 * Returns 0 if the result is in (k, v), 1 if in (kt, vt), negative on
 * error. */
int repro_native_sort_u64_pairs(uint64_t *k, uint64_t *kt,
                                uint64_t *v, uint64_t *vt,
                                int64_t n, int lo_bit)
{
    int64_t hist[MSD_RADIX], start[MSD_RADIX], pos[MSD_RADIX];
    int msd_lo = 64 - MSD_BITS;
    int d;
    int64_t i, base;
    uint64_t (*wck)[WC_KEYS64], (*wcv)[WC_KEYS64];
    int *wc_n;
    if (n < 0 || lo_bit < 0 || lo_bit >= 64)
        return -1;
    if (n <= 1)
        return 0;
    if (64 - lo_bit <= MSD_BITS + INNER_BITS || n <= LOCAL_SORT_MAX)
        return inner_pairs(k, kt, v, vt, n, lo_bit, 64 - lo_bit);
    memset(hist, 0, sizeof(hist));
    for (i = 0; i < n; i++)
        hist[k[i] >> msd_lo]++;
    base = 0;
    for (d = 0; d < MSD_RADIX; d++) {
        start[d] = base;
        base += hist[d];
    }
    if (base != n)
        return -1;
    for (d = 0; d < MSD_RADIX; d++)
        if (hist[d] == n)
            return inner_pairs(k, kt, v, vt, n, lo_bit, msd_lo - lo_bit);
    wck = malloc(MSD_RADIX * WC_LINE_BYTES);
    wcv = malloc(MSD_RADIX * WC_LINE_BYTES);
    wc_n = calloc(MSD_RADIX, sizeof(int));
    if (wck == NULL || wcv == NULL || wc_n == NULL) {
        free(wck);
        free(wcv);
        free(wc_n);
        return -2;
    }
    memcpy(pos, start, sizeof(pos));
    for (i = 0; i < n; i++) {
        uint64_t x = k[i];
        unsigned dg = (unsigned)(x >> msd_lo);
        int c = wc_n[dg];
        wck[dg][c] = x;
        wcv[dg][c] = v[i];
        if (c == WC_KEYS64 - 1) {
            memcpy(kt + pos[dg], wck[dg], WC_LINE_BYTES);
            memcpy(vt + pos[dg], wcv[dg], WC_LINE_BYTES);
            pos[dg] += WC_KEYS64;
            wc_n[dg] = 0;
        } else
            wc_n[dg] = c + 1;
    }
    for (d = 0; d < MSD_RADIX; d++)
        if (wc_n[d]) {
            memcpy(kt + pos[d], wck[d], (size_t)wc_n[d] * 8);
            memcpy(vt + pos[d], wcv[d], (size_t)wc_n[d] * 8);
        }
    free(wck);
    free(wcv);
    free(wc_n);
    for (d = 0; d < MSD_RADIX; d++) {
        int64_t c = hist[d], s0 = start[d];
        if (c <= 1)
            continue;
        if (inner_pairs(kt + s0, k + s0, vt + s0, v + s0, c,
                        lo_bit, msd_lo - lo_bit) != 0) {
            memcpy(kt + s0, k + s0, (size_t)c * 8);
            memcpy(vt + s0, v + s0, (size_t)c * 8);
        }
    }
    return 1;
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


def _compile_extension(dest: Path) -> Path:
    """Compile the extension and atomically publish it at ``dest``."""
    import cffi

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
        # (shard workers probing concurrently) each publish a complete
        # module; last writer wins with identical bytes.
        os.replace(built, dest)
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
    return dest


def _load_module(path: Path):
    spec = importlib.util.spec_from_file_location(
        _module_name(), str(path)
    )
    if spec is None or spec.loader is None:
        raise ImportError(f"cannot load extension at {path}")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _self_test(ffi, lib) -> None:
    """Tiny smoke sort; a miscompiled kernel must not become a tier."""
    import numpy as np

    a = np.array([3, 1, 2, 1, 0], dtype=np.uint32)
    b = np.empty_like(a)
    rc = lib.repro_native_sort_u32(
        ffi.cast("uint32_t *", a.ctypes.data),
        ffi.cast("uint32_t *", b.ctypes.data),
        a.size,
        0,
    )
    out = a if rc == 0 else b
    if rc < 0 or not np.array_equal(out, np.array([0, 1, 1, 2, 3])):
        raise RuntimeError("native self-test produced wrong bytes")


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


def _main() -> int:  # pragma: no cover - manual/CI utility
    status = native_status()
    print(f"available : {status.available}")
    print(f"reason    : {status.reason}")
    if status.module_path:
        print(f"module    : {status.module_path}")
    return 0 if status.available else 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(_main())
