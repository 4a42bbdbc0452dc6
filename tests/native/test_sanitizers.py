"""The native kernels under AddressSanitizer and UBSan.

Compiles :data:`repro.native.build.C_SOURCE` together with a small C
driver under ``gcc -fsanitize=address,undefined``, with warnings as
errors (``-Wcast-qual`` catches a cast that drops the pairs kernel's
``const`` input), and runs the pairs kernel over sizes around every
schedule boundary (the insertion-sort cutoff, one full 11-bit digit,
the old native floor, one benchmark run) and five key shapes, for all
three key kinds (unsigned, signed, IEEE float), and also on edge bit
patterns (NaN payloads of both signs, ±0.0, ±inf, INT64_MIN/MAX, 0,
UINT64_MAX) and around 2^18 records, past its further split and with
a one-bucket input whose scratch must hold it all.  It sorts from
``lo_bit`` 0 (64-bit keys), 32, 48 and 56 (the 32-, 16- and 8-bit
words the engine shifts to the top of the key lane) and 40.  Each
output is compared with a stable merge sort of the same input (over
the driver's own §4.6 map) whose payload is the input index, which
checks order and stability at once, and the kernel's input lanes must
come back byte-unchanged; every buffer is allocated to its exact size,
so a write past a bucket, a flush tail or the scratch is a sanitizer
error.
The CRC-32 kernel runs on every length up to 1,100 bytes at offsets
0-15 and on one 2^18+5-byte buffer, each allocated to its exact size,
and must equal the driver's own bitwise CRC-32 from a varying start
value.  The driver also prints the kernel's LSD digit width and its
pairs-bucket split width for a grid of bucket sizes, which must equal
the Python mirror.

The build is test-only; the test skips where gcc or the sanitizer
runtime is missing.
"""

from __future__ import annotations

import os
import shutil
import subprocess

import pytest

from repro.core.digits import (
    NATIVE_LOCAL_SORT_MAX,
    native_finish_widths,
    native_split_width,
)
from repro.native.build import C_SOURCE

FLAGS = [
    "-Wall",
    "-Wextra",
    "-Wcast-qual",
    "-Werror",
    "-fsanitize=address,undefined",
    "-fno-sanitize-recover=all",
    "-fno-omit-frame-pointer",
    "-g",
    "-O1",
]

CUTOFF = NATIVE_LOCAL_SORT_MAX
SIZES = (
    0, 1, 2, CUTOFF - 1, CUTOFF, CUTOFF + 1,
    (1 << 11) - 1, (1 << 11) + 1, (1 << 16) - 1, (1 << 16) + 1, 74_898,
)
WIDTH_SIZES = (33, 40, 64, 100, 200, 359, 500, 1000, 2048, 10_000, 100_000)

DRIVER = r"""
#include <stdio.h>

static uint64_t state = 0x853c49e6748fea9bULL;

static uint64_t next_u64(void)
{
    state ^= state >> 12;
    state ^= state << 25;
    state ^= state >> 27;
    return state * 2685821657736338717ULL;
}

/* 0 uniform, 1 all-equal, 2 few-distinct, 3 AND of four words,
 * 4 timestamp-like (constant top 40 bits, dense low 24 bits) */
#define SHAPES 5
static uint64_t draw(int shape)
{
    switch (shape) {
    case 0: return next_u64();
    case 1: return 0x9e3779b97f4a7c15ULL;
    case 2: return (next_u64() % 5) * 0x1111111111111111ULL;
    case 3: return next_u64() & next_u64() & next_u64() & next_u64();
    default: return 0x0000018f3a000000ULL | (next_u64() >> 40);
    }
}

/* Stable bottom-up merge sort of (k, v) on k >> lo: the reference. */
static void ref_sort(uint64_t *k, uint64_t *v, int64_t n, int lo)
{
    uint64_t *tk = malloc((size_t)(n ? n : 1) * 8);
    uint64_t *tv = malloc((size_t)(n ? n : 1) * 8);
    int64_t width, i;
    for (width = 1; width < n; width *= 2) {
        for (i = 0; i < n; i += 2 * width) {
            int64_t a = i, m = i + width < n ? i + width : n;
            int64_t b = m, e = i + 2 * width < n ? i + 2 * width : n;
            int64_t o = i;
            while (a < m && b < e) {
                if ((k[b] >> lo) < (k[a] >> lo)) {
                    tk[o] = k[b]; tv[o++] = v[b++];
                } else {
                    tk[o] = k[a]; tv[o++] = v[a++];
                }
            }
            while (a < m) { tk[o] = k[a]; tv[o++] = v[a++]; }
            while (b < e) { tk[o] = k[b]; tv[o++] = v[b++]; }
        }
        memcpy(k, tk, (size_t)n * 8);
        memcpy(v, tv, (size_t)n * 8);
    }
    free(tk);
    free(tv);
}

static int failures = 0;

static void fail(const char *kernel, int64_t n, int shape, int lo, int64_t i)
{
    printf("FAIL %s n=%lld shape=%d lo=%d at %lld\n", kernel,
           (long long)n, shape, lo, (long long)i);
    failures++;
}

/* The driver's own §4.6 map of a 64-bit key of the given kind
 * (0 unsigned, 1 signed, 2 IEEE float), written with a branch. */
static uint64_t ref_map(uint64_t x, int kind)
{
    uint64_t sign = 0x8000000000000000ULL;
    if (kind == 0)
        return x;
    if (kind == 1 || !(x & sign))
        return x ^ sign;
    return ~x;
}

/* Edge bit patterns: NaN payloads of both signs (quiet and signalling),
 * +-0.0, +-inf, INT64_MIN/MAX, 0 and UINT64_MAX, some ones and a few
 * ordinary numbers. */
static const uint64_t edges[] = {
    0x7ff8000000000001ULL, 0xfff8000000000001ULL, 0x7ff0000000000001ULL,
    0xfff0000000000001ULL, 0x7fffffffffffffffULL, 0xffffffffffffffffULL,
    0x0000000000000000ULL, 0x8000000000000000ULL, 0x7ff0000000000000ULL,
    0xfff0000000000000ULL, 0x0000000000000001ULL, 0x8000000000000001ULL,
    0x3ff0000000000000ULL, 0xbff0000000000000ULL,
};
#define EDGE_SHAPE SHAPES
#define N_EDGES (sizeof(edges) / sizeof(edges[0]))

/* (k, v) records through the pairs kernel for one key kind.  v is the
 * input index, so the reference's sorted payload is the stable
 * permutation: the kernel must return (k[rv[i]], rv[i]).  Both input
 * lanes must come back byte-unchanged. */
static void check_pairs(int64_t n, int shape, int lo, int kind)
{
    uint64_t *k = calloc((size_t)n, 8), *v = calloc((size_t)n, 8);
    uint64_t *ok = malloc((size_t)n * 8), *ov = malloc((size_t)n * 8);
    uint64_t *kc = malloc((size_t)(n ? n : 1) * 8);
    uint64_t *vc = malloc((size_t)(n ? n : 1) * 8);
    uint64_t *rk = malloc((size_t)(n ? n : 1) * 8);
    uint64_t *rv = malloc((size_t)(n ? n : 1) * 8);
    int64_t i;
    int rc;
    for (i = 0; i < n; i++) {
        if (shape == EDGE_SHAPE)
            k[i] = next_u64() % 3 ? edges[next_u64() % N_EDGES] : next_u64();
        else
            k[i] = draw(shape);
        v[i] = (uint64_t)i;
        rk[i] = ref_map(k[i], kind);
        rv[i] = (uint64_t)i;
    }
    if (n) {
        memcpy(kc, k, (size_t)n * 8);
        memcpy(vc, v, (size_t)n * 8);
    }
    rc = repro_native_sort_pairs(k, v, ok, ov, n, kind, lo);
    ref_sort(rk, rv, n, lo);
    if (rc < 0)
        fail("pairs rc", n, shape, lo, rc);
    else if (n && (memcmp(k, kc, (size_t)n * 8) || memcmp(v, vc, (size_t)n * 8)))
        fail("pairs input changed", n, shape, lo, kind);
    else
        for (i = 0; i < n; i++)
            if (ov[i] != rv[i] || ok[i] != k[rv[i]]) {
                fail("pairs", n, shape, lo, i);
                break;
            }
    free(k); free(v); free(ok); free(ov); free(kc); free(vc);
    free(rk); free(rv);
}

/* The driver's own CRC-32 (zlib's: reflected 0xEDB88320, the register
 * inverted in and out), one bit at a time with a branch. */
static uint32_t ref_crc(uint32_t crc, const uint8_t *buf, int64_t n)
{
    int64_t i;
    int k;
    crc = ~crc;
    for (i = 0; i < n; i++)
        for (k = 0; k < 8; k++) {
            int bit = ((crc ^ (buf[i] >> k)) & 1u) != 0;
            crc >>= 1;
            if (bit)
                crc ^= 0xEDB88320u;
        }
    return ~crc;
}

/* repro_native_crc32 over n bytes at offset off of a buffer allocated
 * to exactly off + n bytes, chained from a start value that varies. */
static void check_crc(int64_t n, int off)
{
    uint8_t *buf = malloc((size_t)(off + n ? off + n : 1));
    uint32_t start = (uint32_t)(n * 16 + off) * 0x9e3779b9u, got;
    int64_t i;
    for (i = 0; i < off + n; i++)
        buf[i] = (uint8_t)next_u64();
    got = repro_native_crc32(buf + off, n, start);
    if (got != ref_crc(start, buf + off, n))
        fail("crc32", n, off, (int)start, got);
    free(buf);
}

int main(void)
{
    static const int64_t sizes[] = { SIZES };
    static const int64_t width_sizes[] = { WIDTH_SIZES };
    size_t s;
    int64_t n;
    int shape, bits, kind;
    for (s = 0; s < sizeof(sizes) / sizeof(sizes[0]); s++)
        for (shape = 0; shape <= EDGE_SHAPE; shape++)
            for (kind = 0; kind < 3; kind++) {
                check_pairs(sizes[s], shape, 0, kind);
                check_pairs(sizes[s], shape, 32, kind);  /* 32-bit words */
                check_pairs(sizes[s], shape, 40, kind);
                check_pairs(sizes[s], shape, 48, kind);  /* 16-bit words */
                check_pairs(sizes[s], shape, 56, kind);  /* 8-bit words */
            }
    /* Around 2^18: 128-key buckets take one more split; shape 4's keys
     * share their top 40 bits, so one bucket (and the scratch) holds
     * the whole input. */
    for (n = (1 << 18) - 1; n <= (1 << 18) + 1; n++)
        for (kind = 0; kind < 3; kind++) {
            check_pairs(n, 0, 0, kind);
            check_pairs(n, 4, 0, kind);
            check_pairs(n, EDGE_SHAPE, 0, kind);
        }
    /* Every fold step and tail length, at every alignment, and one
     * buffer of many 64-byte steps. */
    for (n = 0; n <= 1100; n++)
        for (shape = 0; shape < 16; shape++)
            check_crc(n, shape);
    check_crc((1 << 18) + 5, 3);
    for (s = 0; s < sizeof(width_sizes) / sizeof(width_sizes[0]); s++)
        for (bits = 1; bits <= 64; bits++)
            printf("width %lld %d %d %d\n", (long long)width_sizes[s],
                   bits, finish_width(width_sizes[s], bits),
                   split_width(width_sizes[s], bits));
    printf("failures %d\n", failures);
    return failures != 0;
}
"""


def _compile(tmp_path, name: str, source: str):
    c_file = tmp_path / f"{name}.c"
    exe = tmp_path / name
    c_file.write_text(source)
    proc = subprocess.run(
        ["gcc", *FLAGS, "-o", str(exe), str(c_file)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    return exe, proc


@pytest.fixture(scope="module")
def driver_output(tmp_path_factory):
    if shutil.which("gcc") is None:
        pytest.skip("gcc not installed")
    tmp_path = tmp_path_factory.mktemp("sanitize")
    env = dict(os.environ, ASAN_OPTIONS="abort_on_error=0:exitcode=99")
    probe, built = _compile(tmp_path, "probe", "int main(void){return 0;}\n")
    if built.returncode != 0:
        pytest.skip(f"sanitizer runtime unavailable: {built.stderr[-300:]}")
    ran = subprocess.run([str(probe)], capture_output=True, env=env)
    if ran.returncode != 0:
        pytest.skip("sanitized binaries cannot run on this host")

    source = (
        C_SOURCE
        + DRIVER.replace("{ SIZES }", "{ " + ", ".join(map(str, SIZES)) + " }")
        .replace(
            "{ WIDTH_SIZES }",
            "{ " + ", ".join(map(str, WIDTH_SIZES)) + " }",
        )
    )
    exe, built = _compile(tmp_path, "kernels", source)
    assert built.returncode == 0, built.stderr
    ran = subprocess.run(
        [str(exe)], capture_output=True, text=True, env=env, timeout=300
    )
    assert ran.returncode == 0, (ran.stdout[-2000:], ran.stderr[-4000:])
    assert "runtime error" not in ran.stderr, ran.stderr[-4000:]
    return ran.stdout


def test_kernels_sort_stably_and_cleanly_under_sanitizers(driver_output):
    assert "FAIL" not in driver_output
    assert driver_output.rstrip().endswith("failures 0")


def test_python_mirror_matches_kernel_width_rule(driver_output):
    rows = [
        line.split()[1:]
        for line in driver_output.splitlines()
        if line.startswith("width ")
    ]
    assert len(rows) == len(WIDTH_SIZES) * 64
    for n, bits, width, split in (map(int, row) for row in rows):
        assert native_finish_widths(n, bits)[0] == width, (n, bits)
        assert native_split_width(n, bits) == split, (n, bits)
