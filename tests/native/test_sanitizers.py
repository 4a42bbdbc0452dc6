"""The native kernels under AddressSanitizer and UBSan.

Compiles :data:`repro.native.build.C_SOURCE` together with a small C
driver under ``gcc -fsanitize=address,undefined`` and runs the u32,
u64 and pairs kernels over sizes around every schedule boundary (the
insertion-sort cutoff, one full 11-bit digit, the old native floor,
one benchmark run) and five key shapes, plus 2^18 uniform 64-bit
pairs, past the pairs kernel's further split.  Each output is compared with
a stable merge sort of the same input whose payload is the input
index, which checks order and stability at once; every buffer is
allocated to its exact size, so a write past a bucket or a flush tail
is a sanitizer error.  The driver also prints the kernel's LSD digit
width and its pairs-bucket split width for a grid of bucket sizes,
which must equal the Python mirror.

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

/* u32 words: key bits from the draw, the low lo bits carry the index. */
static void check_u32(int64_t n, int shape, int lo)
{
    uint32_t *a = malloc((size_t)n * 4), *b = malloc((size_t)n * 4), *out;
    uint64_t *rk = malloc((size_t)(n ? n : 1) * 8);
    uint64_t *rv = malloc((size_t)(n ? n : 1) * 8);
    uint32_t low = lo ? (1u << lo) - 1 : 0;
    int64_t i;
    int rc;
    for (i = 0; i < n; i++) {
        a[i] = ((uint32_t)(draw(shape) >> 32) & ~low) | ((uint32_t)i & low);
        rk[i] = a[i];
        rv[i] = (uint64_t)i;
    }
    rc = repro_native_sort_u32(a, b, n, lo);
    ref_sort(rk, rv, n, lo);
    out = rc == 0 ? a : b;
    if (rc < 0)
        fail("u32 rc", n, shape, lo, rc);
    else
        for (i = 0; i < n; i++)
            if (out[i] != (uint32_t)rk[i]) {
                fail("u32", n, shape, lo, i);
                break;
            }
    free(a); free(b); free(rk); free(rv);
}

/* u64 words: key bits from the draw, the low lo bits carry the index. */
static void check_u64(int64_t n, int shape, int lo)
{
    uint64_t *a = malloc((size_t)n * 8), *b = malloc((size_t)n * 8), *out;
    uint64_t *rk = malloc((size_t)(n ? n : 1) * 8);
    uint64_t *rv = malloc((size_t)(n ? n : 1) * 8);
    uint64_t low = lo ? (1ULL << lo) - 1 : 0;
    int64_t i;
    int rc;
    for (i = 0; i < n; i++) {
        a[i] = (draw(shape) & ~low) | ((uint64_t)i & low);
        rk[i] = a[i];
        rv[i] = (uint64_t)i;
    }
    rc = repro_native_sort_u64(a, b, n, lo);
    ref_sort(rk, rv, n, lo);
    out = rc == 0 ? a : b;
    if (rc < 0)
        fail("u64 rc", n, shape, lo, rc);
    else
        for (i = 0; i < n; i++)
            if (out[i] != rk[i]) {
                fail("u64", n, shape, lo, i);
                break;
            }
    free(a); free(b); free(rk); free(rv);
}

/* (k, v) pairs: v is the input index, so it is the stable permutation. */
static void check_pairs(int64_t n, int shape, int lo)
{
    uint64_t *k = malloc((size_t)n * 8), *kt = malloc((size_t)n * 8);
    uint64_t *v = malloc((size_t)n * 8), *vt = malloc((size_t)n * 8);
    uint64_t *rk = malloc((size_t)(n ? n : 1) * 8);
    uint64_t *rv = malloc((size_t)(n ? n : 1) * 8);
    uint64_t *ok, *ov;
    int64_t i;
    int rc;
    for (i = 0; i < n; i++) {
        k[i] = rk[i] = draw(shape);
        v[i] = rv[i] = (uint64_t)i;
    }
    rc = repro_native_sort_u64_pairs(k, kt, v, vt, n, lo);
    ref_sort(rk, rv, n, lo);
    ok = rc == 0 ? k : kt;
    ov = rc == 0 ? v : vt;
    if (rc < 0)
        fail("pairs rc", n, shape, lo, rc);
    else
        for (i = 0; i < n; i++)
            if (ok[i] != rk[i] || ov[i] != rv[i]) {
                fail("pairs", n, shape, lo, i);
                break;
            }
    free(k); free(kt); free(v); free(vt); free(rk); free(rv);
}

int main(void)
{
    static const int64_t sizes[] = { SIZES };
    static const int64_t width_sizes[] = { WIDTH_SIZES };
    size_t s;
    int shape, bits;
    for (s = 0; s < sizeof(sizes) / sizeof(sizes[0]); s++)
        for (shape = 0; shape < SHAPES; shape++) {
            int64_t n = sizes[s];
            check_u32(n, shape, 0);   /* MSD partition + finish */
            check_u32(n, shape, 9);   /* partition, index-tagged */
            check_u32(n, shape, 17);  /* plain LSD, full index */
            check_u64(n, shape, 0);
            check_u64(n, shape, 32);  /* the packed key|index layout */
            check_pairs(n, shape, 0);
            check_pairs(n, shape, 40);
            check_pairs(n, shape, 48);
        }
    check_pairs(1 << 18, 0, 0);  /* 128-key buckets: one more split */
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
