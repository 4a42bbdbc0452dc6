"""Seeded input generators owned by the benchmark.

Every input the benchmark measures is built here from the run's
``--seed``, never through ``repro.workloads``: a change to the
program's own generators therefore cannot change what is measured.
Each generator takes a ``numpy.random.Generator`` so that one seed
fans out into independent, reproducible streams (see :func:`stream`).
"""

from __future__ import annotations

import numpy as np

#: Fraction of a float input replaced by edge values (at least one of
#: each class in every input, however small).
EDGE_SHARE = 1 / 64


def stream(seed: int, *labels: int) -> np.random.Generator:
    """An independent generator for one named part of one seeded run."""
    return np.random.default_rng([seed, *labels])


def uniform_u32(rng: np.random.Generator, n: int) -> np.ndarray:
    return rng.integers(0, 1 << 32, n, dtype=np.uint32)


def uniform_i64(rng: np.random.Generator, n: int) -> np.ndarray:
    info = np.iinfo(np.int64)
    return rng.integers(info.min, info.max, n, dtype=np.int64, endpoint=True)


def uniform_u64(rng: np.random.Generator, n: int) -> np.ndarray:
    top = np.iinfo(np.uint64).max
    return rng.integers(0, top, n, dtype=np.uint64, endpoint=True)


def zipf_u32(
    rng: np.random.Generator, n: int, universe: int = 1 << 16, s: float = 1.0
) -> np.ndarray:
    """Zipf(s) ranks over ``universe`` distinct, randomly placed keys.

    Rank 1 is the most frequent key; ranks map to keys through a random
    table, so frequency is unrelated to key order.
    """
    weights = 1.0 / np.arange(1, universe + 1, dtype=np.float64) ** s
    cdf = np.cumsum(weights)
    cdf /= cdf[-1]
    ranks = np.searchsorted(cdf, rng.random(n), side="right")
    np.minimum(ranks, universe - 1, out=ranks)
    table = rng.choice(1 << 32, size=universe, replace=False).astype(np.uint32)
    return table[ranks]


def and4_u64(rng: np.random.Generator, n: int) -> np.ndarray:
    """Low-entropy keys: the AND of four uniform words (the paper's §6
    skew generator; each bit is set with probability 1/16)."""
    keys = uniform_u64(rng, n)
    for _ in range(3):
        keys &= uniform_u64(rng, n)
    return keys


def _edge_bits(rng: np.random.Generator, k: int, dtype: np.dtype) -> np.ndarray:
    """``k`` edge-value bit patterns cycling +0, -0, +inf, -inf, NaNs.

    NaNs carry random non-zero payloads and both signs, so the
    bijection's handling of the whole NaN space is exercised.
    """
    width = dtype.itemsize * 8
    udtype = np.dtype(f"u{dtype.itemsize}")
    mant_bits = 52 if width == 64 else 23
    sign = 1 << (width - 1)
    exp_all = ((1 << (width - 1 - mant_bits)) - 1) << mant_bits
    payload = rng.integers(1, 1 << mant_bits, k, dtype=np.uint64)
    cls = np.arange(k) % 6
    bits = np.zeros(k, dtype=np.uint64)
    bits[cls == 1] = sign
    bits[cls == 2] = exp_all
    bits[cls == 3] = exp_all | sign
    bits[cls == 4] = exp_all | payload[cls == 4]
    bits[cls == 5] = exp_all | sign | payload[cls == 5]
    return bits.astype(udtype)


def float_with_edges(
    rng: np.random.Generator, n: int, dtype=np.float64
) -> np.ndarray:
    """Normal keys with NaN payloads, ±0.0 and ±inf mixed in."""
    dtype = np.dtype(dtype)
    keys = rng.standard_normal(n).astype(dtype)
    k = min(n, max(6, int(n * EDGE_SHARE)))
    where = rng.choice(n, size=k, replace=False)
    keys.view(f"u{dtype.itemsize}")[where] = _edge_bits(rng, k, dtype)
    check_float_edges(keys)
    return keys


def check_float_edges(keys: np.ndarray) -> None:
    """Raise unless ``keys`` holds +0, -0, +inf, -inf and signed NaNs."""
    bits = keys.view(f"u{keys.dtype.itemsize}")
    width = keys.dtype.itemsize * 8
    sign = np.uint64(1 << (width - 1))
    wide = bits.astype(np.uint64)
    nan = np.isnan(keys)
    present = {
        "+0": bool((wide == 0).any()),
        "-0": bool((wide == sign).any()),
        "+inf": bool(np.isposinf(keys).any()),
        "-inf": bool(np.isneginf(keys).any()),
        "+nan": bool((nan & ((wide & sign) == 0)).any()),
        "-nan": bool((nan & ((wide & sign) != 0)).any()),
    }
    missing = [name for name, ok in present.items() if not ok]
    if missing:
        raise ValueError(f"float input lacks edge values: {missing}")


def timestamps_u64(rng: np.random.Generator, n: int) -> np.ndarray:
    """Nearly sorted nanosecond timestamps: a 1 µs tick plus up to 8 µs
    of arrival jitter, so each record is out of order with a few
    neighbours but the file is globally ascending."""
    base = np.uint64(1_700_000_000) * np.uint64(10**9)
    ticks = np.arange(n, dtype=np.uint64) * np.uint64(1000)
    jitter = rng.integers(0, 8000, n, dtype=np.uint64)
    return base + ticks + jitter


def row_ids(n: int, dtype) -> np.ndarray:
    return np.arange(n, dtype=dtype)


def log_uniform_sizes(
    rng: np.random.Generator, count: int, lo_exp: float, hi_exp: float
) -> np.ndarray:
    """``count`` sizes log-uniform in ``[2**lo_exp, 2**hi_exp]``.

    Stratified: one draw per equal slice of the exponent range, then
    shuffled.  The mix of sizes is then nearly the same for every seed,
    so throughput differences between seeds come from the keys, not
    from how many large inputs the seed happened to draw.
    """
    slots = (np.arange(count) + rng.random(count)) / count
    sizes = np.rint(2.0 ** (lo_exp + (hi_exp - lo_exp) * slots)).astype(np.int64)
    rng.shuffle(sizes)
    return sizes
