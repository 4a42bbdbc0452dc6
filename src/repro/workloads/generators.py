"""Plain key and key-value workload generators.

Besides the entropy and Zipf benchmarks, the tests and examples use
uniform, constant, pre-sorted, reverse-sorted, and staircase inputs.  The
paper notes (§6) that "other than comparison-based sorting algorithms, the
hybrid radix sort is not prone to the order of the input but rather
sensitive to the key distribution" — the sorted/reverse generators exist
exactly to verify that property.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError

__all__ = [
    "uniform_keys",
    "constant_keys",
    "sorted_keys",
    "reverse_sorted_keys",
    "staircase_keys",
    "typed_keys",
    "generate_pairs",
]


def _dtype_for_bits(key_bits: int) -> np.dtype:
    if key_bits == 32:
        return np.dtype(np.uint32)
    if key_bits == 64:
        return np.dtype(np.uint64)
    raise ConfigurationError("key_bits must be 32 or 64")


def uniform_keys(
    n: int, key_bits: int = 32, rng: np.random.Generator | None = None
) -> np.ndarray:
    """Uniform random keys over the full key space."""
    rng = rng or np.random.default_rng()
    dtype = _dtype_for_bits(key_bits)
    return rng.integers(0, 2**key_bits, size=n, dtype=np.uint64).astype(dtype)


def constant_keys(n: int, key_bits: int = 32, value: int = 0) -> np.ndarray:
    """Every key identical — the paper's 0-entropy worst case."""
    dtype = _dtype_for_bits(key_bits)
    return np.full(n, value, dtype=dtype)


def sorted_keys(
    n: int, key_bits: int = 32, rng: np.random.Generator | None = None
) -> np.ndarray:
    """Uniform keys already in ascending order."""
    return np.sort(uniform_keys(n, key_bits, rng))


def reverse_sorted_keys(
    n: int, key_bits: int = 32, rng: np.random.Generator | None = None
) -> np.ndarray:
    """Uniform keys in descending order."""
    return sorted_keys(n, key_bits, rng)[::-1].copy()


def staircase_keys(n: int, key_bits: int = 32, steps: int = 16) -> np.ndarray:
    """``steps`` distinct values in large equal runs.

    A deterministic low-cardinality workload: stresses bucket merging and
    the atomic-contention paths without randomness.
    """
    if steps <= 0:
        raise ConfigurationError("steps must be positive")
    dtype = _dtype_for_bits(key_bits)
    span = 2**key_bits
    values = (np.arange(steps, dtype=np.float64) * (span / steps)).astype(
        np.uint64
    )
    return np.repeat(values, -(-n // steps))[:n].astype(dtype)


def typed_keys(
    n: int,
    dtype,
    distribution: str = "uniform",
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Generate ``n`` keys of any supported sort dtype.

    The dtype-generic front door the file generator (``repro gen-file``)
    uses; the CLI ``sort`` command delegates here too, so there is
    exactly one distribution-name dispatch.  32/64-bit unsigned keys support every named distribution
    (``uniform``, ``zipf``, ``constant``, ``presorted``, ``reverse``,
    ``staircase``, ``andK``).  Other dtypes reshape a same-width
    unsigned sample of the requested distribution:

    * signed ints map through the §4.6 bijection inverse, so the full
      (negative-including) range occurs with the distribution's shape;
    * floats scale the sample to ``[-0.5, 0.5)`` — order- and
      duplicate-preserving, so ``presorted`` stays sorted and ``zipf``
      stays skewed, and negative keys really occur (the case the
      bijections exist for);
    * narrow unsigned dtypes (uint8/uint16) take the top bits of a
      32-bit sample.
    """
    dtype = np.dtype(dtype)
    rng = rng or np.random.default_rng()

    def base(bits: int) -> np.ndarray:
        if distribution == "uniform":
            return uniform_keys(n, bits, rng)
        if distribution == "constant":
            return constant_keys(n, bits)
        if distribution == "presorted":
            return sorted_keys(n, bits, rng)
        if distribution == "reverse":
            return reverse_sorted_keys(n, bits, rng)
        if distribution == "staircase":
            return staircase_keys(n, bits)
        if distribution == "zipf":
            from repro.workloads.zipf import zipf_keys

            return zipf_keys(n, bits, rng=rng)
        if distribution.startswith("and"):
            from repro.workloads.entropy import generate_entropy_keys

            return generate_entropy_keys(
                n, bits, int(distribution.removeprefix("and")), rng
            )
        raise ConfigurationError(
            f"unknown distribution {distribution!r}"
        )

    if dtype.kind == "u":
        bits = dtype.itemsize * 8
        if bits >= 32:
            return base(bits)
        # Top bits of a 32-bit sample keep the distribution's shape.
        return (base(32) >> np.uint32(32 - bits)).astype(dtype)
    if dtype.kind == "i":
        from repro.core.keys import from_sortable_bits

        return from_sortable_bits(base(dtype.itemsize * 8), dtype)
    if dtype.kind == "f":
        if distribution == "constant":
            return np.zeros(n, dtype=dtype)
        bits = dtype.itemsize * 8
        sample = base(bits).astype(np.float64)
        return ((sample / 2.0**bits) - 0.5).astype(dtype)
    raise ConfigurationError(f"unsupported key dtype {dtype}")


def generate_pairs(
    keys: np.ndarray,
    value_bits: int = 32,
    rng: np.random.Generator | None = None,
    payload: str = "index",
) -> tuple[np.ndarray, np.ndarray]:
    """Attach values to ``keys`` in a decomposed (SoA) layout.

    ``payload="index"`` gives each key its original position — the natural
    payload for building database row-id indexes and the one that makes
    permutation checking in tests trivial.  ``payload="random"`` draws
    uniform values.
    """
    keys = np.asarray(keys)
    vdtype = _dtype_for_bits(value_bits)
    if payload == "index":
        values = np.arange(keys.size, dtype=np.uint64).astype(vdtype)
    elif payload == "random":
        rng = rng or np.random.default_rng()
        values = rng.integers(0, 2**value_bits, size=keys.size, dtype=np.uint64).astype(vdtype)
    else:
        raise ConfigurationError("payload must be 'index' or 'random'")
    return keys, values
