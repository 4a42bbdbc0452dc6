"""Small NumPy helpers shared across the library.

These are internal (underscore-module) utilities: vectorized building
blocks for segment manipulation that the counting-sort and local-sort
engines use to avoid Python-level loops over millions of buckets.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "concatenated_aranges",
    "segment_ids_from_sizes",
    "run_lengths",
    "expected_max_multinomial",
    "is_sorted",
    "as_uint",
    "narrow_uint_dtype",
    "coalesce_spans",
    "even_bounds",
]


def even_bounds(total: int, parts: int) -> np.ndarray:
    """``parts + 1`` integer boundaries splitting ``[0, total)`` evenly.

    Exact integer arithmetic (no float rounding): part ``i`` spans
    ``[bounds[i], bounds[i+1])`` and part sizes differ by at most one.
    The chunked counting scatter cuts its chunks with it.
    """
    return (total * np.arange(parts + 1, dtype=np.int64)) // parts


def concatenated_aranges(sizes: np.ndarray) -> np.ndarray:
    """Return ``concatenate([arange(s) for s in sizes])`` without a loop.

    ``sizes`` may contain zeros.  The result for ``sizes=[2, 0, 3]`` is
    ``[0, 1, 0, 1, 2]``.  Used to build per-bucket column indices when
    padding many variable-size buckets into a matrix.
    """
    sizes = np.asarray(sizes, dtype=np.int64)
    # Empty segments contribute nothing; dropping them up front keeps the
    # boundary arithmetic below simple.
    sizes = sizes[sizes > 0]
    if sizes.size == 0:
        return np.empty(0, dtype=np.int64)
    total = int(sizes.sum())
    # Standard trick: start from all-ones, subtract the previous segment's
    # length at each boundary, then cumulative-sum.
    out = np.ones(total, dtype=np.int64)
    out[0] = 0
    if sizes.size > 1:
        starts = np.cumsum(sizes)[:-1]
        out[starts] = 1 - sizes[:-1]
    return np.cumsum(out)


def segment_ids_from_sizes(sizes: np.ndarray) -> np.ndarray:
    """Return ``concatenate([full(s, i) for i, s in enumerate(sizes)])``.

    The segment-id array used to turn per-bucket operations into one
    global vectorized operation.  Zero-size segments contribute nothing.
    """
    sizes = np.asarray(sizes, dtype=np.int64)
    return np.repeat(np.arange(sizes.size, dtype=np.int64), sizes)


def run_lengths(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Run-length encode ``values``: return (run_values, run_lengths).

    Used by the look-ahead write-combining model to count how many
    consecutive keys share a digit value.
    """
    values = np.asarray(values)
    if values.size == 0:
        return values[:0], np.empty(0, dtype=np.int64)
    boundaries = np.flatnonzero(values[1:] != values[:-1]) + 1
    starts = np.concatenate(([0], boundaries))
    ends = np.concatenate((boundaries, [values.size]))
    return values[starts], (ends - starts).astype(np.int64)


def expected_max_multinomial(balls: int, bins: int) -> float:
    """Expected maximum bin load for ``balls`` thrown into ``bins`` bins.

    A cheap analytic approximation (mean + deviation term) that is accurate
    enough for the atomic-serialization model: for ``bins=1`` it returns
    ``balls`` exactly, and for large ``bins`` it approaches the classical
    ``ln n / ln ln n`` regime shape without heavy computation.
    """
    if balls <= 0:
        return 0.0
    if bins <= 1:
        return float(balls)
    mean = balls / bins
    # Variance of a single bin is balls * p * (1-p); the max over `bins`
    # bins exceeds the mean by roughly sqrt(2 * var * ln(bins)).
    var = balls * (1.0 / bins) * (1.0 - 1.0 / bins)
    dev = float(np.sqrt(2.0 * var * np.log(bins)))
    return float(min(balls, mean + dev))


def is_sorted(a: np.ndarray) -> bool:
    """True if ``a`` is non-decreasing."""
    a = np.asarray(a)
    if a.size <= 1:
        return True
    return bool(np.all(a[:-1] <= a[1:]))


def as_uint(a: np.ndarray) -> np.ndarray:
    """View ``a`` as the unsigned integer type of the same width."""
    a = np.asarray(a)
    mapping = {1: np.uint8, 2: np.uint16, 4: np.uint32, 8: np.uint64}
    return a.view(mapping[a.dtype.itemsize])


def narrow_uint_dtype(max_value: int) -> np.dtype:
    """The smallest unsigned dtype that can hold ``max_value``.

    NumPy's stable sort takes an O(n) radix path for 1- and 2-byte
    integer arrays, so keeping composite sort keys as narrow as their
    value range allows is what makes the counting-sort engine's argsort
    approach one-read-one-write behaviour.
    """
    if max_value < (1 << 8):
        return np.dtype(np.uint8)
    if max_value < (1 << 16):
        return np.dtype(np.uint16)
    if max_value < (1 << 32):
        return np.dtype(np.uint32)
    return np.dtype(np.uint64)


def coalesce_spans(
    offsets: np.ndarray, sizes: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Coalesce adjacent buckets into maximal contiguous memory spans.

    Buckets are taken in array order; bucket ``i+1`` extends the current
    span when it starts exactly where the previous non-empty bucket
    ended.  Zero-size buckets never break a span (they occupy no
    memory).  Returns four parallel arrays
    ``(span_starts, span_stops, bucket_lo, bucket_hi)``: the memory
    extent of each span and the inclusive range of (non-empty) bucket
    indices it covers.  All arrays are empty when every bucket is empty.
    """
    offsets = np.asarray(offsets, dtype=np.int64)
    sizes = np.asarray(sizes, dtype=np.int64)
    nonempty = np.flatnonzero(sizes > 0)
    if nonempty.size == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty.copy(), empty.copy(), empty.copy()
    ends = offsets[nonempty] + sizes[nonempty]
    breaks = np.flatnonzero(offsets[nonempty][1:] != ends[:-1]) + 1
    first = np.concatenate(([0], breaks))
    last = np.concatenate((breaks - 1, [nonempty.size - 1]))
    return (
        offsets[nonempty[first]],
        ends[last],
        nonempty[first],
        nonempty[last],
    )
