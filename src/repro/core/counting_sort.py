"""One counting-sort pass over all active buckets (§4.1–§4.4).

The counting sort of a pass performs, per active bucket: histogram →
exclusive prefix sum → scatter (§4.1).  Two engines implement it:

* :func:`counting_sort_pass` — the fast vectorized engine.  A stable
  argsort of ``bucket_id * radix + digit`` over the active regions is
  exactly equivalent to a per-bucket counting sort, because active
  buckets are contiguous, disjoint, and internally prefix-equal.  The
  engine also measures the statistics the cost model needs (warp
  conflicts, thread-reduction and look-ahead operation rates, skew).

  To keep the pass near the paper's one-read-one-write cost model in
  *host* memory too, the engine dispatches between four paths:

  1. **chunked counting scatter** — a keys-only bucket large enough to
     spill the cache is split into fixed-size chunks and processed like
     the paper's thread blocks: per-chunk histogram, an exclusive scan
     across chunks per digit value, then a per-chunk scatter to the
     globally computed sub-bucket positions.  Chunk-major order with a
     stable in-chunk sort *is* the global stable order, so the output
     is bit-identical for any chunk count.
  2. **per-bucket slices** — a span of large adjacent buckets is
     partitioned bucket by bucket on direct sub-slices.  Each bucket's
     working set fits the cache, which beats one span-wide composite
     sort by a wide margin.
  3. **sliced span path** — adjacent small active buckets are coalesced
     into maximal contiguous memory spans
     (:func:`repro._util.coalesce_spans`) and each span is processed on
     a direct buffer slice with a composite ``segment * radix + digit``
     sort key built in the smallest sufficient unsigned dtype (often
     uint8/uint16), which lets NumPy's stable sort take its O(n) radix
     path.
  4. **gathered fallback** — when the active buckets fragment into too
     many spans for a per-span loop, the original one-shot gather path
     runs, still with narrow sort keys and with the pairs double-gather
     fused into a single take via precomposed indices.

  All paths produce bit-identical output (the property tests assert
  this against a reference implementation of the plain gather engine).
  Pair layouts always take paths 3/4 — they are the oracle and the
  wide-record fallback; packed pairs run the keys-only fast paths on
  their fused words (see :mod:`repro.core.pairs`).

* :func:`block_level_counting_sort` — the faithful engine for one
  bucket: per-block histograms with shared-memory-atomic emulation and
  the out-of-order :class:`~repro.core.scatter.BlockScatterEngine`.
  Used by the tests to show the mechanism produces identical sub-bucket
  boundaries (and a mere permutation within each sub-bucket, i.e. the
  paper's deliberate non-stability).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro._util import (
    coalesce_spans,
    concatenated_aranges,
    even_bounds,
    narrow_uint_dtype,
    segment_ids_from_sizes,
)
from repro.core.bucket import subdivide_into_blocks
from repro.core.config import SortConfig
from repro.core.digits import (
    DigitGeometry,
    extract_digit,
    extract_digit_compact,
)
from repro.core.histogram import (
    block_histograms,
    measure_warp_conflict,
    thread_reduction_ops_per_key,
)
from repro.core.scatter import BlockScatterEngine, lookahead_ops_per_key
from repro.errors import ConfigurationError
from repro.types import BlockStats

__all__ = ["PassOutput", "counting_sort_pass", "block_level_counting_sort"]

#: The per-span Python loop always runs for this few spans ...
_SPAN_LOOP_MIN = 16
#: ... and beyond that, for up to one span per this many active keys;
#: otherwise the one-shot gathered fallback amortises better.
_SPAN_KEY_RATIO = 2048
#: Keys-only buckets at least this large take the chunked counting
#: scatter instead of one argsort+gather over the whole bucket.
_CHUNKED_MIN = 1 << 20
#: Target chunk size of the chunked scatter: small enough that a
#: chunk's keys plus its scatter positions stay cache-resident.
_CHUNK_TARGET = 1 << 19
#: Keys-only spans whose buckets average at least this many keys are
#: partitioned bucket-by-bucket (cache-sized slices) instead of through
#: one span-wide composite sort key.
_PER_BUCKET_MIN = 2048


@dataclass
class PassOutput:
    """Everything one fast counting-sort pass produces."""

    counts: np.ndarray  # (n_buckets, radix) histograms
    stats: BlockStats
    n_blocks: int
    n_keys: int


def counting_sort_pass(
    src: np.ndarray,
    dst: np.ndarray,
    offsets: np.ndarray,
    sizes: np.ndarray,
    config: SortConfig,
    digit_index: int,
    src_values: np.ndarray | None = None,
    dst_values: np.ndarray | None = None,
    rng: np.random.Generator | None = None,
) -> PassOutput:
    """Partition every active bucket on MSD digit ``digit_index``.

    Reads bucket extents from ``src``, writes the partitioned sequence of
    sub-buckets to the same extents in ``dst`` ("the sub-bucket holding
    the keys with the smallest digit value starts at the same offset as
    the input bucket", §4.1).

    Parameters
    ----------
    src / dst:
        The pass's double buffers (whole arrays, not slices); only the
        extents named by ``offsets``/``sizes`` are read and written.
    offsets / sizes:
        Parallel int64 arrays: start offset and length of every active
        bucket, ascending and non-overlapping.
    config:
        Supplies digit geometry, KPB block accounting, and the ablation
        switches the measured statistics honour.
    digit_index:
        Which digit of the geometry's sequence this pass partitions on.
    src_values / dst_values:
        Optional decomposed payload arrays moved alongside the keys
        (both or neither).
    rng:
        Source for the sampled block statistics; deterministic default.

    Returns a :class:`PassOutput` with per-bucket digit histograms (the
    partition result the caller turns into sub-buckets) and the block
    statistics the cost model prices.
    """
    offsets = np.asarray(offsets, dtype=np.int64)
    sizes = np.asarray(sizes, dtype=np.int64)
    if offsets.size != sizes.size:
        raise ConfigurationError("offsets and sizes must be parallel")
    geometry = config.geometry
    radix = config.radix

    n_buckets = offsets.size
    n_keys = int(sizes.sum())
    if n_keys == 0:
        return PassOutput(
            counts=np.zeros((n_buckets, radix), dtype=np.int64),
            stats=BlockStats(),
            n_blocks=0,
            n_keys=0,
        )

    if src_values is not None and dst_values is None:
        raise ConfigurationError("dst_values required when moving pairs")

    starts, stops, bucket_lo, bucket_hi = coalesce_spans(offsets, sizes)
    n_spans = starts.size
    if n_spans <= max(_SPAN_LOOP_MIN, n_keys // _SPAN_KEY_RATIO):
        counts = np.zeros((n_buckets, radix), dtype=np.int64)
        digit_chunks = []
        for i in range(n_spans):
            lo, hi = int(bucket_lo[i]), int(bucket_hi[i])
            digit_chunks += _partition_span(
                src,
                dst,
                int(starts[i]),
                int(stops[i]),
                sizes[lo : hi + 1],
                counts[lo : hi + 1],
                geometry,
                digit_index,
                radix,
                src_values,
                dst_values,
            )
    else:
        digits, counts = _partition_gathered(
            src,
            dst,
            offsets,
            sizes,
            n_buckets,
            geometry,
            digit_index,
            radix,
            src_values,
            dst_values,
        )
        digit_chunks = [digits]

    if config.use_thread_reduction or config.use_lookahead:
        stats = _measure_pass_stats(
            _as_stream(digit_chunks),
            counts,
            config,
            rng or np.random.default_rng(0xC0DE + digit_index),
        )
    else:
        # Neither sampling optimisation is on, so no consumer needs the
        # measurements eagerly; defer them — including the RNG
        # construction — until something (usually the cost model)
        # actually reads the stats.
        stats = _LazyBlockStats(
            lambda: _measure_pass_stats(
                _as_stream(digit_chunks),
                counts,
                config,
                rng or np.random.default_rng(0xC0DE + digit_index),
            )
        )
    n_blocks = int((-(-sizes // config.kpb)).sum())
    return PassOutput(counts=counts, stats=stats, n_blocks=n_blocks, n_keys=n_keys)


def _as_stream(digit_chunks: list[np.ndarray]) -> np.ndarray:
    """Concatenate per-span/per-bucket digit chunks into one stream."""
    if len(digit_chunks) == 1:
        return digit_chunks[0]
    return np.concatenate(digit_chunks)


def _partition_span(
    src: np.ndarray,
    dst: np.ndarray,
    start: int,
    stop: int,
    bucket_sizes: np.ndarray,
    counts_block: np.ndarray,
    geometry: DigitGeometry,
    digit_index: int,
    radix: int,
    src_values: np.ndarray | None,
    dst_values: np.ndarray | None,
) -> list[np.ndarray]:
    """Partition one contiguous span of buckets on direct buffer slices.

    ``bucket_sizes`` and ``counts_block`` cover the span's bucket range;
    returns the span's digit stream (for the pass statistics) as a list
    of chunks in stream order.
    """
    n_span_buckets = bucket_sizes.size
    if src_values is None and n_span_buckets > 1:
        span_size = stop - start
        if span_size // n_span_buckets >= _PER_BUCKET_MIN:
            return _partition_span_per_bucket(
                src,
                dst,
                start,
                bucket_sizes,
                counts_block,
                geometry,
                digit_index,
                radix,
            )
    if n_span_buckets == 1:
        # Single-bucket span: the digit itself is the sort key — no
        # segment ids, no multiply.
        if src_values is None and stop - start >= _CHUNKED_MIN:
            digits = _partition_bucket_chunked(
                src, dst, start, stop, counts_block[0], geometry,
                digit_index, radix,
            )
            return [digits]
        active = src[start:stop]
        digits = extract_digit_compact(active, geometry, digit_index)
        counts_block[0] = np.bincount(digits, minlength=radix)
        order = np.argsort(digits, kind="stable")
    else:
        active = src[start:stop]
        digits = extract_digit_compact(active, geometry, digit_index)
        key_dtype = narrow_uint_dtype(n_span_buckets * radix - 1)
        key = np.repeat(
            np.arange(n_span_buckets, dtype=key_dtype), bucket_sizes
        )
        key *= key_dtype.type(radix)
        key += digits
        counts_block[...] = np.bincount(
            key, minlength=n_span_buckets * radix
        ).reshape(n_span_buckets, radix)
        order = np.argsort(key, kind="stable")
    dst[start:stop] = active[order]
    if src_values is not None:
        dst_values[start:stop] = src_values[start:stop][order]
    return [digits]


def _partition_span_per_bucket(
    src: np.ndarray,
    dst: np.ndarray,
    start: int,
    bucket_sizes: np.ndarray,
    counts_block: np.ndarray,
    geometry: DigitGeometry,
    digit_index: int,
    radix: int,
) -> list[np.ndarray]:
    """Partition a span of large buckets one cache-sized slice at a time.

    Equivalent to the composite-key sort (the composite key orders
    bucket-major, and buckets are adjacent), but every argsort and
    gather touches only one bucket's working set.  The returned digit
    stream keeps bucket order.
    """
    bounds = start + np.concatenate(
        ([0], np.cumsum(bucket_sizes))
    )

    def run_bucket(b: int) -> np.ndarray:
        lo, hi = int(bounds[b]), int(bounds[b + 1])
        if hi - lo >= _CHUNKED_MIN:
            return _partition_bucket_chunked(
                src, dst, lo, hi, counts_block[b], geometry, digit_index,
                radix,
            )
        active = src[lo:hi]
        digits = extract_digit_compact(active, geometry, digit_index)
        counts_block[b] = np.bincount(digits, minlength=radix)
        dst[lo:hi] = active[np.argsort(digits, kind="stable")]
        return digits

    return [run_bucket(b) for b in range(bucket_sizes.size)]


def _partition_bucket_chunked(
    src: np.ndarray,
    dst: np.ndarray,
    start: int,
    stop: int,
    counts_row: np.ndarray,
    geometry: DigitGeometry,
    digit_index: int,
    radix: int,
) -> np.ndarray:
    """Counting-scatter one large keys-only bucket in fixed-size chunks.

    The host mirror of the paper's kernel pipeline: per-chunk histogram,
    exclusive scan across chunks per digit value, per-chunk scatter to
    globally computed positions.  Chunk-major traversal with a stable
    in-chunk sort reproduces the global stable order exactly, so the
    output does not depend on the chunk count — chunks exist purely to
    keep working sets cache-sized.

    Parameters
    ----------
    src / dst:
        The pass's full double buffers; the bucket is ``src[start:stop]``
        and its sub-buckets land in the same extent of ``dst``.
    start / stop:
        Bucket extent, chosen by the caller so ``stop - start`` is at
        least ``_CHUNKED_MIN`` (smaller buckets use cheaper paths).
    counts_row:
        Output parameter: this bucket's row of the pass's
        ``(n_buckets, radix)`` histogram, filled in place.
    geometry / digit_index / radix:
        Digit extraction parameters for this pass.

    Returns the bucket's digit stream (reused by the caller for the
    pass statistics).
    """
    size = stop - start
    active = src[start:stop]
    digits = extract_digit_compact(active, geometry, digit_index)
    n_chunks = -(-size // _CHUNK_TARGET)
    bounds = even_bounds(size, n_chunks)

    per_chunk = np.empty((n_chunks, radix), dtype=np.int64)
    for c in range(n_chunks):
        per_chunk[c] = np.bincount(
            digits[bounds[c] : bounds[c + 1]], minlength=radix
        )
    counts_row[...] = per_chunk.sum(axis=0)
    digit_base = np.zeros(radix, dtype=np.int64)
    np.cumsum(counts_row[:-1], out=digit_base[1:])
    # Destination base of (chunk, digit): the digit's sub-bucket start
    # plus everything earlier chunks put there.
    chunk_base = (
        start + digit_base[None, :] + np.cumsum(per_chunk, axis=0) - per_chunk
    )

    for c in range(n_chunks):
        lo, hi = int(bounds[c]), int(bounds[c + 1])
        chunk_digits = digits[lo:hi]
        order = np.argsort(chunk_digits, kind="stable")
        chunk_counts = per_chunk[c]
        in_chunk_start = np.zeros(radix, dtype=np.int64)
        np.cumsum(chunk_counts[:-1], out=in_chunk_start[1:])
        # Stable in-chunk order groups the chunk digit-major; each
        # group lands as one sequential run at its global base.
        pos = np.repeat(
            chunk_base[c] - in_chunk_start, chunk_counts
        ) + np.arange(hi - lo, dtype=np.int64)
        dst[pos] = active[lo:hi][order]
    return digits


def _partition_gathered(
    src: np.ndarray,
    dst: np.ndarray,
    offsets: np.ndarray,
    sizes: np.ndarray,
    n_buckets: int,
    geometry: DigitGeometry,
    digit_index: int,
    radix: int,
    src_values: np.ndarray | None,
    dst_values: np.ndarray | None,
) -> tuple[np.ndarray, np.ndarray]:
    """One-shot gather/scatter over all active buckets (fallback path).

    Used when the active buckets fragment into too many spans for the
    per-span loop; still builds the composite sort key in the narrowest
    sufficient dtype and fuses the pairs double-gather.
    """
    positions = np.repeat(offsets, sizes) + concatenated_aranges(sizes)
    active_keys = src[positions]
    digits = extract_digit_compact(active_keys, geometry, digit_index)
    if n_buckets == 1:
        key = digits
    else:
        key_dtype = narrow_uint_dtype(n_buckets * radix - 1)
        key = segment_ids_from_sizes(sizes).astype(key_dtype, copy=False)
        key *= key_dtype.type(radix)
        key += digits

    # Histogram step (per bucket; per-block histograms are derived the
    # same way and the cost model charges their storage, §4.3).
    counts = np.bincount(key, minlength=n_buckets * radix).reshape(
        n_buckets, radix
    )

    # Scatter step: one stable argsort == counting sort per bucket.
    order = np.argsort(key, kind="stable")
    dst[positions] = active_keys[order]
    if src_values is not None:
        dst_values[positions] = src_values[positions[order]]
    return digits, counts


class _LazyBlockStats:
    """A :class:`~repro.types.BlockStats` computed on first access.

    Built when both sampling optimisations (thread reduction,
    look-ahead) are disabled, so no consumer needs the measurements
    eagerly; attribute access forwards to the real stats, computing
    them once.
    """

    __slots__ = ("_thunk", "_stats")

    def __init__(self, thunk) -> None:
        self._thunk = thunk
        self._stats: BlockStats | None = None

    def _force(self) -> BlockStats:
        if self._stats is None:
            self._stats = self._thunk()
            self._thunk = None
        return self._stats

    def __getattr__(self, name: str):
        return getattr(self._force(), name)

    def __repr__(self) -> str:
        return repr(self._force())


def _measure_pass_stats(
    digits: np.ndarray,
    counts: np.ndarray,
    config: SortConfig,
    rng: np.random.Generator,
) -> BlockStats:
    """Sample the digit stream for the cost model's contention inputs."""
    warp_conflict = measure_warp_conflict(digits, rng=rng)
    if config.use_thread_reduction:
        hist_ops = thread_reduction_ops_per_key(digits, rng=rng)
    else:
        hist_ops = 1.0

    # Skew per bucket: fraction of keys on the most loaded digit value.
    totals = counts.sum(axis=1)
    safe_totals = np.maximum(totals, 1)
    max_fracs = counts.max(axis=1) / safe_totals
    weights = totals / max(1, int(totals.sum()))
    max_fraction = float((max_fracs * weights).sum())

    lookahead_active = 0.0
    scatter_ops = 1.0
    if config.use_lookahead:
        skewed = max_fracs >= config.lookahead_skew_threshold
        lookahead_active = float(weights[skewed].sum())
        if lookahead_active > 0.0:
            capped = lookahead_ops_per_key(
                digits, depth=config.lookahead_depth, rng=rng
            )
            # Skewed blocks run the combining path; the rest pay one op
            # per key.
            scatter_ops = (
                lookahead_active * capped + (1.0 - lookahead_active) * 1.0
            )
    return BlockStats(
        warp_conflict=warp_conflict,
        hist_ops_per_key=hist_ops,
        scatter_ops_per_key=scatter_ops,
        lookahead_active_fraction=lookahead_active,
        max_digit_fraction=max_fraction,
    )


def block_level_counting_sort(
    keys: np.ndarray,
    config: SortConfig,
    digit_index: int,
    values: np.ndarray | None = None,
    completion_seed: int = 0xB10C,
) -> tuple[np.ndarray, np.ndarray | None, np.ndarray]:
    """Faithful counting sort of a single bucket at block granularity.

    Returns ``(out_keys, out_values, histogram)``.  Emulates the real
    kernel pipeline: per-block histograms, a global exclusive prefix sum,
    then block scatter with atomic chunk reservation in a randomised
    completion order.
    """
    geometry = config.geometry
    radix = config.radix
    digits = extract_digit(keys, geometry, digit_index)

    block_offsets, block_sizes, _ = subdivide_into_blocks(
        np.array([0], dtype=np.int64),
        np.array([keys.size], dtype=np.int64),
        config.kpb,
    )
    per_block = block_histograms(digits, block_offsets, block_sizes, radix)
    histogram = per_block.sum(axis=0)
    sub_offsets = np.zeros(radix, dtype=np.int64)
    np.cumsum(histogram[:-1], out=sub_offsets[1:])

    out = np.empty_like(keys)
    out_values = np.empty_like(values) if values is not None else None
    engine = BlockScatterEngine(
        radix=radix,
        lookahead_depth=config.lookahead_depth,
        skew_threshold=config.lookahead_skew_threshold,
        use_lookahead=config.use_lookahead,
        completion_seed=completion_seed,
    )
    engine.scatter_bucket(
        keys,
        digits,
        sub_offsets,
        out,
        config.kpb,
        values=values,
        out_values=out_values,
    )
    return out, out_values, histogram
