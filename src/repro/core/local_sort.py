"""Local sort (§4.1–§4.2).

Buckets of at most ∂̂ keys are sorted entirely in on-chip shared memory:
read once, sorted locally, written once — no matter how many radix passes
that takes internally.  §4.2 refines this with *local sort
configurations*: rather than one kernel provisioned for ∂̂ keys handling
every bucket, a ladder of kernels covers bucket-size subintervals
([1, 128], (128, 256], …, (…, ∂̂]) so small buckets do not waste threads.

Two implementations live here:

* :class:`LocalSortEngine` — the fast vectorized engine.  Buckets routed
  to one configuration are padded into a matrix (pad value = dtype max,
  so padding sorts to the back) and sorted along rows in one NumPy call;
  the padding *is* the thread over-provisioning of a real kernel and is
  reported as such to the cost model.  Host fast paths keep the trick
  allocation-light:

  - classes whose (keys-only) buckets are large are sorted as direct
    contiguous destination slices — copy in, sort in place, zero pad
    cells and zero index arrays;
  - batches whose buckets all share one size skip the pad matrix
    entirely (the rows are gathered dense, no fill);
  - padded batches draw their key/value matrices from the engine's
    scratch-buffer pool instead of allocating afresh — the value matrix
    is never even initialised, because padding cells sort behind the
    real keys and are never read back.

  The pairs (``src_values``) branches keep the stable argsort + aligned
  gather exactly as seeded: they are the oracle the packed pair engine
  is property-tested against, and the fallback for records too wide to
  pack.
* :func:`block_radix_sort_shared` — the faithful in-"shared-memory" LSD
  block radix sort (the CUB ``BlockRadixSort`` analogue of §4.6) which
  sorts only the digits preceding passes have not fixed yet.
"""

from __future__ import annotations

import numpy as np

from repro._util import concatenated_aranges
from repro.core.digits import DigitGeometry, extract_digit_lsd
from repro.errors import ConfigurationError
from repro.types import LocalConfigStats, LocalSortTrace

__all__ = [
    "assign_configs",
    "LocalSortEngine",
    "block_radix_sort_shared",
]

#: Upper bound on padded elements materialised per batch; keeps the
#: padded-matrix trick memory-bounded for huge bucket populations.
_BATCH_ELEMENT_LIMIT = 1 << 23
#: Keys-only classes whose buckets average at least this many keys are
#: sorted as direct destination slices (no matrix, no index arrays);
#: below it, the Python per-bucket loop would cost more than padding.
_SLICE_SORT_MIN_AVG = 1024


def assign_configs(sizes: np.ndarray, configs: tuple[int, ...]) -> np.ndarray:
    """Index of the smallest configuration that fits each bucket size."""
    sizes = np.asarray(sizes, dtype=np.int64)
    caps = np.asarray(configs, dtype=np.int64)
    if sizes.size and int(sizes.max()) > int(caps[-1]):
        raise ConfigurationError(
            "a bucket exceeds the largest local-sort configuration"
        )
    if sizes.size and int(sizes.min()) < 1:
        raise ConfigurationError("local-sort buckets must be non-empty")
    return np.searchsorted(caps, sizes, side="left")


class LocalSortEngine:
    """Vectorized execution of all local sorts issued after one pass."""

    def __init__(
        self,
        configs: tuple[int, ...],
        geometry: DigitGeometry,
    ) -> None:
        if not configs:
            raise ConfigurationError("at least one configuration required")
        self.configs = tuple(int(c) for c in configs)
        self.geometry = geometry
        # Scratch-buffer pool, keyed by (role, dtype): flat arrays the
        # padded batches reshape into their row matrices, reused across
        # batches instead of allocating per call.  Every sort builds
        # its own engine, so no two threads share a pool.
        self._scratch: dict[tuple[str, str], np.ndarray] = {}

    def _scratch_matrix(
        self, role: str, dtype: np.dtype, n_rows: int, capacity: int
    ) -> np.ndarray:
        """An uninitialised ``(n_rows, capacity)`` view of pooled scratch."""
        n = n_rows * capacity
        key = (role, np.dtype(dtype).str)
        buf = self._scratch.get(key)
        if buf is None or buf.size < n:
            grow = 0 if buf is None else 2 * buf.size
            buf = np.empty(max(n, grow), dtype=dtype)
            self._scratch[key] = buf
        return buf[:n].reshape(n_rows, capacity)

    def execute(
        self,
        pass_index: int,
        src_keys: np.ndarray,
        dst_keys: np.ndarray,
        offsets: np.ndarray,
        sizes: np.ndarray,
        sort_from: np.ndarray,
        src_values: np.ndarray | None = None,
        dst_values: np.ndarray | None = None,
    ) -> LocalSortTrace:
        """Sort every bucket from ``src_keys`` into ``dst_keys`` in place.

        ``sort_from`` holds, per bucket, the MSD digit index from which
        keys still disagree (merged buckets start one digit earlier than
        plain ones).  Because all keys of a bucket agree on the digits
        before ``sort_from``, sorting the *full* keys is equivalent — and
        that is what the vectorized path does; ``sort_from`` feeds the
        remaining-digit statistics the cost model charges compute for.
        """
        offsets = np.asarray(offsets, dtype=np.int64)
        sizes = np.asarray(sizes, dtype=np.int64)
        sort_from = np.asarray(sort_from, dtype=np.int64)
        if not (offsets.size == sizes.size == sort_from.size):
            raise ConfigurationError("bucket arrays must be parallel")
        has_values = src_values is not None
        if has_values and dst_values is None:
            raise ConfigurationError("dst_values required when sorting pairs")

        num_digits = self.geometry.num_digits
        per_config: list[LocalConfigStats] = []
        if offsets.size == 0:
            return LocalSortTrace(
                pass_index=pass_index,
                per_config=tuple(),
                key_bytes=src_keys.dtype.itemsize,
                value_bytes=src_values.dtype.itemsize if has_values else 0,
                bucket_sizes=sizes.copy(),
                bucket_remaining=(num_digits - sort_from).astype(np.int64),
            )
        config_idx = assign_configs(sizes, self.configs)
        for ci, capacity in enumerate(self.configs):
            mask = config_idx == ci
            n_buckets = int(np.count_nonzero(mask))
            if n_buckets == 0:
                continue
            total_keys = int(sizes[mask].sum())
            self._sort_class(
                capacity,
                src_keys,
                dst_keys,
                offsets[mask],
                sizes[mask],
                src_values,
                dst_values,
            )
            remaining = num_digits - sort_from[mask]
            avg_remaining = float(
                (remaining * sizes[mask]).sum() / max(1, total_keys)
            )
            per_config.append(
                LocalConfigStats(
                    capacity=capacity,
                    n_buckets=n_buckets,
                    total_keys=total_keys,
                    provisioned_keys=n_buckets * capacity,
                    avg_remaining_digits=avg_remaining,
                )
            )
        return LocalSortTrace(
            pass_index=pass_index,
            per_config=tuple(per_config),
            key_bytes=src_keys.dtype.itemsize,
            value_bytes=src_values.dtype.itemsize if has_values else 0,
            bucket_sizes=sizes.copy(),
            bucket_remaining=(num_digits - sort_from).astype(np.int64),
        )

    def _sort_class(
        self,
        capacity: int,
        src_keys: np.ndarray,
        dst_keys: np.ndarray,
        offsets: np.ndarray,
        sizes: np.ndarray,
        src_values: np.ndarray | None,
        dst_values: np.ndarray | None,
    ) -> None:
        """Sort one configuration's buckets: slices, or padded rows."""
        if (
            src_values is None
            and int(sizes.sum()) // offsets.size >= _SLICE_SORT_MIN_AVG
        ):
            self._sort_class_slices(src_keys, dst_keys, offsets, sizes)
            return
        rows_per_batch = max(1, _BATCH_ELEMENT_LIMIT // capacity)
        for start in range(0, offsets.size, rows_per_batch):
            self._sort_batch(
                capacity,
                src_keys,
                dst_keys,
                offsets[start : start + rows_per_batch],
                sizes[start : start + rows_per_batch],
                src_values,
                dst_values,
            )

    def _sort_class_slices(
        self,
        src_keys: np.ndarray,
        dst_keys: np.ndarray,
        offsets: np.ndarray,
        sizes: np.ndarray,
    ) -> None:
        """Sort large keys-only buckets as direct destination slices.

        Copy the bucket into its (final) destination slice and sort in
        place: no pad matrix, no row/column index arrays, no scatter.
        An unstable slice sort emits the same bytes as the stable
        matrix path — a keys-only bucket's sorted content is just its
        multiset in order.
        """
        for lo, size in zip(offsets.tolist(), sizes.tolist()):
            view = dst_keys[lo : lo + size]
            np.copyto(view, src_keys[lo : lo + size])
            view.sort()

    def _sort_batch(
        self,
        capacity: int,
        src_keys: np.ndarray,
        dst_keys: np.ndarray,
        offsets: np.ndarray,
        sizes: np.ndarray,
        src_values: np.ndarray | None,
        dst_values: np.ndarray | None,
    ) -> None:
        n_rows = offsets.size
        if int(sizes.min()) == int(sizes.max()):
            # Uniform batch: every bucket has the same width, so the rows
            # gather dense — no pad matrix, no fill, no per-key indices.
            width = int(sizes[0])
            flat_src = (
                offsets[:, None] + np.arange(width, dtype=np.int64)
            ).reshape(-1)
            matrix = src_keys[flat_src].reshape(n_rows, width)
            if src_values is None:
                matrix.sort(axis=1)
                dst_keys[flat_src] = matrix.reshape(-1)
                return
            order = np.argsort(matrix, axis=1, kind="stable")
            dst_keys[flat_src] = np.take_along_axis(
                matrix, order, axis=1
            ).reshape(-1)
            vmatrix = src_values[flat_src].reshape(n_rows, width)
            dst_values[flat_src] = np.take_along_axis(
                vmatrix, order, axis=1
            ).reshape(-1)
            return
        pad_value = np.iinfo(src_keys.dtype).max
        matrix = self._scratch_matrix(
            "keys", src_keys.dtype, n_rows, capacity
        )
        matrix[...] = pad_value
        row_ids = np.repeat(np.arange(n_rows, dtype=np.int64), sizes)
        col_ids = concatenated_aranges(sizes)
        flat_src = offsets[row_ids] + col_ids
        matrix[row_ids, col_ids] = src_keys[flat_src]
        if src_values is None:
            matrix.sort(axis=1)
            dst_keys[flat_src] = matrix[row_ids, col_ids]
            return
        order = np.argsort(matrix, axis=1, kind="stable")
        sorted_keys = np.take_along_axis(matrix, order, axis=1)
        dst_keys[flat_src] = sorted_keys[row_ids, col_ids]
        # Values ride along: build the value matrix, permute identically.
        # Padding cells stay uninitialised — a stable sort keeps real
        # keys (even ones equal to the pad value) ahead of the padding
        # columns, so garbage never lands in the first `size` columns.
        vmatrix = self._scratch_matrix(
            "values", src_values.dtype, n_rows, capacity
        )
        vmatrix[row_ids, col_ids] = src_values[flat_src]
        sorted_values = np.take_along_axis(vmatrix, order, axis=1)
        dst_values[flat_src] = sorted_values[row_ids, col_ids]


def block_radix_sort_shared(
    keys: np.ndarray,
    geometry: DigitGeometry,
    from_digit: int = 0,
    values: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray | None]:
    """Faithful in-shared-memory LSD block radix sort (§4.1, §4.6).

    Sorts one bucket whose keys already agree on MSD digits
    ``[0, from_digit)`` by running stable counting-sort passes from the
    least-significant digit up to (and including) MSD digit
    ``from_digit`` — "we can tune an LSD radix sort to only sort on the
    remaining digits".  Device memory would be touched exactly twice
    (read + write); everything here happens on the in-register copy.
    """
    if not 0 <= from_digit <= geometry.num_digits:
        raise ConfigurationError("from_digit out of range")
    keys = np.asarray(keys).copy()
    out_values = np.asarray(values).copy() if values is not None else None
    remaining = geometry.remaining_digits(from_digit)
    for lsd_index in range(remaining):
        digits = extract_digit_lsd(keys, geometry, lsd_index)
        order = np.argsort(digits, kind="stable")
        keys = keys[order]
        if out_values is not None:
            out_values = out_values[order]
    return keys, out_values
