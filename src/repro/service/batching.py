"""Micro-batching: many small sorts as one vectorized engine dispatch.

The paper's §4 insight for small problems is that buckets below the
local-sort threshold should be finished in one on-chip pass — and the
host realisation of that, :class:`~repro.core.local_sort.
LocalSortEngine`, is *already* a machine for sorting many independent
segments in one vectorized call: it pads same-class buckets into a
matrix and sorts along rows, or sorts large buckets as direct disjoint
slices.  A burst of small service requests is exactly that workload
with the word "bucket" replaced by "request": each request's array
becomes one segment of a concatenated batch, and the whole batch
finishes in one engine dispatch instead of paying the per-call facade
overhead (planning, config derivation, buffer setup, trace pricing)
once per tiny request.

Compatibility is strict — requests coalesce only when their key (and
value) dtypes match bit for bit (:meth:`~repro.service.request.
SortRequest.batch_group`) — so the batch path can run in bits space
once for everyone and still hand back byte-identical per-request
results: keys-only output is the sorted multiset, and pair output uses
the same stable order-by-key the engines guarantee.
"""

from __future__ import annotations

import numpy as np

from repro.core.digits import DigitGeometry
from repro.core.keys import bits_dtype_for, from_sortable_bits, to_sortable_bits
from repro.core.local_sort import LocalSortEngine
from repro.core.pairs import recompose
from repro.service.request import SortRequest
from repro.types import SortResult

__all__ = ["BATCHABLE_STRATEGIES", "batch_configs", "execute_batch"]

#: Planned strategies the batch path may stand in for: the in-memory
#: whole-array sorts, on any rung (every engine writes the same
#: bytes).  Chunked/external plans carry per-request budgeting the
#: shared dispatch has no equivalent of.
BATCHABLE_STRATEGIES = ("library", "native", "hybrid", "fallback")

#: Smallest configuration capacity of the generated ladder.
_MIN_CONFIG = 32


def batch_configs(max_segment: int) -> tuple[int, ...]:
    """A §4.2-style capacity ladder covering segments up to ``max_segment``.

    Powers of two from 32 up to the first capacity that fits the
    largest segment, so small requests in a mixed batch are not padded
    to the largest request's width.

    >>> batch_configs(1000)
    (32, 64, 128, 256, 512, 1024)
    """
    cap = _MIN_CONFIG
    ladder = [cap]
    while cap < max_segment:
        cap *= 2
        ladder.append(cap)
    return tuple(ladder)


def execute_batch(requests: list[SortRequest]) -> list[SortResult]:
    """Sort every request's payload in one vectorized engine dispatch.

    All requests must share one :meth:`~repro.service.request.
    SortRequest.batch_group`.  Returns one :class:`~repro.types.
    SortResult` per request, in request order, each byte-identical to
    what a direct ``repro.sort`` / ``repro.sort_pairs`` call would have
    produced for that payload alone.
    """
    first = requests[0].descriptor
    key_dtype = first.key_dtype
    has_values = first.value_dtype is not None
    sizes = np.array([r.descriptor.n for r in requests], dtype=np.int64)
    bounds = np.concatenate(([0], np.cumsum(sizes)))
    total = int(bounds[-1])

    bits_dtype = bits_dtype_for(key_dtype)
    src_bits = np.empty(total, dtype=bits_dtype)
    src_values = None
    for request, lo, hi in zip(requests, bounds[:-1], bounds[1:]):
        if hi > lo:
            src_bits[lo:hi] = to_sortable_bits(request.keys)
    if has_values:
        src_values = np.empty(total, dtype=first.value_dtype)
        for request, lo, hi in zip(requests, bounds[:-1], bounds[1:]):
            if hi > lo:
                src_values[lo:hi] = np.asarray(request.values)

    # Zero-length segments cannot enter the engine (buckets must be
    # non-empty); they resolve to trivially empty outputs below.
    nonempty = sizes > 0
    dst_bits = np.empty_like(src_bits)
    dst_values = np.empty_like(src_values) if has_values else None
    if nonempty.any():
        max_segment = int(sizes.max())
        geometry = DigitGeometry(
            key_bits=bits_dtype.itemsize * 8, digit_bits=8
        )
        engine = LocalSortEngine(batch_configs(max_segment), geometry)
        engine.execute(
            0,
            src_bits,
            dst_bits,
            offsets=bounds[:-1][nonempty],
            sizes=sizes[nonempty],
            sort_from=np.zeros(int(nonempty.sum()), dtype=np.int64),
            src_values=src_values,
            dst_values=dst_values,
        )

    results = []
    batch_size = len(requests)
    for request, lo, hi in zip(requests, bounds[:-1], bounds[1:]):
        keys = from_sortable_bits(dst_bits[lo:hi], key_dtype)
        values = dst_values[lo:hi].copy() if has_values else None
        result = SortResult(
            keys=keys,
            values=values,
            meta={"engine": "service-batch", "batch_size": batch_size},
        )
        if request.kind == "records":
            result.meta["records"] = recompose(keys, values)
        results.append(result)
    return results
